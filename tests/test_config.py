"""Config defaults, invariant validation, and file loading."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import sortplant
from sortplant.config import MAX_EPISODE_LEN, ConfigError, EnvConfig, config_from_mapping, config_to_dict, load_config


def test_defaults_are_the_documented_values():
    cfg = EnvConfig()
    assert cfg.n_materials == 4
    assert cfg.episode_len == 100
    assert cfg.purity_thresholds == (0.85, 0.80, 0.75, 0.70)
    assert cfg.penalty_factor == 5.0
    assert cfg.baseline_accuracy == 0.80
    assert cfg.boost_noise == 0.02
    assert cfg.degradation_coeff == 0.30
    assert cfg.accuracy_jitter == 0.02
    assert cfg.contamination_coeff == 0.75
    assert (cfg.batch_min, cfg.batch_max) == (20.0, 100.0)
    assert (cfg.seasonal_amplitude, cfg.seasonal_period) == (0.5, 50)
    assert cfg.belt_delay == 2
    assert (cfg.pressing_threshold, cfg.container_capacity) == (200.0, 300.0)
    assert (cfg.n_presses, cfg.press_duration) == (2, 3)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"baseline_accuracy": 0.0},
        {"baseline_accuracy": 0.99, "boost_noise": 0.02},  # baseline > 1 - noise
        {"degradation_coeff": 1.5},
        {"contamination_coeff": -0.1},
        {"batch_min": 50.0, "batch_max": 10.0},
        {"pressing_threshold": 400.0},  # above capacity
        {"purity_thresholds": (0.85, 0.80, 0.75)},
        {"purity_thresholds": (0.85, 0.80, 0.75, 1.0)},
        {"penalty_factor": 0.0},
        {"episode_len": 0},
        {"episode_len": MAX_EPISODE_LEN + 1},
        {"n_materials": 5},
        {"n_presses": 1},
        {"seasonal_period": 0},
        {"belt_delay": -1},
        # one non-finite value per float field
        {"purity_thresholds": (0.85, 0.80, float("nan"), 0.70)},
        {"penalty_factor": float("nan")},
        {"baseline_accuracy": float("nan")},
        {"boost_noise": float("inf")},
        {"degradation_coeff": float("nan")},
        {"accuracy_jitter": float("nan")},
        {"contamination_coeff": float("-inf")},
        {"batch_min": float("-inf")},
        {"batch_max": float("inf")},
        {"seasonal_amplitude": float("inf")},
        {"pressing_threshold": float("nan")},
        {"container_capacity": float("inf")},
    ],
)
def test_invariant_violations_raise(kwargs):
    with pytest.raises(ConfigError):
        EnvConfig(**kwargs)


def test_load_defaults_for_absent_keys(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("episode_len: 20\nbatch_max: 50\n")
    cfg = load_config(path)
    assert cfg.episode_len == 20
    assert cfg.batch_max == 50.0
    assert cfg.pressing_threshold == 200.0


def test_unknown_key_is_a_hard_error_naming_the_key(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("episode_len: 20\npressing_treshold: 100\n")
    with pytest.raises(ConfigError, match="pressing_treshold"):
        load_config(path)


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("")
    assert load_config(path) == EnvConfig()


def test_non_mapping_file_rejected(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_type_errors_rejected():
    with pytest.raises(ConfigError):
        config_from_mapping({"episode_len": 12.5})
    with pytest.raises(ConfigError):
        config_from_mapping({"batch_max": "big"})
    with pytest.raises(ConfigError):
        config_from_mapping({"purity_thresholds": 0.8})


@pytest.mark.parametrize("key", ["n_materials", "episode_len", "seasonal_period", "belt_delay", "n_presses", "press_duration"])
def test_integer_keys_reject_floats_and_booleans(key):
    # the integer keys are the fields whose default is an int
    for value in (2.0, True):
        with pytest.raises(ConfigError, match=f"'{key}' must be an integer"):
            config_from_mapping({key: value})


def test_yaml_non_finite_values_rejected(tmp_path):
    path = tmp_path / "cfg.yaml"
    for text in ("penalty_factor: .nan\n", "batch_max: .inf\n"):
        path.write_text(text)
        with pytest.raises(ConfigError, match="finite"):
            load_config(path)


def test_echo_round_trips():
    cfg = EnvConfig(episode_len=7, contamination_coeff=0.5)
    assert config_from_mapping(config_to_dict(cfg)) == cfg


def test_importing_the_cli_leaves_yaml_unloaded():
    # PyYAML is imported only by load_config, so a run without --config never pays for it
    src = os.path.dirname(os.path.dirname(sortplant.__file__))
    probe = "import sys, sortplant.cli; print('yaml' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.strip() == "False"
