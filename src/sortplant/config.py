"""Plant configuration: defaults, invariants, and config-file loading.

The config file is a YAML mapping whose keys mirror :class:`EnvConfig` field
names exactly.  Unknown keys are a hard error; absent keys take the defaults
below.  The resolved config is echoed into every output artifact.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any


# 1000x the default episode: every command runs episode_len steps per
# episode, so a larger value only makes a run hang
MAX_EPISODE_LEN = 100_000


class ConfigError(ValueError):
    """Unknown key, bad value type, or violated config invariant."""


@dataclass(frozen=True)
class EnvConfig:
    """All plant and stochastic-model parameters.

    Materials are A, B, C, D (indices 0..3); container E (index 4) collects
    whatever the four sorting stations leave behind.
    """

    n_materials: int = 4
    episode_len: int = 100
    purity_thresholds: tuple[float, ...] = (0.85, 0.80, 0.75, 0.70)
    penalty_factor: float = 5.0
    baseline_accuracy: float = 0.80
    boost_noise: float = 0.02
    degradation_coeff: float = 0.30
    accuracy_jitter: float = 0.02
    # tuned so an equal-mix unboosted deposit has purity ~= 0.84, near the
    # tightest threshold: 0.8 / (0.8 + 0.2 * 0.75) = 0.8421
    contamination_coeff: float = 0.75
    batch_min: float = 20.0
    batch_max: float = 100.0
    seasonal_amplitude: float = 0.5
    seasonal_period: int = 50
    belt_delay: int = 2
    pressing_threshold: float = 200.0
    container_capacity: float = 300.0
    n_presses: int = 2
    press_duration: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "purity_thresholds", tuple(float(x) for x in self.purity_thresholds))
        self._validate()

    def _validate(self) -> None:
        # nan compares false against every bound below, and inf passes the
        # one-sided ones, so reject non-finite floats before any range check
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(v) for v in values if isinstance(v, float)):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.n_materials != 4:
            raise ConfigError("n_materials is fixed at 4 (materials A..D)")
        if self.n_presses != 2:
            raise ConfigError("n_presses is fixed at 2")
        if not 1 <= self.episode_len <= MAX_EPISODE_LEN:
            raise ConfigError(f"episode_len must lie in [1, {MAX_EPISODE_LEN}], got {self.episode_len}")
        if len(self.purity_thresholds) != 4:
            raise ConfigError("purity_thresholds must list exactly 4 fractions")
        if not all(0.0 < x < 1.0 for x in self.purity_thresholds):
            raise ConfigError("purity_thresholds must lie strictly inside (0, 1)")
        if self.penalty_factor <= 0.0:
            raise ConfigError("penalty_factor must be > 0")
        if not 0.0 < self.baseline_accuracy <= 1.0 - self.boost_noise <= 1.0:
            raise ConfigError("need 0 < baseline_accuracy <= 1 - boost_noise <= 1")
        if not 0.0 <= self.degradation_coeff <= 1.0:
            raise ConfigError("degradation_coeff must lie in [0, 1]")
        if not 0.0 <= self.contamination_coeff <= 1.0:
            raise ConfigError("contamination_coeff must lie in [0, 1]")
        if self.accuracy_jitter < 0.0:
            raise ConfigError("accuracy_jitter must be >= 0")
        if not 0.0 <= self.batch_min <= self.batch_max:
            raise ConfigError("need 0 <= batch_min <= batch_max")
        if self.batch_max <= 0.0:
            raise ConfigError("batch_max must be > 0")
        if self.seasonal_amplitude < 0.0:
            raise ConfigError("seasonal_amplitude must be >= 0")
        if self.seasonal_period < 1:
            raise ConfigError("seasonal_period must be >= 1")
        if self.belt_delay < 0:
            raise ConfigError("belt_delay must be >= 0")
        if not 0.0 < self.pressing_threshold <= self.container_capacity:
            raise ConfigError("need 0 < pressing_threshold <= container_capacity")
        if self.press_duration < 0:
            raise ConfigError("press_duration must be >= 0")


def config_from_mapping(raw: dict[str, Any]) -> EnvConfig:
    """Build a validated config from a plain mapping (config file contents)."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a key/value mapping, got {type(raw).__name__}")
    defaults = {f.name: f.default for f in dataclasses.fields(EnvConfig)}
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    kwargs: dict[str, Any] = {}
    for key, value in raw.items():
        if key == "purity_thresholds":
            if not isinstance(value, (list, tuple)):
                raise ConfigError("purity_thresholds must be a list of 4 numbers")
            kwargs[key] = tuple(_as_float(key, v) for v in value)
        elif type(defaults[key]) is int:  # an integer field, as its default says
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"config key '{key}' must be an integer, got {value!r}")
            kwargs[key] = value
        else:
            kwargs[key] = _as_float(key, value)
    return EnvConfig(**kwargs)


def _as_float(key: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key '{key}' must be a number, got {value!r}")
    return float(value)


def load_config(path: str | Path) -> EnvConfig:
    """Load and validate a YAML config file; absent keys take the defaults.
    A file that is not UTF-8 or not YAML raises :class:`ConfigError`."""
    # imported here: PyYAML adds about 1 MB of resident memory and 16 ms to
    # every process, and only a run given a config file needs it
    import yaml

    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"config file {path} is not a readable YAML file: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a key/value mapping")
    return config_from_mapping(raw)


def config_to_dict(config: EnvConfig) -> dict[str, Any]:
    """Plain-serializable echo of a resolved config, in field order."""
    out = dataclasses.asdict(config)
    out["purity_thresholds"] = list(config.purity_thresholds)
    return out


def defaults_table() -> list[tuple[str, Any]]:
    """(name, default) pairs for every config field, in declaration order."""
    return [(f.name, f.default if f.default is not dataclasses.MISSING else None) for f in dataclasses.fields(EnvConfig)]
