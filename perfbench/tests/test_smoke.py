"""Fast smoke test of the benchmark: every workload at a tiny size, traced and
untraced, emits each metric BENCHMARK.json declares, with its unit, and no
seed fails.  The full-size runs stay out of the test suite."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

if not run.source_present():
    pytest.skip("sortplant sources not present", allow_module_level=True)
sys.path.insert(0, str(run.SRC))

from workloads import WORKLOADS, check_unit, make_unit, run_unit  # noqa: E402
from spans import Tracer  # noqa: E402

TINY = {
    "ga-campaign": {"extra_args": ("--pop", "4", "--gens", "1"), "trace_units": 1},
    "closed-loop": {"seeds_per_unit": 3, "trace_units": 2},
    "brute-short": {"horizon": 6, "trace_units": 1},
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], check_reference=False, **TINY[name])


def declared(kind):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


def test_tiny_sizes_cover_every_workload():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS) == sorted(TINY)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_every_declared_metric(name, trace, tmp_path):
    report = run.run_benchmark(tiny(name), seed=7, seconds=0.0, trace=trace, out_root=tmp_path, probes=1)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0 and report["fail_ratio"] == 0
    assert result["attempted"] >= 1
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.top_coverage"]["value"] >= 0.95


def test_default_seed_digests_match_expected(tmp_path):
    workload = dataclasses.replace(WORKLOADS["closed-loop"], trace_units=1)
    report = run.run_benchmark(workload, seed=0, seconds=0.0, trace=True, out_root=tmp_path)
    assert report["reference"]["match"]
    assert report["result"]["correct"]


def test_tracer_restores_every_patched_name():
    import sortplant.env

    def snapshot():
        names = {(m, a): v for m, mod in sys.modules.items() if m.startswith("sortplant") for a, v in vars(mod).items()}
        return names, sortplant.env.InputTape.batch

    before = snapshot()
    with Tracer(spans=True):
        assert snapshot() != before
    assert snapshot() == before


def test_check_catches_a_changed_reward(tmp_path):
    workload = tiny("closed-loop")
    unit = make_unit(workload, 7, 0, tmp_path / "u0")
    with Tracer(spans=False) as tracer:
        run_unit(workload, unit, tracer.take_results)
    assert check_unit(workload, unit) == {}
    csv = unit.out / "per_seed.csv"
    header, first, *rest = csv.read_text(encoding="utf-8").splitlines()
    strategy, seed, reward = first.split(",")
    csv.write_text("\n".join([header, f"{strategy},{seed},{float(reward) + 1e-12!r}", *rest]) + "\n", encoding="utf-8")
    assert set(check_unit(workload, unit)) == {int(seed)}


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["command"]
    argv = [sys.executable, *command[1:], "--workload", "closed-loop", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
