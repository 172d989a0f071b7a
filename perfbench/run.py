"""sortplant benchmark: three single-process workloads, end to end and per layer.

    python3 perfbench/run.py --workload ga-campaign --seed 0 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` next to
this directory; without it the command exits with code 2 and prints no
result.  With ``--trace 0`` the run repeats units of the workload for
``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it runs
a fixed number of units under the span tracer, replays them untraced, and
reports the per-layer metrics.  Either way every output is checked after the
timed region.  The last stdout line is the result object; the line before it
is the full report (quartiles, sample counts, provenance), also written to
``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Optional, Sequence

import numpy as np

from calibrate import loop as calibrate_loop
from spans import Tracer
from workloads import (
    DEFAULT_SEED,
    WORKLOADS,
    Unit,
    Workload,
    check_unit,
    expected_reference,
    make_unit,
    reference_digest,
    run_unit,
    tree_digest,
    unit_argvs,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBE = HERE / "probe.py"
SETUP_PROBES = 7
# calibrate.loop's time on the development host when nothing else competes for
# it; normalised figures are expressed at that host speed
REFERENCE_CALIBRATION_S = 0.25
CALIBRATION_INTERVAL_S = 3.0

# per-layer metric groups; README.md maps each to the end-to-end metric it moves
CALLS_AND_SELF = (
    "rng.noise_draw",
    "env.generate_input",
    "env.sort_batch",
    "env.update_containers_and_presses",
    "env.compute_reward",
    "env.advance",
    "env.reset",
    "env.build_observation",
    "env.step",
    "planners.episode_reward",
    "planners.rollout",
)
SELF_ONLY = (
    "planners.ga_optimize",
    "planners.brute_force",
    "baselines.run_policy",
    "baselines.policy",
    "demo.generate_demo",
    "demo.run_campaign",
    "demo.validate_dataset",
    "trajio.write_transitions",
    "trajio.read_transitions",
    "trajio.sha256_file",
    "bench.evaluate_strategy",
    "bench.emit_outputs",
    "cli.main",
)
GA_OPS = ("planners.tournament_select", "planners.crossover", "planners.mutate")


def source_present() -> bool:
    return (SRC / "sortplant" / "__init__.py").is_file()


def quartiles(values: Sequence[float]) -> dict:
    if len(values) < 2:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "n": len(values)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class HostSpeed:
    """Times the calibration loop now, then after any step that ends
    CALIBRATION_INTERVAL_S or more after the last sample, and at the end."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._sample()

    def _sample(self) -> None:
        start = perf_counter()
        calibrate_loop()
        self._since = perf_counter()
        self.samples.append(self._since - start)

    def step_done(self, last: bool = False) -> None:
        if last or perf_counter() - self._since >= CALIBRATION_INTERVAL_S:
            self._sample()

    @property
    def factor(self) -> float:
        """How many times slower than the reference the host ran."""
        return statistics.fmean(self.samples) / REFERENCE_CALIBRATION_S


def measure_setup(workload: Workload, probes: int, host: HostSpeed) -> list[float]:
    """Wall seconds of fresh interpreters that import the package, build the
    CLI parser, parse one unit's arguments and resolve the config."""
    argv = unit_argvs(workload, make_unit(workload, DEFAULT_SEED, 0, Path("probe-out")))[0]
    times = []
    for _ in range(probes):
        start = perf_counter()
        subprocess.run([sys.executable, str(PROBE), *argv], check=True, cwd=ROOT, timeout=60, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
        host.step_done()
    return times


def run_units(workload: Workload, seed: int, out: Path, tracer: Tracer, count: int) -> tuple[list[Unit], float]:
    """Run units 0 .. count-1; returns them with the wall time of the loop."""
    units: list[Unit] = []
    start = perf_counter()
    for i in range(count):
        units.append(make_unit(workload, seed, i, out / f"u{i}"))
        run_unit(workload, units[-1], tracer.take_results)
    return units, perf_counter() - start


def run_timed(workload: Workload, seed: int, out: Path, tracer: Tracer, seconds: float, host: HostSpeed) -> list[Unit]:
    """Run units 0, 1, ... until ``seconds`` have passed (at least one)."""
    units: list[Unit] = []
    start = perf_counter()
    while True:
        units.append(make_unit(workload, seed, len(units), out / f"u{len(units)}"))
        run_unit(workload, units[-1], tracer.take_results)
        done = perf_counter() - start >= seconds
        host.step_done(last=done)
        if done:
            return units


def run_benchmark(
    workload: Workload, seed: int, seconds: float, trace: bool, out_root: Path, probes: int = SETUP_PROBES
) -> dict:
    """One benchmark run; returns the report, whose ``result`` is the final line."""
    work = out_root / f"work-{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report: dict = {"workload": workload.name, "trace": int(trace)}
    failed: dict[tuple[str, int], str] = {}  # (unit directory, env seed) -> reason
    try:
        if not trace:
            host = HostSpeed()
            setup = measure_setup(workload, probes, host)
            with Tracer(spans=False) as tracer:
                units = run_timed(workload, seed, work / "timed", tracer, seconds, host)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wall_setup_s = statistics.median(setup)
            wall_seeds_per_s = sum(len(u.env_seeds) for u in units) / sum(u.wall for u in units)
            metrics = {
                "setup_s": (wall_setup_s / host.factor, "s"),
                "seeds_per_s": (wall_seeds_per_s * host.factor, "seeds/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            report["wall"] = {"setup_s": wall_setup_s, "seeds_per_s": wall_seeds_per_s, "host_factor": host.factor}
            report["samples"] = {
                "setup_s": quartiles(setup),
                "seeds_per_s": quartiles([len(u.env_seeds) / u.wall for u in units]),  # per unit, wall
                "peak_rss_mb": {"n": 1},
                "calibration_s": quartiles(host.samples),
            }
        else:
            with Tracer(spans=True) as tracer:
                units, traced_wall = run_units(workload, seed, work / "traced", tracer, workload.trace_units)
            with Tracer(spans=False) as plain:
                replays, untraced_wall = run_units(workload, seed, work / "untraced", plain, workload.trace_units)
            for unit, replay in zip(units, replays):
                if tree_digest(unit.out) != tree_digest(replay.out):
                    for s in unit.env_seeds:
                        failed[(unit.label, s)] = "traced outputs differ from untraced outputs"
            metrics = layer_metrics(tracer, units, traced_wall, untraced_wall)
            tracer.write(out_root / f"spans-{workload.name}.npz")
            report.update(traced_wall_s=traced_wall, untraced_wall_s=untraced_wall, spans=len(tracer.span_name))

        if workload.check_reference:
            ref_unit = units[0]
            if seed != DEFAULT_SEED:
                with Tracer(spans=False) as plain:
                    (ref_unit,), _ = run_units(workload, DEFAULT_SEED, work / "reference", plain, 1)
                units.append(ref_unit)
            report["reference"] = _reference(workload, ref_unit, failed)

        attempted = 0
        for unit in units:
            attempted += len(unit.env_seeds)
            for s, reason in check_unit(workload, unit).items():
                failed.setdefault((unit.label, s), reason)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report["fail_ratio"] = len(failed) / attempted
    report["failures"] = [{"unit": u, "seed": s, "reason": r} for (u, s), r in sorted(failed.items())]
    report["provenance"] = provenance(seed, units)
    report["result"] = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return report


def _reference(workload: Workload, unit: Unit, failed: dict) -> dict:
    """Compare unit 0 of the default seed with expected.json."""
    expected = expected_reference(workload)
    observed = reference_digest(workload, unit) if unit.error is None and not any(unit.codes) else {}
    if observed != expected:
        for s in unit.env_seeds:
            failed[(unit.label, s)] = "default-seed digests differ from expected.json"
    return {"expected": expected, "observed": observed, "match": observed == expected}


def layer_metrics(tracer: Tracer, units: list[Unit], traced_wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
    totals = tracer.totals()

    def get(name: str) -> tuple[int, float, float]:
        return totals.get(name, (0, 0.0, 0.0))

    m: dict[str, tuple[float, str]] = {}
    for name in CALLS_AND_SELF:
        calls, self_s, _ = get(name)
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_s"] = (self_s, "s")
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = (get(name)[1], "s")
    m["planners.ga_ops.self_s"] = (sum(get(name)[1] for name in GA_OPS), "s")

    lookups = tracer.counters["InputTape.batch"]
    m["env.InputTape.hit_ratio"] = (_ratio(lookups - get("env.generate_input")[0], lookups), "ratio")
    m["env.steps_per_s"] = (get("env.advance")[0] / traced_wall, "1/s")

    ga = [(params, result) for unit in units for _, params, result in unit.ga]
    generations = sum(p.generations + 1 for p, _ in ga)
    scored = sum(p.population * (p.generations + 1) for p, _ in ga)
    m["planners.ga_generation_s"] = (_ratio(get("planners.ga_optimize")[2], generations), "s")
    m["planners.oracle.unique_ratio"] = (_ratio(sum(r.evaluations for _, r in ga), scored), "ratio")

    accepted, rejected = tracer.counters["demo.accepted"], tracer.counters["demo.rejected"]
    m["demo.accept_ratio"] = (_ratio(accepted, accepted + rejected), "ratio")
    m["trajio.write_transitions.bytes"] = (tracer.counters["trajio.bytes"], "bytes")
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    m["trace.top_coverage"] = (tracer.root_seconds() / traced_wall, "ratio")
    return m


def provenance(seed: int, units: list[Unit]) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "workload_seed": seed,
        "env_seeds": [list(u.env_seeds) for u in units],
        "ga_seeds": [u.ga_seed for u in units],
        "unit_wall_s": [u.wall for u in units],
    }


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """sha256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sortplant").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="sortplant benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not source_present():
        print(f"error: no sortplant sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out_root = ROOT / ".perfbench_runs"
    report = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), out_root)
    text = json.dumps(report)
    (out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
