"""The benchmark workloads: inputs derived from a workload seed, one unit of
work through ``sortplant.cli.main``, and the check of its outputs.

A unit is one in-process CLI job (``demo-gen`` + ``validate``, or one
``bench`` call) over a few environment seeds.  The program only sees the
generated arguments; every check below recomputes the reported numbers by a
separate route and compares them bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

# Benchmark seeds live in [0, BENCH_SEED_LIMIT); campaign seeds at or above
# it, the split the package enforces between the two seed pools.
BENCH_SEED_LIMIT = 1000
CAMPAIGN_SEED_MAX = 1_000_000

DEFAULT_SEED = 0
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "demo-gen" (then "validate") or "bench"
    strategies: str = ""
    horizon: int = 100
    seeds_per_unit: int = 1
    trace_units: int = 2
    extra_args: tuple[str, ...] = ()
    # compare unit 0 of DEFAULT_SEED with the digests in expected.json
    check_reference: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        # GA at default GaParams: the fitness loop against a warm InputTape
        Workload("ga-campaign", "demo-gen", trace_units=2),
        # fresh tape per cell, used once: input generation and observations
        Workload("closed-loop", "bench", "R,RB", 100, seeds_per_unit=25, trace_units=12),
        # 2**14 short episodes per tape: wide population, episode start cost
        Workload("brute-short", "bench", "BF", 14, trace_units=2),
    )
}


@dataclass
class Unit:
    index: int
    env_seeds: tuple[int, ...]
    ga_seed: int
    out: Path
    wall: float = 0.0
    codes: list[int] = field(default_factory=list)
    error: Optional[str] = None
    ga: list = field(default_factory=list)  # (seed, GaParams, GaResult)
    bf: list = field(default_factory=list)  # (seed, BruteForceResult)

    @property
    def label(self) -> str:
        return f"{self.out.parent.name}/{self.out.name}"


def make_unit(workload: Workload, seed: int, index: int, out: Path) -> Unit:
    """Unit ``index`` of a run with workload seed ``seed``; pure in its arguments."""
    rng = random.Random(f"{workload.name}/{seed}/{index}")
    pool = range(BENCH_SEED_LIMIT, CAMPAIGN_SEED_MAX) if workload.command == "demo-gen" else range(BENCH_SEED_LIMIT)
    env_seeds = tuple(sorted(rng.sample(pool, workload.seeds_per_unit)))
    return Unit(index, env_seeds, rng.randrange(2**31), out)


def unit_argvs(workload: Workload, unit: Unit) -> list[list[str]]:
    common = [
        "--seeds", ",".join(map(str, unit.env_seeds)),
        "--ga-seed", str(unit.ga_seed),
        "--out", str(unit.out),
        "--workers", "1",
        *workload.extra_args,
    ]  # fmt: skip
    if workload.command == "demo-gen":
        return [["demo-gen", *common], ["validate", str(unit.out)]]
    return [["bench", "--strategies", workload.strategies, "--len", str(workload.horizon), *common]]


def run_unit(workload: Workload, unit: Unit, take_results: Callable[[], tuple[list, list]]) -> None:
    """Run the unit's CLI jobs in-process and record wall time and exit codes."""
    import sortplant.cli

    sink = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in unit_argvs(workload, unit):
                unit.codes.append(sortplant.cli.main(argv))
    except Exception:  # a crash fails the unit's seeds; the run goes on
        unit.error = traceback.format_exc()
    unit.wall = perf_counter() - start
    unit.ga, unit.bf = take_results()


# ---------------------------------------------------------------------------
# output checks (outside the timed region)
# ---------------------------------------------------------------------------


def check_unit(workload: Workload, unit: Unit) -> dict[int, str]:
    """env seed -> reason, for every seed whose outputs are wrong."""
    if unit.error is not None:
        return {s: unit.error.strip().splitlines()[-1] for s in unit.env_seeds}
    if any(unit.codes):
        return {s: f"exit codes {unit.codes}" for s in unit.env_seeds}
    from sortplant.config import EnvConfig

    config = EnvConfig()
    if workload.command == "demo-gen":
        return _check_campaign(config, unit)
    return _check_bench(config, workload, unit)


def _check_campaign(config, unit: Unit) -> dict[int, str]:
    from sortplant.planners import episode_reward

    manifest = json.loads((unit.out / "manifest.json").read_text(encoding="utf-8"))
    entries = {e["seed"]: e for e in manifest["trajectories"] + manifest["rejections"]}
    results = {seed: result for seed, _, result in unit.ga}
    failed = {}
    for s in unit.env_seeds:
        result, entry = results.get(s), entries.get(s)
        if result is None or entry is None:
            failed[s] = "no GA result or manifest entry"
        elif episode_reward(config, s, result.best_sequence) != result.best_reward:
            failed[s] = "GA best sequence does not re-score to its reward"
        elif entry["ga_reward"] != result.best_reward:
            failed[s] = "manifest ga_reward differs from the GA result"
        elif "actions" in entry and entry["actions"] != _bits(result.best_sequence):
            failed[s] = "manifest actions differ from the GA best sequence"
    return failed


def _check_bench(config, workload: Workload, unit: Unit) -> dict[int, str]:
    from sortplant.baselines import random_policy, rule_based_policy
    from sortplant.env import InputTape, generate_input
    from sortplant.planners import episode_reward

    rewards = read_per_seed(unit.out / "per_seed.csv")
    results = dict(unit.bf)
    failed = {}
    for s in unit.env_seeds:
        tape = InputTape(config, s)
        for strategy in workload.strategies.split(","):
            reward = rewards.get((strategy, s))
            if reward is None:
                failed[s] = f"no {strategy} row"
            elif strategy == "BF":
                result = results.get(s)
                if result is None or result.best_reward != reward:
                    failed[s] = "BF result differs from per_seed.csv"
                elif episode_reward(config, s, result.best_sequence) != reward:
                    failed[s] = "BF best sequence does not re-score to its reward"
            elif strategy == "R":
                if advance_path_reward(config, s, workload.horizon, lambda t: random_policy(s, t), tape) != reward:
                    failed[s] = "R reward differs from the advance-path recomputation"
            elif strategy == "RB":
                delay = config.belt_delay
                head = lambda t: rule_based_policy(generate_input(config, s, t - delay))  # noqa: E731
                if advance_path_reward(config, s, workload.horizon, head, tape) != reward:
                    failed[s] = "RB reward differs from the advance-path recomputation"
    return failed


def advance_path_reward(config, seed: int, horizon: int, action_at: Callable[[int], int], tape=None) -> float:
    """Cumulative reward of per-step actions, summed through ``advance``."""
    from sortplant.env import advance, reset

    state, _ = reset(config, seed, tape)
    total = 0.0
    for t in range(horizon):
        total += advance(state, action_at(t))[0]
    return total


def read_per_seed(path: Path) -> dict[tuple[str, int], float]:
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    out = {}
    for row in rows:
        strategy, seed, reward = row.split(",")
        out[(strategy, int(seed))] = float(reward)
    return out


def _bits(seq) -> str:
    return "".join(str(b) for b in seq)


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def tree_digest(out: Path) -> dict[str, str]:
    """sha256 of every file the unit wrote, by name."""
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir()) if p.is_file()}


def reference_digest(workload: Workload, unit: Unit) -> dict:
    """The record kept in expected.json for unit 0 of the default seed."""
    name = "manifest.json" if workload.command == "demo-gen" else "per_seed.csv"
    record: dict = {name: hashlib.sha256((unit.out / name).read_bytes()).hexdigest()}
    for _, result in unit.bf:
        record["bf_best_reward"] = repr(result.best_reward)
        record["bf_best_sequence"] = _bits(result.best_sequence)
    return record


def expected_reference(workload: Workload) -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))[workload.name]
