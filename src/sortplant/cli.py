"""Command-line entry point.

Subcommands: simulate, brute, ga, demo-gen, validate, bench, defaults.
Exit codes: 0 success, 1 usage or config error, 2 validation failure,
3 I/O error.  Progress and timing go to stderr; machine-readable results go
to files or stdout, and never depend on timing.  --workers N (N >= 1) on
demo-gen and bench spreads campaign seeds or bench cells over N processes
through planners.parallel_map; it changes wall time only, never any number.
At most os.cpu_count() processes are opened, whatever N.  Only those two
commands take --workers: the GA scores each generation in one batched call,
and brute walks its decision tree in one process.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from time import perf_counter
from typing import Optional, Sequence

from . import bench as bench_mod
from . import demo as demo_mod
from . import planners as planners_mod
from .baselines import POLICY_NAMES, make_policy, run_policy
from .config import ConfigError, EnvConfig, config_to_dict, defaults_table, load_config
from .env import ContractViolation
from .planners import GaParams, brute_force, ga_optimize, rollout
from .trajio import Transition, transition_to_line


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def parse_seed_spec(spec: str, max_count: int = demo_mod.MAX_CAMPAIGN_SEEDS, pool: Optional[range] = None) -> list[int]:
    """Seed list syntax: 'start..end' (end exclusive), 'a,b,c', or a single int.

    At most ``max_count`` seeds (by default the campaign cap, the largest
    any command takes), all inside ``pool`` when one is given; a range is
    checked against both before its seeds are built.
    """
    spec = spec.strip()
    if ".." in spec:
        lo_s, _, hi_s = spec.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise UsageError(f"bad seed range {spec!r}; expected start..end") from None
        if hi <= lo:
            raise UsageError(f"empty seed range {spec!r}")
        _check_seeds(spec, hi - lo, lo, hi - 1, max_count, pool)
        return list(range(lo, hi))
    try:
        seeds = [int(part) for part in spec.split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"bad seed list {spec!r}") from None
    if seeds:
        _check_seeds(spec, len(seeds), min(seeds), max(seeds), max_count, pool)
    return seeds


def _check_seeds(spec: str, count: int, low: int, high: int, max_count: int, pool: Optional[range]) -> None:
    if pool is not None and not (pool.start <= low and high < pool.stop):
        raise UsageError(f"seed spec {spec!r} reaches outside [{pool.start}, {pool.stop})")
    if count > max_count:
        raise UsageError(f"seed spec {spec!r} names {count} seeds; at most {max_count} are allowed")


def _add_config_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="YAML config file (defaults apply when omitted)")


def _add_ga_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pop", type=int, default=GaParams.population, help="GA population size")
    p.add_argument("--gens", type=int, default=GaParams.generations, help="GA generations")
    p.add_argument("--cx", type=float, default=GaParams.crossover_rate, help="GA crossover rate")
    p.add_argument("--mut", type=float, default=GaParams.mutation_rate, help="GA per-bit mutation rate")
    p.add_argument("--ga-seed", type=int, default=GaParams.ga_seed, help="GA stream seed")


def build_parser() -> _Parser:
    parser = _Parser(prog="sortplant", description="Waste-sorting plant simulator, planners, and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one closed-loop or scripted episode and write its trajectory")
    _add_config_arg(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--policy", choices=POLICY_NAMES, help="closed-loop policy (alternative to --actions)")
    p.add_argument("--policy-seed", type=int, default=None, help="seed for the random policy (default: --seed)")
    p.add_argument("--actions", default=None, help="scripted 0/1 action string (alternative to --policy)")
    p.add_argument("--len", type=int, default=None, help="steps to run (default: episode_len)")
    p.add_argument("--out", type=Path, required=True, help="trajectory file to write")

    p = sub.add_parser("brute", help="exhaustive search over all action sequences of a short horizon")
    _add_config_arg(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--out", type=Path, default=None, help="also write the result record here")

    p = sub.add_parser("ga", help="evolve an action sequence against one frozen seed")
    _add_config_arg(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--len", type=int, required=True)
    _add_ga_args(p)
    p.add_argument("--out", type=Path, default=None, help="also write the result record here")

    p = sub.add_parser("demo-gen", help="run a demonstration campaign over a seed range")
    _add_config_arg(p)
    p.add_argument(
        "--seeds", required=True, help=f"campaign seeds, e.g. 1000..1240; at most {demo_mod.MAX_CAMPAIGN_SEEDS}"
    )
    _add_ga_args(p)
    p.add_argument("--min-improvement", type=float, default=demo_mod.DEFAULT_MIN_IMPROVEMENT)
    p.add_argument("--out", type=Path, required=True, help="dataset directory")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("validate", help="re-check a demonstration dataset against its manifest")
    p.add_argument("dataset", type=Path)

    p = sub.add_parser("bench", help="evaluate strategies over a seed set")
    _add_config_arg(p)
    p.add_argument("--strategies", default="R,RB,GA", help="comma list from R,RB,BF,GA")
    p.add_argument("--seeds", required=True, help=f"benchmark seeds in [0, {demo_mod.BENCH_SEED_LIMIT}), e.g. 0..100")
    p.add_argument("--len", type=int, required=True)
    _add_ga_args(p)
    p.add_argument("--external", type=Path, default=None, help="CSV of external scores to merge (strategy,seed,reward)")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--workers", type=int, default=1)

    sub.add_parser("defaults", help="print every tunable default")
    return parser


def _resolve_config(args: argparse.Namespace) -> EnvConfig:
    if getattr(args, "config", None) is None:
        return EnvConfig()
    return load_config(args.config)


def _ga_params(args: argparse.Namespace) -> GaParams:
    return GaParams(
        population=args.pop,
        generations=args.gens,
        crossover_rate=args.cx,
        mutation_rate=args.mut,
        ga_seed=args.ga_seed,
    )


def _report_rate(command: str, evaluations: int, wall: float) -> None:
    print(f"{command}: {evaluations} evaluations in {wall:.3f} s ({evaluations / wall:.0f} episodes/s)", file=sys.stderr)


def _emit(payload: dict, out: Optional[Path]) -> None:
    text = json.dumps(payload)
    if out is not None:
        out.write_text(text + "\n", encoding="utf-8")
    print(text)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    if args.len is not None and args.len < 1:
        raise UsageError(f"--len must be >= 1, got {args.len}")
    n = args.len if args.len is not None else config.episode_len
    if args.actions is not None:
        if args.policy is not None:
            raise UsageError("--actions and --policy are mutually exclusive")
        if not args.actions or not set(args.actions) <= {"0", "1"}:
            raise UsageError("--actions must be a nonempty 0/1 string")
        actions = [int(b) for b in args.actions]
        if args.len is not None and args.len != len(actions):
            raise UsageError("--len disagrees with the length of --actions")
        total, transitions = rollout(config, args.seed, actions)
        policy_desc = {"actions": args.actions}
    else:
        if args.policy is None:
            raise UsageError("one of --policy or --actions is required")
        policy_seed = args.policy_seed if args.policy_seed is not None else args.seed
        policy = make_policy(args.policy, policy_seed=policy_seed)
        run = run_policy(config, args.seed, policy, n)
        total, transitions = run.cumulative_reward, run.transitions
        actions = run.actions
        policy_desc = {"policy": args.policy, "policy_seed": policy_seed}
    header = {
        "kind": "header",
        "config": config_to_dict(config),
        "seed": args.seed,
        **policy_desc,
        "horizon": len(actions),
        "cumulative_reward": total,
    }
    lines = [json.dumps(header)] + [transition_to_line(tr) for tr in transitions]
    args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(json.dumps({"cumulative_reward": total, "steps": len(actions), "out": str(args.out)}))
    return 0


def _cmd_brute(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    start = perf_counter()
    result = brute_force(config, args.seed, args.len)
    _report_rate("brute", result.evaluations, perf_counter() - start)
    _emit(
        {
            "sequence": "".join(map(str, result.best_sequence)),
            "reward": result.best_reward,
            "evaluations": result.evaluations,
        },
        args.out,
    )
    return 0


def _cmd_ga(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    start = perf_counter()
    result = ga_optimize(config, args.seed, args.len, _ga_params(args))
    _report_rate("ga", result.evaluations, perf_counter() - start)
    table = [list(result.initial_stats)] + [list(g) for g in result.per_generation]
    _emit(
        {
            "sequence": "".join(map(str, result.best_sequence)),
            "reward": result.best_reward,
            "evaluations": result.evaluations,
            "generations": [{"generation": g, "max": row[0], "mean": row[1], "min": row[2]} for g, row in enumerate(table)],
        },
        args.out,
    )
    return 0


def _cmd_demo_gen(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    if not math.isfinite(args.min_improvement):
        raise UsageError(f"--min-improvement must be finite, got {args.min_improvement}")
    seeds = parse_seed_spec(args.seeds, demo_mod.MAX_CAMPAIGN_SEEDS)
    print(f"demo-gen: {len(seeds)} seeds, workers={args.workers}", file=sys.stderr)
    manifest = demo_mod.run_campaign(
        config,
        seeds,
        _ga_params(args),
        min_improvement=args.min_improvement,
        out_dir=args.out,
        workers=args.workers,
    )
    print(json.dumps({"accepted": len(manifest.accepted), "rejected": len(manifest.rejected), "out": str(args.out)}))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    report = demo_mod.validate_dataset(args.dataset)
    print(report.format())
    return 0 if report.ok else 2


def _cmd_bench(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    strategies = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    seeds = tuple(parse_seed_spec(args.seeds, pool=range(demo_mod.BENCH_SEED_LIMIT)))
    spec = bench_mod.BenchSpec(strategies=strategies, seeds=seeds, horizon=args.len, ga_params=_ga_params(args))
    external = bench_mod.load_external_scores(args.external) if args.external else None
    print(
        f"bench: {len(strategies)} strategies x {len(seeds)} seeds, horizon {args.len}, workers={args.workers}",
        file=sys.stderr,
    )
    result = bench_mod.run_bench(config, spec, workers=args.workers)
    bench_mod.emit_outputs(result, args.out, config, external)
    payload = {s: dataclasses.asdict(result.summaries[s]) for s in strategies}
    print(json.dumps(payload))
    return 0


def _cmd_defaults(args: argparse.Namespace) -> int:
    print("[env]")
    for name, value in defaults_table():
        print(f"{name} = {list(value) if isinstance(value, tuple) else value}")
    print("[ga]")
    for f in dataclasses.fields(GaParams):
        print(f"{f.name} = {f.default}")
    print(f"max_population = {planners_mod.MAX_POPULATION}")
    print(f"max_generations = {planners_mod.MAX_GENERATIONS}")
    print("[demo]")
    print(f"min_improvement = {demo_mod.DEFAULT_MIN_IMPROVEMENT}")
    print(f"campaign_seed_min = {demo_mod.BENCH_SEED_LIMIT}")
    print(f"max_campaign_seeds = {demo_mod.MAX_CAMPAIGN_SEEDS}")
    print("[bench]")
    print(f"bench_seed_range = 0..{demo_mod.BENCH_SEED_LIMIT}")
    print(f"strategies = {','.join(bench_mod.STRATEGIES)}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "brute": _cmd_brute,
    "ga": _cmd_ga,
    "demo-gen": _cmd_demo_gen,
    "validate": _cmd_validate,
    "bench": _cmd_bench,
    "defaults": _cmd_defaults,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
