"""Span tracer that wraps sortplant's public functions from outside the package.

Installing a :class:`Tracer` replaces each listed function in every
``sortplant`` module that holds it (``sortplant.env.noise_draw``,
``sortplant.baselines.noise_draw``, ``sortplant.rng.noise_draw``, ...), so
calls between modules go through the wrapper.  Spans (name, start, end,
parent) are kept in flat arrays in memory and written out once, when the run
ends; self time is computed from them afterwards.

With spans off, only ``ga_optimize`` and ``brute_force`` are wrapped, because
the output check needs their best sequences.  Each runs once per environment
seed, so the wrappers cost nothing measurable.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

# (module, attribute, span name); the span name is the per-layer metric prefix
SPANNED = (
    ("sortplant.rng", "noise_draw", "rng.noise_draw"),
    ("sortplant.env", "generate_input", "env.generate_input"),
    ("sortplant.env", "sort_batch", "env.sort_batch"),
    ("sortplant.env", "update_containers_and_presses", "env.update_containers_and_presses"),
    ("sortplant.env", "compute_reward", "env.compute_reward"),
    ("sortplant.env", "advance", "env.advance"),
    ("sortplant.env", "reset", "env.reset"),
    ("sortplant.env", "build_observation", "env.build_observation"),
    ("sortplant.env", "step", "env.step"),
    ("sortplant.planners", "episode_reward", "planners.episode_reward"),
    ("sortplant.planners", "rollout", "planners.rollout"),
    ("sortplant.planners", "tournament_select", "planners.tournament_select"),
    ("sortplant.planners", "crossover", "planners.crossover"),
    ("sortplant.planners", "mutate", "planners.mutate"),
    ("sortplant.planners", "ga_optimize", "planners.ga_optimize"),
    ("sortplant.planners", "brute_force", "planners.brute_force"),
    ("sortplant.baselines", "run_policy", "baselines.run_policy"),
    ("sortplant.demo", "generate_demo", "demo.generate_demo"),
    ("sortplant.demo", "run_campaign", "demo.run_campaign"),
    ("sortplant.demo", "validate_dataset", "demo.validate_dataset"),
    ("sortplant.trajio", "write_transitions", "trajio.write_transitions"),
    ("sortplant.trajio", "read_transitions", "trajio.read_transitions"),
    ("sortplant.trajio", "sha256_file", "trajio.sha256_file"),
    ("sortplant.bench", "evaluate_strategy", "bench.evaluate_strategy"),
    ("sortplant.bench", "emit_outputs", "bench.emit_outputs"),
    ("sortplant.cli", "main", "cli.main"),
)
POLICY_SPAN = "baselines.policy"
RESULT_HOOKS = ("ga_optimize", "brute_force")

_ROOT = -1


class Tracer:
    """Records spans around the package's public functions while installed.

    With ``spans=False`` only the RESULT_HOOKS functions are wrapped;
    ``ga_runs`` and ``bf_runs`` collect their results either way.
    """

    def __init__(self, spans: bool) -> None:
        self.spans = spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [_ROOT]
        self.counters: Counter[str] = Counter()
        self.ga_runs: list[tuple[int, object, object]] = []  # (seed, params, GaResult)
        self.bf_runs: list[tuple[int, object]] = []  # (seed, BruteForceResult)
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        # import every module first, so that none binds a wrapper by a later import
        modules = {module: importlib.import_module(module) for module, _, _ in SPANNED}
        for module, attr, name in SPANNED:
            if self.spans or attr in RESULT_HOOKS:
                original = getattr(modules[module], attr)
                self._replace(original, self._span(name, original, self._after_hook(attr)))
        if self.spans:
            tape = modules["sortplant.env"].InputTape
            self._replace_attr(tape, "batch", self._counted("InputTape.batch", tape.batch))
            make_policy = modules["sortplant.baselines"].make_policy
            self._replace(make_policy, self._policy_factory(make_policy))
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _replace(self, original: Callable, wrapped: Callable) -> None:
        """Rebind every sortplant module attribute that holds ``original``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "sortplant" or name.startswith("sortplant.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace_attr(module, attr, wrapped)

    def _replace_attr(self, owner: object, attr: str, wrapped: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn: Callable, after: Callable | None) -> Callable:
        nid = self._id(name)
        names, parents, starts, ends, stack = self.span_name, self.span_parent, self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = start
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _policy_factory(self, make_policy: Callable) -> Callable:
        span = functools.partial(self._span, POLICY_SPAN)

        @functools.wraps(make_policy)
        def wrapper(*args, **kwargs):
            return span(make_policy(*args, **kwargs), None)

        return wrapper

    def _after_hook(self, attr: str) -> Callable | None:
        if attr == "ga_optimize":
            return lambda args, kwargs, result: self.ga_runs.append((_arg(args, kwargs, 1, "seed"), _arg(args, kwargs, 3, "params"), result))
        if attr == "brute_force":
            return lambda args, kwargs, result: self.bf_runs.append((_arg(args, kwargs, 1, "seed"), result))
        if attr == "write_transitions":
            return lambda args, kwargs, result: self.counters.update({"trajio.bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))})
        if attr == "run_campaign":
            return lambda args, kwargs, result: self.counters.update(
                {"demo.accepted": len(result.accepted), "demo.rejected": len(result.rejected)}
            )
        return None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- results -----------------------------------------------------------

    def take_results(self) -> tuple[list, list]:
        """Hand over and forget the GA and BF results recorded so far."""
        ga, bf = self.ga_runs, self.bf_runs
        self.ga_runs, self.bf_runs = [], []
        return ga, bf

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.frombuffer(self.span_name, dtype=np.uint16),
            np.frombuffer(self.span_parent, dtype=np.int32),
            np.frombuffer(self.span_start, dtype=np.float64),
            np.frombuffer(self.span_end, dtype=np.float64),
        )

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self seconds, inclusive seconds).

        Self time is a span's duration minus the durations of its direct
        children; the wrapper's own bookkeeping lands in the parent.
        """
        name, parent, start, end = self.arrays()
        dur = end - start
        child = parent >= 0
        child_sum = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_time = dur - child_sum
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        incl_s = np.bincount(name, weights=dur, minlength=k)
        return {n: (int(calls[i]), float(self_s[i]), float(incl_s[i])) for i, n in enumerate(self.names)}

    def root_seconds(self) -> float:
        """Summed duration of the spans that have no parent."""
        _, parent, start, end = self.arrays()
        root = parent == _ROOT
        return float(np.sum(end[root] - start[root]))

    def write(self, path: Path) -> None:
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end)


def _arg(args: tuple, kwargs: dict, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]
