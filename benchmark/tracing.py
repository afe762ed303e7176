"""Span tracing of the contest_rating layers, from outside the package.

install() wraps every public function of the layer modules and rebinds the
wrapper wherever the package imported the function, so calls between
layers go through it; uninstall() puts the originals back. Both are cheap
after the first install, so traced and untraced calls can alternate.

Each call is one span (name, start, end, parent, op id). Spans stay in
memory while recording is on; calls, raised exceptions, inclusive time and
self time (the span minus the time its child spans cover) are summed for
every call.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

import numpy as np
from contest_rating.designer import DesignerConfig

LAYERS = ("payoffs", "ratings", "incentives", "requester", "designer", "simulate", "cli")
PACKAGE = "contest_rating"


def _arg(args, kwargs, position: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


# Counters read from the arguments and results of single calls.
def _count_scan(counts, args, kwargs, result):
    counts["designer.gamma1_points"] += (_arg(args, kwargs, 2, "config") or DesignerConfig()).gamma_grid_m
    counts["designer.feasible_gamma1"] += len(result.feasible_gamma1)


def _count_oracle(counts, args, kwargs, result):
    counts["designer.oracle_cells"] += (_arg(args, kwargs, 1, "config") or DesignerConfig()).oracle_grid_r ** 3


def _count_simulation(starts: int):
    def hook(counts, args, kwargs, result):
        config = _arg(args, kwargs, 2, "config")
        counts["simulate.agent_periods"] += (
            starts * config.replicates * config.periods * config.population * 2
        )
        counts["simulate.promotions"] += result.promotions
        counts["simulate.demotions"] += result.demotions
        # one replicate's uniform draws: periods x pairs x 8 channels of float64
        rng_mb = config.periods * config.population * 8 * 8 / 1e6
        counts["simulate.rng_mb"] = max(counts["simulate.rng_mb"], rng_mb)

    return hook


HOOKS = {
    "designer.boundary_case_optimum": _count_scan,
    "designer.brute_force_oracle": _count_oracle,
    "simulate.run_chain": _count_simulation(1),
    "simulate.run_utility": _count_simulation(2),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.recording = True
        self.op = -1
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, seconds covered by child spans]
        self._rebind: list[tuple] = []  # (module, attribute, original, wrapper)

    def install(self) -> None:
        if not self._rebind:
            self._find_targets()
        for target, name, _, wrapper in self._rebind:
            setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, fn, _ in self._rebind:
            setattr(target, name, fn)

    def _find_targets(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for target in modules:
                    for name, value in vars(target).items():
                        if value is fn:
                            self._rebind.append((target, name, fn, wrapper))

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        hook = HOOKS.get(qualname)
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.span_name) if self.recording else -1
            if span >= 0:
                self.span_name.append(name_id)
                self.span_parent.append(stack[-1][0] if stack else -1)
                self.span_op.append(self.op)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[qualname] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                self.calls[qualname] += 1
                self.total_s[qualname] += elapsed
                self.self_s[qualname] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if span >= 0:
                    self.span_start[span] = start
                    self.span_end[span] = end
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def layer_sum(self, table, layer: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(layer + "."))

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op layer metrics over n_ops traced ops."""
        calls, raised, total_s, counts = self.calls, self.raised, self.total_s, self.counts

        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = self.layer_sum(calls, layer) / n_ops
            metrics[f"{layer}.self_ms"] = self.layer_sum(self.self_s, layer) * 1e3 / n_ops
        oracle_s = total_s["designer.brute_force_oracle"]
        simulate_s = total_s["simulate.run_chain"] + total_s["simulate.run_utility"]
        metrics.update({
            "payoffs.payoff_line_calls": calls["payoffs.payoff_line"] / n_ops,
            "incentives.constraint_coefficients_calls": calls["incentives.constraint_coefficients"] / n_ops,
            "incentives.raised": self.layer_sum(raised, "incentives") / n_ops,
            "incentives.compliance_margins_ms": total_s["incentives.compliance_margins"] * 1e3 / n_ops,
            "designer.gamma1_points": counts["designer.gamma1_points"] / n_ops,
            "designer.feasible_gamma1_share": ratio(counts["designer.feasible_gamma1"], counts["designer.gamma1_points"]),
            "designer.infeasible_share": ratio(raised["designer.optimize"], calls["designer.optimize"]),
            "designer.oracle_cells": counts["designer.oracle_cells"] / n_ops,
            "designer.oracle_cells_per_s": ratio(counts["designer.oracle_cells"], oracle_s),
            "simulate.agent_periods": counts["simulate.agent_periods"] / n_ops,
            "simulate.agent_periods_per_s": ratio(counts["simulate.agent_periods"], simulate_s),
            "simulate.rng_mb": float(counts["simulate.rng_mb"]),
            "simulate.promotions": counts["simulate.promotions"] / n_ops,
            "simulate.demotions": counts["simulate.demotions"] / n_ops,
            "trace.spans": sum(calls.values()) / n_ops,
        })
        return metrics

    def write_spans(self, path) -> int:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        return len(self.span_name)
