"""Spans around the package's public layer functions, recorded from outside.

While a traced repeat runs, each wrapped function is rebound in every
`lse_precoding` module that holds it, so calls made inside the package go
through the wrapper too; the package source is untouched and the original
bindings are restored after the repeat. Spans stay in memory until the run
writes them out.

Only the functions below are wrapped. The `spectral` and `penalty` layers
(R-transforms, thresholds, prox) are called hundreds of thousands of times
per repeat from inside fixed-point iterations and descent sweeps; a wrapper
there would cost more than the work, so their time is counted in the self
time of the replica and simulator spans that call them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# wrapped name -> defining module, which is the span's layer
LAYERS = {
    "monte_carlo": "simulator",
    "generate_problem": "simulator",
    "precode_ccd": "simulator",
    "measure": "simulator",
    "calibrate": "replica",
    "solve_fixed_point": "replica",
    "solve_constant_envelope": "replica",
    "random_tas_baseline": "replica",
    "decoupled_sample": "replica",
    "ks_distance": "numerics",
}
ROOT = "cli.main"  # one root span per lse invocation, layer experiments
SELF_LAYERS = ("experiments", "simulator", "replica", "numerics")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _counts(name: str, result) -> dict:
    """Counters taken from a wrapped call's return value."""
    if name == "precode_ccd":
        return {"sweeps": result.sweeps, "converged": bool(result.converged),
                "nonzeros": int(np.count_nonzero(result.x))}
    if name in ("solve_fixed_point", "random_tas_baseline"):
        return {"iterations": result.iterations}
    if name == "calibrate":
        return {"iterations": result[2].iterations}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.monte_carlo_args: dict | None = None
        self._stack: list[int] = []
        self._run = -1
        self._t0 = time.perf_counter()
        self.originals = {
            name: getattr(importlib.import_module(f"lse_precoding.{layer}"), name)
            for name, layer in LAYERS.items()}
        self._wrappers = {name: self._wrap(name, fn) for name, fn in self.originals.items()}

    @contextmanager
    def span(self, name: str, layer: str):
        span = Span(len(self.spans), name, layer, time.perf_counter(), math.nan,
                    self._stack[-1] if self._stack else None, self._run)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span.attrs
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        layer = LAYERS[name]
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "monte_carlo":
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.monte_carlo_args = dict(bound.arguments)
            with self.span(name, layer) as attrs:
                result = fn(*args, **kwargs)
                attrs.update(_counts(name, result))
            return result
        return wrapper

    @contextmanager
    def tracing(self, run: int):
        """Rebind the wrapped names for the duration of one traced repeat."""
        saved = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "lse_precoding" and not mod_name.startswith("lse_precoding."):
                continue
            for name, original in self.originals.items():
                if getattr(mod, name, None) is original:
                    saved.append((mod, name, original))
                    setattr(mod, name, self._wrappers[name])
        self._run = run
        try:
            yield
        finally:
            for mod, name, original in saved:
                setattr(mod, name, original)
            self._run = -1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "layer": s.layer,
                                     "start": s.start - self._t0, "end": s.end - self._t0,
                                     "parent": s.parent, "run": s.run, **s.attrs}) + "\n")


def repeat_metrics(spans: list, trials: int) -> dict:
    """Per-layer figures of one traced repeat from its spans.

    Times named `<layer>.<function>_s` are inclusive totals over the repeat,
    except the simulator's per-trial ones; `<layer>.self_s` is the time in
    spans of that layer not covered by their child spans, so the self times
    add up to `trace.wall_s`, the summed root spans.
    """
    child_time: dict = {}
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def self_time(s: Span) -> float:
        return s.duration - child_time.get(s.id, 0.0)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    self_by_layer = dict.fromkeys(SELF_LAYERS, 0.0)
    for s in spans:
        self_by_layer[s.layer] += self_time(s)
    ccd = by_name.get("precode_ccd", [])
    per_trial = 1.0 / trials if trials else 0.0
    return {
        "trace.wall_s": sum(s.duration for s in spans if s.parent is None),
        **{f"{layer}.self_s": t for layer, t in self_by_layer.items()},
        "simulator.generate_problem_s": total("generate_problem") * per_trial,
        "simulator.measure_s": total("measure") * per_trial,
        "simulator.monte_carlo.self_s": sum(map(self_time, by_name.get("monte_carlo", ()))),
        "simulator.ccd_sweeps": statistics.fmean(s.attrs["sweeps"] for s in ccd) if ccd else 0.0,
        "simulator.ccd_converged_frac":
            statistics.fmean(s.attrs["converged"] for s in ccd) if ccd else 0.0,
        "replica.calibrate_s": total("calibrate"),
        "replica.calibrate.calls": calls("calibrate"),
        "replica.solve_fixed_point_s": total("solve_fixed_point"),
        "replica.solve_fixed_point.calls": calls("solve_fixed_point"),
        "replica.fixed_point_iterations":
            sum(s.attrs["iterations"] for s in by_name.get("solve_fixed_point", ())),
        "replica.solves_per_point": (calls("solve_fixed_point") / calls("calibrate")
                                     if calls("calibrate") else 0.0),
        "replica.random_tas_baseline_s": total("random_tas_baseline"),
        "replica.solve_constant_envelope.calls": calls("solve_constant_envelope"),
        "replica.decoupled_sample_s": total("decoupled_sample"),
        "numerics.ks_distance_s": total("ks_distance"),
    }


def greedy_flops(n: int, k: int, drops: int) -> float:
    """Real floating-point operations of `_greedy_backward_support` for a
    given drop count, counted from its matrix products (a complex
    multiply-add is 8 flops): the initial Gram matrix, inverse and
    M⁻¹H; per drop the M⁻¹h_j, rank-one update, M⁻¹s and two Hᴴ products;
    and the refreshed inverse every 64 drops. A computed figure, not a
    hardware counter."""
    flops = 8.0 * (2 * k * k * n + k ** 3 + k * k + 2 * k * n)
    flops += drops * 8.0 * (3 * k * k + 2 * k * n)
    for j in range(1, drops // 64 + 1):
        flops += 8.0 * (k * k * (n - 64 * j) + k ** 3)
    return flops


def warm_start_split(tracer: Tracer, max_trials: int = 4, reps: int = 3) -> dict:
    """Split `precode_ccd` into warm start and descent on the first trials.

    The first trials are regenerated from their own substreams,
    `generate_problem(..., RandomStream(seed, t))`. On each,
    `precode_ccd(problem, max_sweeps=0)` (the warm start: greedy support
    selection or ridge, then the descent set-up) and the full call are timed
    back to back `reps` times, in alternating order. The warm start is the
    fastest of its calls; the descent time is the median difference of the
    back-to-back pairs, which cancels slow drifts of machine load better than
    a difference of separately measured times. The zero count of the warm
    start is the number of dropped antennas.
    """
    zero = {"simulator.warm_start_s": 0.0, "simulator.descent_s": 0.0,
            "simulator.greedy_drops": 0.0, "simulator.greedy_gflop_per_s": 0.0}
    args = tracer.monte_carlo_args
    if args is None:
        return zero
    from lse_precoding.numerics import RandomStream
    generate_problem = tracer.originals["generate_problem"]
    precode_ccd = tracer.originals["precode_ccd"]
    opts = dict(args["solver_opts"] or {})
    n, k, penalty = args["n"], args["k"], args["penalty"]
    init = opts.get("init", "auto")
    greedy = init == "greedy" or (init == "auto" and penalty.lam0 > 0)

    def timed(problem, **overrides):
        start = time.perf_counter()
        result = precode_ccd(problem, **{**opts, **overrides})
        return time.perf_counter() - start, result

    warm, descent, drops, flops = [], [], [], []
    for t in range(min(args["trials"], max_trials)):
        problem = generate_problem(n, k, args["lambda_s"], penalty,
                                   RandomStream(args["master_seed"], t))
        times = []
        for r in range(reps):
            if r % 2:
                f, w = timed(problem), timed(problem, max_sweeps=0)
            else:
                w, f = timed(problem, max_sweeps=0), timed(problem)
            times.append(w[0])
            descent.append(f[0] - w[0])
        warm.append(min(times))
        dropped = n - int(np.count_nonzero(w[1].x))
        drops.append(dropped)
        flops.append(greedy_flops(n, k, dropped) if greedy else 0.0)
    return {"simulator.warm_start_s": statistics.fmean(warm),
            "simulator.descent_s": statistics.median(descent),
            "simulator.greedy_drops": statistics.fmean(drops),
            "simulator.greedy_gflop_per_s": sum(flops) / sum(warm) / 1e9}
