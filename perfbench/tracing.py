"""Per-layer spans recorded from outside the tclgen package.

:func:`install` replaces each function in :data:`TARGETS` in every loaded
``tclgen`` module namespace that holds it, so a call is timed wherever its
caller imported the name.  Every call becomes a span (name, start, end,
parent span, operation id).  Spans stay in memory until the operation ends;
then :meth:`Recorder.summary` turns them into per-layer calls, total time and
self time (duration minus the time covered by child spans), plus exact work
counts, and :meth:`Recorder.write` saves the raw spans.
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, layer).  Several functions may share one layer.
TARGETS = (
    ("tclgen.bath", "kernel_D", "bath.kernels"),
    ("tclgen.bath", "kernel_D1", "bath.kernels"),
    ("tclgen.algebra", "heisenberg_X", "algebra.heisenberg"),
    ("tclgen.algebra", "heisenberg_X_batch", "algebra.heisenberg"),
    ("tclgen.algebra", "commutator_super_batch", "algebra.superops"),
    ("tclgen.algebra", "anticommutator_super_batch", "algebra.superops"),
    ("tclgen.quadrature", "integrate_interval", "quadrature.interval"),
    ("tclgen.quadrature", "integrate_simplex2", "quadrature.simplex2"),
    ("tclgen.quadrature", "integrate_simplex3", "quadrature.simplex3"),
    ("tclgen.cumulant", "_moment_matrix_batch", "cumulant.moments"),
    ("tclgen.cumulant", "K_n_cumulant", "cumulant.K_n_cumulant"),
    ("tclgen.tcl", "K2_influence", "tcl.K2_influence"),
    ("tclgen.tcl", "K4_influence", "tcl.K4_influence"),
    ("tclgen.tcl", "K4_cumulant_ordered", "tcl.K4_cumulant_ordered"),
    ("tclgen.tcl", "build_generator", "tcl.build_generator"),
    ("tclgen.evolve", "propagate", "evolve.propagate"),
    ("tclgen.evolve", "invertibility_diagnostic", "evolve.invertibility_diagnostic"),
    ("tclgen.evolve", "forward_map_correction", "evolve.forward_map_correction"),
    ("tclgen.models", "exact_small_bath", "models.exact_small_bath"),
    ("tclgen.cli", "parse_config", "cli.parse_config"),
    ("tclgen.cli", "_write_csv", "cli.writers"),
    ("tclgen.cli", "run_scenario", "cli.run_scenario"),
)

# Evaluations of a Generator inside propagate; not a module-level function.
GENERATOR_EVAL = "tcl.generator_eval"

LAYERS = tuple(dict.fromkeys([layer for _, _, layer in TARGETS] + [GENERATOR_EVAL]))

# Layers whose spans also report the integrand points of the quadratures
# run inside them (inclusive of nested calls).
POINT_OWNERS = (
    "tcl.K2_influence",
    "tcl.K4_influence",
    "tcl.K4_cumulant_ordered",
    "cumulant.K_n_cumulant",
    "evolve.forward_map_correction",
)

# Exact work counts reported beside each layer's calls.
COUNTS = (
    "bath.kernels.lags",
    "algebra.heisenberg.times",
    "algebra.superops.times",
    "quadrature.interval.points",
    "quadrature.simplex2.points",
    "quadrature.simplex3.points",
    "cumulant.moments.points",
    "quadrature.cap_hits",
    "evolve.rhs_evals",
    "models.oracle_dim",
) + tuple(f"{layer}.points" for layer in POINT_OWNERS)

_GAUSS = "gauss-legendre-nested"
_GAUSS_CAP = 96


class Recorder:
    """In-memory span store for one operation."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.names: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.ts: list[float] = []  # the time argument t of K-layer calls
        self.stack: list[int] = [-1]
        self.open_depth: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.layer_index = {layer: i for i, layer in enumerate(LAYERS)}
        self.missing: list[str] = []

    def span(self, layer: str, fn, t_index: int | None = None):
        """Decorate ``fn`` so each call records one span of ``layer``.

        With ``t_index``, the positional argument at that index is kept as
        the span's ``t``.
        """
        index = self.layer_index[layer]
        names, parents, starts, ends, ts = (
            self.names, self.parents, self.starts, self.ends, self.ts)
        stack, depth, clock = self.stack, self.open_depth, time.perf_counter

        def call(*a, **kw):
            sid = len(names)
            names.append(index)
            parents.append(stack[-1])
            ts.append(math.nan if t_index is None else float(a[t_index]))
            ends.append(math.nan)
            stack.append(sid)
            depth[layer] += 1
            starts.append(clock())
            try:
                return fn(*a, **kw)
            finally:
                ends[sid] = clock()
                depth[layer] -= 1
                stack.pop()

        return call

    def add_points(self, layer: str, n: int) -> None:
        self.counts[f"{layer}.points"] += n
        for owner in POINT_OWNERS:
            if self.open_depth[owner]:
                self.counts[f"{owner}.points"] += n

    def summary(self) -> dict[str, float]:
        """Per-layer calls, total_s and self_s, plus the exact counts."""
        starts = np.asarray(self.starts)
        dur = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        names = np.asarray(self.names, dtype=np.int64)
        child_time = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child_time, parents[has_parent], dur[has_parent])
        self_time = dur - child_time
        out: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            mask = names == i
            out[f"{layer}.calls"] = int(mask.sum())
            out[f"{layer}.total_s"] = float(dur[mask].sum())
            out[f"{layer}.self_s"] = float(self_time[mask].sum())
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        """Raw spans as gzipped CSV, one row per span."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("span_id,parent_id,op_id,name,start_s,end_s,t\n")
            for sid, (n, p, s, e, a) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends, self.ts)
            ):
                fh.write(f"{sid},{p},{self.op_id},{LAYERS[n]},{s!r},{e!r},{a!r}\n")


def _counting(rec: Recorder, name: str, fn, count):
    """Wrap ``fn`` so ``count(args)`` is added to the count ``name`` per call."""

    def call(*a, **kw):
        rec.counts[name] += count(a)
        return fn(*a, **kw)

    return call


def _quadrature(rec: Recorder, layer: str, fn, batch_arg: int):
    """Count integrand points and node-cap hits of one quadrature engine."""

    def call(f, t, quad, *rest, **kw):
        if quad.scheme == _GAUSS and quad.gauss_points(t) == _GAUSS_CAP:
            rec.counts["quadrature.cap_hits"] += 1

        def counted(*a):
            rec.add_points(layer, int(np.size(a[batch_arg])))
            return f(*a)

        return fn(counted, t, quad, *rest, **kw)

    return call


def _oracle_dim(rec: Recorder, fn):
    """Record the largest space the exact oracle diagonalizes."""

    def call(rho0, model, config, *rest, **kw):
        dim = config.total_dim(model.dim)
        rec.counts["models.oracle_dim"] = max(rec.counts["models.oracle_dim"], dim)
        return fn(rho0, model, config, *rest, **kw)

    return call


def _propagate(rec: Recorder, fn):
    """Time and count every generator evaluation the stepper makes."""

    def call(rho0, gen, *rest, **kw):
        original = gen.evaluator
        timed = rec.span(GENERATOR_EVAL, original)

        def evaluator(t):
            rec.counts["evolve.rhs_evals"] += 1
            return timed(t)

        gen.evaluator = evaluator
        try:
            return fn(rho0, gen, *rest, **kw)
        finally:
            gen.evaluator = original

    return call


def _instrument(rec: Recorder, layer: str, fn):
    """Counting wrapper (inside) plus span (outside) for one target."""
    if layer == "bath.kernels":
        fn = _counting(rec, "bath.kernels.lags", fn, lambda a: int(np.size(a[1])))
    elif layer == "algebra.heisenberg":
        fn = _counting(rec, "algebra.heisenberg.times", fn,
                       lambda a: int(np.size(a[1])))
    elif layer == "algebra.superops":
        fn = _counting(rec, "algebra.superops.times", fn, lambda a: int(a[0].shape[0]))
    elif layer == "cumulant.moments":
        fn = _counting(rec, "cumulant.moments.points", fn, lambda a: int(a[3]))
    elif layer.startswith("quadrature."):
        fn = _quadrature(rec, layer, fn, 0 if layer == "quadrature.interval" else 1)
    elif layer == "evolve.propagate":
        fn = _propagate(rec, fn)
    # every K-layer function takes (model, bath, t, ...)
    return rec.span(layer, fn, 2 if layer in POINT_OWNERS else None)


def install(rec: Recorder) -> None:
    """Wrap every target in every tclgen namespace that refers to it.

    A target the package no longer defines is skipped and listed in
    ``rec.missing``; its layer then reports zero calls.  The oracle's
    ``_reduced_states`` gets a counting wrapper only, for ``models.oracle_dim``.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "tclgen" or n.startswith("tclgen.")) and m is not None]
    wrappers = [(module, name, lambda fn, layer=layer: _instrument(rec, layer, fn))
                for module, name, layer in TARGETS]
    wrappers.append(("tclgen.models", "_reduced_states", lambda fn: _oracle_dim(rec, fn)))
    for module, name, wrap in wrappers:
        original = getattr(sys.modules.get(module), name, None)
        if original is None:
            rec.missing.append(f"{module}.{name}")
            continue
        wrapped = wrap(original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapped)
