"""Quadrature over time-ordered simplices for matrix-valued integrands.

Two schemes:

* ``simpson-uniform``: iterated composite Simpson on a uniform grid over
  [0, t].  Inner integrals with an upper limit at grid node m use cumulative
  fourth-order weights (Simpson where the interval count is even, a 3/8-rule
  tail where it is odd, short polynomial rules near the origin), so the
  nested scheme stays globally O(h^4).  Kernel and operator values are only
  ever needed at the grid nodes.

* ``gauss-legendre-nested``: the simplex t >= t1 >= ... >= tk >= 0 is mapped
  to the unit cube (t1 = t w, t2 = t1 v, ...) and integrated with a tensor
  Gauss-Legendre rule.  For the trigonometric-polynomial integrands produced
  by discrete-mode baths this converges to machine precision at modest node
  counts.

Integrand callables are batched over node pairs.  ``integrate_interval``
passes its nodes t1 as one array.  The simplex engines flatten the (t1, t2)
node pairs of their rule and pass them in chunks of at most
``_CHUNK_PAIRS`` pairs, ``t1`` and ``t2`` of shape (B,), so an integrand is
called once per chunk rather than once per outer node, and the engine
applies the weights of both times in one contraction per chunk; the cap
bounds the memory a call of a superoperator-valued integrand takes.  The
triple-simplex integrand is contracted over its innermost slot: it also
receives ``t3``, ``w3`` of shape (B, C), and returns
``sum_c w3[:, c] g(t1, t2, t3[:, c])`` for the integrand ``g`` it
represents.  The matrix-valued integrands here are linear in the one factor
that carries ``t3``, so the caller sums the ``t3`` nodes on that factor
before any other product, and a call costs O(B) products rather than
O(B C).  Every integrand returns a stacked array of matrices, shape
(B, D, D), and may carry further stacked axes before the matrix ones,
(B, S, D, D), to integrate several matrices from one call: the integral
then has shape (S, D, D), also at t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss  # imported at start-up, not by the first rule

__all__ = ["QuadratureSpec"]

_SCHEMES = ("simpson-uniform", "gauss-legendre-nested")
GAUSS_POINT_CAP = 96  # tensor Gauss-Legendre points per dimension, at most
_CHUNK_PAIRS = 64  # (t1, t2) node pairs per call of a nested integrand, at most


@dataclass(frozen=True)
class QuadratureSpec:
    """Scheme selector plus density and accuracy targets.

    ``nodes_per_unit_time`` controls grid density (intervals per unit time
    for Simpson, Gauss points per unit time for the nested rule);
    ``tolerance`` is the target for self-reported refinement error; the K4
    route rule trips at 10x the larger of it and the self-estimate.
    """

    scheme: str = "gauss-legendre-nested"
    nodes_per_unit_time: int = 16
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {_SCHEMES}")
        if self.nodes_per_unit_time < 4:
            raise ValueError(
                f"nodes_per_unit_time must be >= 4, got {self.nodes_per_unit_time}"
            )
        if not (0 < self.tolerance < 1):
            raise ValueError(f"tolerance must be in (0, 1), got {self.tolerance}")

    def intervals(self, t: float) -> int:
        """Number of uniform grid intervals used on [0, t]."""
        return max(4, int(math.ceil(abs(t) * self.nodes_per_unit_time)))

    def gauss_points(self, t: float) -> int:
        """Tensor Gauss-Legendre points per dimension on [0, t]."""
        return min(GAUSS_POINT_CAP, max(8, int(math.ceil(abs(t) * self.nodes_per_unit_time))))

    def points(self, t: float) -> int:
        """Quadrature points per dimension on [0, t] for this scheme."""
        if self.scheme == "simpson-uniform":
            return self.intervals(t) + 1
        return self.gauss_points(t)

    def coarsened(self) -> "QuadratureSpec":
        """Same scheme at roughly half the density (for error estimates)."""
        return QuadratureSpec(self.scheme, max(4, self.nodes_per_unit_time // 2), self.tolerance)


@lru_cache(maxsize=64)
def cumulative_weights(n: int, h: float) -> np.ndarray:
    """Weight matrix W with (W @ f)[m] ~ int_0^{m h} f for grid values f.

    Row m holds the quadrature weights over nodes 0..n for the integral up to
    node m; every row is fourth-order accurate.  ``n`` is at least 4, as
    :meth:`QuadratureSpec.intervals` gives it.
    """
    w = np.zeros((n + 1, n + 1))
    # cubic through nodes 0..3 integrated over the first interval
    w[1, :4] = np.array([9.0, 19.0, -5.0, 1.0]) * (h / 24.0)
    for m in range(2, n + 1):
        if m % 2 == 0:
            w[m, : m + 1] = _simpson_row(m, h)
        else:
            # Simpson on [0, m-3], 3/8 rule on the last three intervals
            if m >= 5:
                w[m, : m - 2] += _simpson_row(m - 3, h)
            w[m, m - 3 : m + 1] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    return w


def _simpson_row(m: int, h: float) -> np.ndarray:
    row = np.ones(m + 1)
    row[1:-1:2] = 4.0
    row[2:-1:2] = 2.0
    return row * (h / 3.0)


@lru_cache(maxsize=32)
def _gauss01(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = leggauss(npts)
    return (x + 1.0) / 2.0, w / 2.0


def integrate_interval(f, t: float, quad: QuadratureSpec) -> np.ndarray:
    """int_0^t f(t1) dt1 for a matrix-valued f(t1_array) -> (B, D, D)."""
    if t == 0.0:
        return _probe_zero(f, np.zeros(1))
    if quad.scheme == "simpson-uniform":
        n = quad.intervals(t)
        ts = np.linspace(0.0, t, n + 1)
        weights = cumulative_weights(n, t / n)[n]
        return np.einsum("b,b...->...", weights, f(ts))
    x, w = _gauss01(quad.gauss_points(t))
    return np.einsum("b,b...->...", t * w, f(t * x))


def _support_ends(cw: np.ndarray) -> np.ndarray:
    """Largest node index with nonzero weight, per cumulative row.

    The short start rule for node 1 reaches ahead to nodes 2..3; the nested
    engines must include those nodes in the inner batches.  (Integrands are
    globally smooth, so evaluating slightly outside the simplex is fine.)
    """
    nz = cw != 0.0
    ends = np.zeros(cw.shape[0], dtype=int)
    for m in range(cw.shape[0]):
        idx = np.nonzero(nz[m])[0]
        ends[m] = idx[-1] if idx.size else 0
    return ends


def _pairs(t: float, quad: QuadratureSpec):
    """The (t1, t2) nodes of the rule on t >= t1 >= t2 >= 0, flattened in
    t1-major order, with their outer weights and, per pair, the inner rule
    on [0, t2]: ``(t1, t2, weight, inner)``.  ``inner(rows)`` returns the
    (t3, w3) nodes and weights of the pairs in the slice ``rows``, each of
    shape (B, C).

    Gauss pairs are t1 = t x_a, t2 = t1 x_b with weight (t w_a)(t1 w_b),
    and t3 = t2 x with w3 = t2 w.  Simpson pairs are the grid nodes (i, j)
    with j up to the support end of row i, weight cw[n, i] cw[i, j]; their
    inner rows are the cumulative weights of row j on the grid nodes, padded
    with zero weights to the widest row of the pairs asked for.
    """
    if quad.scheme == "simpson-uniform":
        n = quad.intervals(t)
        ts = np.linspace(0.0, t, n + 1)
        cw = cumulative_weights(n, t / n)
        ends = _support_ends(cw)
        i = np.repeat(np.arange(n + 1), ends + 1)
        j = np.concatenate([np.arange(e + 1) for e in ends])

        def inner(rows):
            c = ends[j[rows]].max() + 1
            return np.broadcast_to(ts[:c], (j[rows].size, c)), cw[j[rows], :c]

        return ts[i], ts[j], cw[n, i] * cw[i, j], inner
    x, w = _gauss01(quad.gauss_points(t))
    t1 = np.repeat(t * x, x.size)
    t2 = t1 * np.tile(x, x.size)
    weight = np.repeat(t * w, x.size) * (t1 * np.tile(w, x.size))
    return t1, t2, weight, lambda rows: (np.outer(t2[rows], x), np.outer(t2[rows], w))


def _chunks(size: int):
    """Slices of at most ``_CHUNK_PAIRS`` pairs covering ``range(size)``."""
    return (slice(lo, lo + _CHUNK_PAIRS) for lo in range(0, size, _CHUNK_PAIRS))


def integrate_simplex2(f, t: float, quad: QuadratureSpec) -> np.ndarray:
    """int_0^t dt1 int_0^t1 dt2 f(t1, t2).

    ``f(t1, t2)`` takes node arrays of shape (B,), a chunk of at most
    ``_CHUNK_PAIRS`` pairs of the rule, and returns (B, D, D); the engine
    applies the weights of both times.
    """
    if t == 0.0:
        return _probe_zero(f, np.zeros(1), np.zeros(1))
    t1, t2, weight, _ = _pairs(t, quad)
    acc = 0.0
    for rows in _chunks(t1.size):
        acc = acc + np.tensordot(weight[rows], f(t1[rows], t2[rows]), axes=1)
    return acc


def integrate_simplex3(f, t: float, quad: QuadratureSpec) -> np.ndarray:
    """Triple simplex integral int_0^t dt1 int_0^t1 dt2 int_0^t2 dt3 g.

    ``f(t1, t2, t3, w3)`` takes a chunk of at most ``_CHUNK_PAIRS`` (t1, t2)
    pairs of the rule, ``t1`` and ``t2`` of shape (B,), with the inner nodes
    and weights ``t3``, ``w3`` of shape (B, C), and must return the innermost
    integral as a quadrature sum, ``sum_c w3[:, c] g(t1, t2, t3[:, c])``,
    shape (B, D, D); the engine applies the weights of ``t1`` and ``t2``.
    Gauss rows are ``t3 = t2 x`` with ``w3 = t2 w``; Simpson rows are the
    cumulative weights of the inner nodes, zero past each row's support.
    """
    if t == 0.0:
        return _probe_zero(f, np.zeros(1), np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1)))
    t1, t2, weight, inner = _pairs(t, quad)
    acc = 0.0
    for rows in _chunks(t1.size):
        acc = acc + np.tensordot(weight[rows], f(t1[rows], t2[rows], *inner(rows)), axes=1)
    return acc


def _probe_zero(f, *args) -> np.ndarray:
    """Zero result with the shape of one of the integrand's batch entries."""
    sample = f(*args)
    return np.zeros(sample.shape[1:], dtype=complex)
