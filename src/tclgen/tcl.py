"""Time-local generators from the influence-functional kernel formulas.

Second order:

    K2(t) = int_0^t dt1 { (i/2) D(t-t1) Xc(t) Xa(t1)
                          - (1/2) D1(t-t1) Xc(t) Xc(t1) }

with Xc(s) = [X(s), .] and Xa(s) = {X(s), .}.  Fourth order is the triple
simplex integral (prefactor 1/4, domain t >= t1 >= t2 >= t3 >= 0) of a fixed
table of kernel-product times superoperator-string summands; the table is
data (:data:`K4_TERM_TABLE`), not hand-expanded code, and can be dumped for
audit through the CLI.

:func:`build_generator` takes its coefficients from the closed forms of
:mod:`tclgen.exact`, for a whole grid at once (:func:`K2_exact_grid`,
:func:`K4_exact_grid`), except K4 on baths with so many modes that the exact
grid would cost more than quadrature at every node, a choice made once per
table (:func:`_k4_exact_is_cheaper`).  :func:`K4_exact` is the
ordered-cumulant route (the partially unordered form J4' - K2 J);
:func:`check_k4_routes` sets the generator's K4 against the partner of the
route its table took.
The quadrature routes are otherwise the independent checks: :func:`K2_influence` and
:func:`K4_influence` integrate the kernel formulas numerically, and
:func:`K4_cumulant_ordered` computes K4 along two routes built on the moment
machinery -- the fully time-ordered cumulant sum and the partially unordered
two-term form J4' - K2 J, which share one four-point integral -- and raises
:class:`EquivalenceError` if they disagree by the route rule of :func:`_route_agreement`.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .algebra import (
    SuperOp,
    SystemModel,
    _kron_batch,
    anticommutator_super_batch,
    commutator_super_batch,
    heisenberg_X_batch,
)
from .bath import BathSpec, kernel_D, kernel_D1
from .cumulant import K_n_cumulant, _order4_pieces, forward_map_correction
from .exact import (
    K2_exact,
    K2_exact_grid,
    K4_exact,
    K4_table_exact,
    _Eigenbasis,
    _k4_exact_grid,
    k4_chain_count,
)
from .quadrature import GAUSS_POINT_CAP, QuadratureSpec, integrate_interval, integrate_simplex3

ORDERS = (2, 4)  # the orders of the generator series

__all__ = [
    "ORDERS",
    "EquivalenceError",
    "K4_TERM_TABLE",
    "K4Term",
    "Coefficients",
    "Generator",
    "K2_influence",
    "K4_influence",
    "K4_cumulant_ordered",
    "build_generator",
    "check_k4_routes",
    "format_k4_table",
]


class EquivalenceError(RuntimeError):
    """The independent generator routes disagree beyond quadrature accuracy."""


class K4Term(NamedTuple):
    """One summand of the fourth-order kernel display.

    ``coeff`` multiplies ``kernel_a(first lag) * kernel_b(second lag)``;
    ``pattern`` selects the lag pairs: ``"t-2,1-3"`` means
    (t - t2, t1 - t3) and ``"t-3,1-2"`` means (t - t3, t1 - t2).  ``ops``
    gives the superoperator string left to right as (kind, slot) with kind
    ``"c"`` (commutator) or ``"a"`` (anticommutator) and slot 0..3 for
    (t, t1, t2, t3).
    """

    coeff: complex
    kernel_a: str
    kernel_b: str
    pattern: str
    ops: tuple[tuple[str, int], ...]


# Sixteen kernel-product summands (the four bracketed pair-sums expanded in
# place).  Global prefactor 1/4 is applied at assembly time.
K4_TERM_TABLE: tuple[K4Term, ...] = (
    # chronological strings Xc(t) Xc(t1) X.(t2) X.(t3)
    K4Term(+1, "D1", "D1", "t-2,1-3", (("c", 0), ("c", 1), ("c", 2), ("c", 3))),
    K4Term(+1, "D1", "D1", "t-3,1-2", (("c", 0), ("c", 1), ("c", 2), ("c", 3))),
    K4Term(-1, "D", "D", "t-2,1-3", (("c", 0), ("c", 1), ("a", 2), ("a", 3))),
    K4Term(-1, "D", "D", "t-3,1-2", (("c", 0), ("c", 1), ("a", 2), ("a", 3))),
    K4Term(-1j, "D1", "D", "t-2,1-3", (("c", 0), ("c", 1), ("c", 2), ("a", 3))),
    K4Term(-1j, "D", "D1", "t-3,1-2", (("c", 0), ("c", 1), ("c", 2), ("a", 3))),
    K4Term(-1j, "D", "D1", "t-2,1-3", (("c", 0), ("c", 1), ("a", 2), ("c", 3))),
    K4Term(-1j, "D1", "D", "t-3,1-2", (("c", 0), ("c", 1), ("a", 2), ("c", 3))),
    # interleaved strings Xc(t) X.(t2) Xc(t1) X.(t3)
    K4Term(+1, "D", "D", "t-2,1-3", (("c", 0), ("a", 2), ("c", 1), ("a", 3))),
    K4Term(-1, "D1", "D1", "t-2,1-3", (("c", 0), ("c", 2), ("c", 1), ("c", 3))),
    K4Term(+1j, "D", "D1", "t-2,1-3", (("c", 0), ("a", 2), ("c", 1), ("c", 3))),
    K4Term(+1j, "D1", "D", "t-2,1-3", (("c", 0), ("c", 2), ("c", 1), ("a", 3))),
    # interleaved strings Xc(t) X.(t3) Xc(t1) X.(t2)
    K4Term(+1, "D", "D", "t-3,1-2", (("c", 0), ("a", 3), ("c", 1), ("a", 2))),
    K4Term(-1, "D1", "D1", "t-3,1-2", (("c", 0), ("c", 3), ("c", 1), ("c", 2))),
    K4Term(+1j, "D", "D1", "t-3,1-2", (("c", 0), ("a", 3), ("c", 1), ("c", 2))),
    K4Term(+1j, "D1", "D", "t-3,1-2", (("c", 0), ("c", 3), ("c", 1), ("a", 2))),
)


def format_k4_table() -> str:
    """Human-readable dump of the fourth-order term table."""
    lines = ["# coeff   kernels            lags            operator string"]
    slot_names = ("t", "t1", "t2", "t3")
    for term in K4_TERM_TABLE:
        if term.pattern == "t-2,1-3":
            lags = f"{term.kernel_a}(t-t2) {term.kernel_b}(t1-t3)"
        else:
            lags = f"{term.kernel_a}(t-t3) {term.kernel_b}(t1-t2)"
        ops = " ".join(f"X{k}({slot_names[s]})" for k, s in term.ops)
        c = term.coeff
        coeff = f"{c.real:+g}" if c.imag == 0 else f"{c.imag:+g}i"
        lines.append(f"{coeff:>7}   {term.kernel_a:>2}*{term.kernel_b:<2}          {lags:<22} {ops}")
    lines.append("# global prefactor 1/4, integrated over t >= t1 >= t2 >= t3 >= 0")
    return "\n".join(lines)


def K2_influence(
    model: SystemModel, bath: BathSpec, t: float, quad: QuadratureSpec
) -> SuperOp:
    """Second-order generator from the dissipation/noise kernel formula."""
    xc_t = commutator_super_batch(heisenberg_X_batch(model, np.array([t])))[0]

    def f(t1: np.ndarray) -> np.ndarray:
        xs = heisenberg_X_batch(model, t1)
        xc = commutator_super_batch(xs)
        xa = anticommutator_super_batch(xs)
        d = kernel_D(bath, t - t1)
        d1 = kernel_D1(bath, t - t1)
        return (0.5j * d)[:, None, None] * (xc_t @ xa) - (0.5 * d1)[
            :, None, None
        ] * (xc_t @ xc)

    return SuperOp(model.dim, integrate_interval(f, t, quad))


def _lag_kernels(term: K4Term) -> tuple[str, str]:
    """The kernels of ``term`` on its lag through t2 and its lag through t3."""
    if term.pattern == "t-2,1-3":
        return term.kernel_a, term.kernel_b
    return term.kernel_b, term.kernel_a


# (pattern, kernel on the t3 lag): one contracted slot-3 operator each
_T3_CONTRACTIONS = tuple(sorted({(term.pattern, _lag_kernels(term)[1]) for term in K4_TERM_TABLE}))


def _t3_groups() -> dict:
    """The table's strings after Xc(t), grouped by the factors before and
    after their slot-3 bracket: {(prefix, suffix): [(coeff, sign, kernel on
    the t2 lag, pattern, index in _T3_CONTRACTIONS)]}, with sign +1 for a
    commutator at slot 3 and -1 for an anticommutator."""
    groups: dict = {}
    for term in K4_TERM_TABLE:
        ops = term.ops[1:]
        at = [slot for _, slot in ops].index(3)
        k2, k3 = _lag_kernels(term)
        entry = (term.coeff, 1 if ops[at][0] == "c" else -1, k2, term.pattern,
                 _T3_CONTRACTIONS.index((term.pattern, k3)))
        groups.setdefault((ops[:at], ops[at + 1:]), []).append(entry)
    return groups


_T3_GROUPS = _t3_groups()


def _k4_integrand(model: SystemModel, bath: BathSpec, t: float):
    """Batched evaluator of the term-table integrand (without the 1/4), in
    the contracted form :func:`integrate_simplex3` calls: ``t1``, ``t2`` of
    shape (B,) and ``t3``, ``w3`` of shape (B, C).

    Every string holds slot 3 once, and one lag of every kernel product runs
    through t3, so the t3 nodes are summed on the operator first: one
    ``sum_c w3 k(lag) X(t3)`` per pattern and kernel ``k`` on that lag.
    Strings that share the factors around slot 3 share one product.  Its
    slot-3 factor is the sum of their brackets, each of its contracted
    operator times the coefficient and the kernel on the t2 lag: the map
    rho -> A rho - rho B, with A the sum of those operators and B the same
    sum with the anticommutators' terms negated.  Every string opens with
    Xc(t), which is applied once to the sum of the rest; Xc(t1) is formed
    once per distinct t1 of the chunk.
    """
    kernels = {"D": kernel_D, "D1": kernel_D1}
    xc0 = commutator_super_batch(heisenberg_X_batch(model, np.array([t])))[0]

    def f(t1: np.ndarray, t2: np.ndarray, t3: np.ndarray, w3: np.ndarray) -> np.ndarray:
        # per pattern: (lag through t2, lag through t3)
        lags = {"t-2,1-3": (t - t2, t1[:, None] - t3), "t-3,1-2": (t1 - t2, t - t3)}
        weights = np.stack(
            [w3 * kernels[k](bath, lags[p][1]) for p, k in _T3_CONTRACTIONS], axis=1)
        x3 = heisenberg_X_batch(model, t3, weights)
        x2 = heisenberg_X_batch(model, t2)
        distinct, where = np.unique(t1, return_inverse=True)
        ops = {
            ("c", 1): commutator_super_batch(heisenberg_X_batch(model, distinct))[where],
            ("c", 2): commutator_super_batch(x2),
            ("a", 2): anticommutator_super_batch(x2),
        }
        scalars = {(k, p): kernels[k](bath, lags[p][0]) for k in kernels for p in lags}
        eye = np.broadcast_to(np.eye(model.dim, dtype=complex), x2.shape)
        acc = np.zeros(ops["c", 2].shape, dtype=complex)
        for (prefix, suffix), entries in _T3_GROUPS.items():
            a = b = 0.0
            for coeff, sign, k2, p, i in entries:
                part = (coeff * scalars[k2, p])[:, None, None] * x3[:, i]
                a, b = a + part, b + sign * part
            prod = _kron_batch(eye, a)
            prod -= _kron_batch(np.transpose(b, (0, 2, 1)), eye)
            for factor in reversed(prefix):
                prod = ops[factor] @ prod
            for factor in suffix:
                prod = prod @ ops[factor]
            acc += prod
        return xc0 @ acc

    return f


def K4_influence(
    model: SystemModel, bath: BathSpec, t: float, quad: QuadratureSpec
) -> SuperOp:
    """Fourth-order generator by direct evaluation of the kernel table."""
    mat = integrate_simplex3(_k4_integrand(model, bath, t), t, quad)
    return SuperOp(model.dim, 0.25 * mat)


def _k4_ordered_pieces(
    model: SystemModel, bath: BathSpec, t: float, quad: QuadratureSpec
) -> tuple[np.ndarray, np.ndarray]:
    """(fully ordered cumulant sum, partially unordered form J4' - K2 J),
    from one four-point integral J4'.  K2 J factorizes: t1, t2 span [0, t]."""
    four_point, products = _order4_pieces(model, bath, t, quad)
    k2j = K_n_cumulant(model, bath, t, 2, quad).matrix @ forward_map_correction(
        model, bath, t, quad)
    return four_point + products, four_point - k2j


def _route_agreement(model: SystemModel, bath: BathSpec, t: float, a: np.ndarray,
                     b: np.ndarray, trip: float) -> tuple[float, float]:
    """The route rule of both K4 checks: (rel, threshold), s = max(||a||, ||b||),
    rel = ||a - b|| / s, threshold = max(trip, eps B(t) / s); the routes agree
    while the margin rel / threshold is at most 1 (rel 0 for identical ones).
    B(t) = t^3 ||Xc||^2 (sum_nu ||W_nu||)^2, in Frobenius norms of the factors
    of :class:`tclgen.exact._Eigenbasis`, bounds each term either route sums:
    two Xc and two W between unitary propagators, integrated over a simplex
    of volume at most t^3.  So eps B(t) decides only where K4 vanishes."""
    diff = np.linalg.norm(a - b)
    if diff == 0.0:
        return 0.0, trip
    basis = _Eigenbasis(model, bath)
    bound = t**3 * np.linalg.norm(basis.xc) ** 2 * sum(map(np.linalg.norm, basis.w)) ** 2
    scale = max(np.linalg.norm(a), np.linalg.norm(b))
    return diff / scale, max(trip, np.finfo(float).eps * bound / scale)


def K4_cumulant_ordered(
    model: SystemModel, bath: BathSpec, t: float, quad: QuadratureSpec
) -> SuperOp:
    """Fourth-order generator from ordered cumulants, with a built-in check.

    Returns the fully time-ordered cumulant sum and raises
    :class:`EquivalenceError` where it and the partially unordered form, on
    the same grid, disagree by the route rule, with trip 10x the larger of
    the quadrature tolerance and the self-estimated refinement error.  The
    estimate, which can only raise the threshold, is computed only where the
    forms disagree without it, from a second grid: the coarsened one, or one
    with twice the fine grid's points where coarsening keeps them (the node
    floor of short intervals).  At the Gauss rule's 96-node cap none differs:
    the check uses the tolerance alone and warns (``UserWarning``).  It warns
    too where the estimate raises the threshold to 2 or more, which no
    relative difference exceeds, so the check cannot fail there (Simpson's
    rule where K4 vanishes, whose forms are then quadrature error alone).
    """
    ordered, unordered = _k4_ordered_pieces(model, bath, t, quad)
    rel, threshold = _route_agreement(model, bath, t, ordered, unordered, 10.0 * quad.tolerance)
    if rel > threshold:
        other = quad.coarsened()
        if other.points(t) == quad.points(t):
            other = replace(quad, nodes_per_unit_time=max(4, math.ceil(2 * quad.points(t) / t)))
        if other.points(t) == quad.points(t):
            warnings.warn(
                f"K4_cumulant_ordered at t = {t}: the Gauss grid sits at its "
                f"{GAUSS_POINT_CAP}-node cap, so the check uses the tolerance alone",
                UserWarning, stacklevel=2)
        else:
            other_ordered, other_unordered = _k4_ordered_pieces(model, bath, t, other)
            est = max(map(np.linalg.norm, (ordered - other_ordered, unordered - other_unordered)))
            scale = max(map(np.linalg.norm, (ordered, unordered)))
            threshold = max(threshold, 10.0 * (est / scale))
            if threshold >= 2.0:
                warnings.warn(
                    f"K4_cumulant_ordered at t = {t}: the self-estimate raises the "
                    f"threshold to {threshold:.3e}, past any relative difference "
                    "(at most 2), so the check cannot fail", UserWarning, stacklevel=2)
    if rel > threshold:
        raise EquivalenceError(
            f"ordered and unordered fourth-order routes disagree: relative "
            f"difference {rel:.3e} exceeds {threshold:.3e} at t = {t}"
        )
    return SuperOp(model.dim, ordered)


def _k4_exact_is_cheaper(model: SystemModel, bath: BathSpec, quad: QuadratureSpec,
                         t: float) -> bool:
    """Whether :func:`K4_exact` at t costs less than :func:`K4_influence` on
    ``quad``: while chains x d^3 <= 12 points^2, with chains the
    :func:`k4_chain_count` of ``bath`` and points :meth:`QuadratureSpec.points`
    at t, which never falls as t grows.  Fitted on one BLAS thread (Intel
    Xeon) on discretized spectral densities for d = 2, 3, 4, 2 to 30 modes
    and 8 to 64 Gauss points, before the quadrature engines batched their
    node pairs; per call it now picks the slower route in places (at 5 modes
    and t = 1, K4_exact 10 ms over K4_influence 5.7 ms).  A generator table
    asks it once, at its last node, where a closed-form grid call pays for
    every node (up to 11 modes for a two-level system at t_max = 2 and 16
    nodes per unit time).  A refit waits for a many-mode workload.
    """
    return k4_chain_count(bath) * model.dim**3 <= 12 * quad.points(t) ** 2


def check_k4_routes(
    model: SystemModel, bath: BathSpec, t: float, quad: QuadratureSpec, k4: np.ndarray,
    grid: np.ndarray | None = None,
) -> tuple[float, float]:
    """A run's route check at t: (relative difference, threshold) by the
    route rule, with trip 10x the quadrature tolerance: neither pair below
    carries quadrature error between its routes.

    ``k4`` is the generator's K4(t) and ``grid`` its table's nodes
    (:attr:`Generator.grid`).  The check takes the partner of the route
    that K4(t) came from: on a node of the grid, the route the cost rule
    (:func:`_k4_exact_is_cheaper`) chose for the whole table at its last
    node; anywhere else, the route it chose at t.  Against :func:`K4_exact`
    (J4' - K2 J) it sets the kernel table in closed form
    (:func:`tclgen.exact.K4_table_exact`), which shares two pairing chains,
    so this tests the third pairing minus K2 J against the Bohr-split
    interleaved chains; against :func:`K4_influence`, :func:`K_n_cumulant`
    on the same grid.
    """
    if _k4_exact_is_cheaper(model, bath, quad, grid[-1] if grid is not None and t in grid else t):
        other = K4_table_exact(model, bath, t).matrix
    else:
        other = K_n_cumulant(model, bath, t, 4, quad).matrix
    return _route_agreement(model, bath, t, other, k4, 10.0 * quad.tolerance)


class Coefficients(NamedTuple):
    """Unscaled generator coefficients at one time, as memoized; ``k4`` is
    None at order 2."""

    k2: np.ndarray
    k4: np.ndarray | None


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-interval coefficients of the not-a-knot cubic spline through
    ``(x, y)``, ``y`` of shape ``(n, m)``: on ``[x_i, x_{i+1}]`` the spline is
    ``c[i, 0] z^3 + c[i, 1] z^2 + c[i, 2] z + c[i, 3]`` with z = t - x_i.

    The node derivatives solve the tridiagonal system of SciPy's
    ``CubicSpline``, by elimination without pivoting over all m columns at
    once; the interpolant follows from them as Hermite cubics.
    """
    n = len(x)
    if n < 4:
        raise ValueError(f"a not-a-knot cubic needs at least 4 nodes, got {n}")
    h = np.diff(x)
    hr = h[:, None]
    slope = np.diff(y, axis=0) / hr
    lower, diag, upper = np.zeros(n), np.zeros(n), np.zeros(n)
    s = np.empty_like(y)
    # interior rows: the second derivative is continuous at x_1 .. x_{n-2}
    lower[1:-1], diag[1:-1], upper[1:-1] = h[1:], 2 * (h[:-1] + h[1:]), h[:-1]
    s[1:-1] = 3 * (hr[1:] * slope[:-1] + hr[:-1] * slope[1:])
    # end rows: so is the third derivative at x_1 and at x_{n-2}
    span = x[2] - x[0]
    diag[0], upper[0] = h[1], span
    s[0] = ((h[0] + 2 * span) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / span
    span = x[-1] - x[-3]
    lower[-1], diag[-1] = span, h[-2]
    s[-1] = (h[-1] ** 2 * slope[-2] + (2 * span + h[-1]) * h[-2] * slope[-1]) / span
    for i in range(1, n):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        s[i] -= w * s[i - 1]
    s[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]
    t = (s[:-1] + s[1:] - 2 * slope) / hr
    return np.stack([t / hr, (slope - s[:-1]) / hr - t, s[:-1], y[:-1]], axis=1)


def _check_order_and_interp(order: int, interp: str) -> None:
    if order not in ORDERS:
        raise ValueError(f"order must be 2 or 4, got {order}")
    if interp not in ("linear", "cubic", "direct"):
        raise ValueError(f"unknown interpolation {interp!r}")


@dataclass
class Generator:
    """Evaluable time-local generator K(t) = alpha^2 K2(t) [+ alpha^4 K4(t)].

    ``coefficients(t)`` returns the unscaled :class:`Coefficients` at any t
    (for :func:`build_generator`, from its memo), which the generator scales
    by its own ``alpha`` and ``order``: ``dataclasses.replace`` re-couples it,
    or takes order 2 from order 4, without recomputing a coefficient.  With a
    ``grid``, ``interp`` (``"linear"`` or ``"cubic"``, a not-a-knot spline on
    at least 4 nodes) interpolates the scaled matrices tabulated on its nodes
    and raises ``ValueError`` outside them, and ``"direct"`` is refused;
    without one, ``evaluator(t)`` evaluates at t directly.
    """

    order: int
    alpha: float
    dim: int
    coefficients: Callable[[float], Coefficients] = field(repr=False)
    grid: np.ndarray | None = None
    interp: str = "linear"

    def __post_init__(self):
        _check_order_and_interp(self.order, self.interp)
        if self.grid is not None and self.interp == "direct":
            raise ValueError("interpolation 'direct' takes no grid")
        if self.grid is not None:
            self._values = np.stack([self._scaled(t) for t in self.grid])
            self._cubic = None
            if self.interp == "cubic":
                self._nodes = self.grid.tolist()
                self._cubic = _not_a_knot(self.grid, self._values.reshape(len(self.grid), -1))

    def _scaled(self, t: float) -> np.ndarray:
        k2, k4 = self.coefficients(t)
        if self.order == 2:
            return self.alpha**2 * k2
        if k4 is None:
            raise ValueError("an order-4 generator needs K4 in its coefficients")
        return self.alpha**2 * k2 + self.alpha**4 * k4

    def _spline(self, c: np.ndarray, z) -> np.ndarray:
        zz = z * z  # summed in this order and not by Horner's rule, as SciPy's PPoly
        value = c[..., 3, :] + c[..., 2, :] * z + c[..., 1, :] * zz + c[..., 0, :] * (zz * z)
        return value.reshape(value.shape[:-1] + (self.dim**2, self.dim**2))

    def evaluator(self, t: float) -> np.ndarray:
        """The matrix of the fully scaled generator at t, unvalidated: the
        Runge-Kutta steppers' right-hand side calls this."""
        if self.grid is None:
            return self._scaled(t)
        if t < self.grid[0] or t > self.grid[-1]:
            raise ValueError(f"time {t} outside cached range [0, {self.grid[-1]}]")
        if self._cubic is not None:
            i = min(bisect_right(self._nodes, t), len(self._nodes) - 1) - 1
            return self._spline(self._cubic[i], float(t - self._nodes[i]))
        idx = np.searchsorted(self.grid, t)
        if self.grid[idx] == t:
            return self._values[idx].copy()
        lo = idx - 1
        theta = (t - self.grid[lo]) / (self.grid[idx] - self.grid[lo])
        return (1 - theta) * self._values[lo] + theta * self._values[idx]

    def values(self, ts) -> np.ndarray:
        """:meth:`evaluator` at every time of the 1-d ``ts``, bitwise, stacked
        (T, d^2, d^2) from one batched search of the table."""
        ts = np.asarray(ts, dtype=float)
        if self.grid is None:
            return np.stack([self._scaled(t) for t in ts.tolist()])
        outside = (ts < self.grid[0]) | (ts > self.grid[-1])
        if outside.any():
            return self.evaluator(ts[outside][0])  # raises its ValueError
        if self._cubic is not None:
            i = np.minimum(np.searchsorted(self.grid, ts, side="right"), len(self.grid) - 1) - 1
            return self._spline(self._cubic[i], (ts - self.grid[i])[:, None])
        idx = np.searchsorted(self.grid, ts)
        lo = idx - 1  # wraps at the first node, which is always hit
        theta = ((ts - self.grid[lo]) / (self.grid[idx] - self.grid[lo]))[:, None, None]
        value = (1 - theta) * self._values[lo] + theta * self._values[idx]
        hit = self.grid[idx] == ts
        value[hit] = self._values[idx[hit]]
        return value

    def __call__(self, t: float) -> SuperOp:
        """The fully scaled generator at t."""
        return SuperOp(self.dim, self.evaluator(t))


def build_generator(
    model: SystemModel,
    bath: BathSpec,
    order: int,
    quad: QuadratureSpec,
    t_max: float,
    interp: str = "linear",
) -> Generator:
    """The :class:`Generator` of ``model`` on ``bath`` over ``[0, t_max]``.

    ``interp`` is one of ``"linear"`` (default), ``"cubic"`` (spline through
    the tabulated matrices, useful when the stepper error budget is tighter
    than linear interpolation allows) or ``"direct"`` (no grid: every
    evaluation computes the coefficients at the requested time); the grid has
    ``max(33, ceil(t_max * nodes_per_unit_time) + 1)`` uniform nodes.  Every
    mode draws on one memo of the unscaled coefficients, so each K2(t) and
    K4(t) is computed at most once per time, whatever the coupling.  K2
    always comes from the closed form.  K4 takes one route per table: with a
    grid the memo is filled when the generator is built, every node's K2
    from one :func:`K2_exact_grid` call and, where :func:`_k4_exact_is_cheaper`
    at ``t_max``, every node's K4 from one :func:`K4_exact_grid` evaluation,
    which takes its K2 J term from that K2; else every node's K4 from
    :func:`K4_influence` on ``quad`` (the two agree to about 1e-12 relative
    at the default quadrature).  Times off the grid, and every time in
    ``"direct"`` mode, are one-node tables: :func:`K2_exact`, and K4 by the
    rule at that time.  ``order``, ``interp`` and ``t_max`` are checked
    before any coefficient is computed.
    """
    _check_order_and_interp(order, interp)
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be positive and finite, got {t_max}")

    memo: dict[float, Coefficients] = {}

    def fourth(t: float) -> np.ndarray | None:
        if order == 2:
            return None
        if _k4_exact_is_cheaper(model, bath, quad, t):
            return K4_exact(model, bath, t).matrix
        return K4_influence(model, bath, t, quad).matrix

    def coefficients(t: float) -> Coefficients:
        if t not in memo:
            memo[t] = Coefficients(K2_exact(model, bath, t).matrix, fourth(t))
        return memo[t]

    n_nodes = max(33, math.ceil(t_max * quad.nodes_per_unit_time) + 1)
    grid = None if interp == "direct" else np.linspace(0.0, t_max, n_nodes)
    if grid is not None:
        k2 = K2_exact_grid(model, bath, t_max, n_nodes - 1)
        k4 = (_k4_exact_grid(model, bath, t_max, n_nodes - 1, k2)
              if order == 4 and _k4_exact_is_cheaper(model, bath, quad, t_max) else None)
        for i, t in enumerate(grid):
            memo[t] = Coefficients(k2[i], fourth(t) if k4 is None else k4[i])
    return Generator(order, model.alpha, model.dim, coefficients, grid, interp)
