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
:mod:`tclgen.exact` (:func:`K2_exact`, :func:`K4_exact`), except K4 on baths
with so many modes that the exact route would cost more than quadrature
(:func:`_k4_exact_is_cheaper`).  :func:`K4_exact` is the ordered-cumulant
route (the partially unordered form J4' - K2 J), and the kernel table here
stays as its check, so the ``gen_diff`` of a run's report (the generator's
K4 against the kernel table) is a cross-route number.  The quadrature routes
are otherwise the independent checks: :func:`K2_influence` and
:func:`K4_influence` integrate the kernel formulas numerically, and
:func:`K4_cumulant_ordered` computes K4 along two routes built on the moment
machinery -- the fully time-ordered cumulant sum and the partially unordered
two-term form J4' - K2 J, which share one four-point integral -- and raises
:class:`EquivalenceError` if they disagree beyond quadrature accuracy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline

from .algebra import (
    SuperOp,
    SystemModel,
    anticommutator_super_batch,
    commutator_super_batch,
    heisenberg_X_batch,
)
from .bath import BathSpec, kernel_D, kernel_D1
from .cumulant import K_n_cumulant, _order4_pieces, forward_map_correction
from .exact import K2_exact, K4_exact, k4_chain_count
from .quadrature import GAUSS_POINT_CAP, QuadratureSpec, integrate_interval, integrate_simplex3

__all__ = [
    "EquivalenceError",
    "K4_TERM_TABLE",
    "K4Term",
    "Coefficients",
    "Generator",
    "K2_influence",
    "K4_influence",
    "K4_cumulant_ordered",
    "build_generator",
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


def _k4_integrand(model: SystemModel, bath: BathSpec, t: float):
    """Batched evaluator of the term-table integrand (without the 1/4), in
    the contracted form :func:`integrate_simplex3` calls.

    Every string holds slot 3 once, and one lag of every kernel product runs
    through t3, so the t3 nodes are summed on the operator first: one
    ``sum_c w3 k(lag) X(t3)`` per pattern and kernel ``k`` on that lag, whose
    bracket then stands in for slot 3.  Every string opens with Xc(t), which
    is applied once to the sum of the rest.
    """
    kernels = {"D": kernel_D, "D1": kernel_D1}
    brackets = {"c": commutator_super_batch, "a": anticommutator_super_batch}
    xc0 = commutator_super_batch(heisenberg_X_batch(model, np.array([t])))[0]

    def f(t1: float, t2: np.ndarray, t3: np.ndarray, w3: np.ndarray) -> np.ndarray:
        # per pattern: (lag through t2, lag through t3)
        lags = {"t-2,1-3": (t - t2, t1 - t3), "t-3,1-2": (t1 - t2, t - t3)}
        weights = np.stack([w3 * kernels[k](bath, lags[p][1]) for p, k in _T3_CONTRACTIONS])
        x3 = dict(zip(_T3_CONTRACTIONS, heisenberg_X_batch(model, t3, weights)))
        x2 = heisenberg_X_batch(model, t2)
        ops = {
            ("c", 1): commutator_super_batch(heisenberg_X_batch(model, np.array([t1]))),
            ("c", 2): commutator_super_batch(x2),
            ("a", 2): anticommutator_super_batch(x2),
        }
        acc = np.zeros((t2.shape[0], model.dim**2, model.dim**2), dtype=complex)
        for term in K4_TERM_TABLE:
            k2, k3 = _lag_kernels(term)
            prod = None
            for kind, slot in term.ops[1:]:
                key = (kind, slot) if slot < 3 else (kind, term.pattern, k3)
                if key not in ops:
                    ops[key] = brackets[kind](x3[key[1:]])
                prod = ops[key] if prod is None else prod @ ops[key]
            scal = term.coeff * kernels[k2](bath, lags[term.pattern][0])
            acc += scal[:, None, None] * prod
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fully ordered cumulant sum, partially unordered form J4' - K2 J, K2 J),
    from one four-point integral J4'.  K2 J factorizes: t1, t2 span [0, t]."""
    four_point, products = _order4_pieces(model, bath, t, quad)
    k2j = K_n_cumulant(model, bath, t, 2, quad).matrix @ forward_map_correction(
        model, bath, t, quad)
    return four_point + products, four_point - k2j, k2j


def K4_cumulant_ordered(
    model: SystemModel, bath: BathSpec, t: float, quad: QuadratureSpec
) -> SuperOp:
    """Fourth-order generator from ordered cumulants, with a built-in check.

    Evaluates both the fully time-ordered cumulant assembly and the partially
    unordered form on the same quadrature settings; if they disagree by more
    than 10x the larger of the quadrature tolerance and the self-estimated
    refinement error, raises :class:`EquivalenceError`.  Returns the fully
    ordered value.  Differences are relative to the larger form, or to
    1e-6 ||K2 J|| where K4 vanishes and both forms are round-off.  The
    coarse pass of the self-estimate runs only where the coarsened grid has
    fewer points per dimension; elsewhere the estimate is exactly 0.  Warns
    (``UserWarning``) at 4 nodes per unit time, which coarsening cannot
    halve, and where both Gauss grids sit at the per-dimension node cap.
    """
    if t == 0.0:
        return SuperOp(model.dim, np.zeros((model.dim**2, model.dim**2), complex))
    coarse = quad.coarsened()
    # only Gauss grids reach the cap together: distinct Simpson grids differ in size
    if coarse == quad or quad.points(t) == coarse.points(t) == GAUSS_POINT_CAP:
        warnings.warn(
            f"K4_cumulant_ordered at t = {t}: the coarsened grid equals the fine one "
            f"({quad.points(t)} points per dimension at {quad.nodes_per_unit_time} nodes "
            f"per unit time; the density floor is 4 and Gauss grids stop at the "
            f"{GAUSS_POINT_CAP}-node cap), so the refinement error estimate is 0 and "
            f"the check uses the tolerance alone",
            UserWarning,
            stacklevel=2,
        )
    ordered, unordered, k2j = _k4_ordered_pieces(model, bath, t, quad)
    scale = max(np.linalg.norm(ordered), np.linalg.norm(unordered),
                1e-6 * np.linalg.norm(k2j), 1e-300)
    rel = np.linalg.norm(ordered - unordered) / scale
    est = 0.0
    if quad.points(t) != coarse.points(t):
        coarse_ordered, coarse_unordered, _ = _k4_ordered_pieces(model, bath, t, coarse)
        est = max(np.linalg.norm(ordered - coarse_ordered),
                  np.linalg.norm(unordered - coarse_unordered)) / scale
    threshold = 10.0 * max(quad.tolerance, est)
    if rel > threshold:
        raise EquivalenceError(
            f"ordered and unordered fourth-order routes disagree: relative "
            f"difference {rel:.3e} exceeds {threshold:.3e} at t = {t}"
        )
    return SuperOp(model.dim, ordered)


def _k4_exact_is_cheaper(dim: int, chains: int, points: int) -> bool:
    """Whether :func:`K4_exact` costs less than :func:`K4_influence`.

    ``chains`` is :func:`k4_chain_count` and ``points`` the quadrature points
    per dimension at t (:meth:`QuadratureSpec.points`).  Measured on one BLAS
    thread (Intel Xeon) on discretized spectral densities for d = 2, 3, 4,
    2 to 30 modes and 8 to 64 Gauss points: the exact route takes about
    5e-6 s x chains x d^4, the quadrature about 6e-5 s x points^2 x d, so
    the exact route is the cheaper one while chains x d^3 <= 12 points^2.
    For a two-level system at t = 2 and 16 nodes per unit time that holds
    up to 11 modes.
    """
    return chains * dim**3 <= 12 * points**2


class Coefficients(NamedTuple):
    """Unscaled generator coefficients at one time, as memoized.

    ``k4_route`` names the function that filled ``k4``: ``"K4_exact"``, or
    ``"K4_influence"`` on the generator's quadrature; None at order 2.
    """

    k2: np.ndarray
    k4: np.ndarray | None
    k4_route: str | None


@dataclass
class Generator:
    """Evaluable time-local generator K(t) = alpha^2 K2(t) [+ alpha^4 K4(t)].

    ``evaluator(t)`` returns the fully scaled SuperOp.  ``grid`` records the
    cache nodes; ``interp`` the interpolation rule between them.
    ``coefficients(t)``, set by :func:`build_generator`, returns the unscaled
    :class:`Coefficients` at t from the generator's memo (the arrays are
    shared, not copied); it accepts any time, including times past the grid.
    """

    order: int
    alpha: float
    dim: int
    evaluator: Callable[[float], SuperOp] = field(repr=False)
    grid: np.ndarray | None = None
    interp: str = "linear"
    coefficients: Callable[[float], Coefficients] | None = field(
        default=None, init=False, repr=False
    )

    def __call__(self, t: float) -> SuperOp:
        return self.evaluator(t)


def build_generator(
    model: SystemModel,
    bath: BathSpec,
    order: int,
    quad: QuadratureSpec,
    t_max: float,
    n_cache: int | None = None,
    interp: str = "linear",
) -> Generator:
    """Precompute the generator on a time grid and wrap an evaluator.

    ``interp`` is one of ``"linear"`` (default), ``"cubic"`` (spline through
    the cached matrices, useful when the stepper error budget is tighter than
    linear interpolation allows) or ``"direct"`` (no grid: every evaluation
    computes the coefficients at the requested time).  Every mode draws on
    one memo of the unscaled coefficients, so each K2(t) and K4(t) is
    computed at most once per time.  K2 always comes from :func:`K2_exact`.
    K4 comes from :func:`K4_exact` where :func:`_k4_exact_is_cheaper`, else
    from :func:`K4_influence` on ``quad``; the two agree to about 1e-12
    relative at the default quadrature.  ``quad`` also sets the grid density
    (``nodes_per_unit_time``).  Grid nodes always return the directly
    computed values; ``"linear"`` and ``"cubic"`` raise ``ValueError``
    outside ``[0, t_max]``.
    """
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order}")
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    if interp not in ("linear", "cubic", "direct"):
        raise ValueError(f"unknown interpolation {interp!r}")

    memo: dict[float, Coefficients] = {}
    chains = k4_chain_count(bath) if order == 4 else 0

    def fourth(t: float) -> tuple[np.ndarray | None, str | None]:
        if order == 2:
            return None, None
        if _k4_exact_is_cheaper(model.dim, chains, quad.points(t)):
            return K4_exact(model, bath, t).matrix, "K4_exact"
        return K4_influence(model, bath, t, quad).matrix, "K4_influence"

    def coefficients(t: float) -> Coefficients:
        if t not in memo:
            memo[t] = Coefficients(K2_exact(model, bath, t).matrix, *fourth(t))
        return memo[t]

    def compute(t: float) -> np.ndarray:
        k2, k4, _ = coefficients(t)
        mat = model.alpha**2 * k2
        if k4 is not None:
            mat = mat + model.alpha**4 * k4
        return mat

    if interp == "direct":
        grid = None

        def evaluator(t: float) -> SuperOp:
            return SuperOp(model.dim, compute(t))

    else:
        n_nodes = n_cache if n_cache is not None else max(
            33, int(np.ceil(t_max * quad.nodes_per_unit_time)) + 1
        )
        grid = np.linspace(0.0, t_max, n_nodes)
        values = np.stack([compute(t) for t in grid])
        spline = CubicSpline(grid, values, axis=0) if interp == "cubic" else None

        def evaluator(t: float) -> SuperOp:
            if t < grid[0] or t > grid[-1]:
                raise ValueError(f"time {t} outside cached range [0, {grid[-1]}]")
            if spline is not None:
                return SuperOp(model.dim, np.asarray(spline(t)))
            idx = np.searchsorted(grid, t)
            if grid[idx] == t:
                return SuperOp(model.dim, values[idx].copy())
            lo = idx - 1
            theta = (t - grid[lo]) / (grid[idx] - grid[lo])
            return SuperOp(model.dim, (1 - theta) * values[lo] + theta * values[idx])

    gen = Generator(order, model.alpha, model.dim, evaluator, grid, interp)
    gen.coefficients = coefficients
    return gen
