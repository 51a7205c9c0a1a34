"""Ordered cumulants of the interaction Liouvillian and their assembly.

The interaction-picture Liouvillian is L(s) rho = i [X(s) B(s), rho].  The
time-local generator at order n is a signed sum of products of moment
superoperators

    <L(s_1) ... L(s_k)> rho = i^k tr_B [X B, [X B, ... [X B, rho x rho_B]]],

integrated over the ordered simplex t >= t_1 >= ... >= t_{n-1} >= 0.  The
terms follow the ordered-cumulant rules: partition the n factors into q
contiguous substrings (sign (-1)^(q-1)); the first substring starts with the
pinned time t; the remaining times are distributed over the substrings in all
ways that keep each substring chronologically ordered.

Moments are evaluated by expanding every L into left and right
multiplications and weighting each of the 2^k placements by the thermal
expectation of its bath-operator string, which Wick's theorem reduces to a
sum over perfect pairings of two-point correlations (operator order taken
from the string).

The fully ordered order-4 sum and the partially unordered form J4' - K2 J,
with J from :func:`forward_map_correction`, share one four-point integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .algebra import SuperOp, SystemModel, _kron_batch, heisenberg_X_batch
from .bath import BathSpec, bath_correlation
from .quadrature import (
    QuadratureSpec,
    integrate_interval,
    integrate_simplex2,
    integrate_simplex3,
)

__all__ = [
    "CumulantTerm",
    "enumerate_ordered_cumulant_terms",
    "drop_odd_terms",
    "moment_superop",
    "K_n_cumulant",
    "forward_map_correction",
]


@dataclass(frozen=True)
class CumulantTerm:
    """One signed product of moments in the order-n expansion.

    ``substrings`` lists, per factor, the time-slot indices it carries: slot 0
    is the pinned time t, slots 1..n-1 are the integration variables in
    decreasing time order.  Each tuple is strictly increasing and the first
    one starts with 0.  Factors compose left to right (the rightmost acts on
    the state first).
    """

    n: int
    substrings: tuple[tuple[int, ...], ...]

    @property
    def partition(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.substrings)

    @property
    def sign(self) -> int:
        return -1 if (len(self.substrings) - 1) % 2 else 1

    def is_even(self) -> bool:
        return all(len(s) % 2 == 0 for s in self.substrings)

    def format_line(self) -> str:
        parts = "".join(
            "(" + ",".join("t" if i == 0 else f"t{i}" for i in sub) + ")"
            for sub in self.substrings
        )
        sign = "+" if self.sign > 0 else "-"
        return f"{sign} {'+'.join(str(p) for p in self.partition):<8} {parts}"


def enumerate_ordered_cumulant_terms(n: int) -> list[CumulantTerm]:
    """All order-n terms, duplicate free, in a deterministic order."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    terms: list[CumulantTerm] = []
    for comp in _compositions(n):
        for assignment in _distribute(tuple(range(1, n)), comp):
            terms.append(CumulantTerm(n, assignment))
    return terms


def drop_odd_terms(terms: list[CumulantTerm]) -> list[CumulantTerm]:
    """Keep only terms whose substrings all have even length.

    For the Gaussian reservoir used here every odd bath moment vanishes, so
    any factor of odd length is zero.
    """
    return [t for t in terms if t.is_even()]


def _compositions(n: int):
    """Ordered compositions of n (all part sizes >= 1)."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _distribute(slots: tuple[int, ...], comp: tuple[int, ...]):
    """Assign slots to substrings of sizes comp, sorted within each.

    The first substring implicitly holds slot 0, so it draws comp[0]-1 slots.
    """
    sizes = (comp[0] - 1,) + comp[1:]

    def rec(remaining: tuple[int, ...], idx: int):
        if idx == len(sizes):
            yield ()
            return
        for chosen in combinations(remaining, sizes[idx]):
            rest = tuple(s for s in remaining if s not in chosen)
            for tail in rec(rest, idx + 1):
                yield (chosen,) + tail

    for groups in rec(slots, 0):
        yield ((0,) + groups[0],) + groups[1:]


# --- moment superoperators ---------------------------------------------------


@lru_cache(maxsize=8)
def _placements(k: int) -> tuple:
    """Left/right expansions of a k-fold nested commutator.

    Each entry is (left_indices, right_indices, string_order, parity_sign):
    ``left`` ascending (outermost factor leftmost), ``right`` ascending; the
    bath expectation string carries the right block in descending index order
    followed by the left block ascending, which ``string_order`` records.
    """
    out = []
    for bits in range(2**k):
        left = tuple(i for i in range(k) if not (bits >> i) & 1)
        right = tuple(i for i in range(k) if (bits >> i) & 1)
        string_order = tuple(reversed(right)) + left
        out.append((left, right, string_order, -1 if len(right) % 2 else 1))
    return tuple(out)


@lru_cache(maxsize=8)
def _pairings(k: int) -> tuple:
    """Perfect pairings of string positions 0..k-1 (k even)."""

    def rec(positions: tuple[int, ...]):
        if not positions:
            yield ()
            return
        first, rest = positions[0], positions[1:]
        for j, partner in enumerate(rest):
            remaining = rest[:j] + rest[j + 1 :]
            for tail in rec(remaining):
                yield ((first, partner),) + tail

    return tuple(rec(tuple(range(k))))


def _moment_matrix_batch(
    model: SystemModel, bath: BathSpec, times: list, batch: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Batched matrix of <L(times[0]) ... L(times[k-1])>, shape (B, d^2, d^2).

    Each entry of ``times`` is a scalar or a length-``batch`` array; scalars
    broadcast.  Times must be arranged non-increasing slotwise by the caller.
    With ``weights`` of shape (B, C), the last slot is contracted:
    ``times[-1]`` has that shape too (or broadcasts to it), and the result is
    ``sum_c weights[:, c] <L(times[0]) ... L(times[-1][:, c])>``.  The Wick
    pair through the last slot is summed with its operator at the d x d
    level, so every superoperator is formed once per batch entry.
    """
    k = len(times)
    d = model.dim
    if weights is None:
        weights = np.ones((batch, 1))
        times = [*times[:-1], np.broadcast_to(times[-1], (batch,))[:, None]]
    tarrs = [np.broadcast_to(np.asarray(s, dtype=float), (batch,)) for s in times[:-1]]
    last = np.broadcast_to(np.asarray(times[-1], dtype=float), weights.shape)
    xs = [heisenberg_X_batch(model, ta) for ta in tarrs]
    # the last slot's operator contracted with its pair's correlation, per
    # partner slot j and order in the string: C(t_j - t_last) or C(t_last - t_j)
    keys = [(j, last_first) for j in range(k - 1) for last_first in (False, True)]
    taus = [last - tarrs[j][:, None] if lf else tarrs[j][:, None] - last for j, lf in keys]
    pair_weights = np.stack([weights * bath_correlation(bath, tau) for tau in taus])
    contracted = dict(zip(keys, heisenberg_X_batch(model, last, pair_weights)))
    corr = {}
    eye = np.broadcast_to(np.eye(d, dtype=complex), (batch, d, d))
    acc = np.zeros((batch, d * d, d * d), dtype=complex)
    for left, right, order, parity in _placements(k):
        # Wick sum over pairings, the pair through the last slot inside y
        y = np.zeros((batch, d, d), dtype=complex)
        for pairing in _pairings(k):
            w = np.ones(batch, dtype=complex)
            for p, q in pairing:
                a, b = order[p], order[q]
                if k - 1 in (a, b):  # partner slot, and whether the last slot comes first
                    key = (a + b - (k - 1), a == k - 1)
                else:
                    if (a, b) not in corr:
                        corr[a, b] = bath_correlation(bath, tarrs[a] - tarrs[b])
                    w = w * corr[a, b]
            y += w[:, None, None] * contracted[key]
        ops = xs + [y]
        lmat = eye
        for i in left:
            lmat = lmat @ ops[i]
        rmat = eye
        for j in reversed(right):  # descending index: earliest-applied innermost
            rmat = rmat @ ops[j]
        acc += (1j**k * parity) * _kron_batch(np.transpose(rmat, (0, 2, 1)), lmat)
    return acc


def moment_superop(model: SystemModel, bath: BathSpec, times) -> SuperOp:
    """Moment superoperator <L(s1) ... L(s_2m)> for non-increasing times."""
    ts = [float(s) for s in times]
    if len(ts) == 0 or len(ts) % 2:
        raise ValueError(f"need an even, positive number of times, got {len(ts)}")
    if any(a < b for a, b in zip(ts, ts[1:])):
        raise ValueError(f"times must be non-increasing, got {ts}")
    mat = _moment_matrix_batch(model, bath, ts, 1)[0]
    return SuperOp(model.dim, mat)


def _term_integrand(model, bath, term: CumulantTerm, t: float):
    """Batched integrand for one order-4 term on the simplex (t1, t2, t3), in
    the contracted form :func:`integrate_simplex3` calls.

    Slot 3 is the last slot of exactly one substring, and the term is linear
    in that factor, so its moment takes the t3 weights and the product is
    formed once per (t1, t2) node.
    """

    def f(t1: float, t2: np.ndarray, t3: np.ndarray, w3: np.ndarray) -> np.ndarray:
        batch = t2.shape[0]
        slot_times = {0: t, 1: t1, 2: t2, 3: t3}
        prod = None
        for sub in term.substrings:
            times = [slot_times[i] for i in sub]
            if 3 in sub:
                fac = _moment_matrix_batch(model, bath, times, batch, w3)
            else:
                # factors depending only on the scalar slots are batch independent
                fac = _moment_matrix_batch(model, bath, times, batch if 2 in sub else 1)
            prod = fac if prod is None else prod @ fac
        return float(term.sign) * prod

    return f


def _order4_pieces(
    model: SystemModel, bath: BathSpec, t: float, quad: QuadratureSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The even order-4 terms, each integrated once over the triple simplex:
    (the chronological four-point term, the sum of the signed 2+2 products)."""
    four_point = products = None
    for term in drop_odd_terms(enumerate_ordered_cumulant_terms(4)):
        part = integrate_simplex3(_term_integrand(model, bath, term, t), t, quad)
        if term.partition == (4,):
            four_point = part
        else:
            products = part if products is None else products + part
    return four_point, products


def K_n_cumulant(
    model: SystemModel, bath: BathSpec, t: float, n: int, quad: QuadratureSpec
) -> SuperOp:
    """Order-n generator assembled from the even ordered-cumulant terms.

    Supported orders: 2 and 4.  Order 2 is the single two-point moment
    integrated over t1; order 4 sums the fully time-ordered four-point moment
    and the three signed two-point products over the triple simplex.
    """
    if n == 2:
        mat = integrate_interval(
            lambda t1: _moment_matrix_batch(model, bath, [t, t1], t1.shape[0]),
            t,
            quad,
        )
        return SuperOp(model.dim, mat)
    if n == 4:
        four_point, products = _order4_pieces(model, bath, t, quad)
        return SuperOp(model.dim, four_point + products)
    raise ValueError(f"only orders 2 and 4 are implemented, got {n}")


def forward_map_correction(
    model: SystemModel, bath: BathSpec, t: float, quad: QuadratureSpec
) -> np.ndarray:
    """The coupling-independent double integral int_0^t int_0^t1 <L L>, by
    quadrature (the check route for :func:`tclgen.exact.forward_map_exact`)."""
    return integrate_simplex2(
        lambda t1, t2: _moment_matrix_batch(model, bath, [t1, t2], t2.shape[0]),
        float(t),
        quad,
    )
