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

from .algebra import SuperOp, SystemModel, heisenberg_X_batch
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


@lru_cache(maxsize=8)
def _wick_table(k: int) -> tuple[np.ndarray, tuple, np.ndarray, np.ndarray]:
    """The Wick sums of every placement, as data for :func:`_moment_matrix_batch`.

    Each pairing of a placement's string pairs the last slot with a partner
    slot j, the last slot first in the string or not: key 2 j + last_first.
    Its other pairs contribute a product of correlations C(t_a - t_b) of the
    first k - 1 slots, (a, b) in string order.  Returns (the 0/1 matrix that
    sums the pairing terms into (placement, key) entries, flattened
    placement-major; the slot pairs (a, b) whose correlations occur; per
    term, the indices of its k/2 - 1 correlations in that list; the sign
    i^k (-1)^(len right) of each placement).
    """
    placements, pairings = _placements(k), _pairings(k)
    select = np.zeros((len(placements) * 2 * (k - 1), len(placements) * len(pairings)))
    pairs: dict[tuple[int, int], int] = {}
    index = []
    for p, (_, _, order, _) in enumerate(placements):
        for pairing in pairings:
            row = []
            for u, v in pairing:
                a, b = order[u], order[v]
                if k - 1 in (a, b):
                    key = 2 * (a + b - (k - 1)) + (a == k - 1)
                else:
                    row.append(pairs.setdefault((a, b), len(pairs)))
            select[p * 2 * (k - 1) + key, len(index)] = 1.0
            index.append(row)
    signs = np.array([1j**k * parity for *_, parity in placements])
    return select, tuple(pairs), np.array(index, dtype=int), signs


def _moment_matrix_batch(
    model: SystemModel, bath: BathSpec, times: list, batch: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Batched matrix of <L(times[0]) ... L(times[k-1])>, shape (B, d^2, d^2).

    Each entry of ``times`` is a scalar or a length-``batch`` array; scalars
    broadcast.  Times must be arranged non-increasing slotwise by the caller.
    With real ``weights`` of shape (B, C), the last slot is contracted:
    ``times[-1]`` has that shape too (or broadcasts to it), and the result is
    ``sum_c weights[:, c] <L(times[0]) ... L(times[-1][:, c])>``.  The Wick
    pair through the last slot is summed with its operator at the d x d
    level, so every superoperator is formed once per batch entry.

    Placement p multiplies vec(rho) by kron(R_p^T, A_p) for a left product
    A_p and a right product R_p of the slot operators; the 2^k placements
    are summed as one batched product (B, d^2, P) @ (B, P, d^2) followed by
    an axis permutation.
    """
    k = len(times)
    d = model.dim
    if weights is None:
        weights = np.ones((batch, 1))
        times = [*times[:-1], np.broadcast_to(times[-1], (batch,))[:, None]]
    tarrs = [np.broadcast_to(np.asarray(s, dtype=float), (batch,)) for s in times[:-1]]
    last = np.broadcast_to(np.asarray(times[-1], dtype=float), weights.shape)
    rights, lefts = _placement_products(model, tarrs, _wick_sums(model, bath, tarrs, last, weights))
    acc = rights @ lefts
    return acc.reshape(batch, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(batch, d * d, d * d)


def _wick_sums(model: SystemModel, bath: BathSpec, tarrs: list, last: np.ndarray,
               weights: np.ndarray) -> np.ndarray:
    """The last slot's operator in each placement p, s_p times its Wick sum:
    (B, 2^k, d, d), placements in the order of :func:`_placements`.

    Every pairing pairs the last slot with a partner slot j; the last
    slot's operator, contracted with that pair's correlation, is formed once
    per partner and order in the string, and each placement weights these
    by the correlations of its pairings' other pairs.
    """
    k, (batch, _) = len(tarrs) + 1, last.shape
    select, pairs, index, signs = _wick_table(k)
    # per partner slot j, sum_c w C(t_j - t_last) X(t_last); with the last
    # slot first the correlation is C(t_last - t_j), its conjugate, and as X
    # is Hermitian and w real, the sum is the Hermitian conjugate
    contracted = heisenberg_X_batch(model, last, weights[:, None] * bath_correlation(
        bath, np.stack(tarrs, axis=1)[:, :, None] - last[:, None]))
    contracted = np.stack([contracted, contracted.conj().swapaxes(2, 3)], axis=2)
    terms = np.ones((index.shape[0], batch), dtype=complex)
    if pairs:
        corr = bath_correlation(bath, np.stack([tarrs[a] - tarrs[b] for a, b in pairs]))
        terms = np.prod(corr[index], axis=1)
    coef = (terms.T @ select.T).reshape(batch, signs.size, -1) * signs[:, None]
    d = model.dim
    return (coef @ contracted.reshape(batch, -1, d * d)).reshape(batch, signs.size, d, d)


def _placement_products(model: SystemModel, tarrs: list, y: np.ndarray):
    """(R_p^T as (B, d^2, P), A_p as (B, P, d^2)) for every placement p.

    The left product A_p runs over the slots on the left in ascending order,
    the right product R_p over those on the right in descending order; the
    last slot's operator ``y[:, p]`` closes one of the two.  The other
    slots' products are built slot by slot, indexed by the bits of the slots
    placed on the right.
    """
    batch, placements, d, _ = y.shape
    left = right = np.broadcast_to(np.eye(d, dtype=complex), (batch, 1, d, d))
    for ta in tarrs:
        x = heisenberg_X_batch(model, ta)[:, None]
        left, right = (np.concatenate([left @ x, left], axis=1),
                       np.concatenate([right, x @ right], axis=1))
    half = placements // 2  # the last slot on the left: the first half
    lefts = np.concatenate([left @ y[:, :half], left], axis=1)
    rights = np.concatenate([right, y[:, half:] @ right], axis=1)
    return (rights.swapaxes(2, 3).reshape(batch, placements, d * d).swapaxes(1, 2),
            lefts.reshape(batch, placements, d * d))


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
    formed once per (t1, t2) node.  A factor on the slots (t, t1) alone is
    evaluated once per distinct t1 of the chunk.
    """

    def f(t1: np.ndarray, t2: np.ndarray, t3: np.ndarray, w3: np.ndarray) -> np.ndarray:
        batch = t2.shape[0]
        slot_times = {0: t, 1: t1, 2: t2, 3: t3}
        prod = None
        for sub in term.substrings:
            times = [slot_times[i] for i in sub]
            if 3 in sub:
                fac = _moment_matrix_batch(model, bath, times, batch, w3)
            elif 2 in sub:
                fac = _moment_matrix_batch(model, bath, times, batch)
            else:  # slots t and t1 only
                distinct, where = np.unique(t1, return_inverse=True)
                times = [distinct if i else t for i in sub]
                fac = _moment_matrix_batch(model, bath, times, distinct.size)[where]
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
        lambda t1, t2: _moment_matrix_batch(model, bath, [t1, t2], t1.shape[0]),
        float(t),
        quad,
    )
