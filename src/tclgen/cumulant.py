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

A two-point moment has one Wick pairing and a closed form,

    <L(a) L(b)> rho = -[X(a), Y rho - rho Y^dag],   Y = C(t_a - t_b) X(b),

and it is linear in Y, so a weighted sum over the later time is the same
map with Y summed on the d x d operator.  Longer moments (the four-point
one, and :func:`moment_superop`) are evaluated by expanding every L into
left and right multiplications and weighting each of the 2^k placements by
the thermal expectation of its bath-operator string, which Wick's theorem
reduces to a sum over perfect pairings of two-point correlations (operator
order taken from the string).

At order 4 the four even terms are integrated in one pass over the triple
simplex: per chunk of nodes every operator, correlation and contraction the
terms share is built once, and the terms' substrings key a table of their
moments.  The fully ordered order-4 sum and the partially unordered form
J4' - K2 J, with J from :func:`forward_map_correction`, share that
four-point integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations

import numpy as np

from .algebra import (
    SuperOp,
    SystemModel,
    _kron_batch,
    commutator_super_batch,
    heisenberg_X_batch,
)
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


def _slot_pairs(n: int) -> tuple:
    """The slot pairs (a, b), a < b < n, in the order of :func:`_slot_correlations`."""
    return tuple(combinations(range(n), 2))


@lru_cache(maxsize=8)
def _wick_table(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Wick sums of every placement, as data for :func:`_moment_from_slots`.

    Each pairing of a placement's string pairs the last slot with a partner
    slot j, the last slot first in the string or not: key 2 j + last_first.
    Its other pairs contribute a product of correlations C(t_a - t_b) of the
    first k - 1 slots, (a, b) in string order, drawn from the P rows of
    :func:`_slot_correlations` stacked over their conjugates: row i where
    (a, b) is the i-th pair, row P + i where (b, a) is, as C(t_a - t_b) is
    the conjugate of C(t_b - t_a).  Returns (the 0/1 matrix that sums the
    pairing terms into (placement, key) entries, flattened placement-major;
    per term, the rows of its k/2 - 1 correlations; the sign
    i^k (-1)^(len right) of each placement).
    """
    placements, pairings, pairs = _placements(k), _pairings(k), _slot_pairs(k - 1)
    select = np.zeros((len(placements) * 2 * (k - 1), len(placements) * len(pairings)))
    index = []
    for p, (_, _, order, _) in enumerate(placements):
        for pairing in pairings:
            row = []
            for u, v in pairing:
                a, b = order[u], order[v]
                if k - 1 in (a, b):
                    key = 2 * (a + b - (k - 1)) + (a == k - 1)
                else:
                    row.append(pairs.index((min(a, b), max(a, b))) + len(pairs) * (a > b))
            select[p * 2 * (k - 1) + key, len(index)] = 1.0
            index.append(row)
    signs = np.array([1j**k * parity for *_, parity in placements])
    return select, np.array(index, dtype=int), signs


def _moment_matrix_batch(
    model: SystemModel, bath: BathSpec, times: list, batch: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Batched matrix of <L(times[0]) ... L(times[k-1])>, shape (B, d^2, d^2).

    Each entry of ``times`` is a scalar or a length-``batch`` array; scalars
    broadcast.  Times must be arranged non-increasing slotwise by the caller.
    With real ``weights`` of shape (B, C), the last slot is contracted:
    ``times[-1]`` has that shape too (or broadcasts to it), and the result is
    ``sum_c weights[:, c] <L(times[0]) ... L(times[-1][:, c])>``.  Builds the
    slots' ingredients and sums the placements (:func:`_moment_from_slots`).
    """
    if weights is None:
        weights = np.ones((batch, 1))
        times = [*times[:-1], np.broadcast_to(times[-1], (batch,))[:, None]]
    tarrs = [np.broadcast_to(np.asarray(s, dtype=float), (batch,)) for s in times[:-1]]
    last = np.broadcast_to(np.asarray(times[-1], dtype=float), weights.shape)
    return _moment_from_slots([heisenberg_X_batch(model, ta) for ta in tarrs],
                              _contractions(model, bath, tarrs, last, weights),
                              _slot_correlations(bath, tarrs))


def _contractions(model: SystemModel, bath: BathSpec, tarrs: list, last: np.ndarray,
                  weights: np.ndarray) -> np.ndarray:
    """The last slot's operator contracted with each partner slot j,
    ``Y_j = sum_c weights[:, c] C(t_j - last[:, c]) X(last[:, c])``, for
    the slots ``tarrs`` (each of shape (B,)): shape (B, len(tarrs), d, d).
    The sum over c is taken on the d x d operator."""
    lags = np.stack(tarrs, axis=1)[:, :, None] - last[:, None]
    return heisenberg_X_batch(model, last, weights[:, None] * bath_correlation(bath, lags))


def _slot_correlations(bath: BathSpec, tarrs: list) -> np.ndarray:
    """C(t_a - t_b) for the slot pairs of :func:`_slot_pairs`, shape (P, B)."""
    lags = [tarrs[a] - tarrs[b] for a, b in _slot_pairs(len(tarrs))]
    if not lags:
        return np.empty((0, tarrs[0].size), dtype=complex)
    return bath_correlation(bath, np.stack(lags))


def _moment_from_slots(xs: list, ys: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """Batched matrix of <L(s_0) ... L(s_{k-1})>, shape (B, d^2, d^2), from
    its slots' ingredients: ``xs``, X(s_j) of the first k - 1 slots, each
    (B, d, d) or (1, d, d); ``ys``, the last slot's contractions of
    :func:`_contractions`; ``corr``, the correlations of
    :func:`_slot_correlations`.

    Placement p multiplies vec(rho) by kron(R_p^T, A_p) for a left product
    A_p and a right product R_p of the slot operators; the 2^k placements
    are summed as one batched product (B, d^2, P) @ (B, P, d^2) followed by
    an axis permutation.  The Wick pair through the last slot is summed with
    its operator at the d x d level, so every superoperator is formed once
    per batch entry.
    """
    batch, d = ys.shape[0], ys.shape[-1]
    rights, lefts = _placement_products(xs, _wick_sums(ys, corr))
    acc = rights @ lefts
    return acc.reshape(batch, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(batch, d * d, d * d)


def _wick_sums(ys: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """The last slot's operator in each placement p, s_p times its Wick sum:
    (B, 2^k, d, d), placements in the order of :func:`_placements`.

    Every pairing pairs the last slot with a partner slot j; the last
    slot's operator, contracted with that pair's correlation, is ``ys[:, j]``
    or its Hermitian conjugate, and each placement weights these by the
    correlations of its pairings' other pairs.
    """
    batch, partners, d, _ = ys.shape
    select, index, signs = _wick_table(partners + 1)
    # with the last slot first in the string the correlation is C(t_last - t_j),
    # the conjugate, and as X is Hermitian and w real, the sum is ys[:, j]^dag
    contracted = np.stack([ys, ys.conj().swapaxes(2, 3)], axis=2)
    terms = np.prod(np.concatenate([corr, corr.conj()])[index], axis=1)
    coef = (terms.T @ select.T).reshape(batch, signs.size, -1) * signs[:, None]
    return (coef @ contracted.reshape(batch, -1, d * d)).reshape(batch, signs.size, d, d)


def _placement_products(xs: list, y: np.ndarray):
    """(R_p^T as (B, d^2, P), A_p as (B, P, d^2)) for every placement p.

    The left product A_p runs over the slots on the left in ascending order,
    the right product R_p over those on the right in descending order; the
    last slot's operator ``y[:, p]`` closes one of the two.  The other
    slots' products are built slot by slot from their operators ``xs``,
    indexed by the bits of the slots placed on the right.
    """
    batch, placements, d, _ = y.shape
    left = right = np.broadcast_to(np.eye(d, dtype=complex), (batch, 1, d, d))
    for x in xs:
        x = x[:, None]
        left, right = (np.concatenate([left @ x, left], axis=1),
                       np.concatenate([right, x @ right], axis=1))
    half = placements // 2  # the last slot on the left: the first half
    lefts = np.concatenate([left @ y[:, :half], left], axis=1)
    rights = np.concatenate([right, y[:, half:] @ right], axis=1)
    return (rights.swapaxes(2, 3).reshape(batch, placements, d * d).swapaxes(1, 2),
            lefts.reshape(batch, placements, d * d))


def _two_point(xc: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Batched matrix of <L(t_a) L(t_b)>, shape (B, d^2, d^2), in closed form:
    rho -> -[X(t_a), y rho - rho y^dag].

    ``xc`` is the commutator superoperator of X(t_a), (B, d^2, d^2) or
    (1, d^2, d^2); ``y`` (B, d, d) is its partner, C(t_a - t_b) X(t_b), or
    a contraction ``sum_c w_c C(t_a - t_c) X(t_c)`` with real ``w_c``
    (:func:`_contractions`), which the moment is linear in.  Wick's theorem
    leaves one pairing, and C(t_b - t_a) is the conjugate of C(t_a - t_b).
    """
    eye = np.broadcast_to(np.eye(y.shape[-1], dtype=complex), y.shape)
    return -(xc @ (_kron_batch(eye, y) - _kron_batch(y.conj(), eye)))


def moment_superop(model: SystemModel, bath: BathSpec, times) -> SuperOp:
    """Moment superoperator <L(s1) ... L(s_2m)> for non-increasing times."""
    ts = [float(s) for s in times]
    if len(ts) == 0 or len(ts) % 2:
        raise ValueError(f"need an even, positive number of times, got {len(ts)}")
    if any(a < b for a, b in zip(ts, ts[1:])):
        raise ValueError(f"times must be non-increasing, got {ts}")
    mat = _moment_matrix_batch(model, bath, ts, 1)[0]
    return SuperOp(model.dim, mat)


def _order4_integrand(model: SystemModel, bath: BathSpec, t: float,
                      terms: list[CumulantTerm]):
    """Batched integrand of the even order-4 ``terms`` on the simplex
    (t1, t2, t3), in the contracted form :func:`integrate_simplex3` calls;
    it returns (B, 2, d^2, d^2): the chronological four-point term and the
    sum of the signed products of two-point moments.

    Slot 3 is the last slot of exactly one substring of every term, and the
    term is linear in that factor, so its moment takes the t3 weights and
    each product is formed once per (t1, t2) node.  Each chunk builds every
    ingredient once: X and its commutator superoperator at t (once per
    integral), at the chunk's distinct t1 and at t2; the correlations
    between these slots; and per slot j, the contraction
    ``Y_j = sum_c w3 C(t_j - t3) X(t3)``.  The four-point moment sums its
    placements (:func:`_moment_from_slots`); a two-point moment on the slots
    (a, b) is :func:`_two_point` of Xc(t_a) and C(t_a - t_b) X(t_b), or of
    Y_a where b is slot 3.  The terms' substrings key a table of these
    moments per chunk.
    """
    x0 = heisenberg_X_batch(model, np.array([t]))
    xc0 = commutator_super_batch(x0)
    pairs = _slot_pairs(3)
    substrings = sorted({sub for term in terms for sub in term.substrings})

    def f(t1: np.ndarray, t2: np.ndarray, t3: np.ndarray, w3: np.ndarray) -> np.ndarray:
        batch = t2.shape[0]
        distinct, where = np.unique(t1, return_inverse=True)
        x1 = heisenberg_X_batch(model, distinct)
        xs = [x0, x1[where], heisenberg_X_batch(model, t2)]
        xcs = [xc0, commutator_super_batch(x1)[where], commutator_super_batch(xs[2])]
        tarrs = [np.broadcast_to(float(t), (batch,)), t1, t2]
        ys = _contractions(model, bath, tarrs, t3, w3)
        corr = _slot_correlations(bath, tarrs)

        def moment(sub: tuple[int, ...]) -> np.ndarray:
            if len(sub) == 4:
                return _moment_from_slots(xs, ys, corr)
            a, b = sub
            y = ys[:, a] if b == 3 else corr[pairs.index(sub)][:, None, None] * xs[b]
            return _two_point(xcs[a], y)

        moments = {sub: moment(sub) for sub in substrings}
        out = np.zeros((batch, 2) + xcs[2].shape[1:], dtype=complex)
        for term in terms:
            piece = 0 if term.partition == (4,) else 1
            out[:, piece] += term.sign * reduce(np.matmul, [moments[s] for s in term.substrings])
        return out

    return f


def _order4_pieces(
    model: SystemModel, bath: BathSpec, t: float, quad: QuadratureSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The even order-4 terms, integrated in one pass over the triple simplex:
    (the chronological four-point term, the sum of the signed 2+2 products)."""
    terms = drop_odd_terms(enumerate_ordered_cumulant_terms(4))
    four_point, products = integrate_simplex3(_order4_integrand(model, bath, t, terms), t, quad)
    return four_point, products


def K_n_cumulant(
    model: SystemModel, bath: BathSpec, t: float, n: int, quad: QuadratureSpec
) -> SuperOp:
    """Order-n generator assembled from the even ordered-cumulant terms.

    Supported orders: 2 and 4.  Order 2 is the single two-point moment, in
    closed form, integrated over t1; order 4 sums the fully time-ordered
    four-point moment and the three signed products of two-point moments,
    all four terms integrated in one pass over the triple simplex.
    """
    if n == 2:
        xc = commutator_super_batch(heisenberg_X_batch(model, np.array([t])))
        mat = integrate_interval(
            lambda t1: _two_point(
                xc, bath_correlation(bath, t - t1)[:, None, None] * heisenberg_X_batch(model, t1)),
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
        lambda t1, t2: _two_point(
            commutator_super_batch(heisenberg_X_batch(model, t1)),
            bath_correlation(bath, t1 - t2)[:, None, None] * heisenberg_X_batch(model, t2)),
        float(t),
        quad,
    )
