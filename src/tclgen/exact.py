"""Exact K2(t), K4(t) and forward-map correction J(t) for discrete-mode baths,
without quadrature.

Every bath here is a finite sum of modes, so each kernel is a sum of
exponentials: a contracted slot at lag tau carries

    W(tau) = D1(tau) Xc - i D(tau) Xa = sum_nu e^{i nu tau} W_nu,

nu = +-omega_n, W_nu = (a_n / 2) (coth_n Xc -+ Xa), a_n = kappa_n^2/(m_n omega_n).
With G the superoperator of rho -> i[H_S, rho] and U(s) = e^{sG}, an
interaction-picture bracket is Xc(s) = U(s) Xc U(-s).  In the intervals
u0 = t - t1, u1 = t1 - t2, u2 = t2 - t3, u3 = t3 a chronological string
becomes

    U(t) Xc e^{u0 A0} B1 e^{u1 A1} B2 e^{u2 A2} B3 e^{u3 A3},

A_i = -G + i (sum of the kernel frequencies whose lag spans interval i), and
its integral over the simplex u0 + ... + u3 = t is the top-right block of
expm(t [[A0, B1, 0, 0], [0, A1, B2, 0], [0, 0, A2, B3], [0, 0, 0, A3]])
(C. Van Loan, IEEE Trans. Autom. Control 23, 395 (1978)).  The block
exponential stays accurate when frequencies coincide, which the zero Bohr
frequency and dephasing couplings always produce.  K2 has a two-interval
chain, whose block exponential is elementwise a first divided difference of
the exponential; it is evaluated that way, with ``expm1``.  J(t), whose
derivative is K2(t), is the K2 chain with one more interval in front.

K4 is the paper's partially unordered cumulant form

    K4(t) = J4'(t) - K2(t) J(t),

with J4'(t) the chronological four-point moment <L(t) L(t1) L(t2) L(t3)>
integrated over t > t1 > t2 > t3 > 0.  The bath is Gaussian, so a
chronological moment of n slots s0 > s1 > ... is a sum over the Wick
pairings of its slots (N. G. van Kampen, Physica 74, 215 (1974)).  In each
pair (a, b), a < b, the later slot a carries Xc, the earlier slot b carries
W_nu, and nu shifts every interval from slot a to slot b; so each pairing is
one chronological chain with prefactor (-1/2)^(n/2).  J4' has slot 0 pinned
at t; J has a free interval in front of slot 0.

:func:`K4_table_exact` integrates the fourth-order kernel table instead,
which is term for term the fully ordered cumulant sum: there the
(t, t1)(t2, t3) product cancels the pairing (0, 1)(2, 3), and the sixteen
table rows factorise into the two other pairings and two interleaved chains,
with prefactor 1/4,

    - Xc(t) W(t2) Xc(t1) W(t3)      pairs (t, t2), (t1, t3)
    - Xc(t) W(t3) Xc(t1) W(t2)      pairs (t, t3), (t1, t2)

In the two interleaved chains the out-of-order slot is split into Bohr
components W_{nu,w}, built from the parts of X that rotate as e^{iws} in the
eigenbasis of H_S; each component is then a chronological chain whose
intervals spanned by that slot carry an extra -iw.  Bohr frequencies that
agree to round-off are merged; any wider grouping would shift a frequency
and so cost accuracy.  Both forms of K4 hold the pairing chains
(t, t2)(t1, t3) and (t, t3)(t1, t2), so each checks the other's remainder:
the pairing (t, t1)(t2, t3) minus K2 J against the two interleaved chains.

J4', J and the kernel table are each one call of the chain engine
:func:`_chain_sum`, which takes the chains of every family at once, each
with its coefficient and its output: all pairings of J4' or of J, and in
:func:`K4_table_exact_times` both chronological pairings and both
interleaved families at every time asked for.

On a uniform grid t_s = s h every chain is tabulated at once.  Its block
matrix is t M with M independent of t, so exp(t_s M) = exp(h M)^s: each
chain is exponentiated at h, and the first block row of each power is
reached by one product per node.  The B_i blocks enter at unit norm, so
the matrix exponentiated is D^{-1} (h M) D with D block diagonal and fixed
by h and the ||B_i||; its s-th power is D^{-1} exp(s h M) D, whose corner is
that of exp(s h M) over the same factor h^k prod ||B_i|| at every s, so one
weight serves every power.  The grid forms (:func:`K2_exact_grid`,
:func:`forward_map_exact_grid`, :func:`K4_exact_grid`) return the nodes
``np.linspace(0, t_max, steps + 1)`` from one call, h = t_max / steps; the
per-time forms are the grid forms in one step, whose single power is the
per-time block exponential itself.

The round-off of exp(h M) is amplified once per product, so powers of it
alone drift from the per-time values linearly in s: on
``dephasing-single-mode``, where K4 vanishes and the route check of
``tclgen run`` compares round-off of pairing chains of norm up to 1e2, that
drift passed the check's former floor of 1e-6 from t = 3.6.  So each chain
is also exponentiated once at H = m h, m = isqrt(steps), each at its own unit
blocks: node a m + r is the a-th power of exp(H M), brought to the blocks of
h, times r powers of exp(h M).  The a-th powers are carried one after
another, and each further step of h is carried for all anchors at once, so
a grid takes about 2 sqrt(steps) sequential batched products.  On
``spinboson-single-mode`` at 16 steps per unit time the grid K4 is within
2.0e-14 relative of the per-time calls up to t = 32, and on
``dephasing-single-mode`` within 5.0e-12 absolute.  K2 is elementwise in t,
so its grid values are the per-time ones, bit for bit.

All arithmetic runs in the eigenbasis of H_S, where G and U(s) are diagonal.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import SuperOp, SystemModel, anticommutator_super_batch, commutator_super_batch
from .bath import BathSpec
from .cumulant import _pairings

__all__ = [
    "K2_exact",
    "K2_exact_grid",
    "K4_exact",
    "K4_exact_grid",
    "K4_table_exact",
    "K4_table_exact_times",
    "forward_map_exact",
    "forward_map_exact_grid",
    "k4_chain_count",
]


def _bohr_parts(model: SystemModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bohr frequencies w of X and the brackets of the nonzero parts of X
    rotating as e^{iws} in the eigenbasis of H_S: (w, Xc_w, Xa_w).
    Frequencies equal to round-off merge."""
    x, flat = model._coupling_eigbasis, model._bohr_matrix.ravel()
    order = np.argsort(flat)
    tol = 16.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(flat))))
    group = np.concatenate([[0], np.cumsum(np.diff(flat[order]) > tol)])
    label = np.empty(flat.size, dtype=int)
    label[order] = group
    omega = np.bincount(group, flat[order]) / np.bincount(group)
    parts = x[None] * (label.reshape(x.shape) == np.arange(omega.size)[:, None, None])
    keep = np.any(parts != 0, axis=(1, 2))
    parts = parts[keep]
    return omega[keep], commutator_super_batch(parts), anticommutator_super_batch(parts)


class _Eigenbasis:
    """Eigenbasis data of one (model, bath) pair shared by K2, J and K4."""

    def __init__(self, model: SystemModel, bath: BathSpec):
        self.g = 1j * model._bohr_matrix.reshape(-1, order="F")  # diagonal of G
        self.to_site, self.xc, xa = model._eig_superops
        # kernel labels nu = +omega_n, -omega_n with W_nu = cc_nu Xc + ca_nu Xa
        half = bath.amplitudes / 2.0
        self.nu = np.concatenate([bath.omegas, -bath.omegas])
        self.cc = np.tile(half * bath.coth_factors, 2)
        self.ca = np.concatenate([-half, half])
        self.w = self.cc[:, None, None] * self.xc + self.ca[:, None, None] * xa

    def lead(self, times: np.ndarray, inner: np.ndarray) -> np.ndarray:
        """U(t) Xc applied to ``inner`` at each of ``times``, returned in the
        site basis: (T, n, n) from (T, n, n)."""
        out = (np.exp(times[:, None] * self.g)[:, :, None] * self.xc) @ inner
        return self.site(out)

    def site(self, m: np.ndarray) -> np.ndarray:
        """A stack of superoperators taken from the eigenbasis to the site basis."""
        return self.to_site @ m @ self.to_site.conj().T


# Pade [13/13] coefficients and the 1-norm bound up to which that approximant
# is accurate to double precision (N. J. Higham, SIAM J. Matrix Anal. Appl.
# 26, 1179 (2005)).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
# bounds each stack of block matrices, node rows or node corners to 128 KB:
# an exponentiated stack has about seven of its size alive at once, and at
# this size a chunk stays in cache (larger chunks ran slower)
_CHUNK_ENTRIES = 1 << 13


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a stack (T, n, n) by scaling and squaring.

    Uses NumPy's own BLAS: with more than one BLAS thread, SciPy's
    ``expm`` on these small matrices ran about 80x slower right after
    NumPy-heavy work (the two libraries keep separate OpenBLAS thread pools).
    The Pade sums accumulate in place, so at most about seven stacks of the
    input's size are alive at once.
    """
    b = _PADE13
    norm = np.abs(a).sum(axis=1).max(axis=1)
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    a = a * (0.5**s)[:, None, None]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = b[13] * a6
    u += b[11] * a4
    u += b[9] * a2
    u = a6 @ u
    for c, p in zip(b[7:0:-2], (a6, a4, a2, eye)):
        u += c * p
    u = a @ u
    del a
    v = b[12] * a6
    v += b[10] * a4
    v += b[8] * a2
    v = a6 @ v
    for c, p in zip(b[6::-2], (a6, a4, a2, eye)):
        v += c * p
    del a2, a4, a6
    r = v + u
    v -= u
    del u
    r = np.linalg.solve(v, r)
    for k in range(s.max(initial=0)):
        r = np.where((k < s)[:, None, None], r @ r, r)
    return r


def _chain_sum(h, steps: int, g: np.ndarray, shifts: np.ndarray, table: np.ndarray,
               slots: np.ndarray, coef=1.0, group=0, groups: int = 1) -> np.ndarray:
    """Sums over a batch of chains of their integrals of
    e^{u0 A0} B1 e^{u1 A1} ... B_k e^{u_k A_k} over u0 + ... + u_k = t, at
    every t_s = s h of a uniform grid, s = 1 .. ``steps``.

    Chain b has A_i = i shifts[i, b] - G, with G diagonal (its diagonal is
    ``g``), and B_i = table[slots[i-1, b]]: ``shifts`` is (k + 1, chains)
    and ``slots`` (k, chains), as :func:`_pairing_layout` lays them out.
    With one step ``h`` may hold a span per chain.  Chain b
    enters sum ``group[b]`` of ``groups`` with coefficient ``coef[b]``; a
    scalar serves every chain.  Each B_i enters its block matrix at unit norm and the
    result is rescaled, so the top-right block is O(1) next to the unitary
    diagonal blocks.  The block matrix is exponentiated at h and, for more
    than three steps, at H = isqrt(steps) h; the value at t_s is the corner
    of a power, reached by carrying first block rows through products with
    the two, for all anchors at once (see the module docstring and
    :func:`_node_corners`).  With one step this is the per-time block
    exponential.  Chains are taken in chunks such that no exponentiated
    stack, stack of node rows or stack of node corners holds more than
    ``_CHUNK_ENTRIES`` entries, so memory stays bounded however many chains
    there are.  Returns the (groups, steps, n, n) sums.
    """
    shifts = np.asarray(shifts).T
    batch, k = shifts.shape[0], len(slots)
    n = g.size
    size = (k + 1) * n
    norm = np.linalg.norm(table, axis=(1, 2))
    norm = np.where(norm > 0, norm, 1.0)
    unit = table / norm[:, None, None]
    h, coef, group = (np.broadcast_to(x, (batch,)) for x in (h, coef, group))
    # node s = a * stride + r is reached from node a * stride, the a-th power
    # of a second step exponential at H = stride * h, by r steps of h
    stride = max(1, math.isqrt(steps))
    scales = np.array([1.0] if stride == 1 else [1.0, stride])
    # the rows of e^{HM} at their own unit blocks, brought to those of h
    to_h = np.repeat(float(stride) ** np.arange(k + 1), n)
    chunk = max(1, _CHUNK_ENTRIES // max(scales.size * size**2, steps * n * n,
                                         (steps // stride + 1) * n * size))
    diag = np.arange(size)
    total = np.zeros((groups, steps * n * n), dtype=complex)
    for lo in range(0, batch, chunk):
        part = slice(lo, lo + chunk)
        spans = scales[:, None] * h[part]
        big = np.zeros(spans.shape + (size, size), dtype=complex)
        big[:, :, diag, diag] = spans[:, :, None] * (
            1j * np.repeat(shifts[part], n, axis=1) - np.tile(g, k + 1))
        # one weight serves every power: the unit blocks are a similarity
        # transform of the true ones that is the same at every t_s
        weight = coef[part] * h[part] ** k
        for i, index in enumerate(slots):
            big[:, :, i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] = unit[index[part]]
            weight = weight * norm[index[part]]
        powers = _expm(big.reshape(-1, size, size)).reshape(big.shape)
        del big
        corners = _node_corners(powers[0], powers[-1], steps, stride, to_h, k * n)
        select = np.zeros((groups, weight.size))
        select[group[part], np.arange(weight.size)] = weight
        total += select @ corners.reshape(weight.size, -1)
    return total.reshape(groups, steps, n, n)


def _node_corners(step: np.ndarray, leap: np.ndarray, steps: int, stride: int,
                  to_h: np.ndarray, col: int) -> np.ndarray:
    """The top-right corners (columns from ``col``) of the first block rows
    of the powers of a batch of block exponentials, at s = 1 .. ``steps``:
    (batch, steps, n, n) from ``step`` = e^{hM} and ``leap`` = e^{HM},
    H = ``stride`` h, the latter at its own unit blocks, which ``to_h``
    rescales to those of h.

    Node a stride + r is ((anchor_a to_h) step) step ... with r factors of
    step, anchor_a the first block row of leap^a (node r of a = 0 is
    step^r).  The anchors are carried one after another; each of the
    stride - 1 further levels then takes one product for all anchors at
    once.
    """
    n = step.shape[-1] - col
    corners = np.empty((step.shape[0], steps, n, n), dtype=complex)
    anchors = np.empty((steps // stride,) + step[:, :n].shape, dtype=complex)
    anchor = leap[:, :n]
    for a in range(anchors.shape[0]):
        if a:
            anchor = anchor @ leap
        anchors[a] = anchor * to_h
    corners[:, stride - 1::stride] = anchors[..., col:].swapaxes(0, 1)
    # level r holds the nodes a stride + r, a = 0 .. (steps - r) // stride
    for r in range(1, stride):
        count = (steps - r) // stride + 1
        rows = (np.concatenate([step[None, :, :n], anchors[:count - 1] @ step]) if r == 1
                else rows[:count] @ step)
        corners[:, r - 1::stride] = rows[..., col:].swapaxes(0, 1)
    return corners


def _pairing_layout(c: _Eigenbasis, pairings, free: int) -> tuple[np.ndarray, np.ndarray]:
    """The chronological chains of ``pairings`` of n slots, one per pairing
    and tuple of kernel labels, with ``free`` intervals in front of slot 0:
    their interval shifts (n + free, chains) and their slot indices
    (n, chains) into the table [Xc, W_nu ...] (index 0 is Xc, 1 + nu is
    W_nu)."""
    n, m = 2 * len(pairings[0]), c.nu.size
    labels = [a.ravel() for a in np.indices((m,) * (n // 2))]
    shifts = np.zeros((len(pairings), n + free, labels[0].size))
    slots = np.zeros((len(pairings), n, labels[0].size), dtype=int)
    for pairing, shift, slot in zip(pairings, shifts, slots):
        for (a, b), label in zip(pairing, labels):
            slot[b] = 1 + label
            shift[a + free:b + free] += c.nu[label]
    return np.concatenate(shifts, axis=1), np.concatenate(slots, axis=1)


def _pairing_chains(c: _Eigenbasis, h: float, steps: int, pairings, pinned: bool) -> np.ndarray:
    """(-1/2)^(n/2) times the sum of the chronological chains of ``pairings``
    of n slots, one block exponential per pairing and tuple of kernel labels,
    all in one :func:`_chain_sum` call, in the eigenbasis, at t_s = s h for
    s = 1 .. ``steps``.  With ``pinned`` slot 0 sits at t and is left to the
    caller's U(t) Xc; otherwise a free interval comes first and U(t) is left.
    """
    free = 0 if pinned else 1  # intervals in front of slot 0
    shifts, slots = _pairing_layout(c, pairings, free)
    table = np.concatenate([c.xc[None], c.w])
    return _chain_sum(h, steps, c.g, shifts, table, slots[1 - free:],
                      (-0.5) ** len(pairings[0]))[0]


def K2_exact_grid(model: SystemModel, bath: BathSpec, t_max: float, steps: int) -> np.ndarray:
    """Second-order generator in closed form, -(1/2) Xc(t) int_0^t W(t1), on
    the uniform grid of ``steps`` steps to ``t_max``: (steps + 1, d^2, d^2).

    In the eigenbasis of H_S the two-interval chain is elementwise:
    int e^{u0 a_k} W_kl e^{u1 b_l} over u0 + u1 = t, with a = i nu - g and
    b = -g, is W_kl t e^{t a_k} phi(t (b_l - a_k)) for phi(z) = (e^z - 1)/z,
    a first divided difference of the exponential.  ``expm1`` keeps phi
    accurate when the two frequencies coincide or nearly do.  Cost is linear
    in the number of modes; each node is evaluated on its own, so a node's
    value does not depend on the grid, and nodes are taken in chunks of at
    most ``_CHUNK_ENTRIES`` entries.
    """
    c = _Eigenbasis(model, bath)
    times = np.linspace(0.0, t_max, steps + 1)
    a = 1j * c.nu[:, None] - c.g  # (labels, n)
    inner = np.empty((times.size,) + c.xc.shape, dtype=complex)
    chunk = max(1, _CHUNK_ENTRIES // c.w.size)
    for lo in range(0, times.size, chunk):
        t = times[lo:lo + chunk, None, None]
        z = t[..., None] * (-c.g[None, None, :] - a[:, :, None])
        zero = z == 0
        phi = np.where(zero, 1.0, np.expm1(z) / np.where(zero, 1.0, z))
        inner[lo:lo + chunk] = np.einsum(
            "mkl,tmkl->tkl", c.w, t[..., None] * np.exp(t * a)[..., None] * phi)
    return -0.5 * c.lead(times, inner)


def K2_exact(model: SystemModel, bath: BathSpec, t: float) -> SuperOp:
    """Second-order generator at one time: :func:`K2_exact_grid` in one step."""
    return SuperOp(model.dim, K2_exact_grid(model, bath, t, 1)[1])


def forward_map_exact_grid(model: SystemModel, bath: BathSpec, t_max: float,
                           steps: int) -> np.ndarray:
    """The forward-map correction J(t) = int_0^t dt1 int_0^t1 dt2 <L(t1) L(t2)>
    in closed form (the quadrature route is
    :func:`tclgen.evolve.forward_map_correction`) on the uniform grid of
    ``steps`` steps to ``t_max``: (steps + 1, d^2, d^2) in the site basis.

    J' = K2, so J is U(t) times the one pairing of two slots with a free
    interval in front: one block exponential of size 3 d^2 per kernel label,
    linear in the number of modes, then one product per further node.  J(0)
    is exactly 0, and a grid with no step (``t_max`` = 0 or ``steps`` = 0)
    builds no chain.
    """
    out = np.zeros((steps + 1, model.dim**2, model.dim**2), dtype=complex)
    if steps == 0 or t_max == 0:
        return out
    c = _Eigenbasis(model, bath)
    times = np.linspace(0.0, t_max, steps + 1)[1:]
    chains = _pairing_chains(c, t_max / steps, steps, _pairings(2), pinned=False)
    out[1:] = c.site(np.exp(times[:, None] * c.g)[:, :, None] * chains)
    return out


def forward_map_exact(model: SystemModel, bath: BathSpec, t: float) -> np.ndarray:
    """J(t) at one time: :func:`forward_map_exact_grid` in one step, the
    (d^2, d^2) matrix in the site basis; J(0) is exactly 0."""
    return forward_map_exact_grid(model, bath, t, 1)[1]


def k4_chain_count(bath: BathSpec) -> int:
    """Number of block exponentials of size 4 d^2 one :func:`K4_exact` call
    evaluates: 3 (2M)^2 for M bath modes, one per Wick pairing and pair of
    kernel labels.  The cost of the exact route grows with this count, not
    with t; the 2M smaller exponentials of J are not counted.  A grid form
    builds the same chains once for all its nodes, with two exponentials
    each from four steps on.
    """
    return len(_pairings(4)) * (2 * len(bath.omegas)) ** 2


def K4_exact_grid(model: SystemModel, bath: BathSpec, t_max: float, steps: int) -> np.ndarray:
    """Fourth-order generator in closed form, as the paper's partially
    unordered cumulant form K4 = J4' - K2 J, on the uniform grid of
    ``steps`` steps to ``t_max``: (steps + 1, d^2, d^2).

    J4' is U(t) Xc times the three Wick-pairing chains with slot 0 pinned
    at t, one block exponential per pairing and pair of labels (nu, mu);
    K2 J is one batched product over the nodes.  K4(0) is exactly 0, and a
    grid with no step builds no chain.
    """
    return _k4_exact_grid(model, bath, t_max, steps, K2_exact_grid(model, bath, t_max, steps))


def _k4_exact_grid(model: SystemModel, bath: BathSpec, t_max: float, steps: int,
                   k2: np.ndarray) -> np.ndarray:
    """:func:`K4_exact_grid` from ``k2``, :func:`K2_exact_grid` on the same
    grid, which :func:`tclgen.tcl.build_generator` has evaluated already."""
    out = np.zeros((steps + 1, model.dim**2, model.dim**2), dtype=complex)
    if steps == 0 or t_max == 0:
        return out
    c = _Eigenbasis(model, bath)
    times = np.linspace(0.0, t_max, steps + 1)[1:]
    j4 = c.lead(times, _pairing_chains(c, t_max / steps, steps, _pairings(4), pinned=True))
    k2_j = k2[1:] @ forward_map_exact_grid(model, bath, t_max, steps)[1:]
    out[1:] = j4 - k2_j
    return out


def K4_exact(model: SystemModel, bath: BathSpec, t: float) -> SuperOp:
    """Fourth-order generator at one time: :func:`K4_exact_grid` in one step."""
    return SuperOp(model.dim, K4_exact_grid(model, bath, t, 1)[1])


def K4_table_exact(model: SystemModel, bath: BathSpec, t: float) -> SuperOp:
    """The fourth-order kernel table in closed form at one time: one time of
    :func:`K4_table_exact_times`."""
    return SuperOp(model.dim, K4_table_exact_times(model, bath, [t])[0])


def K4_table_exact_times(model: SystemModel, bath: BathSpec, times) -> np.ndarray:
    """The fourth-order kernel table (:data:`tclgen.tcl.K4_TERM_TABLE`, the
    quadrature route :func:`tclgen.tcl.K4_influence`) integrated in closed
    form at each of ``times``: (len(times), d^2, d^2) in the site basis.  At
    order 4 it is the fully ordered cumulant sum.

    (1/4) U(t) Xc times two chronological chains and two interleaved chains
    whose out-of-order slot is split into Bohr components, one block
    exponential per chain, label tuple and nonzero time, all in one
    :func:`_chain_sum` call.  Against :func:`K4_exact`, whose chronological
    chains it shares, it checks the Wick pairing (t, t1)(t2, t3) minus K2 J.
    K4(0) is exactly 0, and a time of 0 builds no chain.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    out = np.zeros((times.size, model.dim**2, model.dim**2), dtype=complex)
    live = times[times != 0]
    if live.size == 0:
        return out
    c = _Eigenbasis(model, bath)
    m, n = c.nu.size, c.g.size
    omega, xc_w, xa_w = _bohr_parts(model)
    p = omega.size
    # one table for every slot: Xc, the W_nu, the identity, and W_{nu,w} Xc
    # for every label nu and Bohr part w, at 2 + m + nu * p + w
    table = np.concatenate([
        c.xc[None], c.w, np.eye(n)[None],
        ((c.cc[:, None, None, None] * xc_w + c.ca[:, None, None, None] * xa_w)
         @ c.xc).reshape(m * p, n, n)])
    # chronological chains: the pairings that the (t, t1)(t2, t3) product spares
    shifts, slots = _pairing_layout(c, [pp for pp in _pairings(4) if (0, 1) not in pp], 0)
    coef = np.full(shifts.shape[1], 0.25)
    # interleaved chains: the out-of-order slot (label nu) split by Bohr
    # frequency w, which shifts the intervals that slot spans by -w
    i, j, q = (a.ravel() for a in np.indices((m, m, p)))
    nu, mu, w, zero = c.nu[i], c.nu[j], omega[q], np.zeros(i.size)
    first, eye, wj = 2 + m + i * p + q, np.full(i.size, 1 + m), 1 + j
    shifts = np.concatenate([
        shifts,
        # -Xc(t) W(t2) Xc(t1) W(t3): nu on u0, u1; mu on u1, u2; -w on u1
        [nu, nu + mu - w, mu, zero],
        # -Xc(t) W(t3) Xc(t1) W(t2): nu on u0..u2; mu on u1; -w on u1, u2
        [nu, nu + mu - w, nu - w, zero]], axis=1)
    slots = np.concatenate([slots[1:], [first, eye, wj], [first, wj, eye]], axis=1)
    coef = np.concatenate([coef, np.full(2 * i.size, -0.25)])
    # every chain at every nonzero time, summed per time
    chains = coef.size
    inner = _chain_sum(np.repeat(live, chains), 1, c.g, np.tile(shifts, live.size), table,
                       np.tile(slots, live.size), np.tile(coef, live.size),
                       np.repeat(np.arange(live.size), chains), live.size)[:, 0]
    out[times != 0] = c.lead(live, inner)
    return out
