"""Self-contained reference implementations used to validate the package.

Everything in this module is deliberately dumb and, but for the last
section, shares no code with tclgen: reservoir operators are explicit
truncated-Fock matrices, picture changes go through dense matrix
exponentials, and reduced maps are assembled column by column from basis
matrices.  Slow is fine; these only ever run at tiny dimensions.  The last
two sections keep the order-4 cumulant assembly that integrates each term on
its own, from tclgen's generic moment builder, as the reference for the
one-pass integrand, and a fixed-step RK4 loop that takes a tclgen generator
one time at a time, as the reference for the batched stepper.  The last
section is the closed-form chain engine with one call per Wick pairing or
chain family, one node at a time, and the kernel table one time at a time,
as the reference for the batched engine.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from tclgen.cumulant import (
    _moment_matrix_batch,
    _pairings,
    drop_odd_terms,
    enumerate_ordered_cumulant_terms,
)
from tclgen.exact import _bohr_parts, _Eigenbasis, _expm
from tclgen.quadrature import integrate_simplex3


def ladder(n: int) -> np.ndarray:
    """Annihilation operator on an n-level Fock space."""
    a = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        a[k, k + 1] = math.sqrt(k + 1.0)
    return a


def mode_position(omega: float, mass: float, n: int) -> np.ndarray:
    a = ladder(n)
    return (a + a.conj().T) / math.sqrt(2.0 * mass * omega)


def mode_hamiltonian(omega: float, n: int) -> np.ndarray:
    return omega * np.diag(np.arange(n) + 0.5).astype(complex)


def thermal_state(beta: float, omega: float, n: int) -> np.ndarray:
    """Renormalized truncated Gibbs state; ground state at beta = inf."""
    if math.isinf(beta):
        w = np.zeros(n)
        w[0] = 1.0
    else:
        w = np.exp(-beta * omega * np.arange(n))
        w = w / w.sum()
    return np.diag(w).astype(complex)


def _mode_B(kappa: float, omega: float, mass: float, tau: float, n: int) -> np.ndarray:
    """kappa * x(tau) on one truncated mode, rotated by a dense expm."""
    u = expm(1j * tau * mode_hamiltonian(omega, n))
    return kappa * (u @ mode_position(omega, mass, n) @ u.conj().T)


def oracle_kernel_D(modes, tau: float, n_levels: int = 20) -> float:
    """Dissipation kernel from the numerical commutator of B(tau), B(0).

    [B(tau), B(0)] is a c-number (times identity) up to the top-level
    truncation defect, which lives entirely in the highest Fock level; the
    (0, 0) matrix element is therefore free of truncation error.  Modes are
    independent, so cross-mode commutators vanish and the kernel is additive.
    """
    total = 0.0
    for (kappa, omega, mass) in modes:
        bt = _mode_B(kappa, omega, mass, tau, n_levels)
        b0 = _mode_B(kappa, omega, mass, 0.0, n_levels)
        comm = bt @ b0 - b0 @ bt
        total += (1j * comm[0, 0]).real
    return total


def oracle_kernel_D1(modes, beta: float, tau: float, n_levels: int = 40) -> float:
    """Noise kernel as the thermal trace of the anticommutator of B(tau), B(0).

    Cross-mode terms vanish because single-mode thermal means of x are zero.
    """
    total = 0.0
    for (kappa, omega, mass) in modes:
        bt = _mode_B(kappa, omega, mass, tau, n_levels)
        b0 = _mode_B(kappa, omega, mass, 0.0, n_levels)
        rho = thermal_state(beta, omega, n_levels)
        total += np.trace((bt @ b0 + b0 @ bt) @ rho).real
    return total


def oracle_correlation(modes, beta: float, tau: float, n_levels: int = 40) -> complex:
    """Two-point function tr(B(tau) B(0) rho_thermal), mode-additive."""
    total = 0.0 + 0.0j
    for (kappa, omega, mass) in modes:
        bt = _mode_B(kappa, omega, mass, tau, n_levels)
        b0 = _mode_B(kappa, omega, mass, 0.0, n_levels)
        rho = thermal_state(beta, omega, n_levels)
        total += np.trace(bt @ b0 @ rho)
    return complex(total)


def oracle_heisenberg(h: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
    """e^{+i h t} x e^{-i h t} by dense matrix exponential."""
    u = expm(1j * t * np.asarray(h, dtype=complex))
    return u @ np.asarray(x, dtype=complex) @ u.conj().T


def nested_bracket(a: np.ndarray, b: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """[a, {b, rho}] written out with plain matrix products."""
    inner = b @ rho + rho @ b
    return a @ inner - inner @ a


# --- full tensor-product moment oracle -----------------------------------------


def _kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _bath_setup(modes, beta: float, n_levels: int):
    """(B, H_B, rho_B) on the truncated multi-mode product space."""
    n = n_levels
    n_modes = len(modes)
    dim = n**n_modes
    b = np.zeros((dim, dim), dtype=complex)
    h = np.zeros((dim, dim), dtype=complex)
    thermals = []
    for i, (kappa, omega, mass) in enumerate(modes):
        pre = [np.eye(n, dtype=complex)] * i
        post = [np.eye(n, dtype=complex)] * (n_modes - i - 1)
        b += kappa * _kron_chain(pre + [mode_position(omega, mass, n)] + post)
        h += _kron_chain(pre + [mode_hamiltonian(omega, n)] + post)
        thermals.append(thermal_state(beta, omega, n))
    return b, h, _kron_chain(thermals)


def oracle_moment_matrix(
    h_sys: np.ndarray,
    coupling: np.ndarray,
    modes,
    beta: float,
    times,
    n_levels: int = 15,
) -> np.ndarray:
    """Column-stacked matrix of rho -> tr_B[ L(s1) ... L(sk) (rho x rho_B) ].

    Each Liouvillian factor is L(s) m = i [X(s) x B(s), m] with both
    interaction-picture operators generated by dense matrix exponentials on
    the truncated product space.  The leftmost factor (earliest in ``times``)
    is applied last.  Column j of the result is the vectorized image of the
    j-th column-stacking basis matrix.
    """
    h_sys = np.asarray(h_sys, dtype=complex)
    d = h_sys.shape[0]
    b, h_b, rho_b = _bath_setup(modes, beta, n_levels)
    nb = b.shape[0]
    ops = []
    for s in times:
        xs = oracle_heisenberg(h_sys, coupling, float(s))
        ub = expm(1j * float(s) * h_b)
        ops.append(np.kron(xs, ub @ b @ ub.conj().T))
    mat = np.zeros((d * d, d * d), dtype=complex)
    for col in range(d * d):
        unit = np.zeros((d, d), dtype=complex)
        unit[col % d, col // d] = 1.0  # column stacking: vec index = i + d*j
        big = np.kron(unit, rho_b)
        for op in reversed(ops):  # rightmost factor acts on the state first
            big = 1j * (op @ big - big @ op)
        red = big.reshape(d, nb, d, nb)
        rho_out = np.einsum("anbn->ab", red)
        mat[:, col] = rho_out.reshape(-1, order="F")
    return mat


# --- brute-force reduced dynamics ----------------------------------------------


def _oscillators(modes, beta: float, purified: bool):
    """(coupling, omega, mass, sign of H, start in vacuum) per truncated oscillator.

    The purified bath replaces a thermal mode at occupation nbar by a +omega
    oscillator with coupling kappa sqrt(nbar + 1) and a -omega partner with
    coupling kappa sqrt(nbar), both in their vacuum.
    """
    if not purified:
        return [(kappa, omega, mass, 1.0, False) for kappa, omega, mass in modes]
    out = []
    for kappa, omega, mass in modes:
        nbar = 0.0 if math.isinf(beta) else 1.0 / math.expm1(beta * omega)
        out.append((kappa * math.sqrt(nbar + 1.0), omega, mass, 1.0, True))
        if nbar > 0.0:
            out.append((kappa * math.sqrt(nbar), omega, mass, -1.0, True))
    return out


def oracle_total_hamiltonian(
    h_sys: np.ndarray,
    coupling: np.ndarray,
    alpha: float,
    modes,
    beta: float,
    n_levels: int,
    purified: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """(H, rho_B) on the truncated product space, by Kronecker chains.

    H = H_S x 1 + 1 x H_B - alpha X x B, every bath operator a complex
    Kronecker chain of one mode's matrix and identities; rho_B is the product
    of renormalized truncated Gibbs states, or the vacuum of the purified bath.
    """
    h_sys = np.asarray(h_sys, dtype=complex)
    d = h_sys.shape[0]
    n = n_levels
    oscillators = _oscillators(modes, beta, purified)
    nb = n ** len(oscillators)
    b = np.zeros((nb, nb), dtype=complex)
    h_b = np.zeros((nb, nb), dtype=complex)
    factors = []
    for i, (kappa, omega, mass, sign, vacuum) in enumerate(oscillators):
        pre = [np.eye(n, dtype=complex)] * i
        post = [np.eye(n, dtype=complex)] * (len(oscillators) - i - 1)
        b += kappa * _kron_chain(pre + [mode_position(omega, mass, n)] + post)
        h_b += sign * _kron_chain(pre + [mode_hamiltonian(omega, n)] + post)
        factors.append(thermal_state(math.inf if vacuum else beta, omega, n))
    h = (np.kron(h_sys, np.eye(nb)) + np.kron(np.eye(d), h_b)
         - alpha * np.kron(np.asarray(coupling, dtype=complex), b))
    return h, _kron_chain(factors)


def oracle_reduced_states(
    h_sys: np.ndarray,
    coupling: np.ndarray,
    alpha: float,
    modes,
    beta: float,
    n_levels: int,
    rho0: np.ndarray,
    times,
    purified: bool = False,
) -> np.ndarray:
    """Interaction-picture reduced states of system plus truncated bath.

    With H and rho_B from :func:`oracle_total_hamiltonian`, the state
    rho0 x rho_B is propagated by a dense matrix exponential of H at every
    time, partial-traced over the bath and rotated by e^{+i H_S t}.
    """
    h, rho_b = oracle_total_hamiltonian(h_sys, coupling, alpha, modes, beta, n_levels,
                                        purified)
    d = np.shape(h_sys)[0]
    nb = len(rho_b)
    rho = np.kron(np.asarray(rho0, dtype=complex), rho_b)
    out = []
    for t in times:
        u = expm(-1j * float(t) * h)
        red = np.einsum("anbn->ab", (u @ rho @ u.conj().T).reshape(d, nb, d, nb))
        out.append(oracle_heisenberg(h_sys, red, float(t)))
    return np.array(out)


# --- order-4 cumulant terms, one integral per term ----------------------------------


def _term_integrand(model, bath, term, t: float):
    """Batched integrand of one order-4 term on the simplex (t1, t2, t3), in
    the contracted form ``integrate_simplex3`` calls, every factor from the
    generic placement sum; a factor on the slots (t, t1) alone is evaluated
    once per distinct t1 of the chunk."""
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


def order4_pieces_per_term(model, bath, t: float, quad):
    """(the chronological four-point term, the sum of the signed 2+2
    products), each even order-4 term integrated by its own
    ``integrate_simplex3`` call."""
    four_point = products = None
    for term in drop_odd_terms(enumerate_ordered_cumulant_terms(4)):
        part = integrate_simplex3(_term_integrand(model, bath, term, t), t, quad)
        if term.partition == (4,):
            four_point = part
        else:
            products = part if products is None else products + part
    return four_point, products


# --- fixed-step RK4, one generator value at a time ------------------------------------


def rk4_fixed(rho0: np.ndarray, gen, t_grid: np.ndarray, max_step: float) -> np.ndarray:
    """States on ``t_grid`` by classic RK4 on the column-stacked state: per
    output interval [t0, t1] the fewest equal steps h <= ``max_step``, each
    from t taking ``gen.evaluator`` at t, t + h/2, t + h/2 and min(t + h, t1),
    and the next step starting at t += h."""
    d = gen.dim
    y = np.asarray(rho0, dtype=complex).reshape(-1, order="F")
    out = [np.asarray(rho0, dtype=complex)]
    for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
        nsub = max(1, math.ceil((t1 - t0) / max_step))
        h = (t1 - t0) / nsub
        t = t0
        for _ in range(nsub):
            k1 = gen.evaluator(t) @ y
            k2 = gen.evaluator(t + h / 2) @ (y + (h / 2) * k1)
            k3 = gen.evaluator(t + h / 2) @ (y + (h / 2) * k2)
            k4 = gen.evaluator(min(t + h, t1)) @ (y + h * k3)
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        out.append(y.reshape((d, d), order="F"))
    return np.array(out)


# --- closed-form chains, one family per call and one node at a time ------------------


def chain_sum_per_node(h: float, steps: int, g: np.ndarray, shifts: list[np.ndarray],
                       blocks: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Sum over one batch of chains of their integrals at t_s = s h,
    s = 1 .. ``steps``, as the engine of ``tclgen.exact`` took it one chain
    family per call: every block matrix exponentiated at h and, from four
    steps on, at H = isqrt(steps) h, in one batch, then the first block rows
    carried node by node.  Returns the (steps, n, n) sums."""
    shifts = np.stack(shifts, axis=1)
    batch, k = shifts.shape[0], len(blocks)
    n = g.size
    size = (k + 1) * n
    norms = [np.linalg.norm(tab, axis=(1, 2)) for tab, _ in blocks]
    norms = [np.where(nb > 0, nb, 1.0) for nb in norms]
    units = [tab / nb[:, None, None] for (tab, _), nb in zip(blocks, norms)]
    indices = [np.broadcast_to(index, (batch,)) for _, index in blocks]
    diag = np.arange(size)
    total = np.zeros((steps, n, n), dtype=complex)
    stride = max(1, math.isqrt(steps))
    spans = np.array([h] if stride == 1 else [h, stride * h])
    to_h = np.repeat(float(stride) ** np.arange(k + 1), n)
    big = np.zeros((spans.size, batch, size, size), dtype=complex)
    big[:, :, diag, diag] = spans[:, None, None] * (
        1j * np.repeat(shifts, n, axis=1) - np.tile(g, k + 1))
    weight = np.full(batch, float(h) ** k)
    for i, (index, unit, nb) in enumerate(zip(indices, units, norms)):
        big[:, :, i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] = unit[index]
        weight *= nb[index]
    step, leap = _expm(big.reshape(-1, size, size)).reshape(big.shape)[[0, -1]]
    row = None
    for s in range(1, steps + 1):
        if s % stride == 0:
            anchor = leap[:, :n] if s == stride else anchor @ leap
            row = anchor * to_h
        else:
            row = step[:, :n] if row is None else row @ step
        total[s - 1] += np.tensordot(weight, row[:, :, k * n:], axes=1)
    return total


def pairing_chains_per_pairing(c: _Eigenbasis, h: float, steps: int, pairings,
                               pinned: bool) -> np.ndarray:
    """(-1/2)^(n/2) times the chronological chains of ``pairings`` of n
    slots at t_s = s h, one :func:`chain_sum_per_node` call per pairing."""
    n, m = 2 * len(pairings[0]), c.nu.size
    labels = [a.ravel() for a in np.indices((m,) * (n // 2))]
    free = 0 if pinned else 1
    total = 0
    for pairing in pairings:
        shifts = [np.zeros(labels[0].size)] * (n + free)
        slots = [None] * n
        for (a, b), label in zip(pairing, labels):
            slots[a], slots[b] = (c.xc[None], np.zeros(1, dtype=int)), (c.w, label)
            for k in range(a + free, b + free):
                shifts[k] = shifts[k] + c.nu[label]
        total = total + chain_sum_per_node(h, steps, c.g, shifts, slots[1 - free:])
    return (-0.5) ** (n // 2) * total


def k4_table_per_time(model, bath, t: float) -> np.ndarray:
    """The closed-form kernel table at one time, one chain family per
    call: the two chronological pairings, then each interleaved family."""
    if t == 0:
        return np.zeros((model.dim**2, model.dim**2), dtype=complex)
    c = _Eigenbasis(model, bath)
    m, n = c.nu.size, c.g.size
    omega, xc_w, xa_w = _bohr_parts(model)
    p = omega.size
    eye = (np.eye(n, dtype=complex)[None], np.zeros(1, dtype=int))
    inner = pairing_chains_per_pairing(
        c, t, 1, [pp for pp in _pairings(4) if (0, 1) not in pp], pinned=True)
    i, j, q = (a.ravel() for a in np.indices((m, m, p)))
    nu, mu, w, zero = c.nu[i], c.nu[j], omega[q], np.zeros(i.size)
    table = ((c.cc[:, None, None, None] * xc_w + c.ca[:, None, None, None] * xa_w)
             @ c.xc).reshape(m * p, n, n)
    first = (table, i * p + q)
    inner -= 0.25 * chain_sum_per_node(t, 1, c.g, [nu, nu + mu - w, mu, zero],
                                       [first, eye, (c.w, j)])
    inner -= 0.25 * chain_sum_per_node(t, 1, c.g, [nu, nu + mu - w, nu - w, zero],
                                       [first, (c.w, j), eye])
    return c.lead(np.array([t]), inner)[0]
