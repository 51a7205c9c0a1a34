"""Reference solutions and benchmark scenarios.

Two independent oracles against which the perturbative generators are
validated:

* :func:`dephasing_exact` -- closed form for a two-level system whose
  coupling commutes with the Hamiltonian: populations frozen, coherence
  ρ01(t) = ρ01(0) e^{-i ω0 t} exp(-2 α^2 Γ1(t)) with
  Γ1(t) = ∫_0^t dt1 ∫_0^{t1} D1(t1 - t2) dt2 evaluated per mode in closed
  form.

* :func:`exact_small_bath` -- brute-force unitary evolution of the system
  plus a Fock-truncated copy of every reservoir mode, partial-traced back to
  the system and rotated to the interaction picture.  The bath starts either
  in a renormalized truncated Gibbs state or, with
  ``TruncatedBathConfig(purified=True)``, in the vacuum of a thermofield
  purification (de Vega and Bañuls, PRA 92, 052116 (2015)): a linearly
  coupled Gaussian bath acts on the system only through its correlation
  function C(τ), so a thermal mode (κ, ω, m) can be replaced by two modes
  that start in their vacuum, one at +ω with weight n̄+1 and one at -ω with
  weight n̄.  A mode in its vacuum is converged at far fewer Fock levels than
  a truncated Gibbs state, whose renormalization leaves ⟨a a†⟩ short of n̄+1.
  One eigendecomposition of the N-dimensional total Hamiltonian serves every
  output time.  It is taken block by block: one ``eigh`` per connected
  component of the Hamiltonian's exact nonzero pattern, in real arithmetic
  when the Hamiltonian has no imaginary part.  With the σx coupling of the
  spin-boson presets it commutes with σz ⊗ (-1)^N and splits into two real
  parity blocks of N/2; the dephasing preset splits by spin; a model whose
  complex H_S or X links every level keeps one complex ``eigh`` of size N.
  The bath is traced out once, in the eigenbasis (a one-off (d+1)N³/2), so
  each time costs d(d+1)/2 products of a phase row with an N x N matrix,
  about d²N², rather than the N³ of rebuilding the product-space state.  How
  far two more Fock levels move the states, the oracle's truncation check,
  is returned as ``OracleTrajectory.truncation_shift``.

Plus a small registry of named benchmark scenarios;
:func:`scaling_study`, which propagates the generator :func:`build_generator`
builds across a coupling ladder and fits the error-vs-coupling slopes
against the purified oracle; and :func:`simulate`, which computes the
numbers of one ``tclgen run`` and returns them as a :class:`RunResult`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .algebra import SystemModel, _kron_batch
from .bath import BathSpec
from .evolve import (DiagnosticTable, Trajectory, _monitors, _validate_state,
                     invertibility_diagnostic, propagate, trace_distance)
from .exact import forward_map_exact
from .quadrature import QuadratureSpec
from .tcl import Generator, build_generator, check_k4_routes

__all__ = [
    "TruncatedBathConfig",
    "OracleTrajectory",
    "dephasing_exact",
    "exact_small_bath",
    "to_interaction_picture",
    "decoherence_exponent",
    "get_preset",
    "list_presets",
    "PRESET_NAMES",
    "ScalingResult",
    "scaling_study",
    "RunResult",
    "simulate",
]

_DIM_CAP = 4096
_COMMUTE_TOL = 1e-12


@dataclass(frozen=True)
class TruncatedBathConfig:
    """Fock truncation for the brute-force oracle: N levels per mode.

    With ``purified`` set, every finite-temperature mode is replaced by its
    thermofield pair (see :func:`_purified_modes`) and N counts levels per
    purified mode.
    """

    bath: BathSpec
    fock_levels: int
    purified: bool = False

    def __post_init__(self):
        if self.fock_levels < 2:
            raise ValueError(f"need at least 2 Fock levels, got {self.fock_levels}")

    @property
    def n_modes(self) -> int:
        """Number of truncated oscillators in the bath space."""
        if self.purified:
            return len(_purified_modes(self.bath))
        return len(self.bath.modes)

    def total_dim(self, system_dim: int) -> int:
        return system_dim * self.fock_levels ** self.n_modes

    def check_dim(self, system_dim: int) -> None:
        """Raise ValueError, naming the largest level count that fits, when
        the system+bath space exceeds the dimension cap."""
        total = self.total_dim(system_dim)
        if total <= _DIM_CAP:
            return
        fit = 1
        while system_dim * (fit + 1) ** self.n_modes <= _DIM_CAP:
            fit += 1
        hint = (
            f"; at most {fit} Fock levels per mode fit "
            f"(dimension {system_dim * fit ** self.n_modes})"
            if fit >= 2 else "; not even 2 Fock levels per mode fit"
        )
        raise ValueError(
            f"truncated space dimension {total} exceeds the cap {_DIM_CAP}{hint}"
        )


# --- Fock-space building blocks ----------------------------------------------


def _thermal_weights(beta: float, omega: float, n: int) -> np.ndarray:
    """Renormalized truncated Gibbs weights of one mode; the vacuum at beta = inf."""
    if math.isinf(beta):
        return np.eye(n)[0]
    w = np.exp(-beta * omega * np.arange(n))
    return w / w.sum()


def _purified_modes(bath: BathSpec) -> list[tuple[float, float, float, float]]:
    """Thermofield pairs (coupling, omega, mass, sign of H) of a thermal bath.

    A mode (κ, ω, m) at occupation n̄ becomes a +ω mode with coupling
    κ sqrt(n̄+1) and, when n̄ > 0, a -ω partner with coupling κ sqrt(n̄), both
    in their vacuum; the sum of their vacuum correlations is the thermal C(τ).
    """
    out = []
    for kappa, omega, mass in bath.modes:
        x = bath.beta * omega
        nbar = math.exp(-x) / -math.expm1(-x)  # 1/(e^x - 1), exactly 0 at inf
        out.append((kappa * math.sqrt(nbar + 1.0), omega, mass, 1.0))
        if nbar > 0.0:
            out.append((kappa * math.sqrt(nbar), omega, mass, -1.0))
    return out


def _bath_operators(config: TruncatedBathConfig):
    """(B, h_B, w) on the truncated multi-mode bath space, in real arithmetic.

    B = Σ_i κ_i 1 ⊗ x_i ⊗ 1 from one ladder matrix x_i per mode.  H_B and
    the initial bath state are diagonal in the Fock product basis, so
    ``h_B`` is the diagonal Σ_i sign_i ω_i (n_i + ½) and ``w`` the product of
    the modes' weights: Gibbs weights per mode, or the vacuum for the
    purified bath.
    """
    n = config.fock_levels
    if config.purified:
        vacuum = _thermal_weights(math.inf, 1.0, n)
        factors = [(*m, vacuum) for m in _purified_modes(config.bath)]
    else:
        factors = [
            (m.kappa, m.omega, m.mass, 1.0,
             _thermal_weights(config.bath.beta, m.omega, n))
            for m in config.bath.modes
        ]
    k = len(factors)
    occupations = np.indices((n,) * k).reshape(k, -1)  # n_i at each product index
    ladder = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    b = np.zeros((n**k, n**k))
    h_b = np.zeros(n**k)
    w = np.ones(n**k)
    for i, (kappa, omega, mass, sign, weights) in enumerate(factors):
        # times the reciprocal, which is how NumPy divides a complex array by a
        # real scalar: x keeps the bits of a complex-arithmetic construction
        x = (ladder + ladder.T) * (1.0 / math.sqrt(2.0 * mass * omega))
        b += kappa * np.kron(np.kron(np.eye(n**i), x), np.eye(n ** (k - i - 1)))
        h_b += sign * (omega * (occupations[i] + 0.5))
        w *= weights[occupations[i]]
    return b, h_b, w


# --- exact solutions ----------------------------------------------------------


def decoherence_exponent(bath: BathSpec, t: float) -> float:
    """Γ1(t) = ∫_0^t ∫_0^{t1} D1(t1 - t2) dt2 dt1, per mode in closed form.

    For a mode (κ, ω, m): (κ^2 / (m ω)) coth(βω/2) (1 - cos ωt) / ω^2.
    """
    amps = bath.amplitudes * bath.coth_factors
    return float(np.sum(amps * (1.0 - np.cos(bath.omegas * t)) / bath.omegas**2))


def dephasing_exact(
    rho0: np.ndarray, model: SystemModel, bath: BathSpec, t: float
) -> np.ndarray:
    """Schrödinger-picture state of the pure-dephasing model at time t.

    Requires a two-level system whose coupling commutes with H_S and has the
    spectrum {+1, -1}; ``rho0`` is then checked as :func:`propagate` checks
    it.  Populations are unchanged; the coherence in the coupling eigenbasis
    acquires the free phase e^{-i ω0 t} and the decay exp(-2 α^2 Γ1(t)).
    """
    if model.dim != 2:
        raise ValueError("dephasing solution requires a two-level system")
    comm = model.h_sys @ model.coupling - model.coupling @ model.h_sys
    if np.max(np.abs(comm)) > _COMMUTE_TOL:
        raise ValueError("coupling must commute with the system Hamiltonian")
    evals, v = np.linalg.eigh(model.coupling)
    order = np.argsort(-evals)  # +1 first
    evals, v = evals[order], v[:, order]
    if np.max(np.abs(evals - np.array([1.0, -1.0]))) > _COMMUTE_TOL:
        raise ValueError("coupling spectrum must be {+1, -1}")
    h_d = v.conj().T @ model.h_sys @ v
    omega0 = float((h_d[0, 0] - h_d[1, 1]).real)
    r = v.conj().T @ _validate_state(rho0, 2) @ v
    decay = math.exp(-2.0 * model.alpha**2 * decoherence_exponent(bath, t))
    out = np.array(
        [
            [r[0, 0], r[0, 1] * np.exp(-1j * omega0 * t) * decay],
            [r[1, 0] * np.exp(1j * omega0 * t) * decay, r[1, 1]],
        ],
        dtype=complex,
    )
    return v @ out @ v.conj().T


def to_interaction_picture(model: SystemModel, rho: np.ndarray, t) -> np.ndarray:
    """e^{+i H_S t} rho e^{-i H_S t}; a (T, d, d) stack of states and T times
    are rotated pairwise."""
    w, v = model._eig
    phases = np.exp(1j * np.multiply.outer(t, w))[..., None, :]
    u = (v * phases) @ v.conj().T
    return u @ rho @ np.swapaxes(u.conj(), -1, -2)


@dataclass
class OracleTrajectory(Trajectory):
    """The oracle's states, with the movement its own truncation check saw:
    the largest trace distance between the states at ``fock_levels`` and at
    two more levels, or None when that check did not run."""

    truncation_shift: float | None = None


def exact_small_bath(
    rho0: np.ndarray,
    model: SystemModel,
    config: TruncatedBathConfig,
    t_grid: np.ndarray,
    check_truncation: bool = True,
) -> OracleTrajectory:
    """Unitary system+bath evolution, reduced and in the interaction picture.

    H_total = H_S ⊗ 1 + 1 ⊗ H_B - α X ⊗ B on the truncated product space,
    initial state rho0 ⊗ (renormalized truncated Gibbs), or rho0 ⊗ vacuum of
    the thermofield-purified bath when ``config.purified`` is set.  If
    ``check_truncation`` is set, the run is repeated with two extra Fock
    levels; the largest trace distance it moves a state by is returned as
    ``truncation_shift``, which stays None when the bigger space exceeds the
    dimension cap.  ``rho0`` and the times are checked first, ``rho0`` by
    the rule :func:`propagate` applies.
    """
    rho0 = _validate_state(rho0, model.dim)
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid must be finite")
    config.check_dim(model.dim)
    states = _reduced_states(rho0, model, config, t_grid)
    shift = None
    bigger = replace(config, fock_levels=config.fock_levels + 2)
    if check_truncation and bigger.total_dim(model.dim) <= _DIM_CAP:
        shift = float(np.max(trace_distance(states, _reduced_states(rho0, model, bigger, t_grid))))
    tr, herm, mins = _monitors(states)
    return OracleTrajectory(t_grid.copy(), states, tr, herm, mins, truncation_shift=shift)


def _total_hamiltonian(model: SystemModel, config: TruncatedBathConfig):
    """(H_total, w): H_S ⊗ 1 + 1 ⊗ H_B - α X ⊗ B on the truncated product
    space, H_B added on the diagonal, and the diagonal of the bath's initial
    state (see :func:`_bath_operators`)."""
    b, h_b, w_b = _bath_operators(config)
    h_tot = _kron_batch(model.h_sys[None], np.eye(len(w_b))[None])[0]
    h_tot[np.diag_indices_from(h_tot)] += np.tile(h_b, model.dim)
    h_tot -= model.alpha * _kron_batch(model.coupling[None], b[None])[0]
    return h_tot, w_b


def _components(h: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the nonzero pattern of h, by
    smallest index: each pass over the nonzero entries gives every index the
    smallest label of its neighbours, then its label's label, until none moves."""
    rows, cols = np.nonzero(h)
    label = np.arange(len(h))
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        new = new[new]
        if np.array_equal(new, label):
            return [np.flatnonzero(label == k) for k in np.flatnonzero(label == np.arange(len(h)))]
        label = new


def _eigh_by_blocks(h: np.ndarray, parts: list[np.ndarray] | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(evals, U) with h = U diag(evals) U†, one ``eigh`` per connected
    component of h's exact nonzero pattern (``parts`` if given), in real
    arithmetic when h has no imaginary part.

    A permutation that groups each component's indices makes h block
    diagonal, so the eigenvectors of each block, placed on its indices, are
    eigenvectors of h; U is block structured, and the eigenvalues come
    component by component rather than in ascending order.
    """
    if not np.any(h.imag):
        h = h.real
    parts = _components(h) if parts is None else parts
    if len(parts) == 1:
        return np.linalg.eigh(h)
    evals = np.empty(len(h))
    u = np.zeros_like(h)
    start = 0
    for idx in parts:
        cols = slice(start, start + len(idx))
        evals[cols], u[idx, cols] = np.linalg.eigh(h[np.ix_(idx, idx)])
        start += len(idx)
    return evals, u


def _reduced_states(
    rho0: np.ndarray, model: SystemModel, config: TruncatedBathConfig, t_grid
) -> np.ndarray:
    """Interaction-picture reduced states, the bath traced out once for all times.

    With H_total = U diag(E) U† and R = U† (rho0 ⊗ rho_B) U, the reduced state
    is rho_ij(t) = p(t)ᵀ (R ∘ M_ij) p(t)*, where p(t) = e^{-iEt} and
    M_ij = U_iᵀ conj(U_j) is the partial-trace overlap of the row blocks
    U_i = U[(i, n), :].  It is summed one pair of components (C, C') of H_total
    at a time, over the n with (i, n) in C and (j, n) in C', skipping pairs
    with none: one (T x |C|)(|C| x |C'|) product for the whole grid; and
    rho_ji = conj(rho_ij).  R comes from the vectors φ_k = (eigenvector of
    rho0) ⊗ (Fock product state) of nonzero weight w_k:
    R = Σ_k w_k (U† φ_k)(U† φ_k)†, by the same blocks, R_C'C = R_CC'†.
    """
    d = model.dim
    h_tot, w_b = _total_hamiltonian(model, config)
    nb = len(w_b)
    parts = _components(h_tot)
    evals, u = _eigh_by_blocks(h_tot, parts)
    del h_tot
    edges = np.cumsum([0] + [len(idx) for idx in parts])
    cols = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
    comp = np.repeat(np.arange(len(parts)), np.diff(edges))[np.concatenate(parts).argsort()]
    comp = comp.reshape(d, nb)  # the component of each row (i, n)
    p, v = np.linalg.eigh((rho0 + rho0.conj().T) / 2.0)
    weights = np.kron(p, w_b)
    keep = weights != 0.0
    blocks = u.reshape(d, nb, -1)
    # eigenbasis components of v_i ⊗ |n⟩, column index (i, n) as in weights
    c = np.einsum("ai,anj->jin", v, blocks.conj()).reshape(len(evals), -1)[:, keep]
    cw = c * weights[keep]
    r: dict = {}
    phases = [np.exp(-1j * np.outer(t_grid, evals[k])) for k in cols]
    out = np.zeros((len(t_grid), d, d), dtype=complex)
    for i in range(d):
        for j in range(i, d):
            pair = comp[i] * len(parts) + comp[j]
            for key in np.flatnonzero(np.bincount(pair)):
                k, l = divmod(int(key), len(parts))
                if (k, l) not in r:
                    r[k, l] = (r[l, k].conj().T if (l, k) in r
                               else cw[cols[k]] @ c[cols[l]].conj().T)
                ns = np.flatnonzero(pair == key)
                m = (blocks[i, ns, cols[k]].T @ blocks[j, ns, cols[l]].conj()) * r[k, l]
                out[:, i, j] += np.einsum("tb,tb->t", phases[k] @ m, phases[l].conj())
            if j > i:
                out[:, j, i] = out[:, i, j].conj()
    return to_interaction_picture(model, out, t_grid)


# --- named scenarios ----------------------------------------------------------

_SZ = np.diag([1.0, -1.0]).astype(complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class Preset:
    """A ready-to-run scenario: system, reservoir, truncation default."""

    name: str
    model: SystemModel
    bath: BathSpec
    fock_levels: int


def _make_presets() -> dict[str, Preset]:
    presets = {}
    presets["dephasing-single-mode"] = Preset(
        "dephasing-single-mode",
        SystemModel(2, 0.5 * _SZ, _SZ, alpha=0.1),
        BathSpec(modes=[(1.0, 1.0, 1.0)], beta=1.0),
        fock_levels=20,
    )
    presets["spinboson-single-mode"] = Preset(
        "spinboson-single-mode",
        SystemModel(2, 0.5 * _SZ, _SX, alpha=0.1),
        BathSpec(modes=[(1.0, 1.0, 1.0)], beta=1.0),
        fock_levels=12,
    )
    presets["spinboson-two-mode"] = Preset(
        "spinboson-two-mode",
        SystemModel(2, 0.5 * _SZ, _SX, alpha=0.1),
        BathSpec(modes=[(1.0, 1.0, 1.0), (0.6, 1.7, 1.0)], beta=1.0),
        fock_levels=10,
    )
    return presets


_PRESETS = _make_presets()
PRESET_NAMES = tuple(sorted(_PRESETS))


def get_preset(name: str) -> Preset:
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None


def list_presets() -> tuple[str, ...]:
    return PRESET_NAMES


# --- error scaling in the coupling ---------------------------------------------


def _default_rho0(dim: int) -> np.ndarray:
    """The pure state with equal amplitudes on every basis vector."""
    v = np.full(dim, 1.0 / math.sqrt(dim))
    return np.outer(v, v).astype(complex)


@dataclass
class ScalingResult:
    """Max trace-distance errors vs coupling and fitted log-log slopes."""

    alphas: tuple[float, ...]
    errors_order2: tuple[float, ...]
    errors_order4: tuple[float, ...]
    slope_order2: float
    slope_order4: float


def scaling_study(
    preset_name: str = "spinboson-single-mode",
    alphas: Sequence[float] = (0.025, 0.05, 0.1, 0.2),
    t_max: float = 4.0,
    fock_levels: int | None = None,
    n_output: int = 81,
    verbose: bool = False,
) -> ScalingResult:
    """Fit the error-vs-coupling slopes for order-2 and order-4 propagation.

    Every rung is the generator ``tclgen run`` propagates:
    :func:`build_generator` at the default :class:`QuadratureSpec` with
    ``interp="cubic"``, so K2 and K4 come from their closed forms on a grid
    of ``nodes_per_unit_time`` nodes per unit time and are spline-interpolated
    between them.  They do not depend on the coupling, so one order-4 build
    serves every rung through ``dataclasses.replace``.  Every run is compared,
    on the same output grid, with the truncated product-space oracle for a
    thermofield-purified bath (``TruncatedBathConfig(purified=True)``): each
    thermal mode becomes two vacuum-started modes of ``fock_levels`` levels,
    which converge where a truncated Gibbs state does not.  The purified
    dimension is checked against the oracle's cap before any generator work.
    Every rung propagates by ``rk45-adaptive`` at ``atol = 1e-13``.  The
    slopes are least-squares fits of log(max error) against log(alpha), so
    at least two of the couplings must differ.
    """
    if len(set(alphas)) < 2:
        raise ValueError("need at least two distinct coupling values to fit a slope")
    if not all(math.isfinite(a) and a > 0 for a in alphas):
        raise ValueError("couplings must be positive and finite")
    preset = get_preset(preset_name)
    base, bath = preset.model, preset.bath
    n_fock = fock_levels if fock_levels is not None else preset.fock_levels
    reference = TruncatedBathConfig(bath, n_fock, purified=True)
    reference.check_dim(base.dim)

    t_grid = np.linspace(0.0, t_max, n_output)
    rho0 = _default_rho0(base.dim)
    errs: dict[int, list[float]] = {2: [], 4: []}
    table = build_generator(base, bath, 4, QuadratureSpec(), t_max, interp="cubic")
    for alpha in alphas:
        model = replace(base, alpha=alpha)
        oracle = exact_small_bath(rho0, model, reference, t_grid, check_truncation=False)
        for order in (2, 4):
            gen = replace(table, alpha=alpha, order=order)
            traj = propagate(rho0, gen, t_grid, stepper="rk45-adaptive", atol=1e-13)
            err = float(np.max(trace_distance(traj.states, oracle.states)))
            errs[order].append(err)
            if verbose:
                print(f"alpha={alpha:g} order={order}: max error {err:.3e}", file=sys.stderr)

    la = np.log(np.asarray(alphas, dtype=float))
    slope2, slope4 = (float(np.polyfit(la, np.log(errs[n]), 1)[0]) for n in (2, 4))
    return ScalingResult(tuple(float(a) for a in alphas), tuple(errs[2]), tuple(errs[4]),
                         slope2, slope4)


# --- one run -------------------------------------------------------------------


def _truncated_reference(preset: str | None, bath: BathSpec, fock_levels: int,
                         system_dim: int) -> TruncatedBathConfig | None:
    """The truncated-bath reference of a run on ``preset``, checked against the
    dimension cap; None without a preset and for a dephasing preset's closed form."""
    if preset is None or preset.startswith("dephasing"):
        return None
    config = TruncatedBathConfig(bath, fock_levels)
    config.check_dim(system_dim)
    return config


@dataclass
class RunResult:
    """The numbers of one run, as :func:`simulate` computes them; a part not
    asked for stays None or empty.  ``routes`` holds (t, relative
    difference, threshold) per generator time.  ``reference_levels`` is None
    for the closed-form reference, ``truncation_shift`` where the truncated
    one's check was over the dimension cap.  ``scan_singular_values`` are
    those of 1 + alpha^2 J(t_max) at each of ``scan_alphas``, largest first.
    """

    generator: Generator
    trajectory: Trajectory | None = None
    diagnostic: DiagnosticTable | None = None
    routes: list[tuple[float, float, float]] = field(default_factory=list)
    reference_states: np.ndarray | None = None
    reference_label: str = ""
    reference_levels: int | None = None
    truncation_shift: float | None = None
    reference_error: float | None = None  # the largest trace distance
    coherence_error: float | None = None  # the largest error of the (0, 1) entry
    scan_alphas: np.ndarray | None = None
    scan_singular_values: np.ndarray | None = None


def simulate(
    model: SystemModel, bath: BathSpec, rho0: np.ndarray, *, t_max: float, n_output: int,
    order: int, quad: QuadratureSpec, stepper: str, max_step: float, atol: float,
    generator_times: Sequence[float], preset: str | None, fock_levels: int,
    trajectory: bool, diagnostic: bool, report: bool, verbose: bool = False,
) -> RunResult:
    """The numbers of one ``tclgen run``: the generator to ``t_max``, and as
    asked the trajectory of ``rho0`` on ``n_output`` uniform points, the
    invertibility diagnostic there, and the report's parts: the route check
    at each of ``generator_times`` (order 4), the distance from the exact
    reference of ``preset`` and the coupling scan at ``t_max``.  A truncated
    reference over the dimension cap raises ValueError before any work; a
    failed route check only shows in ``routes``.
    """
    say = (lambda msg: print(msg, file=sys.stderr)) if verbose else (lambda msg: None)
    t_grid = np.linspace(0.0, t_max, n_output)
    compare = trajectory and report and preset is not None
    truncated = _truncated_reference(preset, bath, fock_levels, model.dim) if compare else None
    if trajectory:
        say("building generator table")
    # one coefficient memo serves the trajectory, the route checks and the CSVs
    gen = build_generator(model, bath, order, quad, t_max,
                          interp="cubic" if trajectory else "direct")
    res = RunResult(gen)
    if trajectory:
        say("propagating")
        res.trajectory = propagate(rho0, gen, t_grid, stepper=stepper, max_step=max_step,
                                   atol=atol)
    if diagnostic:
        res.diagnostic = invertibility_diagnostic(model, bath, t_grid)
    if not report:
        return res
    times = [float(t) for t in generator_times] if order == 4 else []
    if times:
        say("route comparison at t=" + ", ".join(f"{t:g}" for t in times))
        k4 = np.stack([gen.coefficients(t).k4 for t in times])
        res.routes = [(t, *check) for t, check in
                      zip(times, check_k4_routes(model, bath, times, quad, k4, gen.grid))]
    if compare:
        if truncated is None:
            res.reference_label = "closed-form dephasing solution"
            res.reference_states = np.stack([
                to_interaction_picture(model, dephasing_exact(rho0, model, bath, t), t)
                for t in t_grid])
        else:
            oracle = exact_small_bath(rho0, model, truncated, t_grid)
            res.reference_label = f"truncated product-space evolution ({fock_levels} levels/mode)"
            res.reference_states, res.reference_levels = oracle.states, fock_levels
            res.truncation_shift = oracle.truncation_shift
        states, exact = res.trajectory.states, res.reference_states
        res.reference_error = float(np.max(trace_distance(states, exact)))
        res.coherence_error = float(np.max(np.abs(states[:, 0, 1] - exact[:, 0, 1])))
    res.scan_alphas = np.linspace(0.1, 2.0, 20)
    j = forward_map_exact(model, bath, t_max)
    res.scan_singular_values = np.linalg.svd(
        np.eye(model.dim**2) + (res.scan_alphas * res.scan_alphas)[:, None, None] * j,
        compute_uv=False)
    return res
