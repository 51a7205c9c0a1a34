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

Plus a small registry of named benchmark scenarios, and
:func:`scaling_study`, which propagates the generator :func:`build_generator`
builds across a coupling ladder and fits the error-vs-coupling slopes
against the purified oracle.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .algebra import SystemModel
from .bath import BathSpec
from .evolve import Trajectory, _monitors, propagate, trace_distance
from .quadrature import QuadratureSpec
from .tcl import build_generator

__all__ = [
    "TruncatedBathConfig",
    "dephasing_exact",
    "exact_small_bath",
    "to_interaction_picture",
    "decoherence_exponent",
    "get_preset",
    "list_presets",
    "PRESET_NAMES",
    "ScalingResult",
    "scaling_study",
]

_DIM_CAP = 4096
_COMMUTE_TOL = 1e-12
_HERMITIAN_TOL = 1e-10  # as for a configured rho0


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


def _ladder(n: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=complex)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = np.sqrt(idx + 1.0)
    return a


def _mode_ops(kappa: float, omega: float, mass: float, n: int):
    """(x, p, H) for one truncated mode (kappa unused for x, p scaling)."""
    a = _ladder(n)
    x = (a + a.conj().T) / math.sqrt(2.0 * mass * omega)
    p = 1j * math.sqrt(mass * omega / 2.0) * (a.conj().T - a)
    h = omega * (np.diag(np.arange(n) + 0.5)).astype(complex)
    return x, p, h


def _thermal_weights(beta: float, omega: float, n: int) -> np.ndarray:
    if math.isinf(beta):
        w = np.zeros(n)
        w[0] = 1.0
        return w
    w = np.exp(-beta * omega * np.arange(n))
    return w / w.sum()


def _kron_all(mats: list[np.ndarray]) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


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
    """(B, H_B, w) on the truncated multi-mode bath space.

    ``w`` is the diagonal of the initial bath state in the Fock product
    basis: Gibbs weights per mode, or the vacuum for the purified bath.
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
    nb = n ** len(factors)
    b = np.zeros((nb, nb), dtype=complex)
    h = np.zeros((nb, nb), dtype=complex)
    for i, (kappa, omega, mass, sign, _) in enumerate(factors):
        x, _, hmode = _mode_ops(kappa, omega, mass, n)
        pre = [np.eye(n, dtype=complex)] * i
        post = [np.eye(n, dtype=complex)] * (len(factors) - i - 1)
        b += kappa * _kron_all(pre + [x] + post)
        h += sign * _kron_all(pre + [hmode] + post)
    return b, h, _kron_all([f[4] for f in factors])


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
    spectrum {+1, -1}.  Populations are unchanged; the coherence in the
    coupling eigenbasis acquires the free phase e^{-i ω0 t} and the decay
    exp(-2 α^2 Γ1(t)).
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
    r = v.conj().T @ np.asarray(rho0, dtype=complex) @ v
    decay = math.exp(-2.0 * model.alpha**2 * decoherence_exponent(bath, t))
    out = np.array(
        [
            [r[0, 0], r[0, 1] * np.exp(-1j * omega0 * t) * decay],
            [r[1, 0] * np.exp(1j * omega0 * t) * decay, r[1, 1]],
        ],
        dtype=complex,
    )
    return v @ out @ v.conj().T


def to_interaction_picture(model: SystemModel, rho: np.ndarray, t: float) -> np.ndarray:
    """e^{+i H_S t} rho e^{-i H_S t}."""
    w, v = model._eig
    phases = np.exp(1j * w * t)
    u = v @ np.diag(phases) @ v.conj().T
    return u @ rho @ u.conj().T


def exact_small_bath(
    rho0: np.ndarray,
    model: SystemModel,
    config: TruncatedBathConfig,
    t_grid: np.ndarray,
    check_truncation: bool = True,
) -> Trajectory:
    """Unitary system+bath evolution, reduced and in the interaction picture.

    H_total = H_S ⊗ 1 + 1 ⊗ H_B - α X ⊗ B on the truncated product space,
    initial state rho0 ⊗ (renormalized truncated Gibbs), or rho0 ⊗ vacuum of
    the thermofield-purified bath when ``config.purified`` is set.  If
    ``check_truncation`` is set, the run is repeated with two extra Fock
    levels and a warning is emitted when any output state moves by more than
    1e-6 in trace distance.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    config.check_dim(model.dim)
    states = _reduced_states(rho0, model, config, t_grid)
    if check_truncation:
        bigger = replace(config, fock_levels=config.fock_levels + 2)
        if bigger.total_dim(model.dim) <= _DIM_CAP:
            ref = _reduced_states(rho0, model, bigger, t_grid)
            worst = max(
                trace_distance(a, b) for a, b in zip(states, ref)
            )
            if worst > 1e-6:
                warnings.warn(
                    f"truncation-sensitive result: adding two Fock levels moves "
                    f"states by up to {worst:.3e} in trace distance",
                    stacklevel=2,
                )
    tr, herm, mins = _monitors(states)
    return Trajectory(t_grid.copy(), states, tr, herm, mins)


def _reduced_states(
    rho0: np.ndarray, model: SystemModel, config: TruncatedBathConfig, t_grid
) -> np.ndarray:
    """Reduced states from propagating weighted initial state vectors.

    rho0 ⊗ rho_B = Σ_k w_k |φ_k⟩⟨φ_k| with φ_k = (eigenvector of rho0) ⊗
    (Fock product state), w_k the product of their weights; only the vectors
    with w_k != 0 are propagated (at most d for a bath in its vacuum).
    """
    d = model.dim
    rho0 = np.asarray(rho0, dtype=complex)
    if np.linalg.norm(rho0 - rho0.conj().T) > _HERMITIAN_TOL:
        raise ValueError("initial state must be Hermitian")
    b, h_b, w_b = _bath_operators(config)
    nb = b.shape[0]
    h_tot = (
        np.kron(model.h_sys, np.eye(nb))
        + np.kron(np.eye(d), h_b)
        - model.alpha * np.kron(model.coupling, b)
    )
    evals, u = np.linalg.eigh(h_tot)
    p, v = np.linalg.eigh((rho0 + rho0.conj().T) / 2.0)
    weights = np.kron(p, w_b)
    keep = weights != 0.0
    # eigenbasis components of v_i ⊗ |n⟩, column index (i, n) as in weights
    c = np.einsum("ai,anj->jin", v, u.reshape(d, nb, -1).conj())
    c = c.reshape(len(evals), -1)[:, keep]
    weights = weights[keep]
    out = np.empty((len(t_grid), d, d), dtype=complex)
    for k, t in enumerate(t_grid):
        phi = (u @ (np.exp(-1j * evals * t)[:, None] * c)).reshape(d, -1)
        w_phi = (phi.reshape(d, nb, -1) * weights).reshape(d, -1)
        out[k] = to_interaction_picture(model, w_phi @ phi.conj().T, t)
    return out


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
    atol: float = 1e-13,
    verbose: bool = False,
) -> ScalingResult:
    """Fit the error-vs-coupling slopes for order-2 and order-4 propagation.

    Every rung is the generator ``tclgen run`` propagates:
    :func:`build_generator` at the default :class:`QuadratureSpec` with
    ``interp="cubic"``, so K2 and K4 come from their closed forms on a grid
    of ``nodes_per_unit_time`` nodes per unit time and are spline-interpolated
    between them.  Every run is compared on the same output grid against
    the truncated product-space oracle with a thermofield-purified bath
    (``TruncatedBathConfig(purified=True)``): each thermal mode becomes two
    modes that start in their vacuum, truncated at ``fock_levels`` each, so
    the reference converges at levels where a truncated Gibbs state does
    not.  The purified dimension is checked against the oracle's cap before
    any generator work.  The returned slopes are least-squares fits of
    log(max error) against log(alpha).
    """
    if len(alphas) < 2:
        raise ValueError("need at least two coupling values to fit a slope")
    if any(a <= 0 for a in alphas):
        raise ValueError("couplings must be positive")
    preset = get_preset(preset_name)
    base, bath = preset.model, preset.bath
    n_fock = fock_levels if fock_levels is not None else preset.fock_levels
    reference = TruncatedBathConfig(bath, n_fock, purified=True)
    reference.check_dim(base.dim)

    t_grid = np.linspace(0.0, t_max, n_output)
    rho0 = _default_rho0(base.dim)
    errs: dict[int, list[float]] = {2: [], 4: []}
    for alpha in alphas:
        model = replace(base, alpha=alpha)
        oracle = exact_small_bath(rho0, model, reference, t_grid, check_truncation=False)
        for order in (2, 4):
            gen = build_generator(model, bath, order, QuadratureSpec(), t_max, interp="cubic")
            traj = propagate(rho0, gen, t_grid, stepper="rk45-adaptive", atol=atol)
            err = max(trace_distance(a, b) for a, b in zip(traj.states, oracle.states))
            errs[order].append(err)
            if verbose:
                print(f"alpha={alpha:g} order={order}: max error {err:.3e}", file=sys.stderr)

    la = np.log(np.asarray(alphas, dtype=float))
    slope2, slope4 = (float(np.polyfit(la, np.log(errs[n]), 1)[0]) for n in (2, 4))
    return ScalingResult(tuple(float(a) for a in alphas), tuple(errs[2]), tuple(errs[4]),
                         slope2, slope4)
