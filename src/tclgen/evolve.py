"""Propagation of the reduced state under a time-local generator.

The master equation d rho / dt = K(t) rho is integrated on the vectorized
state.  Two steppers: classic fixed-step RK4 (used for convergence-order
measurements) and adaptive RK45 via scipy (default).  The trajectory carries
per-time conservation monitors: trace deviation, Hermiticity deviation and
the smallest eigenvalue of the Hermitized state.

The invertibility diagnostic conditions the lowest-order forward map, whose
correction J(t) it takes in closed form
(:func:`tclgen.exact.forward_map_exact`); :func:`forward_map_correction`
integrates J by quadrature as its check and for the K4 form J4' - K2 J,
which shares one four-point integral with the fully ordered form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .algebra import SystemModel, vec, unvec
from .bath import BathSpec
from .cumulant import forward_map_correction
from .exact import forward_map_exact
from .tcl import Generator

__all__ = [
    "Trajectory",
    "DiagnosticTable",
    "NumericsError",
    "propagate",
    "invertibility_diagnostic",
    "forward_map_correction",
    "trace_distance",
]

_STATE_TOL = 1e-10


class NumericsError(RuntimeError):
    """The stepper or a linear-algebra routine failed to produce a result."""


@dataclass
class Trajectory:
    """States on the output grid plus conservation monitors."""

    times: np.ndarray
    states: np.ndarray  # (T, d, d)
    trace_deviation: np.ndarray
    herm_deviation: np.ndarray
    min_eigenvalue: np.ndarray


def _monitors(states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tr = np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)
    herm = np.array([np.max(np.abs(s - s.conj().T)) for s in states])
    mins = np.array([np.linalg.eigvalsh((s + s.conj().T) / 2.0)[0].real for s in states])
    return tr, herm, mins


def _validate_state(rho0: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"initial state must be {dim} x {dim}, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > _STATE_TOL:
        raise ValueError("initial state is not Hermitian within 1e-10")
    if abs(np.trace(rho) - 1.0) > _STATE_TOL:
        raise ValueError("initial state trace differs from 1 by more than 1e-10")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0] < -_STATE_TOL:
        raise ValueError("initial state has an eigenvalue below -1e-10")
    return rho


def propagate(
    rho0: np.ndarray,
    gen: Generator,
    t_grid: np.ndarray,
    stepper: str = "rk45-adaptive",
    max_step: float = 0.01,
    atol: float = 1e-10,
) -> Trajectory:
    """Integrate the master equation over ``t_grid`` (strictly increasing).

    ``max_step`` only applies to the fixed-step RK4 stepper; ``atol`` is the
    absolute tolerance handed to the adaptive stepper, whose relative
    tolerance is tied to it as ``max(atol, 1e-13)``.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValueError("t_grid must be a 1-d array with at least two times")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    rho = _validate_state(rho0, gen.dim)

    if stepper == "rk4-fixed":
        states = _run_rk4(rho, gen, t_grid, max_step)
    elif stepper == "rk45-adaptive":
        states = _run_rk45(rho, gen, t_grid, atol)
    else:
        raise ValueError(f"unknown stepper {stepper!r}")

    states[0] = rho  # exact by construction, keep it bitwise
    tr, herm, mins = _monitors(states)
    return Trajectory(t_grid.copy(), states, tr, herm, mins)


def _rhs(gen: Generator):
    """The right-hand side of both steppers: d vec(rho)/dt = K(t) vec(rho)."""
    return lambda t, v: gen.evaluator(t) @ v


def _run_rk4(rho: np.ndarray, gen: Generator, t_grid: np.ndarray, max_step: float):
    if max_step <= 0:
        raise ValueError(f"max_step must be positive, got {max_step}")
    d = gen.dim
    y = vec(rho)
    out = np.empty((len(t_grid), d, d), dtype=complex)
    out[0] = rho
    rhs = _rhs(gen)
    for k in range(len(t_grid) - 1):
        t0, t1 = t_grid[k], t_grid[k + 1]
        nsub = max(1, int(np.ceil((t1 - t0) / max_step)))
        h = (t1 - t0) / nsub
        t = t0
        for _ in range(nsub):
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2, y + (h / 2) * k1)
            k3 = rhs(t + h / 2, y + (h / 2) * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        if not np.all(np.isfinite(y)):
            raise NumericsError(f"rk4 state became non-finite at t = {t1}")
        out[k + 1] = unvec(y, d)
    return out


def _run_rk45(rho: np.ndarray, gen: Generator, t_grid: np.ndarray, atol: float):
    sol = solve_ivp(
        _rhs(gen),
        (t_grid[0], t_grid[-1]),
        vec(rho),
        method="RK45",
        t_eval=t_grid,
        atol=atol,
        rtol=max(atol, 1e-13),
    )
    if not sol.success:
        raise NumericsError(f"adaptive stepper failed: {sol.message}")
    return np.stack([unvec(sol.y[:, k], gen.dim) for k in range(sol.y.shape[1])])


@dataclass
class DiagnosticTable:
    """Smallest singular value and condition number of the forward map."""

    times: np.ndarray
    sigma_min: np.ndarray
    condition_number: np.ndarray


def invertibility_diagnostic(
    model: SystemModel, bath: BathSpec, t_grid: np.ndarray
) -> DiagnosticTable:
    """Conditioning of M(t) = 1 + alpha^2 J(t) along the grid.

    M is the lowest-order expansion of the map rho(0) -> rho(t), with
    J(t) = int_0^t int_0^t1 <L L> from :func:`tclgen.exact.forward_map_exact`
    (closed form, no quadrature).  A collapsing smallest singular value
    signals times where inverting the expansion (the step that makes the
    generator time local) becomes ill conditioned.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0):
        raise ValueError("diagnostic times must be nonnegative")
    eye = np.eye(model.dim**2, dtype=complex)
    sig, cond = np.empty(len(t_grid)), np.empty(len(t_grid))
    for k, t in enumerate(t_grid):
        m = eye + model.alpha**2 * forward_map_exact(model, bath, float(t))
        svals = np.linalg.svd(m, compute_uv=False)
        if svals[-1] <= 0 or not np.all(np.isfinite(svals)):
            raise NumericsError(f"forward map singular at t = {t}")
        sig[k] = svals[-1]
        cond[k] = svals[0] / svals[-1]
    return DiagnosticTable(t_grid.copy(), sig, cond)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) trace norm of the difference of two Hermitian matrices."""
    diff = a - b
    diff = (diff + diff.conj().T) / 2.0
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))
