"""Propagation of the reduced state under a time-local generator.

The master equation d rho / dt = K(t) rho is integrated on the vectorized
state.  Three steppers: fourth-order Magnus at the Gauss points (``tclgen
run``'s default), classic fixed-step RK4 (used for convergence-order
measurements) and the adaptive Dormand-Prince 5(4) pair with dense output
(the library default).  The trajectory carries per-time conservation
monitors: trace deviation, Hermiticity deviation and the smallest eigenvalue
of the Hermitized state, and the stepper's steps and generator evaluations.
Every stepper reads K(t) through batched :meth:`tclgen.tcl.Generator.values`
calls, since the stage times depend only on t and the step, never on the state.

The invertibility diagnostic conditions the lowest-order forward map, whose
correction J(t) it takes in closed form, for a whole uniform grid at once
(:func:`tclgen.exact.forward_map_exact_grid`); :func:`forward_map_correction`
integrates J by quadrature as its check and for the K4 form J4' - K2 J,
which shares one four-point integral with the fully ordered form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import SystemModel, vec, unvec
from .bath import BathSpec
from .cumulant import forward_map_correction
from .exact import _expm, forward_map_exact, forward_map_exact_grid
from .tcl import Generator

__all__ = [
    "STEPPERS",
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
    """States on the output grid plus conservation monitors and stepper work."""

    times: np.ndarray
    states: np.ndarray  # (T, d, d)
    trace_deviation: np.ndarray
    herm_deviation: np.ndarray
    min_eigenvalue: np.ndarray
    steps: int = 0
    evaluations: int = 0  # right-hand sides, not generator values


def _monitors(states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tr = np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)
    adj = np.swapaxes(states.conj(), 1, 2)
    herm = np.max(np.abs(states - adj), axis=(1, 2))
    mins = np.linalg.eigvalsh((states + adj) / 2.0)[:, 0]
    return tr, herm, mins


def _validate_state(rho0: np.ndarray, dim: int) -> np.ndarray:
    """``rho0`` as a complex d x d array, else a ValueError naming the first
    rule it breaks: finite entries, then Hermiticity, unit trace and no
    eigenvalue below zero, each within 1e-10.  The one state rule of the
    config, :func:`propagate` and both exact references."""
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"rho0: must be {dim} x {dim}, got {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("rho0: entries must be finite")
    if np.max(np.abs(rho - rho.conj().T)) > _STATE_TOL:
        raise ValueError("rho0: not Hermitian")
    if abs(np.trace(rho) - 1.0) > _STATE_TOL:
        raise ValueError("rho0: trace is not 1")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0] < -_STATE_TOL:
        raise ValueError("rho0: not positive semidefinite")
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

    ``max_step`` bounds the steps of ``magnus4`` and ``rk4-fixed``; ``atol``
    is the absolute tolerance handed to ``rk45-adaptive``, whose relative
    tolerance is tied to it as ``max(atol, 1e-13)``.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValueError("t_grid must be a 1-d array with at least two times")
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid must be finite")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    rho = _validate_state(rho0, gen.dim)

    run = STEPPERS.get(stepper)
    if run is None:
        raise ValueError(f"unknown stepper {stepper!r}")
    work = {}
    states = run(rho, gen, t_grid, atol if run is _run_rk45 else max_step, work)

    states[0] = rho  # exact by construction, keep it bitwise
    tr, herm, mins = _monitors(states)
    return Trajectory(t_grid.copy(), states, tr, herm, mins, **work)


def _substeps(t_grid: np.ndarray, max_step: float) -> np.ndarray:
    """Per output interval, the fewest equal steps no longer than ``max_step``."""
    if not max_step > 0:
        raise ValueError(f"max_step must be positive, got {max_step}")
    return np.maximum(1, np.ceil(np.diff(t_grid) / max_step)).astype(int)


_GAUSS = (0.5 - 3**0.5 / 6, 0.5 + 3**0.5 / 6)  # the Gauss nodes of a unit step
_BATCH = 1 << 16  # entries of the generator values, or magnus4 step maps, held at once


def _run_rk4(rho: np.ndarray, gen: Generator, t_grid: np.ndarray, max_step: float,
             work: dict):
    """Classic fixed-step RK4, ``_substeps`` equal steps h per output interval
    [t0, t1].  A step from t takes K at t, t + h/2 (for two stages) and
    min(t + h, t1), as t + h may pass t1 by an ulp; the next starts at t += h.
    Up to ``_BATCH`` entries of stage values come from one ``values`` call."""
    subs = _substeps(t_grid, max_step)
    d, y = gen.dim, vec(rho)
    n = d * d
    per = max(1, _BATCH // (3 * n * n))  # steps per values call
    out = np.empty((len(t_grid), d, d), dtype=complex)
    out[0] = rho
    for k, nsub in enumerate(subs.tolist()):
        t, t1 = t_grid[k], t_grid[k + 1]
        h = (t1 - t) / nsub
        for lo in range(0, nsub, per):
            m = min(per, nsub - lo)
            starts = np.cumsum(np.r_[t, np.full(m - 1, h)])  # t += h, added in sequence
            t = starts[-1] + h
            stage = np.stack([starts, starts + h / 2, np.minimum(starts + h, t1)], axis=1)
            for a, b, e in gen.values(stage.ravel()).reshape(m, 3, n, n):
                k1 = a @ y
                k2 = b @ (y + (h / 2) * k1)
                k3 = b @ (y + (h / 2) * k2)
                k4 = e @ (y + h * k3)
                y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise NumericsError(f"rk4 state became non-finite at t = {t1}")
        out[k + 1] = unvec(y, d)
    work.update(steps=int(subs.sum()), evaluations=4 * int(subs.sum()))
    return out


def _run_magnus4(rho: np.ndarray, gen: Generator, t_grid: np.ndarray, max_step: float,
                 work: dict):
    """Fourth-order Magnus at the Gauss points (S. Blanes et al., Phys. Rep.
    470, 151 (2009)): a step h from t is exp((h/2)(A_- + A_+) + (sqrt(3)
    h^2/12)[A_+, A_-]), A_pm = K(t + (1/2 pm sqrt(3)/6) h), trace preserving
    as every K is.  Per batch of whole output intervals: one ``values`` call,
    one stacked ``_expm``, one map per interval by batched products."""
    subs = _substeps(t_grid, max_step)
    owner = np.repeat(np.arange(len(subs)), subs)  # output interval of each step
    col = np.arange(len(owner)) - np.repeat(np.cumsum(subs) - subs, subs)  # place in it
    h = (np.diff(t_grid) / subs)[owner]
    nodes = t_grid[owner] + (col + np.array(_GAUSS)[:, None]) * h  # (2, steps)
    n, y = gen.dim**2, vec(rho)
    out = np.empty((len(t_grid), gen.dim, gen.dim), dtype=complex)
    out[0] = rho
    per = max(1, _BATCH // (n * n * subs.max()))  # output intervals per batch
    for lo in range(0, len(subs), per):
        s = slice(*np.searchsorted(owner, [lo, lo + per]))
        am, ap = gen.values(nodes[:, s].ravel()).reshape(2, -1, n, n)
        hs = h[s, None, None]
        omega = hs / 2 * (am + ap) + 3**0.5 / 12 * hs**2 * (ap @ am - am @ ap)
        shape = (min(per, len(subs) - lo), subs[lo:lo + per].max(), n, n)
        maps = np.broadcast_to(np.eye(n, dtype=complex), shape).copy()  # 1 pads
        maps[owner[s] - lo, col[s]] = _expm(omega)
        for m in maps[:, 1:].swapaxes(0, 1):  # later steps to the left
            maps[:, 0] = m @ maps[:, 0]
        for k, m in enumerate(maps[:, 0], lo + 1):
            y = m @ y
            out[k] = unvec(y, gen.dim)
    bad = ~np.all(np.isfinite(out), axis=(1, 2))
    if bad.any():
        raise NumericsError(f"magnus4 state became non-finite at t = {t_grid[np.argmax(bad)]}")
    work.update(steps=len(owner), evaluations=2 * len(owner))
    return out


# The Dormand-Prince 5(4) pair (J. R. Dormand and P. J. Prince, J. Comput. Appl.
# Math. 6, 19 (1980)): stage times C, stage couplings A, fifth-order weights B,
# and E, the fifth- minus fourth-order weights on the six stages and the
# first-same-as-last stage.  P is Shampine's quartic dense output with his
# optimal c_6 (L. F. Shampine, Math. Comp. 46, 135 (1986)).
_DP_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
# step-size control: safety factor, bounds on the change of step, and the
# exponent -1/(q+1) for the fourth-order error estimate
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERR_EXPONENT = 0.9, 0.2, 10, -1 / 5


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(gen: Generator, t0, y0, f0, span, rtol, atol):
    """First step size, by Hairer, Norsett and Wanner, Solving ODEs I, II.4."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = gen.values([t0 + h0])[0] @ (y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span)


def _run_rk45(rho: np.ndarray, gen: Generator, t_grid: np.ndarray, atol: float, work: dict):
    """Adaptive Dormand-Prince 5(4), sampled on ``t_grid`` by dense output.

    Error per step: the RMS norm of the embedded estimate scaled by
    ``atol + rtol max(|y|, |y_new|)``, with ``rtol = max(atol, 1e-13)``; a
    step is accepted below 1.  Step sizes, operations and their order are
    those of SciPy's ``solve_ivp(method="RK45", t_eval=t_grid)``, so the
    states are bitwise the same for the same right-hand side.  A step
    forced below 10 ulp of t raises :class:`NumericsError`.  Each attempt
    takes K at t + C[1:] h from one ``values`` call (C[5] = 1).  ``work``
    gets the accepted steps and the evaluations: two, and six per attempt.
    """
    if atol < 0:
        raise ValueError(f"atol must be nonnegative, got {atol}")
    rtol = max(atol, 1e-13)
    d = gen.dim
    t, t_end = t_grid[0], t_grid[-1]
    y = vec(rho)
    f = gen.values([t])[0] @ y
    h_abs = _initial_step(gen, t, y, f, t_end - t, rtol, atol)
    stages = np.empty((7, len(y)), dtype=complex)
    out = np.empty((len(t_grid), d, d), dtype=complex)
    done = 0  # states filled so far
    steps = tries = 0
    while t < t_end:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # also stops a NaN step size
                raise NumericsError("adaptive stepper failed: Required step size "
                                    "is less than spacing between numbers.")
            tries += 1
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = np.abs(h)
            ks = gen.values(t + _DP_C[1:] * h)
            stages[0] = f
            for s in range(1, 6):
                dy = np.dot(stages[:s].T, _DP_A[s, :s]) * h
                stages[s] = ks[s - 1] @ (y + dy)
            y_new = y + h * np.dot(stages[:-1].T, _DP_B)
            f_new = ks[4] @ y_new
            stages[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms(np.dot(stages.T, _DP_E) * h / scale)
            if err < 1:
                if err == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * err**_ERR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**_ERR_EXPONENT)
            rejected = True
        steps += 1
        reached = np.searchsorted(t_grid, t_new, side="right")
        if reached > done:
            x = (t_grid[done:reached] - t) / h
            powers = np.cumprod(np.tile(x, (4, 1)), axis=0)
            dense = h * np.dot(stages.T.dot(_DP_P), powers)
            dense += y[:, None]
            for k in range(reached - done):
                out[done + k] = unvec(dense[:, k], d)
            done = reached
        t, y, f = t_new, y_new, f_new
    work.update(steps=steps, evaluations=2 + 6 * tries)
    return out


# the steppers by name, each run as run(rho, gen, t_grid, max_step or atol, work)
STEPPERS = {"magnus4": _run_magnus4, "rk4-fixed": _run_rk4, "rk45-adaptive": _run_rk45}


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
    J(t) = int_0^t int_0^t1 <L L> in closed form, no quadrature: from one
    :func:`tclgen.exact.forward_map_exact_grid` call when ``t_grid`` is the
    uniform grid ``np.linspace(0, t_grid[-1], len(t_grid))``, else from one
    :func:`tclgen.exact.forward_map_exact` call per time.  The singular
    values of all times come from one stacked SVD.  A collapsing smallest
    singular value signals times where inverting the expansion (the step
    that makes the generator time local) becomes ill conditioned.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t_grid) & (t_grid >= 0)):
        raise ValueError("diagnostic times must be finite and nonnegative")
    n = model.dim**2
    steps = len(t_grid) - 1
    if steps >= 0 and np.array_equal(t_grid, np.linspace(0.0, t_grid[-1], steps + 1)):
        j = forward_map_exact_grid(model, bath, t_grid[-1], steps)
    else:
        j = np.array([forward_map_exact(model, bath, float(t)) for t in t_grid]).reshape(-1, n, n)
    svals = np.linalg.svd(np.eye(n, dtype=complex) + model.alpha**2 * j, compute_uv=False)
    bad = (svals[:, -1] <= 0) | ~np.all(np.isfinite(svals), axis=1)
    if np.any(bad):
        raise NumericsError(f"forward map singular at t = {t_grid[np.argmax(bad)]}")
    return DiagnosticTable(t_grid.copy(), svals[:, -1], svals[:, 0] / svals[:, -1])


def trace_distance(a: np.ndarray, b: np.ndarray):
    """(1/2) trace norm of the difference of two Hermitian matrices; for two
    (T, d, d) stacks, an array of the T pairwise distances."""
    diff = np.asarray(a) - b
    diff = (diff + np.swapaxes(diff.conj(), -1, -2)) / 2.0
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)
    return float(dist) if dist.ndim == 0 else dist
