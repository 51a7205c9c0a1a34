"""Propagation, conservation monitors, stepper order, invertibility diagnostics."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from test_exact import DETERMINISTIC, instances

import tclgen.evolve
from tclgen.algebra import SystemModel, unvec, vec
from tclgen.bath import BathSpec
from tclgen.cli import parse_config
from tclgen.evolve import (
    NumericsError,
    _monitors,
    _rhs,
    _run_rk45,
    forward_map_correction,
    invertibility_diagnostic,
    propagate,
    trace_distance,
)
from tclgen.exact import forward_map_exact
from tclgen.models import PRESET_NAMES, dephasing_exact, get_preset, to_interaction_picture
from tclgen.quadrature import QuadratureSpec
from tclgen.tcl import Coefficients, Generator, build_generator

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

GL8 = QuadratureSpec("gauss-legendre-nested", 8, 1e-8)
GL16 = QuadratureSpec("gauss-legendre-nested", 16, 1e-8)

BATH = BathSpec(modes=[(1.0, 1.0, 1.0)], beta=1.0)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def spin_boson(alpha):
    return SystemModel(2, 0.5 * SZ, SX, alpha)


def dephasing(alpha):
    return SystemModel(2, 0.5 * SZ, SZ, alpha)


def constant_generator(matrix):
    matrix = np.asarray(matrix, dtype=complex)
    dim = int(math.isqrt(matrix.shape[0]))
    return Generator(2, 1.0, dim, lambda t: Coefficients(matrix, None))


# --- input validation ---------------------------------------------------------------


def test_time_grid_validation():
    gen = build_generator(spin_boson(0.1), BATH, 2, GL8, 1.0)
    with pytest.raises(ValueError, match="at least two"):
        propagate(PLUS, gen, np.array([0.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        propagate(PLUS, gen, np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ValueError, match="1-d"):
        propagate(PLUS, gen, np.zeros((2, 2)))


def test_initial_state_validation():
    gen = build_generator(spin_boson(0.1), BATH, 2, GL8, 1.0)
    grid = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="must be 2 x 2"):
        propagate(np.eye(3) / 3.0, gen, grid)
    with pytest.raises(ValueError, match="Hermitian"):
        propagate(np.array([[0.5, 0.5], [0.0, 0.5]]), gen, grid)
    with pytest.raises(ValueError, match="trace"):
        propagate(np.eye(2), gen, grid)
    with pytest.raises(ValueError, match="positive semidefinite"):
        propagate(np.diag([1.5, -0.5]), gen, grid)
    with pytest.raises(ValueError, match="unknown stepper"):
        propagate(PLUS, gen, grid, stepper="euler")


def test_non_finite_output_time_is_rejected():
    # a NaN passes the strict-increase check, and ``t < nan`` is False, so the
    # adaptive loop would stop at once and leave every later state unwritten
    gen = build_generator(spin_boson(0.1), BATH, 2, GL8, 1.0)
    for stepper in ("rk45-adaptive", "rk4-fixed"):
        with pytest.raises(ValueError, match="t_grid must be finite"):
            propagate(PLUS, gen, np.array([0.0, 0.5, np.nan]), stepper=stepper)


def test_rk4_max_step_validation():
    gen = build_generator(spin_boson(0.1), BATH, 2, GL8, 1.0)
    with pytest.raises(ValueError, match="max_step"):
        propagate(PLUS, gen, np.array([0.0, 1.0]), stepper="rk4-fixed", max_step=0.0)


def test_rk45_atol_validation():
    gen = build_generator(spin_boson(0.1), BATH, 2, GL8, 1.0)
    with pytest.raises(ValueError, match="atol must be nonnegative"):
        propagate(PLUS, gen, np.array([0.0, 1.0]), atol=-1e-10)


# --- trivial dynamics ----------------------------------------------------------------


@pytest.mark.parametrize("stepper", ["rk4-fixed", "rk45-adaptive"])
def test_uncoupled_state_is_constant(stepper):
    gen = build_generator(spin_boson(0.0), BATH, 2, GL8, 2.0)
    grid = np.linspace(0.0, 2.0, 9)
    traj = propagate(PLUS, gen, grid, stepper=stepper)
    assert np.max(np.abs(traj.states - PLUS)) < 1e-12
    assert np.max(traj.trace_deviation) < 1e-12


def test_initial_state_is_kept_bitwise():
    gen = build_generator(spin_boson(0.3), BATH, 2, GL8, 1.0)
    traj = propagate(PLUS, gen, np.linspace(0.0, 1.0, 5))
    assert np.array_equal(traj.states[0], PLUS)


def test_propagation_is_linear_in_the_state():
    gen = build_generator(spin_boson(0.4), BATH, 2, GL8, 1.0)
    grid = np.linspace(0.0, 1.0, 5)
    rho_a = np.diag([1.0, 0.0]).astype(complex)
    rho_b = PLUS
    mix = 0.3 * rho_a + 0.7 * rho_b
    ta = propagate(rho_a, gen, grid, atol=1e-12).states
    tb = propagate(rho_b, gen, grid, atol=1e-12).states
    tm = propagate(mix, gen, grid, atol=1e-12).states
    assert np.max(np.abs(tm - (0.3 * ta + 0.7 * tb))) < 1e-9


# --- pure-dephasing dynamics against the closed form -----------------------------------


def test_dephasing_second_order_matches_closed_form():
    # For a commuting coupling the exact reduced dynamics is quadratic in the
    # coupling, so the second-order generator reproduces it at any alpha.
    for alpha in (0.1, 0.8):
        model = dephasing(alpha)
        gen = build_generator(model, BATH, 2, GL16, 2.0 * math.pi, interp="cubic")
        grid = np.linspace(0.0, 2.0 * math.pi, 25)
        traj = propagate(PLUS, gen, grid, atol=1e-12)
        worst = 0.0
        for t, state in zip(grid, traj.states):
            ref = to_interaction_picture(model, dephasing_exact(PLUS, model, BATH, t), t)
            worst = max(worst, abs(state[0, 1] - ref[0, 1]))
        assert worst < 1e-6


def test_dephasing_recoherence_at_the_mode_period():
    model = dephasing(0.5)
    gen = build_generator(model, BATH, 2, GL16, 2.0 * math.pi, interp="cubic")
    grid = np.array([0.0, math.pi, 2.0 * math.pi])
    traj = propagate(PLUS, gen, grid, atol=1e-12)
    assert abs(traj.states[1][0, 1]) < abs(PLUS[0, 1]) - 0.1
    assert abs(abs(traj.states[2][0, 1]) - abs(PLUS[0, 1])) < 1e-6


def test_populations_frozen_under_dephasing():
    model = dephasing(0.7)
    gen = build_generator(model, BATH, 2, GL16, 3.0)
    rho0 = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    traj = propagate(rho0, gen, np.linspace(0.0, 3.0, 7))
    assert np.max(np.abs(traj.states[:, 0, 0] - 0.7)) < 1e-9
    assert np.max(np.abs(traj.states[:, 1, 1] - 0.3)) < 1e-9


# --- conservation monitors --------------------------------------------------------------


def test_monitors_on_a_fourth_order_run():
    gen = build_generator(spin_boson(0.3), BATH, 4, GL8, 1.5, interp="cubic")
    traj = propagate(PLUS, gen, np.linspace(0.0, 1.5, 7), atol=1e-11)
    assert np.max(traj.trace_deviation) < 1e-9
    assert np.max(traj.herm_deviation) < 1e-9
    assert np.min(traj.min_eigenvalue) > -1e-6
    assert traj.min_eigenvalue[0] >= -1e-15


def test_stacked_monitors_and_distances_equal_a_per_state_loop():
    # one stacked eigvalsh serves every state; each value must be bitwise the
    # one a per-state call gives, at d = 2 and 3, on non-Hermitian residue too
    rng = np.random.default_rng(18)
    for d in (2, 3):
        a = rng.normal(size=(101, d, d)) + 1j * rng.normal(size=(101, d, d))
        b = rng.normal(size=(101, d, d)) + 1j * rng.normal(size=(101, d, d))
        _, herm, mins = _monitors(a)
        assert np.array_equal(herm, [np.max(np.abs(s - s.conj().T)) for s in a])
        assert np.array_equal(
            mins, [np.linalg.eigvalsh((s + s.conj().T) / 2.0)[0] for s in a])
        assert np.array_equal(trace_distance(a, b),
                              [trace_distance(x, y) for x, y in zip(a, b)])


# --- stepper order ------------------------------------------------------------------------


def test_rk4_step_halving_is_fourth_order():
    # The direct-interpolation generator evaluates the quadrature at every
    # stage time, so the right-hand side is smooth and the classic global
    # order is visible in step halving.
    model = spin_boson(0.3)
    gen = build_generator(model, BATH, 2, GL8, 1.0, interp="direct")
    grid = np.array([0.0, 1.0])
    ref = propagate(PLUS, gen, grid, stepper="rk45-adaptive", atol=1e-13).states[-1]
    errs = []
    for h in (0.2, 0.1, 0.05):
        out = propagate(PLUS, gen, grid, stepper="rk4-fixed", max_step=h).states[-1]
        errs.append(np.max(np.abs(out - ref)))
    slopes = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    for s in slopes:
        assert 3.7 < s < 4.3


# --- the fourth-order Magnus stepper ------------------------------------------------------

_TABLES: dict = {}


def _table(interp):
    """One order-4 generator per interpolation, on 33 nodes over [0, 2]."""
    if interp not in _TABLES:
        _TABLES[interp] = build_generator(spin_boson(0.3), BATH, 4, GL8, 2.0, interp=interp)
    return _TABLES[interp]


@settings(DETERMINISTIC, max_examples=30)
@given(st.sampled_from(["linear", "cubic", "direct"]),
       st.lists(st.one_of(st.floats(0.0, 2.0), st.integers(0, 32).map(lambda i: i / 16)),
                min_size=1, max_size=12))
def test_batched_values_are_bitwise_the_one_time_values(interp, ts):
    # times off the grid and on its nodes (multiples of 1/16), in any order
    gen = _table(interp)
    one_time = np.stack([gen.evaluator(t) for t in ts])
    assert gen.values(np.array(ts)).tobytes() == one_time.tobytes()


@pytest.mark.parametrize("interp", ["linear", "cubic"])
def test_batched_values_refuse_a_time_outside_the_table(interp):
    gen = _table(interp)
    for bad in (-0.1, 2.5):
        with pytest.raises(ValueError, match="outside cached range") as one:
            gen.evaluator(bad)
        with pytest.raises(ValueError) as batch:
            gen.values([0.5, bad, 3.0])
        assert str(batch.value) == str(one.value)


@settings(DETERMINISTIC, max_examples=10)
@given(instances((2, 3)), st.floats(0.05, 0.5))
def test_magnus4_keeps_trace_and_hermiticity(instance, alpha):
    model, bath = instance
    gen = replace(build_generator(model, bath, 4, GL8, 2.0, interp="cubic"), alpha=alpha)
    rho0 = np.full((model.dim, model.dim), 1.0 / model.dim, dtype=complex)
    traj = propagate(rho0, gen, np.linspace(0.0, 2.0, 11), stepper="magnus4")
    assert traj.trace_deviation.max() <= 1e-12
    assert traj.herm_deviation.max() <= 1e-12


# the two benchmark runs and every preset's defaults; run-o4 is the
# spinboson-single-mode defaults, stated in full
_RUN_CONFIGS = {
    "run-o4": "[model]\npreset = spinboson-single-mode\n[run]\norder = 4\nt_max = 2.0\n"
              "n_output = 41\n",
    "run-o2-long": "[model]\npreset = spinboson-two-mode\n[run]\norder = 2\nt_max = 10.0\n"
                   "n_output = 101\natol = 1e-12\n",
    **{name: f"[model]\npreset = {name}\n" for name in PRESET_NAMES
       if name != "spinboson-single-mode"},
}


@pytest.mark.parametrize("name", list(_RUN_CONFIGS))
def test_magnus4_meets_the_run_accuracy_contract(name):
    # On the run's own table, magnus4 errs no more than rk45-adaptive at the
    # configured atol, both against rk45 at atol 1e-14 on that table; against
    # rk45 at atol 1e-13 on the closed forms at every stage, it errs at most
    # 1.1x the rk45 path, whose own error partly cancels the table's.  Seen:
    # stepper 1.15e-9 -> 1.05e-12 and total 5.66e-9 -> 5.95e-9 on run-o4,
    # 3.06e-10 -> 5.85e-12 and 9.43e-9 -> 9.69e-9 on run-o2-long.
    cfg = parse_config(_RUN_CONFIGS[name])
    grid = np.linspace(0.0, cfg.t_max, cfg.n_output)

    def run(interp, stepper, atol):
        gen = build_generator(cfg.model, cfg.bath, cfg.order, cfg.quad, cfg.t_max, interp)
        return propagate(cfg.rho0, gen, grid, stepper, cfg.max_step, atol).states

    magnus, rk45 = run("cubic", "magnus4", cfg.atol), run("cubic", "rk45-adaptive", cfg.atol)
    table = run("cubic", "rk45-adaptive", 1e-14)
    exact = run("direct", "rk45-adaptive", 1e-13)
    assert np.max(trace_distance(magnus, table)) <= np.max(trace_distance(rk45, table))
    assert np.max(trace_distance(magnus, exact)) <= 1.1 * np.max(trace_distance(rk45, exact))


@pytest.mark.parametrize("stepper", ["magnus4", "rk4-fixed", "rk45-adaptive"])
def test_trajectory_records_the_stepper_work(stepper):
    # every generator value the stepper takes, one-time or batched, is counted
    gen = build_generator(spin_boson(0.3), BATH, 2, GL8, 1.0, interp="cubic")
    calls = {"n": 0}
    evaluate, batch = gen.evaluator, gen.values

    def counting(t):
        calls["n"] += 1
        return evaluate(t)

    def counting_batch(ts):
        calls["n"] += len(ts)
        return batch(ts)

    gen.evaluator, gen.values = counting, counting_batch
    traj = propagate(PLUS, gen, np.linspace(0.0, 1.0, 6), stepper=stepper, max_step=0.03)
    assert traj.evaluations == calls["n"] > 0
    if stepper != "rk45-adaptive":  # 0.2 / 0.03: 7 steps per output interval
        assert traj.steps == 5 * 7
        assert traj.evaluations == traj.steps * (2 if stepper == "magnus4" else 4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_magnus4_reports_blowup():
    gen = constant_generator(1e8 * np.eye(4))
    with pytest.raises(NumericsError, match="magnus4 state became non-finite at t = 0.5"):
        propagate(PLUS, gen, np.array([0.0, 0.5, 1.0]), stepper="magnus4")


# --- the adaptive stepper is SciPy's RK45, operation for operation ---------------------------


def _two_mode_case():
    preset = get_preset("spinboson-two-mode")
    gen = build_generator(preset.model, preset.bath, 2, GL16, 10.0, interp="cubic")
    return gen, PLUS, np.linspace(0.0, 10.0, 101), 1e-12


def _random_three_level_case():
    rng = np.random.default_rng(5)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    model = SystemModel(3, (h + h.conj().T) / 2.0, (x + x.conj().T) / 2.0, 0.2)
    bath = BathSpec(modes=[(0.8, 1.1, 1.0), (1.3, 0.7, 1.0)], beta=2.0)
    gen = build_generator(model, bath, 4, GL8, 2.0, interp="cubic")
    return gen, np.full((3, 3), 1.0 / 3.0, dtype=complex), np.linspace(0.0, 2.0, 21), 1e-10


@pytest.mark.parametrize("case", [_two_mode_case, _random_three_level_case],
                         ids=["spinboson-two-mode", "random-d3"])
def test_rk45_is_bitwise_scipy_rk45(case):
    gen, rho, grid, atol = case()
    calls = {"n": 0}
    evaluate = gen.evaluator

    def counting(t):
        calls["n"] += 1
        return evaluate(t)

    gen.evaluator = counting
    states = _run_rk45(rho, gen, grid, atol)
    ours, calls["n"] = calls["n"], 0
    sol = solve_ivp(_rhs(gen), (grid[0], grid[-1]), vec(rho), method="RK45", t_eval=grid,
                    atol=atol, rtol=max(atol, 1e-13))
    assert sol.success
    assert ours == calls["n"] == sol.nfev
    assert np.array_equal(states, np.stack([unvec(y, gen.dim) for y in sol.y.T]))


# --- stepper failure surfaces NumericsError -------------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rk4_reports_blowup():
    gen = constant_generator(1e8 * np.eye(4))
    with pytest.raises(NumericsError, match="non-finite"):
        propagate(PLUS, gen, np.array([0.0, 1.0]), stepper="rk4-fixed", max_step=0.01)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rk45_reports_failure():
    # A rate that diverges at the endpoint forces the step size below the
    # floating-point spacing, which the adaptive stepper reports as failure.
    def coefficients(t):
        rate = np.float64(1.0) / np.float64(1.0 - min(float(t), 1.0))
        return Coefficients(rate * np.eye(4, dtype=complex), None)

    gen = Generator(2, 1.0, 2, coefficients)
    with pytest.raises(NumericsError, match="adaptive stepper failed"):
        propagate(PLUS, gen, np.array([0.0, 1.0]))


# --- forward-map diagnostics -----------------------------------------------------------------


def test_diagnostic_time_zero_is_exact():
    table = invertibility_diagnostic(spin_boson(0.3), BATH, np.array([0.0, 0.5]))
    assert table.sigma_min[0] == 1.0
    assert table.condition_number[0] == 1.0


def test_diagnostic_uncoupled_is_identity():
    table = invertibility_diagnostic(spin_boson(0.0), BATH, np.array([0.0, 0.7, 1.9]))
    assert np.max(np.abs(table.sigma_min - 1.0)) < 1e-12
    assert np.max(np.abs(table.condition_number - 1.0)) < 1e-12


def test_diagnostic_rejects_negative_times():
    with pytest.raises(ValueError, match="nonnegative"):
        invertibility_diagnostic(spin_boson(0.3), BATH, np.array([-0.5, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_diagnostic_rejects_non_finite_times(bad):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        invertibility_diagnostic(spin_boson(0.3), BATH, np.array([0.0, 0.5, bad]))


def test_diagnostic_interacting_map_contracts():
    table = invertibility_diagnostic(spin_boson(0.5), BATH, np.array([0.0, 1.0, 2.0]))
    assert table.sigma_min[1] < 1.0
    assert table.sigma_min[2] < 1.0
    assert np.all(table.condition_number >= 1.0)


def _diagnostic_loop(model, bath, times):
    """The diagnostic as one forward_map_exact call and one SVD per time."""
    eye = np.eye(model.dim**2, dtype=complex)
    svals = np.array([np.linalg.svd(eye + model.alpha**2 * forward_map_exact(model, bath, float(t)),
                                    compute_uv=False) for t in times])
    return svals[:, -1], svals[:, 0] / svals[:, -1]


@pytest.mark.parametrize("times, bound", [
    (np.linspace(0.0, 10.0, 101), 5e-12),
    (np.array([0.0, 0.7, 1.9, 6.0]), 0.0),
])
def test_diagnostic_matches_one_svd_per_time(times, bound):
    # a linspace grid takes J from one grid call, which differs from the
    # per-time calls by round-off (4.8e-13 relative measured here); other
    # times take the per-time calls, and the stacked SVD is the loop's
    preset = get_preset("spinboson-two-mode")
    table = invertibility_diagnostic(preset.model, preset.bath, times)
    sig, cond = _diagnostic_loop(preset.model, preset.bath, times)
    assert np.max(np.abs(table.sigma_min - sig) / sig) <= bound
    assert np.max(np.abs(table.condition_number - cond) / cond) <= bound


def test_diagnostic_names_the_first_singular_time(monkeypatch):
    model = spin_boson(0.5)

    def singular_from_node_2(model, bath, t_max, steps):
        j = np.zeros((steps + 1, 4, 4), dtype=complex)
        j[2:] = -np.eye(4) / model.alpha**2  # M = 1 + alpha^2 J = 0
        return j

    monkeypatch.setattr(tclgen.evolve, "forward_map_exact_grid", singular_from_node_2)
    with pytest.raises(NumericsError, match=r"^forward map singular at t = 0\.5$"):
        invertibility_diagnostic(model, BATH, np.linspace(0.0, 1.0, 5))


def test_correction_is_coupling_independent():
    weak = forward_map_correction(spin_boson(0.1), BATH, 1.0, GL8)
    strong = forward_map_correction(spin_boson(0.9), BATH, 1.0, GL8)
    assert np.array_equal(weak, strong)


# --- trace distance ----------------------------------------------------------------------------


def test_trace_distance_properties():
    ground = np.diag([1.0, 0.0]).astype(complex)
    excited = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(ground, ground) == 0.0
    assert trace_distance(ground, excited) == pytest.approx(1.0, abs=1e-14)
    assert trace_distance(ground, PLUS) == pytest.approx(trace_distance(PLUS, ground))
    rng = np.random.default_rng(40)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    sigma = np.eye(3, dtype=complex) / 3.0
    d = trace_distance(rho, sigma)
    assert 0.0 <= d <= 1.0 + 1e-12


def test_trace_distance_hermitizes_stepper_residue():
    a = np.array([[0.6, 0.2 + 1e-13j], [0.2, 0.4]], dtype=complex)
    b = np.array([[0.6, 0.2], [0.2 + 1e-13j, 0.4]], dtype=complex)
    assert trace_distance(a, b) < 1e-12
