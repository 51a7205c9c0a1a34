"""Reference solutions: closed-form decoherence, brute-force truncated bath, presets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_reduced_states, oracle_total_hamiltonian
from test_exact import DETERMINISTIC, _hermitian

import tclgen.models
from tclgen.algebra import SystemModel
from tclgen.bath import BathSpec
from tclgen.evolve import trace_distance
from tclgen.models import (
    PRESET_NAMES,
    TruncatedBathConfig,
    _components,
    _eigh_by_blocks,
    _total_hamiltonian,
    decoherence_exponent,
    dephasing_exact,
    exact_small_bath,
    get_preset,
    list_presets,
    to_interaction_picture,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)

BATH = BathSpec(modes=[(1.0, 1.0, 1.0)], beta=1.0)


# --- decoherence exponent ---------------------------------------------------------


def test_decoherence_exponent_closed_form():
    # single unit mode: coth(beta/2) (1 - cos t)
    coth = 1.0 / math.tanh(0.5)
    for t in (0.0, 0.7, math.pi, 2.0 * math.pi):
        assert decoherence_exponent(BATH, t) == pytest.approx(
            coth * (1.0 - math.cos(t)), abs=1e-14
        )


def test_decoherence_exponent_is_mode_additive():
    m1 = BathSpec(modes=[(1.0, 1.0, 1.0)], beta=2.0)
    m2 = BathSpec(modes=[(0.6, 1.7, 1.0)], beta=2.0)
    both = BathSpec(modes=[(1.0, 1.0, 1.0), (0.6, 1.7, 1.0)], beta=2.0)
    for t in (0.5, 1.9):
        assert decoherence_exponent(both, t) == pytest.approx(
            decoherence_exponent(m1, t) + decoherence_exponent(m2, t), abs=1e-14
        )


# --- closed-form dephasing ---------------------------------------------------------


def test_dephasing_exact_at_time_zero():
    model = SystemModel(2, 0.5 * SZ, SZ, 0.3)
    assert np.allclose(dephasing_exact(PLUS, model, BATH, 0.0), PLUS, atol=1e-14)


def test_dephasing_exact_structure():
    model = SystemModel(2, 0.5 * SZ, SZ, 0.4)
    rho0 = np.array([[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]], dtype=complex)
    t = 1.2
    out = dephasing_exact(rho0, model, BATH, t)
    decay = math.exp(-2.0 * 0.4**2 * decoherence_exponent(BATH, t))
    assert out[0, 0] == pytest.approx(0.6, abs=1e-14)
    assert out[1, 1] == pytest.approx(0.4, abs=1e-14)
    assert out[0, 1] == pytest.approx(rho0[0, 1] * np.exp(-1j * t) * decay, abs=1e-13)
    assert abs(np.trace(out) - 1.0) < 1e-14


def test_dephasing_exact_in_a_rotated_basis():
    # X = sx with H = 0.5 sx: same physics as the diagonal case conjugated by
    # the basis change, which is what the explicit rotation below computes.
    had = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    model_x = SystemModel(2, 0.5 * SX, SX, 0.3)
    model_z = SystemModel(2, 0.5 * SZ, SZ, 0.3)
    rho0 = np.array([[0.8, 0.1j], [-0.1j, 0.2]], dtype=complex)
    t = 0.9
    direct = dephasing_exact(rho0, model_x, BATH, t)
    rotated = had @ dephasing_exact(had.conj().T @ rho0 @ had, model_z, BATH, t) @ had.conj().T
    assert np.max(np.abs(direct - rotated)) < 1e-13


def test_dephasing_exact_input_checks():
    with pytest.raises(ValueError, match="two-level"):
        dephasing_exact(np.eye(3) / 3.0, _three_level(), BATH, 1.0)
    with pytest.raises(ValueError, match="commute"):
        dephasing_exact(PLUS, SystemModel(2, 0.5 * SZ, SX, 0.1), BATH, 1.0)
    with pytest.raises(ValueError, match="spectrum"):
        dephasing_exact(PLUS, SystemModel(2, 0.5 * SZ, 2.0 * SZ, 0.1), BATH, 1.0)


def _three_level():
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    return SystemModel(3, h, h, 0.1)


# --- interaction picture -------------------------------------------------------------


def test_interaction_picture_phase():
    model = SystemModel(2, 0.5 * SZ, SX, 0.1)
    e01 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    out = to_interaction_picture(model, e01, math.pi)
    assert np.allclose(out, -e01, atol=1e-13)


def test_interaction_picture_fixes_free_evolution():
    rng = np.random.default_rng(50)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0)
    model = SystemModel(2, 0.5 * SZ, SX, 0.1)
    w, v = np.linalg.eigh(model.h_sys)
    for t in (0.4, 2.2):
        u = v @ np.diag(np.exp(-1j * w * t)) @ v.conj().T
        schrodinger = u @ rho0 @ u.conj().T
        assert np.allclose(to_interaction_picture(model, schrodinger, t), rho0, atol=1e-13)


# --- brute-force truncated bath -------------------------------------------------------


def test_truncation_config_validation():
    with pytest.raises(ValueError, match="Fock levels"):
        TruncatedBathConfig(BATH, 1)
    config = TruncatedBathConfig(BATH, 3000)
    with pytest.raises(ValueError, match="exceeds the cap"):
        exact_small_bath(PLUS, SystemModel(2, 0.5 * SZ, SX, 0.1), config, np.array([0.0, 1.0]))


def test_uncoupled_brute_force_is_constant():
    model = SystemModel(2, 0.5 * SZ, SX, 0.0)
    config = TruncatedBathConfig(BATH, 6)
    traj = exact_small_bath(PLUS, model, config, np.linspace(0.0, 2.0, 5))
    assert np.max(np.abs(traj.states - PLUS)) < 1e-12
    assert np.max(traj.trace_deviation) < 1e-12


def test_two_oracles_agree_on_dephasing():
    # Closed form vs unitary evolution of system plus truncated mode: twenty
    # Fock levels hold the truncation error below 1e-6 over a full period,
    # for the truncated Gibbs bath and for its thermofield purification.
    model = SystemModel(2, 0.5 * SZ, SZ, 0.4)
    grid = np.linspace(0.0, 2.0 * math.pi, 13)
    for purified in (False, True):
        config = TruncatedBathConfig(BATH, 20, purified=purified)
        traj = exact_small_bath(PLUS, model, config, grid, check_truncation=False)
        for t, state in zip(grid, traj.states):
            ref = to_interaction_picture(model, dephasing_exact(PLUS, model, BATH, t), t)
            assert trace_distance(state, ref) < 1e-6


def _max_distance(a, b):
    return max(trace_distance(x, y) for x, y in zip(a.states, b.states))


def test_purified_reference_is_converged_at_the_preset_levels():
    # The purified bath starts in its vacuum, so 12 levels per purified mode
    # reproduce a truncated-Gibbs reference converged at 36 levels; the
    # 12-level Gibbs reference itself is off by ~4e-7 to ~7e-6 here.
    preset = get_preset("spinboson-single-mode")
    grid = np.linspace(0.0, 4.0, 81)
    for alpha in (0.025, 0.2):
        model = SystemModel(2, preset.model.h_sys, preset.model.coupling, alpha)
        purified = exact_small_bath(
            PLUS, model, TruncatedBathConfig(preset.bath, 12, purified=True), grid,
            check_truncation=False)
        gibbs36 = exact_small_bath(
            PLUS, model, TruncatedBathConfig(preset.bath, 36), grid,
            check_truncation=False)
        assert _max_distance(purified, gibbs36) < 1e-10


def test_purified_reference_at_zero_temperature_is_the_vacuum_reference():
    # At beta = inf no mode gets a partner: both constructions are the same
    # vacuum-started product space.
    bath = BathSpec(modes=[(1.0, 1.0, 1.0), (0.6, 1.7, 1.0)], beta=math.inf)
    model = SystemModel(2, 0.5 * SZ, SX, 0.3)
    grid = np.linspace(0.0, 3.0, 7)
    plain = TruncatedBathConfig(bath, 8)
    purified = TruncatedBathConfig(bath, 8, purified=True)
    assert purified.total_dim(2) == plain.total_dim(2) == 128
    a = exact_small_bath(PLUS, model, plain, grid, check_truncation=False)
    b = exact_small_bath(PLUS, model, purified, grid, check_truncation=False)
    assert _max_distance(a, b) < 1e-12


def test_purified_dimension_counts_a_partner_per_thermal_mode():
    two_mode = get_preset("spinboson-two-mode")
    config = TruncatedBathConfig(two_mode.bath, 10, purified=True)
    assert config.n_modes == 4
    assert config.total_dim(2) == 20000
    with pytest.raises(ValueError, match=r"at most 6 Fock levels per mode fit \(dimension 2592\)"):
        config.check_dim(2)
    TruncatedBathConfig(two_mode.bath, 6, purified=True).check_dim(2)
    with pytest.raises(ValueError, match="not even 2 Fock levels"):
        TruncatedBathConfig(BathSpec([(1.0, 1.0, 1.0)] * 6, 1.0), 2, purified=True).check_dim(2)


def test_brute_force_rejects_a_non_hermitian_initial_state():
    model = SystemModel(2, 0.5 * SZ, SX, 0.1)
    rho0 = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        exact_small_bath(rho0, model, TruncatedBathConfig(BATH, 4), np.array([0.0, 1.0]))


def test_brute_force_rejects_non_finite_inputs():
    model = SystemModel(2, 0.5 * SZ, SX, 0.1)
    config = TruncatedBathConfig(BATH, 4)
    with pytest.raises(ValueError, match="t_grid must be finite"):
        exact_small_bath(PLUS, model, config, np.array([0.0, np.nan]))
    with pytest.raises(ValueError, match="rho0: entries must be finite"):
        exact_small_bath(np.diag([np.nan, 1.0]), model, config, np.array([0.0, 1.0]))


def test_dephasing_exact_checks_the_state():
    preset = get_preset("dephasing-single-mode")
    with pytest.raises(ValueError, match="rho0: not Hermitian"):
        dephasing_exact(np.array([[2.0, 5.0], [0.0, -1.0]]), preset.model, preset.bath, 1.0)


def test_truncation_warning_fires_when_starved():
    model = SystemModel(2, 0.5 * SZ, SX, 0.5)
    config = TruncatedBathConfig(BATH, 4)
    with pytest.warns(UserWarning, match="truncation-sensitive"):
        exact_small_bath(PLUS, model, config, np.linspace(0.0, 4.0, 5))


def test_truncation_check_can_be_disabled(recwarn):
    model = SystemModel(2, 0.5 * SZ, SX, 0.5)
    config = TruncatedBathConfig(BATH, 4)
    exact_small_bath(PLUS, model, config, np.linspace(0.0, 4.0, 5), check_truncation=False)
    assert len(recwarn) == 0


def test_truncation_shift_is_the_two_level_movement():
    model = SystemModel(2, 0.5 * SZ, SX, 0.5)
    grid = np.linspace(0.0, 4.0, 5)
    with pytest.warns(UserWarning, match="truncation-sensitive"):
        traj = exact_small_bath(PLUS, model, TruncatedBathConfig(BATH, 4), grid)
    bigger = exact_small_bath(PLUS, model, TruncatedBathConfig(BATH, 6), grid,
                              check_truncation=False)
    assert traj.truncation_shift == pytest.approx(_max_distance(traj, bigger), rel=1e-12)
    unchecked = exact_small_bath(PLUS, model, TruncatedBathConfig(BATH, 4), grid,
                                 check_truncation=False)
    assert unchecked.truncation_shift is None


def test_truncation_check_over_the_cap_warns_that_it_was_skipped(monkeypatch):
    # 4 levels fit a cap of 10 (dimension 8); the check's 6 levels (12) do not
    monkeypatch.setattr(tclgen.models, "_DIM_CAP", 10)
    model = SystemModel(2, 0.5 * SZ, SX, 0.1)
    with pytest.warns(UserWarning, match=r"truncation check skipped: 6 Fock levels "
                                         r"per mode need dimension 12, over the cap 10"):
        traj = exact_small_bath(PLUS, model, TruncatedBathConfig(BATH, 4),
                                np.linspace(0.0, 1.0, 3))
    assert traj.truncation_shift is None


def _model_and_bath(draw, d, max_modes):
    model = SystemModel(d, draw(_hermitian(d, 0.5)), draw(_hermitian(d, 1.0)),
                        alpha=draw(st.floats(0.05, 0.5)))
    modes = draw(st.lists(
        st.tuples(st.floats(0.3, 1.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
        min_size=1, max_size=max_modes))
    return model, BathSpec(modes, draw(st.one_of(st.just(math.inf), st.floats(0.5, 5.0))))


@st.composite
def _oracle_cases(draw, d, purified):
    model, bath = _model_and_bath(draw, d, 2)
    config = TruncatedBathConfig(bath, draw(st.integers(3, 5)), purified)
    # a thermal pair of modes, purified, is four oscillators: keep the dense
    # expm reference at most 500 dimensions by lowering the level count
    while config.total_dim(d) > 500:
        config = TruncatedBathConfig(bath, config.fock_levels - 1, config.purified)
    rank = draw(st.integers(1, d))
    a = draw(st.lists(st.complex_numbers(max_magnitude=1.0), min_size=d * rank,
                      max_size=d * rank))
    a = np.array(a).reshape(d, rank)
    a[0, 0] += 1.0  # never the zero matrix
    rho0 = a @ a.conj().T
    return model, config, rho0 / np.trace(rho0).real


@pytest.mark.parametrize("purified", [False, True])
@pytest.mark.parametrize("d", [2, 3])
@settings(DETERMINISTIC, max_examples=8)
@given(data=st.data())
def test_oracle_matches_a_dense_expm_reference(d, purified, data):
    # rank-deficient initial states and the vacuum-started purified bath
    # exercise the kept-vector sum that forms R = U† rho_tot U
    model, config, rho0 = data.draw(_oracle_cases(d, purified))
    grid = np.array([0.0, 0.4, 1.3, 2.5])
    traj = exact_small_bath(rho0, model, config, grid, check_truncation=False)
    ref = oracle_reduced_states(
        model.h_sys, model.coupling, model.alpha, config.bath.modes, config.bath.beta,
        config.fock_levels, rho0, grid, purified=config.purified)
    assert np.max(np.abs(traj.states - ref)) < 1e-12


@st.composite
def _hamiltonian_cases(draw, d, purified):
    model, bath = _model_and_bath(draw, d, 3)
    config = TruncatedBathConfig(bath, draw(st.integers(2, 4)), purified)
    # three thermal modes, purified, are six oscillators: keep the dense
    # Kronecker chains small by lowering the level count, never below 2
    while config.fock_levels > 2 and config.total_dim(d) > 600:
        config = TruncatedBathConfig(bath, config.fock_levels - 1, config.purified)
    return model, config


@pytest.mark.parametrize("purified", [False, True])
@pytest.mark.parametrize("d", [2, 3])
@settings(DETERMINISTIC, max_examples=10)
@given(data=st.data())
def test_total_hamiltonian_matches_dense_kronecker_chains(d, purified, data):
    # the oracle builds B from one real ladder matrix per mode and H_B as a
    # diagonal; the reference chains complex matrices with identities.  Three
    # modes put a middle mode between identities on both sides
    model, config = data.draw(_hamiltonian_cases(d, purified))
    h, w = _total_hamiltonian(model, config)
    ref_h, ref_rho = oracle_total_hamiltonian(
        model.h_sys, model.coupling, model.alpha, config.bath.modes, config.bath.beta,
        config.fock_levels, purified=config.purified)
    assert h.shape == ref_h.shape
    assert np.max(np.abs(h - ref_h)) <= 1e-14 * np.max(np.abs(ref_h))
    assert np.max(np.abs(w - np.diag(ref_rho))) <= 1e-14 * np.max(np.abs(ref_rho))


def test_split_eigensolver_finds_planted_blocks():
    # Hermitian blocks of 4, 1, 5 and 2 indices, hidden by a random
    # permutation; as a complex matrix and as a real one
    rng = np.random.default_rng(18)
    sizes = (4, 1, 5, 2)
    perm = rng.permutation(sum(sizes))
    h = np.zeros((len(perm), len(perm)), dtype=complex)
    planted = []
    for k, start in zip(sizes, np.cumsum((0,) + sizes)):
        idx = perm[start:start + k]
        a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        h[np.ix_(idx, idx)] = a + a.conj().T
        planted.append(sorted(idx))
    for m in (h, h.real.astype(complex)):
        assert sorted(sorted(c) for c in _components(m)) == sorted(planted)
        evals, u = _eigh_by_blocks(m)
        assert np.iscomplexobj(u) == np.any(m.imag)
        assert np.max(np.abs((u * evals) @ u.conj().T - m)) < 1e-13
        assert np.max(np.abs(u.conj().T @ u - np.eye(len(m)))) < 1e-13


@pytest.mark.parametrize("name, purified, levels", [
    ("spinboson-single-mode", False, 8), ("spinboson-single-mode", True, 6),
    ("spinboson-two-mode", False, 6), ("spinboson-two-mode", True, 3)])
def test_spin_boson_oracle_splits_into_two_real_parity_blocks(name, purified, levels):
    # σz ⊗ (-1)^N commutes with H_total, so the oracle diagonalises two real
    # blocks; the random models of the Hypothesis test above never get here
    preset = get_preset(name)
    config = TruncatedBathConfig(preset.bath, levels, purified)
    h, _ = _total_hamiltonian(preset.model, config)
    assert not np.any(h.imag)
    assert len(_components(h)) == 2
    grid = np.array([0.0, 0.4, 1.3, 2.5])
    traj = exact_small_bath(PLUS, preset.model, config, grid, check_truncation=False)
    ref = oracle_reduced_states(
        preset.model.h_sys, preset.model.coupling, preset.model.alpha,
        preset.bath.modes, preset.bath.beta, config.fock_levels, PLUS, grid,
        purified=purified)
    assert np.max(np.abs(traj.states - ref)) < 1e-12


def test_random_complex_model_is_one_complex_block():
    rng = np.random.default_rng(3)
    h_s, x = (a + a.conj().T for a in
              rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3)))
    config = TruncatedBathConfig(BATH, 4)
    h, _ = _total_hamiltonian(SystemModel(3, h_s, x, 0.2), config)
    assert len(_components(h)) == 1
    evals, u = _eigh_by_blocks(h)
    dense = np.linalg.eigh(h)
    assert np.iscomplexobj(u)
    assert np.array_equal(evals, dense[0]) and np.array_equal(u, dense[1])


def test_brute_force_monitors_are_physical():
    # The preset's default 12 levels are marginal over this window (the
    # truncation check flags ~3e-6 movement), so run with a little headroom.
    preset = get_preset("spinboson-single-mode")
    config = TruncatedBathConfig(preset.bath, 16)
    traj = exact_small_bath(PLUS, preset.model, config, np.linspace(0.0, 3.0, 7))
    assert np.max(traj.trace_deviation) < 1e-10
    assert np.max(traj.herm_deviation) < 1e-10
    assert np.min(traj.min_eigenvalue) > -1e-10


# --- presets ------------------------------------------------------------------------


def test_preset_registry():
    assert list_presets() == PRESET_NAMES
    assert PRESET_NAMES == (
        "dephasing-single-mode",
        "spinboson-single-mode",
        "spinboson-two-mode",
    )
    for name in PRESET_NAMES:
        preset = get_preset(name)
        assert preset.name == name
        assert preset.model.alpha == 0.1
        assert preset.fock_levels >= 2


def test_preset_structure():
    dephasing = get_preset("dephasing-single-mode")
    comm = dephasing.model.h_sys @ dephasing.model.coupling
    comm = comm - dephasing.model.coupling @ dephasing.model.h_sys
    assert np.max(np.abs(comm)) < 1e-14
    two_mode = get_preset("spinboson-two-mode")
    assert len(two_mode.bath.modes) == 2


def test_unknown_preset_lists_the_options():
    with pytest.raises(ValueError, match="spinboson-two-mode"):
        get_preset("does-not-exist")
