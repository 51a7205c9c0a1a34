"""Vectorization, superoperator arithmetic, interaction-picture operators."""

import math

import numpy as np
import pytest

from oracles import nested_bracket, oracle_heisenberg
from tclgen.algebra import (
    SuperOp,
    SystemModel,
    _kron_batch,
    anticommutator_super_batch,
    commutator_super_batch,
    heisenberg_X_batch,
    unvec,
    vec,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2.0


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def commutator(a):
    """rho -> [a, rho] through the batched bracket, as a SuperOp."""
    return SuperOp(a.shape[0], commutator_super_batch(a[None])[0])


def anticommutator(a):
    """rho -> {a, rho} through the batched bracket, as a SuperOp."""
    return SuperOp(a.shape[0], anticommutator_super_batch(a[None])[0])


def x_at(model, t):
    """X(t) at one time through the batched interaction picture."""
    return heisenberg_X_batch(model, [t])[0]


# --- vectorization ---------------------------------------------------------------


def test_vec_is_column_stacking():
    rho = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(rho), [1.0, 3.0, 2.0, 4.0])


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert np.array_equal(unvec(vec(rho), d), rho)


def test_left_right_mult_matrices():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    eye = np.eye(3, dtype=complex)[None]
    left = _kron_batch(eye, a[None])[0]
    right = _kron_batch(a.T[None], eye)[0]
    assert np.allclose(unvec(left @ vec(rho), 3), a @ rho, atol=1e-13)
    assert np.allclose(unvec(right @ vec(rho), 3), rho @ a, atol=1e-13)


# --- bracket superoperators -------------------------------------------------------


def test_identity_operator_brackets():
    eye = np.eye(2, dtype=complex)
    assert commutator(eye).norm_fro() == 0.0
    assert np.allclose(anticommutator(eye).matrix, 2.0 * np.eye(4), atol=0)


def test_sz_brackets_on_coherence():
    e01 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert np.allclose(commutator(SZ).apply(e01), 2.0 * e01, atol=0)
    assert np.allclose(anticommutator(SZ).apply(e01), 0.0, atol=0)


def test_brackets_match_direct_matrix_products():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(commutator(a).apply(rho), a @ rho - rho @ a, atol=1e-13)
        assert np.allclose(anticommutator(a).apply(rho), a @ rho + rho @ a, atol=1e-13)


def test_bracket_outputs_are_traceless_or_hermitian():
    rng = np.random.default_rng(3)
    a = random_hermitian(rng, 4)
    rho = random_density(rng, 4)
    comm = commutator(a).apply(rho)
    anti = anticommutator(a).apply(rho)
    assert abs(np.trace(comm)) < 1e-12
    assert np.max(np.abs(comm + comm.conj().T)) < 1e-12
    assert np.max(np.abs(anti - anti.conj().T)) < 1e-12


# --- superoperator arithmetic -----------------------------------------------------


def test_identity_and_zero_maps():
    rng = np.random.default_rng(4)
    rho = random_density(rng, 3)
    assert np.array_equal(SuperOp(3, np.eye(9)).apply(rho), rho)
    assert np.all(SuperOp(3, np.zeros((9, 9))).apply(rho) == 0.0)


def test_compose_reproduces_nested_bracket():
    rng = np.random.default_rng(6)
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 3)
    rho = random_density(rng, 3)
    composed = SuperOp(3, commutator(a).matrix @ anticommutator(b).matrix)
    assert np.allclose(composed.apply(rho), nested_bracket(a, b, rho), atol=1e-13)


def test_superop_shape_rejected():
    with pytest.raises(ValueError, match="superoperator matrix must be"):
        SuperOp(2, np.eye(3))


# --- system model validation ------------------------------------------------------


def test_model_accepts_valid_input():
    m = SystemModel(2, 0.5 * SZ, SX, 0.1)
    assert m.alpha == 0.1
    assert m.dim == 2


def test_model_rejects_bad_input():
    with pytest.raises(ValueError, match="dimension"):
        SystemModel(1, np.zeros((1, 1)), np.zeros((1, 1)), 0.1)
    with pytest.raises(ValueError, match="h_sys"):
        SystemModel(2, np.array([[0.0, 1.0], [0.0, 0.0]]), SX, 0.1)
    with pytest.raises(ValueError, match="coupling"):
        SystemModel(2, 0.5 * SZ, np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)
    with pytest.raises(ValueError, match="coupling must be 2 x 2"):
        SystemModel(2, 0.5 * SZ, np.eye(3), 0.1)
    with pytest.raises(ValueError, match="alpha"):
        SystemModel(2, 0.5 * SZ, SX, math.inf)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_model_rejects_non_finite_matrices(bad):
    # NaN fails every comparison, so the Hermiticity check alone lets it by
    with pytest.raises(ValueError, match="h_sys entries must be finite"):
        SystemModel(2, np.diag([bad, 0.0]), SX, 0.1)
    with pytest.raises(ValueError, match="coupling entries must be finite"):
        SystemModel(2, 0.5 * SZ, np.diag([0.0, bad]), 0.1)


# --- interaction picture ----------------------------------------------------------


def test_heisenberg_at_zero_is_a_fresh_copy():
    m = SystemModel(2, 0.5 * SZ, SX, 0.1)
    x0 = x_at(m, 0.0)
    assert np.array_equal(x0, SX)
    x0[0, 0] = 99.0
    assert m.coupling[0, 0] == 0.0


def test_commuting_coupling_is_constant():
    m = SystemModel(2, 0.5 * SZ, SZ, 0.1)
    for t in (0.3, 1.0, 7.9):
        assert np.allclose(x_at(m, t), SZ, atol=1e-14)


def test_half_period_flips_transverse_coupling():
    # H = sz/2 rotates sx by angle t about z: X(pi) = -sx.
    m = SystemModel(2, 0.5 * SZ, SX, 0.1)
    assert np.allclose(x_at(m, math.pi), -SX, atol=1e-13)


def test_heisenberg_matches_expm_oracle():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        h = random_hermitian(rng, d)
        x = random_hermitian(rng, d)
        m = SystemModel(d, h, x, 0.1)
        for t in (0.4, 1.7, -2.2):
            assert np.allclose(x_at(m, t), oracle_heisenberg(h, x, t), atol=1e-12)


def test_heisenberg_preserves_spectrum_and_hermiticity():
    rng = np.random.default_rng(8)
    h = random_hermitian(rng, 4)
    x = random_hermitian(rng, 4)
    m = SystemModel(4, h, x, 0.1)
    ref = np.linalg.eigvalsh(x)
    for t in (0.9, 12.5):
        xt = x_at(m, t)
        assert np.max(np.abs(xt - xt.conj().T)) < 1e-12
        assert np.allclose(np.linalg.eigvalsh(xt), ref, atol=1e-10)


def test_batch_matches_pointwise():
    rng = np.random.default_rng(9)
    h = random_hermitian(rng, 3)
    x = random_hermitian(rng, 3)
    m = SystemModel(3, h, x, 0.1)
    ts = np.array([0.0, 0.5, 1.3, 4.0])
    batch = heisenberg_X_batch(m, ts)
    assert batch.shape == (4, 3, 3)
    for k, t in enumerate(ts):
        assert np.allclose(batch[k], x_at(m, float(t)), atol=1e-13)


def heisenberg_by_bohr_phases(model, ts):
    """X(t) = V (X_eig * exp(i t (w_a - w_b))) V^dag, one phase per entry."""
    w, v = np.linalg.eigh(model.h_sys)
    x = v.conj().T @ model.coupling @ v
    phases = np.exp(1j * np.multiply.outer(ts, w[:, None] - w[None, :]))
    return v @ (x * phases) @ v.conj().T


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("degenerate", [False, True])
def test_batch_matches_bohr_phase_form(d, degenerate):
    rng = np.random.default_rng(40 + d)
    h = random_hermitian(rng, d)
    if degenerate:  # a doubly degenerate level, in a random basis
        u = np.linalg.qr(random_hermitian(rng, d) + 1j * np.eye(d))[0]
        h = u @ np.diag(np.r_[0.7, 0.7, -np.arange(1.0, d - 1)]) @ u.conj().T
    m = SystemModel(d, h, random_hermitian(rng, d), 0.1)
    ts = rng.uniform(0.0, 4.0, size=(5, 7))
    weights = rng.normal(size=(5, 3, 7)) + 1j * rng.normal(size=(5, 3, 7))
    ref = heisenberg_by_bohr_phases(m, ts)  # (5, 7, d, d)
    plain = heisenberg_X_batch(m, ts[0])
    assert plain.shape == (7, d, d)
    assert np.linalg.norm(plain - ref[0]) <= 1e-14 * np.linalg.norm(ref[0])
    summed = heisenberg_X_batch(m, ts, weights)
    target = np.einsum("bkc,bcij->bkij", weights, ref)
    assert summed.shape == (5, 3, d, d)
    assert np.linalg.norm(summed - target) <= 1e-14 * np.linalg.norm(target)


def test_batched_brackets_match_pointwise():
    rng = np.random.default_rng(10)
    xs = np.stack([random_hermitian(rng, 3) for _ in range(5)])
    cb = commutator_super_batch(xs)
    ab = anticommutator_super_batch(xs)
    for k in range(5):
        left, right = np.kron(np.eye(3), xs[k]), np.kron(xs[k].T, np.eye(3))
        assert np.allclose(cb[k], left - right, atol=1e-14)
        assert np.allclose(ab[k], left + right, atol=1e-14)
