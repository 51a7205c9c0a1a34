"""Ordered-cumulant term enumeration and moment superoperators."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_inversion import generator_terms_by_inversion
from oracles import oracle_moment_matrix, order4_pieces_per_term
from test_exact import DETERMINISTIC, instances
from tclgen.algebra import SystemModel, commutator_super_batch, heisenberg_X_batch
from tclgen.bath import BathSpec, bath_correlation
from tclgen.cumulant import (
    CumulantTerm,
    K_n_cumulant,
    _contractions,
    _order4_pieces,
    _two_point,
    drop_odd_terms,
    enumerate_ordered_cumulant_terms,
    moment_superop,
)
from tclgen.quadrature import QuadratureSpec

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

GL8 = QuadratureSpec("gauss-legendre-nested", 8, 1e-8)


def random_model(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + a.conj().T) / 2.0
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = (b + b.conj().T) / 2.0
    return SystemModel(d, h, x, 0.1)


# --- term enumeration ------------------------------------------------------------


def test_order_must_be_positive():
    with pytest.raises(ValueError):
        enumerate_ordered_cumulant_terms(0)
    with pytest.raises(ValueError):
        enumerate_ordered_cumulant_terms(-3)


def test_first_order_is_the_pinned_singleton():
    terms = enumerate_ordered_cumulant_terms(1)
    assert len(terms) == 1
    assert terms[0].substrings == ((0,),)
    assert terms[0].sign == 1


def test_second_order_terms():
    terms = enumerate_ordered_cumulant_terms(2)
    as_counter = Counter({t.substrings: t.sign for t in terms})
    assert as_counter == Counter({((0, 1),): 1, ((0,), (1,)): -1})
    even = drop_odd_terms(terms)
    assert [t.substrings for t in even] == [((0, 1),)]


@pytest.mark.parametrize(
    "n,raw,even",
    [(1, 1, 0), (2, 2, 1), (3, 6, 0), (4, 26, 4), (5, 150, 0), (6, 1082, 46)],
)
def test_term_counts(n, raw, even):
    terms = enumerate_ordered_cumulant_terms(n)
    assert len(terms) == raw
    assert len(drop_odd_terms(terms)) == even
    assert len(set(t.substrings for t in terms)) == raw  # duplicate free


def test_fourth_order_even_terms_and_signs():
    even = drop_odd_terms(enumerate_ordered_cumulant_terms(4))
    as_counter = Counter({t.substrings: t.sign for t in even})
    assert as_counter == Counter(
        {
            ((0, 1, 2, 3),): 1,
            ((0, 1), (2, 3)): -1,
            ((0, 2), (1, 3)): -1,
            ((0, 3), (1, 2)): -1,
        }
    )


def test_sixth_order_even_partition_census():
    even = drop_odd_terms(enumerate_ordered_cumulant_terms(6))
    census = Counter(t.partition for t in even)
    assert census == Counter({(6,): 1, (4, 2): 10, (2, 4): 5, (2, 2, 2): 30})


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_enumeration_matches_series_inversion_oracle(n):
    # Independent route: invert the moment series order by order and reduce
    # products of ordered integrals with the shuffle identity.
    expected = generator_terms_by_inversion(n)
    got = Counter({t.substrings: t.sign for t in enumerate_ordered_cumulant_terms(n)})
    assert got == expected


def test_term_structural_invariants():
    for n in (2, 3, 4, 5):
        for term in enumerate_ordered_cumulant_terms(n):
            slots = [i for sub in term.substrings for i in sub]
            assert sorted(slots) == list(range(n))
            assert term.substrings[0][0] == 0
            for sub in term.substrings:
                assert list(sub) == sorted(sub)
            assert term.sign == (-1) ** (len(term.substrings) - 1)


def test_format_line():
    full = CumulantTerm(4, ((0, 1, 2, 3),))
    assert full.format_line() == "+ 4        (t,t1,t2,t3)"
    split = CumulantTerm(4, ((0, 1), (2, 3)))
    assert split.format_line() == "- 2+2      (t,t1)(t2,t3)"


# --- moment superoperators ---------------------------------------------------------


def test_moment_argument_validation():
    model = SystemModel(2, 0.5 * SZ, SX, 0.1)
    bath = BathSpec(modes=[(1.0, 1.0, 1.0)], beta=1.0)
    with pytest.raises(ValueError, match="even"):
        moment_superop(model, bath, [1.0, 0.5, 0.2])
    with pytest.raises(ValueError, match="non-increasing"):
        moment_superop(model, bath, [0.5, 1.0])


def test_two_point_moment_closed_form():
    # <L(s1) L(s2)> rho = -[ C(tau) (X1 X2 rho - X2 rho X1)
    #                       + C(-tau) (rho X2 X1 - X1 rho X2) ],  tau = s1 - s2
    rng = np.random.default_rng(20)
    bath = BathSpec(modes=[(1.0, 1.0, 1.0), (0.6, 1.7, 1.0)], beta=2.0)
    for d in (2, 3):
        model = random_model(rng, d)
        s1, s2 = 1.3, 0.4
        x1, x2 = heisenberg_X_batch(model, [s1, s2])
        c = bath_correlation(bath, s1 - s2)
        cbar = bath_correlation(bath, s2 - s1)
        mom = moment_superop(model, bath, [s1, s2])
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        expected = -(
            c * (x1 @ x2 @ rho - x2 @ rho @ x1) + cbar * (rho @ x2 @ x1 - x1 @ rho @ x2)
        )
        assert np.max(np.abs(mom.apply(rho) - expected)) < 1e-12


def test_two_point_moment_matches_tensor_oracle():
    mode = [(1.0, 1.0, 1.0)]
    model = SystemModel(2, 0.5 * SZ, SX, 0.1)
    bath = BathSpec(modes=mode, beta=1.0)
    got = moment_superop(model, bath, [1.3, 0.7]).matrix
    ref = oracle_moment_matrix(model.h_sys, model.coupling, mode, 1.0, (1.3, 0.7), 40)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_two_point_moment_matches_tensor_oracle_two_modes():
    modes = [(1.0, 1.0, 1.0), (0.6, 1.7, 1.0)]
    model = SystemModel(2, 0.5 * SZ, SX, 0.1)
    bath = BathSpec(modes=modes, beta=2.5)
    got = moment_superop(model, bath, [0.9, 0.2]).matrix
    ref = oracle_moment_matrix(model.h_sys, model.coupling, modes, 2.5, (0.9, 0.2), 14)
    assert np.max(np.abs(got - ref)) < 1e-10


def test_four_point_moment_matches_tensor_oracle():
    # Wick factorization against a literal nested-commutator partial trace.
    # The reference is Fock truncated; N = 30 puts its own error near 1e-9.
    mode = [(1.0, 1.0, 1.0)]
    model = SystemModel(2, 0.5 * SZ, SX, 0.1)
    bath = BathSpec(modes=mode, beta=1.0)
    times = (1.3, 0.9, 0.4, 0.1)
    got = moment_superop(model, bath, times).matrix
    ref = oracle_moment_matrix(model.h_sys, model.coupling, mode, 1.0, times, 30)
    assert np.max(np.abs(got - ref)) < 1e-8


def test_four_point_moment_matches_tensor_oracle_zero_temperature():
    mode = [(1.0, 1.0, 1.0)]
    model = SystemModel(2, 0.5 * SZ, SX, 0.1)
    bath = BathSpec(modes=mode, beta=math.inf)
    times = (1.1, 0.8, 0.5, 0.2)
    got = moment_superop(model, bath, times).matrix
    ref = oracle_moment_matrix(model.h_sys, model.coupling, mode, math.inf, times, 20)
    assert np.max(np.abs(got - ref)) < 1e-12


@settings(DETERMINISTIC, max_examples=15)
@given(instances((2, 3)), st.floats(0.0, 3.0),
       st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=4))
def test_closed_form_two_point_matches_moment_superop(instance, ta, nodes):
    # <L(ta) L(tb)> from Xc(ta) and its partner C(ta - tb) X(tb), and the
    # contracted form, whose partner sums w_c C(ta - t_c) X(t_c) over nodes
    # t_c <= ta with real weights, against the placement sum node by node
    model, bath = instance
    fractions, weights = (np.array(v) for v in zip(*nodes))
    tc = ta * fractions
    xc = commutator_super_batch(heisenberg_X_batch(model, [ta]))
    refs = []
    for s in tc:
        ref = moment_superop(model, bath, [ta, s]).matrix
        got = _two_point(xc, bath_correlation(bath, ta - s) * heisenberg_X_batch(model, [s]))
        assert np.linalg.norm(got[0] - ref) <= 1e-13 * np.linalg.norm(ref)
        refs.append(ref)
    y = _contractions(model, bath, [np.array([ta])], tc[None], weights[None])[:, 0]
    got = _two_point(xc, y)[0]
    scale = sum(abs(w) * np.linalg.norm(r) for w, r in zip(weights, refs))
    assert np.linalg.norm(got - sum(w * r for w, r in zip(weights, refs))) <= 1e-13 * scale


def test_moment_output_traceless_and_hermiticity_preserving():
    rng = np.random.default_rng(21)
    model = random_model(rng, 3)
    bath = BathSpec(modes=[(0.8, 1.2, 1.0)], beta=1.5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = (a + a.conj().T) / 2.0
    for times in ([1.0, 0.3], [1.2, 0.9, 0.5, 0.1]):
        out = moment_superop(model, bath, times).apply(rho)
        assert abs(np.trace(out)) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


# --- assembled generators ------------------------------------------------------------


def test_generator_is_zero_at_time_zero():
    model = SystemModel(2, 0.5 * SZ, SX, 0.1)
    bath = BathSpec(modes=[(1.0, 1.0, 1.0)], beta=1.0)
    assert K_n_cumulant(model, bath, 0.0, 2, GL8).norm_fro() == 0.0
    assert K_n_cumulant(model, bath, 0.0, 4, GL8).norm_fro() == 0.0


@pytest.mark.parametrize("n", [1, 3, 6])
def test_unsupported_orders_rejected(n):
    model = SystemModel(2, 0.5 * SZ, SX, 0.1)
    bath = BathSpec(modes=[(1.0, 1.0, 1.0)], beta=1.0)
    with pytest.raises(ValueError, match="orders 2 and 4"):
        K_n_cumulant(model, bath, 1.0, n, GL8)


def test_fourth_cumulant_vanishes_for_commuting_coupling():
    # When [H, X] = 0 the exact reduced dynamics is quadratic in the coupling,
    # so the fourth-order coefficient must cancel among its four terms.
    model = SystemModel(2, 0.5 * SZ, SZ, 0.1)
    bath = BathSpec(modes=[(1.0, 1.0, 1.0)], beta=1.0)
    quad = QuadratureSpec("gauss-legendre-nested", 16, 1e-8)
    k4 = K_n_cumulant(model, bath, 1.0, 4, quad)
    assert k4.norm_fro() < 1e-9
    assert K_n_cumulant(model, bath, 1.0, 2, quad).norm_fro() > 0.1


@settings(DETERMINISTIC, max_examples=15)
@given(instances((2, 3)), st.sampled_from([0.0, 0.3, 1.7]))
def test_one_pass_order4_pieces_match_one_integral_per_term(instance, t):
    # Simpson's padded inner rows carry zero weights, a case the Gauss rule
    # never reaches
    model, bath = instance
    for scheme in ("gauss-legendre-nested", "simpson-uniform"):
        quad = QuadratureSpec(scheme, 8, 1e-8)
        got = _order4_pieces(model, bath, t, quad)
        ref = order4_pieces_per_term(model, bath, t, quad)
        for a, b in zip(got, ref):
            assert a.shape == b.shape
            assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b)
