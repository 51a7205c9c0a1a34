"""Exact generator route: agreement with quadrature and structural invariants.

The property tests draw the same examples on every run and keep no example
database.  Hypothesis still caches the constants of local modules (and
writes failure patches) under its home directory; that goes to a temporary
directory, removed when the run ends, so a run writes no ``.hypothesis/``
into the checkout.
"""

import atexit
import math
import shutil
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from oracles import k4_table_per_time, pairing_chains_per_pairing
from test_acceptance import _random_instance

import tclgen.exact
from tclgen.algebra import SystemModel
from tclgen.bath import BathSpec
from tclgen.cumulant import K_n_cumulant, _pairings
from tclgen.evolve import forward_map_correction
from tclgen.exact import (
    K2_exact,
    K2_exact_grid,
    K4_exact,
    K4_exact_grid,
    K4_table_exact,
    K4_table_exact_times,
    _expm,
    _k4_exact_grid,
    forward_map_exact,
    forward_map_exact_grid,
)
from tclgen.models import get_preset
from tclgen.quadrature import QuadratureSpec
from tclgen.tcl import (
    K2_influence,
    K4_influence,
    _k4_exact_is_cheaper,
    build_generator,
    check_k4_routes,
)

_home = tempfile.mkdtemp(prefix="tclgen-hypothesis-")
atexit.register(shutil.rmtree, _home, ignore_errors=True)
set_hypothesis_home_dir(_home)
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)

GL = "gauss-legendre-nested"
ROUTES = ((K2_exact, K2_influence), (K4_exact, K4_influence), (K4_table_exact, K4_influence))


def rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


# --- agreement with the quadrature routes --------------------------------------


def test_exact_matches_quadrature_on_criterion_3_instances():
    rng = np.random.default_rng(23)
    # criterion 3's instances; the two-level ones at twice its density, since
    # at t = 1 its 8 nodes per unit time sit on the 8-point floor (3e-11)
    cases = [(_random_instance(rng, 2), 16) for _ in range(6)]
    cases += [(_random_instance(rng, 3), 12) for _ in range(4)]
    worst = 0.0
    for (model, bath), npu in cases:
        quad = QuadratureSpec(GL, npu, 1e-8)
        for t in (0.5, 1.0, 2.0):
            for exact, influence in ROUTES:
                worst = max(worst, rel(exact(model, bath, t).matrix,
                                       influence(model, bath, t, quad).matrix))
    assert worst < 1e-12


@pytest.mark.parametrize("gap", [0.0, 1e-10, 1e-7])
@pytest.mark.parametrize("d", [2, 3])
def test_degenerate_and_near_degenerate_spectra(d, gap):
    # d = 2 with no gap is H_S = 0, where every Bohr frequency is zero; the
    # gaps of 1e-7 and 1e-10 keep nearly coincident frequencies apart, and
    # the block exponential must resolve them without cancellation.  Nearly
    # commuting cases have K4 near zero, so the bound is absolute below 1.
    rng = np.random.default_rng(40 + d)
    h = np.diag([0.0, gap, 0.9][:d])
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    model = SystemModel(d, h, (b + b.conj().T) / 2.0, alpha=0.1)
    bath = BathSpec([(0.9, 1.1, 1.0), (0.5, 1.7, 1.0)], 2.0)
    quad = QuadratureSpec(GL, 16, 1e-8)
    for exact, influence in ROUTES:
        a, ref = exact(model, bath, 1.5).matrix, influence(model, bath, 1.5, quad).matrix
        assert np.linalg.norm(a - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)


def test_block_exponential_matches_scipy():
    from scipy.linalg import expm

    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 12, 12)) + 1j * rng.standard_normal((6, 12, 12))
    a *= np.array([1e-3, 0.1, 1.0, 5.0, 20.0, 80.0])[:, None, None] / np.sqrt(12)
    a[:, 6:, :6] = 0.0  # block upper triangular, as in the Van Loan matrices
    ref = np.stack([expm(m) for m in a])
    assert max(rel(x, y) for x, y in zip(_expm(a), ref)) < 1e-12


def test_chunked_block_exponentials_match_one_batch(monkeypatch):
    # memory stays bounded because the block matrices are built per chunk;
    # a chunk of one chain must give the same sums as one batch of all
    rng = np.random.default_rng(23)
    model, bath = _random_instance(rng, 3)
    whole = K4_exact(model, bath, 1.3).matrix
    monkeypatch.setattr(tclgen.exact, "_CHUNK_ENTRIES", 1)
    assert rel(K4_exact(model, bath, 1.3).matrix, whole) < 1e-13


# --- forward map -----------------------------------------------------------------


def test_forward_map_matches_quadrature_up_to_t_10():
    rng = np.random.default_rng(23)
    cases = [_random_instance(rng, 2) for _ in range(6)]
    cases += [_random_instance(rng, 3) for _ in range(4)]
    cases += [(p.model, p.bath) for p in map(get_preset, (
        "spinboson-single-mode", "spinboson-two-mode"))]
    quad = QuadratureSpec(GL, 16, 1e-8)
    worst = max(rel(forward_map_exact(model, bath, t),
                    forward_map_correction(model, bath, t, quad))
                for model, bath in cases for t in (0.5, 2.0, 6.0, 10.0))
    assert worst < 1e-12


def test_forward_map_at_time_zero_is_exactly_zero():
    preset = get_preset("spinboson-two-mode")
    j = forward_map_exact(preset.model, preset.bath, 0.0)
    assert j.shape == (4, 4)
    assert not np.any(j)


def test_time_zero_builds_no_chain(monkeypatch):
    def refuse(*args):
        raise AssertionError("a chain was built at t = 0")

    monkeypatch.setattr(tclgen.exact, "_chain_sum", refuse)
    preset = get_preset("spinboson-two-mode")
    k4 = K4_exact(preset.model, preset.bath, 0.0).matrix
    table = K4_table_exact(preset.model, preset.bath, 0.0).matrix
    j = forward_map_exact(preset.model, preset.bath, 0.0)
    for m in (k4, table, j):
        assert m.shape == (4, 4)
        assert not np.any(m)


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_block_exponential_counts(monkeypatch, modes):
    # the cost rule reads k4_chain_count; tie it to the work each form does
    model, _ = _random_instance(np.random.default_rng(modes), 3)
    bath = BathSpec([(0.9, 1.1, 1.0), (0.5, 1.7, 1.0), (0.7, 1.3, 1.0)][:modes], 2.0)
    bohr_parts = tclgen.exact._bohr_parts(model)[0].size
    original, counts = tclgen.exact._chain_sum, {}

    def counting(h, steps, g, shifts, blocks, *weights):
        counts[len(blocks) + 1] = counts.get(len(blocks) + 1, 0) + len(shifts[0])
        return original(h, steps, g, shifts, blocks, *weights)

    monkeypatch.setattr(tclgen.exact, "_chain_sum", counting)
    labels = 2 * modes
    for form, expected in (
        (K4_exact, {4: tclgen.exact.k4_chain_count(bath), 3: labels}),
        (K4_table_exact, {4: 2 * labels**2 * (1 + bohr_parts)}),
        (forward_map_exact, {3: labels}),
    ):
        counts.clear()
        form(model, bath, 0.7)
        assert counts == expected
    # a 33-node table hands each chain to one grid call for all its nodes
    # (two block exponentials per chain, at the step and at isqrt(32) steps),
    # the nodes before the per-time cost limit included
    counts.clear()
    gen = build_generator(model, bath, 4, QuadratureSpec(GL, 16, 1e-8), 2.0)
    assert len(gen.grid) == 33
    assert counts == {4: tclgen.exact.k4_chain_count(bath), 3: labels}


def test_forward_map_does_not_depend_on_the_coupling():
    preset = get_preset("spinboson-single-mode")
    h, x = preset.model.h_sys, preset.model.coupling
    weak, strong = (forward_map_exact(SystemModel(2, h, x, alpha=a), preset.bath, 1.7)
                    for a in (0.1, 0.9))
    assert np.any(weak)
    assert np.array_equal(weak, strong)


# --- properties over random models ----------------------------------------------


def _hermitian(d, scale):
    entries = st.lists(st.floats(-1.0, 1.0), min_size=2 * d * d, max_size=2 * d * d)

    def build(v):
        a = np.array(v[: d * d]).reshape(d, d) + 1j * np.array(v[d * d:]).reshape(d, d)
        return scale * (a + a.conj().T) / 2.0

    return entries.map(build)


def _baths(max_modes=3, min_modes=1):
    return st.builds(
        BathSpec,
        st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
                 min_size=min_modes, max_size=max_modes),
        st.one_of(st.just(math.inf), st.floats(1.0, 5.0)),
    )


@st.composite
def instances(draw, dims, max_modes=3, min_modes=1):
    d = draw(st.sampled_from(dims))
    h = draw(_hermitian(d, 0.5))
    x = draw(_hermitian(d, 1.0))
    return SystemModel(d, h, x, alpha=0.1), draw(_baths(max_modes, min_modes))


@st.composite
def commuting_instances(draw, dims):
    d = draw(st.sampled_from(dims))
    _, v = np.linalg.eigh(draw(_hermitian(d, 1.0)))
    spec = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
    h = v @ np.diag(draw(spec)) @ v.conj().T
    x = v @ np.diag(draw(spec)) @ v.conj().T
    return SystemModel(d, (h + h.conj().T) / 2, (x + x.conj().T) / 2, alpha=0.1), draw(_baths())


@settings(DETERMINISTIC, max_examples=12)
@given(instances((2, 3)), st.floats(0.05, 1.0))
def test_routes_agree_on_random_models(instance, t):
    model, bath = instance
    quad = QuadratureSpec(GL, 24, 1e-8)
    for exact, influence in ROUTES:
        a, b = exact(model, bath, t).matrix, influence(model, bath, t, quad).matrix
        # absolute below norm 1: K4 of a commuting draw is round-off
        assert np.linalg.norm(a - b) <= 1e-11 * max(np.linalg.norm(b), 1.0)


@settings(DETERMINISTIC, max_examples=12)
@given(instances((2, 3, 4)), st.floats(0.05, 1.0))
def test_cumulant_route_agrees_with_exact_on_random_models(instance, t):
    # route 2, the ordered cumulants, at the density and bound of the
    # kernel-table property above
    model, bath = instance
    quad = QuadratureSpec(GL, 24, 1e-8)
    a, b = K4_exact(model, bath, t).matrix, K_n_cumulant(model, bath, t, 4, quad).matrix
    # absolute below norm 1: K4 of a commuting draw is round-off
    assert np.linalg.norm(a - b) <= 1e-11 * max(np.linalg.norm(b), 1.0)


@settings(DETERMINISTIC, max_examples=20)
@given(st.one_of(instances((2, 3, 4)), commuting_instances((2, 3, 4))), st.floats(0.05, 3.0))
def test_kernel_table_agrees_with_exact_on_random_models(instance, t):
    # the two closed forms of K4 (fully ordered table, partially unordered
    # J4' - K2 J) share the chronological pairing chains, so this checks the
    # third pairing minus K2 J against the interleaved chains; the route check
    # of `tclgen run` rests on it
    model, bath = instance
    a, b = K4_table_exact(model, bath, t).matrix, K4_exact(model, bath, t).matrix
    # absolute below norm 1: K4 of a commuting draw is round-off
    assert np.linalg.norm(a - b) <= 1e-11 * max(np.linalg.norm(b), 1.0)


@settings(DETERMINISTIC, max_examples=15)
@given(instances((2, 3, 4)), st.floats(0.05, 3.0))
def test_exact_generators_preserve_trace_and_hermiticity(instance, t):
    model, bath = instance
    d = model.dim
    vec_eye = np.eye(d).reshape(-1, order="F")
    # vec(rho^T) = P vec(rho); a map preserves Hermiticity iff P conj(K) P = K
    perm = np.arange(d * d).reshape(d, d).T.reshape(-1)
    for exact in (K2_exact, K4_exact):
        k = exact(model, bath, t).matrix
        scale = max(np.linalg.norm(k), 1.0)  # K4 of a commuting draw is round-off
        assert np.linalg.norm(vec_eye @ k) <= 1e-12 * scale
        assert np.linalg.norm(k.conj()[np.ix_(perm, perm)] - k) <= 1e-12 * scale
        assert not np.any(exact(model, bath, 0.0).matrix)


@settings(DETERMINISTIC, max_examples=12)
@given(instances((2, 3)), st.floats(0.05, 4.0))
def test_forward_map_annihilates_the_trace_and_matches_quadrature(instance, t):
    model, bath = instance
    d = model.dim
    j = forward_map_exact(model, bath, t)
    ref = forward_map_correction(model, bath, t, QuadratureSpec(GL, 24, 1e-8))
    scale = max(np.linalg.norm(ref), 1.0)  # absolute below norm 1: X = 0 is a draw
    assert np.linalg.norm(np.eye(d).reshape(-1, order="F") @ j) <= 1e-12 * scale
    assert np.linalg.norm(j - ref) <= 1e-12 * scale


@settings(DETERMINISTIC, max_examples=15)
@given(commuting_instances((2, 3)), st.floats(0.05, 2.0))
def test_fourth_order_vanishes_for_commuting_coupling(instance, t):
    model, bath = instance
    assert np.linalg.norm(K4_exact(model, bath, t).matrix) < 1e-12


def roundoff_bound(model, bath, t):
    """eps t^3 ||Xc||^2 (sum_nu ||W_nu||)^2, the round-off floor of the route rule."""
    basis = tclgen.exact._Eigenbasis(model, bath)
    norms = np.linalg.norm(basis.w, axis=(1, 2))
    return np.finfo(float).eps * t**3 * np.linalg.norm(basis.xc) ** 2 * norms.sum() ** 2


@settings(DETERMINISTIC, max_examples=20)
@given(st.one_of(instances((2, 3)), commuting_instances((2, 3))), st.floats(0.1, 32.0))
def test_round_off_floor_decides_only_where_k4_vanishes(instance, t):
    # the run's route check passes the closed form with room to spare out to
    # long times, where a commuting draw's K4 is round-off of chains of norm
    # up to t^3; where K4 does not vanish the floor sits far below the trip
    model, bath = instance
    quad = QuadratureSpec()
    k4 = K4_exact(model, bath, t).matrix
    rel_diff, threshold = check_k4_routes(model, bath, t, quad, k4)
    assert rel_diff / threshold <= 0.1
    trip = 10.0 * quad.tolerance
    if np.linalg.norm(k4) > 1e-6:
        assert roundoff_bound(model, bath, t) <= 0.1 * trip * np.linalg.norm(k4)


@settings(DETERMINISTIC, max_examples=8)
@given(instances((2,), max_modes=6, min_modes=3), st.floats(0.5, 2.5))
def test_one_k4_route_per_generator_table(instance, t_max):
    # where the cost rule holds at t_max every node is the closed-form grid's,
    # elsewhere K4_influence's; on either side of the per-time threshold the
    # run's route check takes the partner of the table's route
    model, bath = instance
    quad = QuadratureSpec()
    gen = build_generator(model, bath, 4, quad, t_max, interp="cubic")
    steps = len(gen.grid) - 1
    exact = _k4_exact_is_cheaper(model, bath, quad, t_max)
    if exact:
        table = _k4_exact_grid(model, bath, t_max, steps, K2_exact_grid(model, bath, t_max, steps))
    for s, t in enumerate(gen.grid):
        k4 = table[s] if exact else K4_influence(model, bath, t, quad).matrix
        assert np.array_equal(gen.coefficients(t).k4, k4)
    # the last node below the per-time threshold and the first above it
    above = [s for s, t in enumerate(gen.grid) if _k4_exact_is_cheaper(model, bath, quad, t)]
    first = above[0] if above else steps + 1
    for s in {max(first - 1, 1), min(first, steps)}:
        t = gen.grid[s]
        rel_diff, threshold = check_k4_routes(model, bath, t, quad, gen.coefficients(t).k4,
                                              gen.grid)
        assert rel_diff / threshold <= 0.1


# --- grid forms against the per-time calls --------------------------------------


@settings(DETERMINISTIC, max_examples=10)
@given(instances((2, 3), max_modes=2), st.floats(0.5, 10.0), st.integers(1, 40))
def test_grid_forms_match_the_per_time_calls(instance, t_max, steps):
    # a grid node is reached by powers of two step exponentials, where the
    # per-time call exponentiates at t_s itself; K2 is elementwise
    model, bath = instance
    times = np.linspace(0.0, t_max, steps + 1)
    k2 = K2_exact_grid(model, bath, t_max, steps)
    j = forward_map_exact_grid(model, bath, t_max, steps)
    k4 = K4_exact_grid(model, bath, t_max, steps)
    assert k2.shape == j.shape == k4.shape == (steps + 1, model.dim**2, model.dim**2)
    assert not np.any(j[0]) and not np.any(k4[0])
    for s, t in enumerate(times):
        assert np.array_equal(k2[s], K2_exact(model, bath, t).matrix)
        per_time = forward_map_exact(model, bath, t)
        # absolute below norm 1: X = 0 is a draw
        assert np.linalg.norm(j[s] - per_time) <= 1e-13 * max(np.linalg.norm(per_time), 1.0)
    for s in sorted({1, steps // 2, steps}):
        t = times[s]
        per_time = K4_exact(model, bath, t).matrix
        # relative to the larger of K4 and K2 J, the pieces of J4' - K2 J:
        # where K4 nearly vanishes both sides are round-off of the pieces
        k2_j = K2_exact(model, bath, t).matrix @ forward_map_exact(model, bath, t)
        scale = max(np.linalg.norm(per_time), np.linalg.norm(k2_j))
        assert np.linalg.norm(k4[s] - per_time) <= 1e-13 * scale


def test_long_grid_stays_near_the_per_time_calls():
    # 512 steps to t = 32, checked at every 16th node: a node is at most
    # about 2 sqrt(512) products from a directly exponentiated step.
    # Measured over all 513 nodes: on spinboson-single-mode K4 within
    # 2.0e-14 relative (2.0e-15 at t = 32); on dephasing-single-mode, where
    # K4 vanishes and both sides are round-off, within 5.0e-12 absolute
    # (1.8e-12 at t = 32).  Powers of one step exponential alone gave
    # 5.8e-14 and 1.35e-11.
    times = np.linspace(0.0, 32.0, 513)
    p = get_preset("spinboson-single-mode")
    k4 = K4_exact_grid(p.model, p.bath, 32.0, 512)
    assert max(rel(k4[s], K4_exact(p.model, p.bath, times[s]).matrix)
               for s in range(16, 513, 16)) < 1e-13
    p = get_preset("dephasing-single-mode")
    k4 = K4_exact_grid(p.model, p.bath, 32.0, 512)
    assert max(np.linalg.norm(k4[s] - K4_exact(p.model, p.bath, times[s]).matrix)
               for s in range(16, 513, 16)) < 1e-11


# --- the batched chain engine against the per-family reference -------------------

# step counts where the anchor layout changes: every perfect square to 40, +-1
LAYOUT_STEPS = sorted({k * k + e for k in range(1, 7) for e in (-1, 0, 1)} - {0})


@st.composite
def chain_cases(draw):
    """A d = 2 or 3 model on one or two modes, a grid's step count, times
    with 0 and a repeated time among them, and a cap on the chunk entries."""
    d = draw(st.sampled_from((2, 3)))
    model = SystemModel(d, draw(_hermitian(d, 0.5)), draw(_hermitian(d, 1.0)), alpha=0.1)
    steps = draw(st.one_of(st.sampled_from(LAYOUT_STEPS), st.integers(1, 40)))
    times = draw(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=3))
    times = draw(st.permutations(times + [0.0, times[0]]))
    return model, draw(_baths(max_modes=2)), steps, times, draw(st.integers(1, 4096))


def close(a, ref):
    # relative, and absolute below norm 1, where K4 vanishes
    return np.linalg.norm(a - ref) <= 1e-13 * max(np.linalg.norm(ref), 1.0)


@settings(DETERMINISTIC, max_examples=25)
@given(chain_cases(), st.floats(0.5, 6.0))
def test_batched_chains_match_the_per_family_engine(case, t_max):
    # one call for all pairings, all nodes, all families and all times, in
    # chunks that cut through families and anchor batches, against one call
    # per pairing or family, per node and per time
    model, bath, steps, times, cap = case
    c = tclgen.exact._Eigenbasis(model, bath)
    h = t_max / steps
    with mock.patch.object(tclgen.exact, "_CHUNK_ENTRIES", cap):
        for n, pinned in ((4, True), (2, False)):
            grid = tclgen.exact._pairing_chains(c, h, steps, _pairings(n), pinned)
            ref = pairing_chains_per_pairing(c, h, steps, _pairings(n), pinned)
            assert grid.shape == ref.shape == (steps, model.dim**2, model.dim**2)
            assert all(close(a, b) for a, b in zip(grid, ref))
        table = K4_table_exact_times(model, bath, times)
    assert table.shape == (len(times), model.dim**2, model.dim**2)
    for t, k4 in zip(times, table):
        assert close(k4, k4_table_per_time(model, bath, t))
        assert t != 0 or not np.any(k4)


def test_each_closed_form_quantity_is_one_chain_call(monkeypatch):
    # the grid K4 hands every pairing of J4' to one call of size 4 and J to
    # one of size 3; the kernel table hands both chronological pairings and
    # both interleaved families at every time to one call
    model, bath = _random_instance(np.random.default_rng(3), 2)
    original, sizes = tclgen.exact._chain_sum, []

    def recording(h, steps, g, shifts, blocks, *weights):
        sizes.append(len(blocks) + 1)
        return original(h, steps, g, shifts, blocks, *weights)

    monkeypatch.setattr(tclgen.exact, "_chain_sum", recording)
    _k4_exact_grid(model, bath, 2.0, 32, K2_exact_grid(model, bath, 2.0, 32))
    assert sorted(sizes) == [3, 4]
    sizes.clear()
    K4_table_exact_times(model, bath, [0.5, 1.0, 0.0, 2.0, 1.0])
    assert sizes == [4]


@pytest.mark.parametrize("cap", [1 << 13, 4096, 700, 1])
def test_kernel_table_exponentiates_one_stack_per_chunk(monkeypatch, cap):
    # per time 2 (2M)^2 (1 + P) chains of size 4 d^2, each one block matrix;
    # the three nonzero times share the chunks
    model, bath = _random_instance(np.random.default_rng(3), 2)
    chains = 3 * 2 * (2 * len(bath.omegas)) ** 2 * (1 + tclgen.exact._bohr_parts(model)[0].size)
    original, stacks = tclgen.exact._expm, []

    def recording(a):
        stacks.append(len(a))
        return original(a)

    monkeypatch.setattr(tclgen.exact, "_expm", recording)
    monkeypatch.setattr(tclgen.exact, "_CHUNK_ENTRIES", cap)
    K4_table_exact_times(model, bath, [0.5, 0.0, 1.0, 2.0])
    chunk = max(1, cap // (4 * model.dim**2) ** 2)
    assert sum(stacks) == chains
    assert len(stacks) == -(-chains // chunk)


def test_chain_stacks_stay_within_the_chunk_cap(monkeypatch):
    # twelve modes make thousands of chains per quantity, yet no
    # exponentiated stack, stack of node rows or stack of node corners holds
    # more than _CHUNK_ENTRIES entries, so memory does not grow with the modes
    cap = tclgen.exact._CHUNK_ENTRIES
    expm, corners = tclgen.exact._expm, tclgen.exact._node_corners
    sizes = []

    def expm_recording(a):
        sizes.append(a.size)
        return expm(a)

    def corners_recording(step, leap, steps, stride, to_h, col):
        batch, size = step.shape[0], step.shape[-1]
        sizes.append((steps // stride + 1) * batch * (size - col) * size)  # node rows
        out = corners(step, leap, steps, stride, to_h, col)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(tclgen.exact, "_expm", expm_recording)
    monkeypatch.setattr(tclgen.exact, "_node_corners", corners_recording)
    preset = get_preset("spinboson-single-mode")
    bath = BathSpec([(0.3, 0.5 + 0.1 * k, 1.0) for k in range(12)], 1.0)
    _k4_exact_grid(preset.model, bath, 2.0, 32, K2_exact_grid(preset.model, bath, 2.0, 32))
    forward_map_exact_grid(preset.model, bath, 10.0, 100)
    K4_table_exact_times(preset.model, bath, [0.5, 1.0, 2.0])
    assert len(sizes) > 100
    assert max(sizes) <= cap
