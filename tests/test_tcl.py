"""Generator assembly: kernel-formula route, cumulant route, equivalence."""

import math
import sys
import warnings

import numpy as np
import pytest

import tclgen.algebra
import tclgen.quadrature
import tclgen.tcl
from tclgen.algebra import SuperOp, SystemModel
from tclgen.bath import BathSpec
from tclgen.models import get_preset
from tclgen.quadrature import QuadratureSpec
from tclgen.exact import K2_exact, K4_exact
from tclgen.tcl import (
    EquivalenceError,
    K2_influence,
    K4_cumulant_ordered,
    K4_influence,
    K4_TERM_TABLE,
    _k4_ordered_pieces,
    build_generator,
    format_k4_table,
)
from tclgen.cumulant import K_n_cumulant
from test_acceptance import _random_instance

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

GL8 = QuadratureSpec("gauss-legendre-nested", 8, 1e-8)
GL16 = QuadratureSpec("gauss-legendre-nested", 16, 1e-8)

SPIN_BOSON = SystemModel(2, 0.5 * SZ, SX, 0.3)
DEPHASING = SystemModel(2, 0.5 * SZ, SZ, 0.3)
BATH = BathSpec(modes=[(1.0, 1.0, 1.0)], beta=1.0)


def random_model(rng, d, alpha=0.1):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + a.conj().T) / 2.0
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = (b + b.conj().T) / 2.0
    return SystemModel(d, h, x, alpha)


# --- zero-time values -------------------------------------------------------------


def test_generators_vanish_at_time_zero():
    assert K2_influence(SPIN_BOSON, BATH, 0.0, GL8).norm_fro() == 0.0
    assert K4_influence(SPIN_BOSON, BATH, 0.0, GL8).norm_fro() == 0.0
    assert K4_cumulant_ordered(SPIN_BOSON, BATH, 0.0, GL8).norm_fro() == 0.0


# --- closed-form structure for a commuting coupling ---------------------------------


def test_pure_decoherence_second_order_matrix():
    # H and X commute: populations are untouched and both coherence columns
    # decay at the rate 2 * int_0^t D1 = 2 coth(beta/2) sin(t) for the unit
    # mode, with no contribution from the dissipation kernel.
    t = 1.3
    k2 = K2_influence(DEPHASING, BATH, t, GL16).matrix
    rate = -2.0 / math.tanh(0.5) * math.sin(t)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = rate
    expected[2, 2] = rate
    assert np.max(np.abs(k2 - expected)) < 1e-12


def test_pure_decoherence_fourth_order_vanishes():
    k4 = K4_influence(DEPHASING, BATH, 1.0, GL16)
    assert k4.norm_fro() < 1e-9


def test_pure_decoherence_order4_generator_equals_order2():
    g2 = build_generator(DEPHASING, BATH, 2, GL16, 1.5, n_cache=7)
    g4 = build_generator(DEPHASING, BATH, 4, GL16, 1.5, n_cache=7)
    for t in (0.5, 1.0, 1.5):
        diff = np.max(np.abs(g2(t).matrix - g4(t).matrix))
        assert diff < 1e-9


# --- cross-route agreement -----------------------------------------------------------


def test_second_order_routes_agree():
    rng = np.random.default_rng(30)
    for d in (2, 3):
        model = random_model(rng, d)
        direct = K2_influence(model, BATH, 1.2, GL8).matrix
        cumulant = K_n_cumulant(model, BATH, 1.2, 2, GL8).matrix
        scale = max(np.linalg.norm(direct), 1e-300)
        assert np.linalg.norm(direct - cumulant) / scale < 1e-12


@pytest.mark.parametrize(
    "d,modes,beta,npu",
    [
        (2, [(1.0, 1.0, 1.0)], 1.0, 8),
        (2, [(1.0, 1.0, 1.0), (0.6, 1.7, 1.0)], 2.5, 8),
        (3, [(1.0, 1.0, 1.0)], math.inf, 12),
        (3, [(0.8, 1.3, 0.7)], 1.0, 12),
    ],
)
def test_fourth_order_routes_agree(d, modes, beta, npu):
    # Random 3-level spectra produce Bohr frequencies near 5, which need a
    # denser Gauss rule before the product-form route converges.
    rng = np.random.default_rng(d * 7 + len(modes))
    model = random_model(rng, d)
    bath = BathSpec(modes=modes, beta=beta)
    quad = QuadratureSpec("gauss-legendre-nested", npu, 1e-8)
    table = K4_influence(model, bath, 1.0, quad).matrix
    cumulant = K4_cumulant_ordered(model, bath, 1.0, quad).matrix
    scale = max(np.linalg.norm(table), np.linalg.norm(cumulant), 1e-300)
    assert np.linalg.norm(table - cumulant) / scale < 1e-10


def test_ordered_and_unordered_pieces_agree():
    ordered, unordered, _ = _k4_ordered_pieces(SPIN_BOSON, BATH, 1.0, GL16)
    scale = max(np.linalg.norm(ordered), 1e-300)
    assert np.linalg.norm(ordered - unordered) / scale < 1e-8


def test_equivalence_tripwire_fires(monkeypatch):
    original = K_n_cumulant

    def perturbed(model, bath, t, n, quad):
        out = original(model, bath, t, n, quad)
        return SuperOp(out.dim, out.matrix + 1e-3 * np.eye(out.dim**2))

    monkeypatch.setattr(tclgen.tcl, "K_n_cumulant", perturbed)
    with pytest.raises(EquivalenceError, match="disagree"):
        K4_cumulant_ordered(SPIN_BOSON, BATH, 1.0, GL8)


def _agreeing_pieces(model, bath, t, quad):
    return (np.eye(4, dtype=complex),) * 3


def _disagreeing_pieces(model, bath, t, quad):
    # the forms differ by 1/density, so halving or doubling the density
    # moves them by about as much as they differ: a real estimate passes
    eye = np.eye(4, dtype=complex)
    return eye, (1.0 + 1.0 / quad.nodes_per_unit_time) * eye, eye


def _recording(specs, pieces):
    def stub(model, bath, t, quad):
        specs.append(quad)
        return pieces(model, bath, t, quad)
    return stub


def test_self_estimate_at_the_node_cap_warns(monkeypatch):
    # at 16 nodes per unit time the fine, coarsened and doubled grids all
    # reach the 96-node cap from t = 12, so forms that disagree get no estimate
    monkeypatch.setattr(tclgen.tcl, "_k4_ordered_pieces", _disagreeing_pieces)
    with pytest.warns(UserWarning, match=r"t = 12\.0: .* 96-node cap"):
        with pytest.raises(EquivalenceError):
            K4_cumulant_ordered(SPIN_BOSON, BATH, 12.0, GL16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K4_cumulant_ordered(SPIN_BOSON, BATH, 11.0, GL16)  # 96/88 nodes
        # forms that agree need no estimate: 8/8/8-node floor, 96-node cap
        monkeypatch.setattr(tclgen.tcl, "_k4_ordered_pieces", _agreeing_pieces)
        for t in (0.1, 12.0):
            K4_cumulant_ordered(SPIN_BOSON, BATH, t, GL16)


@pytest.mark.parametrize("scheme", ["gauss-legendre-nested", "simpson-uniform"])
def test_self_estimate_without_a_coarser_grid_warns(monkeypatch, scheme):
    # at 4 nodes per unit time, the smallest allowed, coarsening returns the
    # same spec, and at t = 0.5 doubling the density still gives the floor's
    # 8 Gauss points or 4 Simpson intervals, so no grid can estimate the error
    monkeypatch.setattr(tclgen.tcl, "_k4_ordered_pieces", _disagreeing_pieces)
    quad = QuadratureSpec(scheme, 4, 1e-8)
    assert quad.coarsened() == quad
    match = r"t = 0\.5: neither the coarsened nor the doubled grid differs"
    with pytest.warns(UserWarning, match=match):
        with pytest.raises(EquivalenceError):
            K4_cumulant_ordered(SPIN_BOSON, BATH, 0.5, quad)


@pytest.mark.parametrize(
    "npu, t, calls",
    [(4, 1.0, 1), (16, 1.0, 2), (8, 0.5, 1), (16, 12.0, 1)],
)
def test_coarse_pass_runs_only_on_a_coarser_grid(monkeypatch, npu, t, calls):
    # forms that disagree get a second pass on the coarsened grid where it has
    # fewer points per dimension; none runs where neither it nor the doubled
    # grid differs from the fine one (4 nodes per unit time and the 8-point
    # Gauss floor at these t, the 96-point cap), and none for forms that agree
    specs = []
    quad = QuadratureSpec("gauss-legendre-nested", npu, 1e-8)
    monkeypatch.setattr(tclgen.tcl, "_k4_ordered_pieces",
                        _recording(specs, _disagreeing_pieces))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if calls == 1:
            with pytest.raises(EquivalenceError):
                K4_cumulant_ordered(SPIN_BOSON, BATH, t, quad)
        else:
            K4_cumulant_ordered(SPIN_BOSON, BATH, t, quad)
    assert specs == [quad, quad.coarsened()][:calls]
    specs.clear()
    monkeypatch.setattr(tclgen.tcl, "_k4_ordered_pieces",
                        _recording(specs, _agreeing_pieces))
    K4_cumulant_ordered(SPIN_BOSON, BATH, t, quad)
    assert specs == [quad]


@pytest.mark.parametrize(
    "scheme, npu, t",
    [("gauss-legendre-nested", 8, 1.0), ("gauss-legendre-nested", 4, 2.0),
     ("simpson-uniform", 8, 0.5), ("simpson-uniform", 4, 1.0)],
)
def test_self_estimate_doubles_the_density_where_coarsening_cannot_thin_the_grid(
    monkeypatch, scheme, npu, t
):
    specs = []
    quad = QuadratureSpec(scheme, npu, 1e-8)
    assert quad.coarsened().points(t) == quad.points(t)
    monkeypatch.setattr(tclgen.tcl, "_k4_ordered_pieces",
                        _recording(specs, _disagreeing_pieces))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K4_cumulant_ordered(SPIN_BOSON, BATH, t, quad)
    assert specs == [quad, QuadratureSpec(scheme, 2 * npu, 1e-8)]


def test_simpson_floor_instances_pass_the_route_check():
    # the six two-level criterion-3 instances with 8 Simpson intervals per
    # unit time at t = 0.5: the fine and coarsened grids both hold the floor's
    # 4 intervals, where the two forms differ by 1.2e-2 to 6.0e-2, and the
    # estimate comes from 8 intervals instead
    rng = np.random.default_rng(23)
    quad = QuadratureSpec("simpson-uniform", 8, 1e-8)
    assert quad.coarsened().points(0.5) == quad.points(0.5) == 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(6):
            model, bath = _random_instance(rng, 2)
            k4 = K4_cumulant_ordered(model, bath, 0.5, quad).matrix
            exact = K4_exact(model, bath, 0.5).matrix
            assert np.linalg.norm(k4 - exact) <= 2e-2 * np.linalg.norm(exact)


def _record_simplex3_calls(monkeypatch):
    """Record the t of every integrate_simplex3 call, in every tclgen namespace."""
    original = tclgen.quadrature.integrate_simplex3
    count = []

    def recording(*args):
        count.append(args[1])
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "tclgen" or name.startswith("tclgen."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording)
    return count


@pytest.mark.parametrize("npu, t, calls", [(16, 1.0, 4), (8, 0.5, 4)])
def test_ordered_check_integrates_each_triple_simplex_term_once(monkeypatch, npu, t, calls):
    # four order-4 terms, the four-point one shared by both forms; the forms
    # agree to the tolerance, so no second grid runs for an estimate
    count = _record_simplex3_calls(monkeypatch)
    quad = QuadratureSpec("gauss-legendre-nested", npu, 1e-8)
    K4_cumulant_ordered(SPIN_BOSON, BATH, t, quad)
    assert len(count) == calls


def test_second_grid_integrates_each_triple_simplex_term_once(monkeypatch):
    # with 8 Simpson intervals per unit time the forms differ by 1.7e-3 at
    # t = 1, past 10x the tolerance, so the coarsened grid runs too
    count = _record_simplex3_calls(monkeypatch)
    K4_cumulant_ordered(SPIN_BOSON, BATH, 1.0, QuadratureSpec("simpson-uniform", 8, 1e-8))
    assert len(count) == 8


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_vanishing_k4_passes_the_route_check(t):
    # H and X commute, so K4 is 0 and both forms are round-off; the check
    # measures them against the K2 J term the unordered form cancels
    preset = get_preset("dephasing-single-mode")
    k4 = K4_cumulant_ordered(preset.model, preset.bath, t, QuadratureSpec())
    assert k4.norm_fro() <= 1e-12


def test_k4_routes_sum_the_innermost_nodes_before_any_superoperator(monkeypatch):
    # the t3 nodes are summed on a d x d operator first, so no superoperator
    # batch is larger than the 32 points per dimension of GL16 at t = 2
    # (summed afterwards, the batches would hold 32^2 = 1024)
    sizes = []
    modules = [m for n, m in sys.modules.items() if n == "tclgen" or n.startswith("tclgen.")]
    for name in ("commutator_super_batch", "anticommutator_super_batch", "_kron_batch"):
        original = getattr(tclgen.algebra, name)

        def recording(*args, original=original):
            sizes.append(args[0].shape[0])
            return original(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording)
    assert GL16.points(2.0) == 32
    for route in (lambda: K4_influence(SPIN_BOSON, BATH, 2.0, GL16),
                  lambda: K_n_cumulant(SPIN_BOSON, BATH, 2.0, 4, GL16)):
        sizes.clear()
        route()
        assert sizes and max(sizes) <= 32


def test_equivalence_error_is_a_runtime_error():
    assert issubclass(EquivalenceError, RuntimeError)


# --- scaling in time and coupling ------------------------------------------------------


def test_short_time_growth_exponents():
    # K2 opens linearly; the fourth-order table cancels at coincident times,
    # so K4 opens one power above the simplex volume, as t^4.
    ts = [1e-3, 1e-2, 1e-1]
    n2 = [K2_influence(SPIN_BOSON, BATH, t, GL16).norm_fro() for t in ts]
    n4 = [K4_influence(SPIN_BOSON, BATH, t, GL16).norm_fro() for t in ts]
    slope2 = np.polyfit(np.log(ts), np.log(n2), 1)[0]
    slope4 = np.polyfit(np.log(ts), np.log(n4), 1)[0]
    assert 0.9 < slope2 < 1.1
    assert 3.7 < slope4 < 4.3


def test_generator_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(31)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = (a + a.conj().T) / 2.0
    for op in (K2_influence(SPIN_BOSON, BATH, 0.9, GL16), K4_influence(SPIN_BOSON, BATH, 0.9, GL16)):
        out = op.apply(rho)
        assert abs(np.trace(out)) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


# --- term table display ------------------------------------------------------------------


def test_term_table_shape():
    assert len(K4_TERM_TABLE) == 16
    coeffs = [term.coeff for term in K4_TERM_TABLE]
    assert sum(1 for c in coeffs if c.imag != 0) == 8
    for term in K4_TERM_TABLE:
        assert term.ops[0] == ("c", 0)
        assert term.kernel_a in ("D", "D1") and term.kernel_b in ("D", "D1")
        assert term.pattern in ("t-2,1-3", "t-3,1-2")


def test_format_k4_table_layout():
    text = format_k4_table()
    lines = text.split("\n")
    assert len(lines) == 18
    assert lines[0].startswith("# coeff")
    assert lines[-1] == "# global prefactor 1/4, integrated over t >= t1 >= t2 >= t3 >= 0"
    assert "Xc(t)" in lines[1]


# --- cached generators ---------------------------------------------------------------------


def test_build_generator_validation():
    with pytest.raises(ValueError, match="order must be 2 or 4"):
        build_generator(SPIN_BOSON, BATH, 3, GL8, 1.0)
    with pytest.raises(ValueError, match="t_max must be positive"):
        build_generator(SPIN_BOSON, BATH, 2, GL8, 0.0)
    with pytest.raises(ValueError, match="unknown interpolation"):
        build_generator(SPIN_BOSON, BATH, 2, GL8, 1.0, interp="quadratic")


def test_default_grid_sizing():
    gen = build_generator(SPIN_BOSON, BATH, 2, GL8, 1.0, n_cache=None)
    assert len(gen.grid) == 33  # floor for short windows
    gen2 = build_generator(SPIN_BOSON, BATH, 2, GL8, 5.0, n_cache=5)
    assert np.array_equal(gen2.grid, np.linspace(0.0, 5.0, 5))


def test_uncoupled_generator_is_zero():
    model = SystemModel(2, 0.5 * SZ, SX, 0.0)
    gen = build_generator(model, BATH, 4, GL8, 1.0, n_cache=5)
    for t in (0.0, 0.5, 1.0):
        assert gen(t).norm_fro() == 0.0


def test_linear_interpolation_is_exact_on_nodes():
    gen = build_generator(SPIN_BOSON, BATH, 2, GL8, 1.0, n_cache=9)
    for t in gen.grid:
        direct = SPIN_BOSON.alpha**2 * K2_exact(SPIN_BOSON, BATH, float(t)).matrix
        assert np.array_equal(gen(float(t)).matrix, direct)


def test_linear_interpolation_range_check():
    for interp in ("linear", "cubic"):
        gen = build_generator(SPIN_BOSON, BATH, 2, GL8, 1.0, n_cache=9, interp=interp)
        with pytest.raises(ValueError, match="outside cached range"):
            gen(1.5)


def test_cubic_matches_direct_off_nodes():
    gen_c = build_generator(SPIN_BOSON, BATH, 4, GL16, 2.0, interp="cubic")
    gen_d = build_generator(SPIN_BOSON, BATH, 4, GL16, 2.0, interp="direct")
    for t in (0.13, 0.777, 1.501, 1.999):
        dev = np.max(np.abs(gen_c(t).matrix - gen_d(t).matrix))
        assert dev < 1e-5


def test_direct_mode_memoizes(monkeypatch):
    calls = {"n": 0}
    original = K2_exact

    def counting(model, bath, t):
        calls["n"] += 1
        return original(model, bath, t)

    monkeypatch.setattr(tclgen.tcl, "K2_exact", counting)
    gen = build_generator(SPIN_BOSON, BATH, 2, GL8, 1.0, interp="direct")
    first = gen(0.7).matrix
    for _ in range(3):
        assert np.array_equal(gen(0.7).matrix, first)
    assert calls["n"] == 1


def test_fourth_order_source_follows_the_cost_of_the_exact_route(monkeypatch):
    # the exact route's cost grows with (modes)^2 and not with t, the
    # quadrature's with (points per dimension)^2: few modes take the exact
    # route, many modes or short times fall back to the quadrature table
    used = []

    def stub(name):
        def k4(model, bath, t, *quad):
            used.append((len(bath.omegas), t, name))
            return SuperOp(model.dim, np.zeros((model.dim**2,) * 2, complex))
        return k4

    monkeypatch.setattr(tclgen.tcl, "K4_exact", stub("exact"))
    monkeypatch.setattr(tclgen.tcl, "K4_influence", stub("quadrature"))
    for n_modes in (1, 5, 20, 30, 40):
        bath = BathSpec([(0.3, 0.5 + 0.1 * k, 1.0) for k in range(n_modes)], 1.0)
        gen = build_generator(SPIN_BOSON, bath, 4, GL16, 2.0, interp="direct")
        for t in (0.5, 2.0):
            gen.coefficients(t)
    assert used == [
        (1, 0.5, "exact"), (1, 2.0, "exact"),
        (5, 0.5, "quadrature"), (5, 2.0, "exact"),
        (20, 0.5, "quadrature"), (20, 2.0, "quadrature"),
        (30, 0.5, "quadrature"), (30, 2.0, "quadrature"),
        (40, 0.5, "quadrature"), (40, 2.0, "quadrature"),
    ]
