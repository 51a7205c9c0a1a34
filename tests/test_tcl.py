"""Generator assembly: kernel-formula route, cumulant route, equivalence."""

import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import tclgen.algebra
import tclgen.cumulant
import tclgen.exact
import tclgen.quadrature
import tclgen.tcl
from tclgen.algebra import SuperOp, SystemModel
from tclgen.bath import BathSpec, discretize_spectral_density
from tclgen.models import get_preset
from tclgen.quadrature import QuadratureSpec
from tclgen.exact import K2_exact, K4_exact
from tclgen.tcl import (
    EquivalenceError,
    K2_influence,
    K4_cumulant_ordered,
    K4_influence,
    K4_TERM_TABLE,
    Coefficients,
    Generator,
    _k4_ordered_pieces,
    _not_a_knot,
    build_generator,
    check_k4_routes,
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
    g2 = build_generator(DEPHASING, BATH, 2, GL16, 1.5)
    g4 = build_generator(DEPHASING, BATH, 4, GL16, 1.5)
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
    ordered, unordered = _k4_ordered_pieces(SPIN_BOSON, BATH, 1.0, GL16)
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
    return (np.eye(4, dtype=complex),) * 2


def _disagreeing_pieces(model, bath, t, quad):
    # the forms differ by 1/density, so halving or doubling the density
    # moves them by about as much as they differ: a real estimate passes
    eye = np.eye(4, dtype=complex)
    return eye, (1.0 + 1.0 / quad.nodes_per_unit_time) * eye


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
def test_self_estimate_at_the_node_floor_takes_twice_the_points(monkeypatch, scheme):
    # at 4 nodes per unit time, the smallest allowed, coarsening returns the
    # same spec, and at t = 0.5 doubling the density still gives the floor's
    # 8 Gauss points or 4 Simpson intervals; the second grid has twice the
    # fine grid's points instead (16 Gauss points, 10 Simpson intervals)
    specs = []
    monkeypatch.setattr(tclgen.tcl, "_k4_ordered_pieces",
                        _recording(specs, _disagreeing_pieces))
    quad = QuadratureSpec(scheme, 4, 1e-8)
    assert quad.coarsened() == quad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K4_cumulant_ordered(SPIN_BOSON, BATH, 0.5, quad)
    second = {"gauss-legendre-nested": 32, "simpson-uniform": 20}[scheme]
    assert specs == [quad, QuadratureSpec(scheme, second, 1e-8)]
    assert specs[1].points(0.5) >= 2 * quad.points(0.5)


@pytest.mark.parametrize(
    "npu, t, calls",
    [(4, 1.0, 2), (16, 1.0, 2), (8, 0.5, 2), (16, 12.0, 1), (16, 100.0, 1)],
)
def test_coarse_pass_runs_only_on_a_coarser_grid(monkeypatch, npu, t, calls):
    # forms that disagree get a second pass: on the coarsened grid where it has
    # fewer points per dimension, else on one with twice the fine grid's points
    # (4 nodes per unit time and the 8-point Gauss floor at these t); none runs
    # at the 96-point cap, and none for forms that agree
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
    second = quad.coarsened()
    if calls == 2 and second.points(t) == quad.points(t):
        second = QuadratureSpec("gauss-legendre-nested", math.ceil(16 / t), 1e-8)
    assert specs == [quad, second][:calls]
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
    # the second grid has twice the fine grid's points per dimension: twice
    # the density on the 8-point Gauss floor, at least 10 Simpson intervals
    # for the floor's 5 points
    second = {("gauss-legendre-nested", 8): 16, ("gauss-legendre-nested", 4): 8,
              ("simpson-uniform", 8): 20, ("simpson-uniform", 4): 10}[scheme, npu]
    specs = []
    quad = QuadratureSpec(scheme, npu, 1e-8)
    assert quad.coarsened().points(t) == quad.points(t)
    monkeypatch.setattr(tclgen.tcl, "_k4_ordered_pieces",
                        _recording(specs, _disagreeing_pieces))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K4_cumulant_ordered(SPIN_BOSON, BATH, t, quad)
    assert specs == [quad, QuadratureSpec(scheme, second, 1e-8)]


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


@pytest.mark.parametrize("npu, t", [(16, 1.0), (8, 0.5)])
def test_ordered_check_integrates_each_triple_simplex_term_once(monkeypatch, npu, t):
    # the four order-4 terms in one pass, the four-point one shared by both
    # forms; the forms agree to the tolerance, so no second grid runs for an
    # estimate
    count = _record_simplex3_calls(monkeypatch)
    quad = QuadratureSpec("gauss-legendre-nested", npu, 1e-8)
    K4_cumulant_ordered(SPIN_BOSON, BATH, t, quad)
    assert count == [t]


def test_second_grid_integrates_each_triple_simplex_term_once(monkeypatch):
    # with 8 Simpson intervals per unit time the forms differ by 1.7e-3 at
    # t = 1, past 10x the tolerance, so the coarsened grid runs one pass too
    count = _record_simplex3_calls(monkeypatch)
    K4_cumulant_ordered(SPIN_BOSON, BATH, 1.0, QuadratureSpec("simpson-uniform", 8, 1e-8))
    assert count == [1.0, 1.0]


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_vanishing_k4_passes_the_route_check(t):
    # H and X commute, so K4 is 0 and both forms are round-off, which the
    # route rule's floor eps B(t) covers
    preset = get_preset("dephasing-single-mode")
    k4 = K4_cumulant_ordered(preset.model, preset.bath, t, QuadratureSpec())
    assert k4.norm_fro() <= 1e-12


@pytest.mark.parametrize("t", [12.0, 32.0])
def test_vanishing_k4_passes_the_ordered_check_at_long_times(t):
    # GL16 sits at its 96-node cap from t = 12, so no self-estimate can raise
    # the trip; the forms differ by round-off of terms that grow as t^3
    # (6.5e-7 and 7.4e-6 of the old floor 1e-6 ||K2 J||), below eps B(t)
    preset = get_preset("dephasing-single-mode")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k4 = K4_cumulant_ordered(preset.model, preset.bath, t, GL16)
    assert k4.norm_fro() <= 1e-9


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_vacuous_simpson_check_where_k4_vanishes_warns(t):
    # K4 is 0 on dephasing-single-mode, so under Simpson's rule the two forms
    # are quadrature error alone and the self-estimate raises the threshold
    # to 158 to 169, past any relative difference (at most 2)
    preset = get_preset("dephasing-single-mode")
    quad = QuadratureSpec("simpson-uniform", 16, 1e-8)
    with pytest.warns(UserWarning, match=rf"t = {t}: the self-estimate raises the "
                                         r"threshold to 1\.[5-7]\d\de\+02.*cannot fail"):
        K4_cumulant_ordered(preset.model, preset.bath, t, quad)


def test_checks_that_can_fail_do_not_warn():
    # Gauss-Legendre on the same preset passes on the round-off bound alone,
    # with no self-estimate; on the criterion-3 instances under Simpson's rule
    # the self-estimate raises the threshold to 1.75 at most
    preset = get_preset("dephasing-single-mode")
    rng = np.random.default_rng(23)
    cases = [(_random_instance(rng, 2), 8) for _ in range(6)]
    cases += [(_random_instance(rng, 3), 12) for _ in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (0.5, 1.0, 2.0):
            K4_cumulant_ordered(preset.model, preset.bath, t, GL16)
            for (model, bath), npu in cases:
                K4_cumulant_ordered(model, bath, t, QuadratureSpec("simpson-uniform", npu, 1e-8))


def test_grid_k4_passes_the_run_route_check_where_k4_vanishes():
    # K4 is 0 on dephasing-single-mode, so the route check of `tclgen run`
    # compares round-off of pairing chains of norm up to 1e2.  Against a
    # floor of 1e-6, a grid reached by powers of one step exponential alone
    # drifted past the trip from t = 3.6 (1.6e-6 at t = 4); with a second
    # step exponential every isqrt(steps) nodes the grid stayed below 2e-7
    preset = get_preset("dephasing-single-mode")
    quad = QuadratureSpec()
    gen = build_generator(preset.model, preset.bath, 4, quad, 16.0)
    for t in (4.0, 8.0, 12.0, 16.0):
        rel, trip = check_k4_routes(preset.model, preset.bath, t, quad, gen.coefficients(t).k4)
        assert rel < trip


def test_k4_routes_sum_the_innermost_nodes_before_any_superoperator(monkeypatch):
    # the t3 nodes are summed on a d x d operator first, so no superoperator
    # batch is larger than the engine's chunk of (t1, t2) pairs, and a route
    # forms at most 24 superoperators per pair of GL16 at t = 2, 32^2 pairs
    # (summed afterwards, one term would need 32^3 = 32768 per slot-3 factor)
    sizes = []
    modules = [m for n, m in sys.modules.items() if n == "tclgen" or n.startswith("tclgen.")]
    for name in ("commutator_super_batch", "anticommutator_super_batch", "_kron_batch",
                 "_moment_matrix_batch"):
        module = tclgen.cumulant if name == "_moment_matrix_batch" else tclgen.algebra
        original = getattr(module, name)

        def recording(*args, original=original):
            out = original(*args)
            sizes.append(out.shape[0])
            return out

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording)
    assert GL16.points(2.0) == 32
    for route in (lambda: K4_influence(SPIN_BOSON, BATH, 2.0, GL16),
                  lambda: K_n_cumulant(SPIN_BOSON, BATH, 2.0, 4, GL16)):
        sizes.clear()
        route()
        assert sizes and max(sizes) <= tclgen.quadrature._CHUNK_PAIRS
        assert sum(sizes) <= 24 * 32**2


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
    for t_max in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            build_generator(SPIN_BOSON, BATH, 2, GL8, t_max)
    with pytest.raises(ValueError, match="unknown interpolation"):
        build_generator(SPIN_BOSON, BATH, 2, GL8, 1.0, interp="quadratic")


@pytest.mark.parametrize("order, interp, message", [
    (3, "linear", "order must be 2 or 4, got 3"),
    (4, "quadratic", "unknown interpolation 'quadratic'"),
])
def test_build_generator_checks_order_and_interp_before_any_table(
    monkeypatch, order, interp, message
):
    # on spinboson-two-mode to t_max = 20 a bad order used to cost K2 on
    # 321 nodes and a K4 per node before Generator refused it
    def no_table(*args):
        raise AssertionError("K2_exact_grid called before the arguments were checked")

    monkeypatch.setattr(tclgen.tcl, "K2_exact_grid", no_table)
    preset = get_preset("spinboson-two-mode")
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_generator(preset.model, preset.bath, order, QuadratureSpec(), 20.0, interp)


def test_default_grid_sizing():
    gen = build_generator(SPIN_BOSON, BATH, 2, GL8, 1.0)
    assert len(gen.grid) == 33  # floor for short windows
    gen2 = build_generator(SPIN_BOSON, BATH, 2, GL8, 5.0)  # ceil(5 * 8) + 1 nodes
    assert np.array_equal(gen2.grid, np.linspace(0.0, 5.0, 41))


def test_order_four_build_evaluates_the_k2_grid_once(monkeypatch):
    # the closed-form K4 grid takes its K2 J term from the build's own K2
    calls = []
    original = tclgen.exact.K2_exact_grid

    def recording(*args):
        calls.append(args[2:])
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "tclgen" or name.startswith("tclgen."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording)
    gen = build_generator(SPIN_BOSON, BATH, 4, GL8, 1.0)
    assert calls == [(1.0, 32)]
    k4 = tclgen.exact.K4_exact_grid(SPIN_BOSON, BATH, 1.0, 32)
    assert np.array_equal(np.stack([gen.coefficients(t).k4 for t in gen.grid]), k4)


def test_uncoupled_generator_is_zero():
    model = SystemModel(2, 0.5 * SZ, SX, 0.0)
    gen = build_generator(model, BATH, 4, GL8, 1.0)
    for t in (0.0, 0.5, 1.0):
        assert gen(t).norm_fro() == 0.0


def test_linear_interpolation_is_exact_on_nodes():
    gen = build_generator(SPIN_BOSON, BATH, 2, GL8, 1.0)
    for t in gen.grid:
        direct = SPIN_BOSON.alpha**2 * K2_exact(SPIN_BOSON, BATH, float(t)).matrix
        assert np.array_equal(gen(float(t)).matrix, direct)


@pytest.mark.parametrize("interp", ["linear", "cubic", "direct"])
@pytest.mark.parametrize("order", [2, 4])
def test_replace_recouples_from_the_same_memo(interp, order):
    # the memo holds no coupling: re-coupling a build, or taking order 2 from
    # an order-4 build, is bitwise the build at that coupling and order
    gen = build_generator(SPIN_BOSON, BATH, order, GL8, 1.0, interp=interp)
    times = [0.0, 0.5, 1.0] if gen.grid is None else list(gen.grid)
    times += [0.13, 0.777, 0.999]
    for alpha in (0.05, 0.7):
        recoupled = replace(gen, alpha=alpha)
        fresh = build_generator(replace(SPIN_BOSON, alpha=alpha), BATH, order, GL8, 1.0,
                                interp=interp)
        for t in times:
            assert np.array_equal(recoupled(t).matrix, fresh(t).matrix)
    if order == 4:
        lowered = replace(gen, order=2)
        fresh = build_generator(SPIN_BOSON, BATH, 2, GL8, 1.0, interp=interp)
        for t in times:
            assert np.array_equal(lowered(t).matrix, fresh(t).matrix)


def test_an_order_two_memo_cannot_serve_order_four():
    for interp in ("linear", "cubic"):
        gen = build_generator(SPIN_BOSON, BATH, 2, GL8, 1.0, interp=interp)
        with pytest.raises(ValueError, match="needs K4"):
            replace(gen, order=4)
    direct = replace(build_generator(SPIN_BOSON, BATH, 2, GL8, 1.0, interp="direct"), order=4)
    with pytest.raises(ValueError, match="needs K4"):
        direct(0.5)
    with pytest.raises(ValueError, match="order must be 2 or 4"):
        replace(direct, order=3)


def test_linear_interpolation_range_check():
    for interp in ("linear", "cubic"):
        gen = build_generator(SPIN_BOSON, BATH, 2, GL8, 1.0, interp=interp)
        with pytest.raises(ValueError, match="outside cached range"):
            gen(1.5)


def test_cubic_matches_direct_off_nodes():
    gen_c = build_generator(SPIN_BOSON, BATH, 4, GL16, 2.0, interp="cubic")
    gen_d = build_generator(SPIN_BOSON, BATH, 4, GL16, 2.0, interp="direct")
    for t in (0.13, 0.777, 1.501, 1.999):
        dev = np.max(np.abs(gen_c(t).matrix - gen_d(t).matrix))
        assert dev < 1e-5


def _spline_grid(kind, n, rng):
    if kind == "uniform":
        return np.linspace(0.0, 2.0, n)
    return np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, n - 1))])


@pytest.mark.parametrize("kind", ["uniform", "random"])
@pytest.mark.parametrize("n", [4, 5, 33, 65])
def test_not_a_knot_matches_scipy_cubic_spline(kind, n):
    rng = np.random.default_rng(n)
    x = _spline_grid(kind, n, rng)
    y = rng.standard_normal((n, 16)) + 1j * rng.standard_normal((n, 16))
    ref = CubicSpline(x, y, axis=0).c  # (4, n - 1, 16)
    ours = _not_a_knot(x, y).transpose(1, 0, 2)
    assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_cubic_evaluates_as_scipy_cubic_spline():
    gen = build_generator(SPIN_BOSON, BATH, 4, GL8, 2.0, interp="cubic")
    spline = CubicSpline(gen.grid, gen._values, axis=0)
    for t in (0.0, 0.013, 0.777, float(gen.grid[7]), 1.999, 2.0):
        ref = spline(t)
        assert np.max(np.abs(gen(t).matrix - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [4, 9])
def test_cubic_reproduces_a_cubic(n):
    # not-a-knot holds a cubic polynomial exactly, on any grid of 4 nodes or more
    rng = np.random.default_rng(n)
    a = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
    grid = _spline_grid("random", n, rng)

    def poly(t):
        return a[0] + t * (a[1] + t * (a[2] + t * a[3]))

    gen = Generator(2, 1.0, 2, lambda t: Coefficients(poly(t), None), grid, "cubic")
    for t in rng.uniform(grid[0], grid[-1], 7):
        assert np.max(np.abs(gen(t).matrix - poly(t))) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_cubic_rejects_grids_shorter_than_four_nodes(n):
    with pytest.raises(ValueError, match="at least 4 nodes"):
        Generator(2, 1.0, 2, lambda t: Coefficients(np.eye(4, dtype=complex), None),
                  np.linspace(0.0, 1.0, n), "cubic")


def test_direct_mode_rejects_a_grid():
    # with a grid, "direct" used to interpolate linearly: t^2 on 5 nodes gave
    # 0.025 at t = 0.1, not 0.01
    def square(t):
        return Coefficients(t * t * np.eye(4, dtype=complex), None)

    with pytest.raises(ValueError, match="takes no grid"):
        Generator(2, 1.0, 2, square, np.linspace(0.0, 1.0, 5), "direct")
    assert Generator(2, 1.0, 2, square, None, "direct")(0.1).matrix[0, 0] == pytest.approx(0.01)


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


@pytest.mark.parametrize("n_modes, exact", [(3, True), (5, True), (11, True), (20, False)])
def test_a_generator_table_takes_one_k4_route(monkeypatch, n_modes, exact):
    # the cost rule decides once per table, at t_max: a table the closed
    # form pays for takes every node from one grid call, one that it does
    # not takes K4_influence at every node; none mixes the two
    grids, nodes = [], []
    original = tclgen.tcl._k4_exact_grid

    def grid_call(*args):
        grids.append(args[2:4])
        return original(*args)

    def influence(model, bath, t, quad):
        nodes.append(t)
        return SuperOp(model.dim, np.zeros((model.dim**2,) * 2, complex))

    monkeypatch.setattr(tclgen.tcl, "_k4_exact_grid", grid_call)
    monkeypatch.setattr(tclgen.tcl, "K4_influence", influence)
    modes = discretize_spectral_density(lambda w: 0.5 * w * math.exp(-w / 2), 6.0, n_modes)
    gen = build_generator(SPIN_BOSON, BathSpec(modes, 1.0), 4, QuadratureSpec(), 2.0)
    assert len(gen.grid) == 33
    assert grids == ([(2.0, 32)] if exact else [])
    assert nodes == ([] if exact else list(gen.grid))
