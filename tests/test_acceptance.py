"""Acceptance gate: every advertised guarantee, one pass/fail line per criterion.

Each test prints a single summary line through capsys.disabled() so a full run
reads as a checklist even without -s.  Failing criteria print their measured
numbers and the supporting evidence before asserting, so the verdict and the
forensics land in the log together.
"""

import math
from collections import Counter

import numpy as np
import pytest

from oracle_inversion import generator_terms_by_inversion
from oracles import oracle_correlation

from tclgen.algebra import SystemModel
from tclgen.bath import BathSpec, bath_correlation, kernel_D, kernel_D1
from tclgen.cli import scaling_study
from tclgen.cumulant import (
    K_n_cumulant,
    drop_odd_terms,
    enumerate_ordered_cumulant_terms,
)
from tclgen.evolve import invertibility_diagnostic, forward_map_correction, propagate
from tclgen.models import get_preset
from tclgen.quadrature import QuadratureSpec
from tclgen.tcl import K2_influence, K4_cumulant_ordered, K4_influence, build_generator

GL = "gauss-legendre-nested"


def say(capsys, line):
    with capsys.disabled():
        print("\n" + line)


def verdict(ok):
    return "PASS" if ok else "FAIL"


# --- 1: reservoir kernels ---------------------------------------------------------


def test_criterion_1_kernel_identities_and_oscillator_oracle(capsys):
    bath = BathSpec(modes=[(1.0, 1.0, 1.0), (0.6, 1.7, 0.8)], beta=2.5)
    rng = np.random.default_rng(11)
    taus = rng.uniform(0.0, 8.0, size=100)
    dev = 0.0
    for tau in taus:
        dev = max(dev, abs(kernel_D(bath, -tau) + kernel_D(bath, tau)))
        dev = max(dev, abs(kernel_D1(bath, -tau) - kernel_D1(bath, tau)))
        dev = max(
            dev,
            abs(bath_correlation(bath, -tau) - np.conj(bath_correlation(bath, tau))),
        )

    single = BathSpec(modes=[(1.0, 1.0, 1.0)], beta=1.0)
    oracle_dev = max(
        abs(bath_correlation(single, tau) - oracle_correlation([(1, 1, 1)], 1.0, tau, 60))
        for tau in np.linspace(0.0, 10.0, 21)
    )
    ok = dev < 1e-12 and oracle_dev < 1e-8
    say(capsys, f"criterion 1 (kernel symmetries at 100 random lags, truncated-"
        f"oscillator correlation oracle): {verdict(ok)} "
        f"(identity dev {dev:.1e}, oracle dev {oracle_dev:.1e})")
    assert dev < 1e-12
    assert oracle_dev < 1e-8


# --- 2: cumulant enumeration ------------------------------------------------------


def test_criterion_2_cumulant_enumeration_ground_truth(capsys):
    even2 = drop_odd_terms(enumerate_ordered_cumulant_terms(2))
    assert len(even2) == 1
    assert even2[0].substrings == ((0, 1),) and even2[0].sign == 1

    even4 = drop_odd_terms(enumerate_ordered_cumulant_terms(4))
    signs = {t.substrings: t.sign for t in even4}
    assert signs == {
        ((0, 1, 2, 3),): 1,
        ((0, 1), (2, 3)): -1,
        ((0, 2), (1, 3)): -1,
        ((0, 3), (1, 2)): -1,
    }

    mine6 = Counter({t.substrings: t.sign for t in enumerate_ordered_cumulant_terms(6)})
    oracle6 = generator_terms_by_inversion(6)
    ok = mine6 == oracle6
    say(capsys, f"criterion 2 (ordered-cumulant terms: single pair at order 2, "
        f"{{+,-,-,-}} at order 4, order 6 matches series inversion): {verdict(ok)} "
        f"({len(mine6)} signed order-6 terms)")
    assert ok


# --- 3: cross-route generator equivalence ------------------------------------------


def _random_instance(rng, dim):
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h_sys = (h + h.conj().T) / 2.0
    h_sys *= 1.5 / max(1.0, np.max(np.abs(np.linalg.eigvalsh(h_sys))))
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    coupling = (x + x.conj().T) / 2.0
    coupling *= 1.2 / np.linalg.norm(coupling, 2)
    n_modes = int(rng.integers(1, 3))
    modes = [
        (float(rng.uniform(0.5, 1.4)), float(rng.uniform(0.6, 1.8)), 1.0)
        for _ in range(n_modes)
    ]
    beta = [1.0, 2.5, math.inf][int(rng.integers(3))]
    return SystemModel(dim, h_sys, coupling, alpha=0.1), BathSpec(modes, beta)


def test_criterion_3_fourth_order_route_equivalence(capsys):
    rng = np.random.default_rng(23)
    # three-level instances get denser base grids: their larger level splittings
    # make the product-form cross check converge more slowly
    cases = [(_random_instance(rng, 2), 8) for _ in range(6)]
    cases += [(_random_instance(rng, 3), 12) for _ in range(4)]
    worst_routes = 0.0
    worst_internal = 0.0
    for (model, bath), npu in cases:
        quad = QuadratureSpec(GL, npu, 1e-8)
        for t in (0.5, 1.0, 2.0):
            table = K4_influence(model, bath, t, quad).matrix
            assembled = K_n_cumulant(model, bath, t, 4, quad).matrix
            scale = np.linalg.norm(table)
            worst_routes = max(
                worst_routes, np.linalg.norm(table - assembled) / scale
            )
            checked = K4_cumulant_ordered(model, bath, t, quad).matrix
            worst_internal = max(
                worst_internal, np.linalg.norm(checked - table) / scale
            )
    ok = worst_routes < 1e-8 and worst_internal < 1e-8
    say(capsys, f"criterion 3 (kernel-table vs ordered-cumulant generators on 10 "
        f"random instances x t in {{0.5,1,2}}): {verdict(ok)} "
        f"(worst rel diff {worst_routes:.1e}, internal check {worst_internal:.1e})")
    assert worst_routes < 1e-8
    assert worst_internal < 1e-8


# --- 4: structure preservation ------------------------------------------------------


def test_criterion_4_trace_annihilation_and_hermiticity(capsys):
    rng = np.random.default_rng(5)
    quad = QuadratureSpec(GL, 8, 1e-8)
    preset = get_preset("spinboson-single-mode")
    instances = [(preset.model, preset.bath), _random_instance(rng, 3)]
    dev = 0.0
    for model, bath in instances:
        for t in (0.5, 1.5):
            for K in (
                K2_influence(model, bath, t, quad),
                K4_influence(model, bath, t, quad),
            ):
                for _ in range(5):
                    r = rng.standard_normal((model.dim, model.dim)) \
                        + 1j * rng.standard_normal((model.dim, model.dim))
                    rho = (r + r.conj().T) / 2.0
                    out = K.apply(rho)
                    dev = max(dev, abs(np.trace(out)))
                    dev = max(dev, np.max(np.abs(out - out.conj().T)))
    ok = dev < 1e-10
    say(capsys, f"criterion 4 (generators annihilate the trace and preserve "
        f"Hermiticity on random states): {verdict(ok)} (max dev {dev:.1e})")
    assert dev < 1e-10


# --- 5: dephasing exactness -----------------------------------------------------------


def test_criterion_5_dephasing_matches_closed_form(capsys):
    preset = get_preset("dephasing-single-mode")
    alpha = 0.8
    model = SystemModel(2, preset.model.h_sys, preset.model.coupling, alpha=alpha)
    bath = preset.bath
    quad = QuadratureSpec(GL, 16, 1e-8)
    t_grid = np.linspace(0.0, 2.0 * math.pi, 41)
    gen = build_generator(model, bath, 2, quad, t_grid[-1], interp="cubic")
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    traj = propagate(rho0, gen, t_grid, atol=1e-12)

    coth = 1.0 / math.tanh(0.5)
    exact = 0.5 * np.exp(-2.0 * alpha**2 * coth * (1.0 - np.cos(t_grid)))
    coh = np.abs(traj.states[:, 0, 1])
    coh_dev = float(np.max(np.abs(coh - exact)))
    recoh_dev = abs(coh[-1] - 0.5)

    k4_norm = max(
        np.linalg.norm(K4_influence(model, bath, t, QuadratureSpec(GL, npu, 1e-8)).matrix)
        for t, npu in ((0.8, 16), (2.0, 16), (4.0, 8), (2.0 * math.pi, 4))
    )
    ok = coh_dev < 1e-6 and recoh_dev < 1e-6 and k4_norm < 1e-9
    say(capsys, f"criterion 5 (second-order trajectory reproduces the closed-form "
        f"dephasing coherence, full recoherence at 2*pi, vanishing fourth order): "
        f"{verdict(ok)} (coherence dev {coh_dev:.1e}, recoherence dev "
        f"{recoh_dev:.1e}, max |K4| {k4_norm:.1e})")
    assert coh_dev < 1e-6
    assert recoh_dev < 1e-6
    assert k4_norm < 1e-9


# --- 6: error scaling in the coupling ---------------------------------------------------


@pytest.fixture(scope="module")
def stated_reference_study():
    """The scan exactly as advertised: 12-level reference, t_max = 4."""
    return scaling_study("spinboson-single-mode")


@pytest.fixture(scope="module")
def enlarged_reference_study():
    """Same scan against a 24-level reference, to separate propagator error
    from reference truncation."""
    return scaling_study("spinboson-single-mode", fock_levels=24)


def _fmt_errors(errors):
    return "[" + ", ".join(f"{e:.2e}" for e in errors) + "]"


def test_criterion_6_order2_coupling_scaling(capsys, stated_reference_study):
    slope = stated_reference_study.slope_order2
    ok = 3.5 <= slope <= 4.5
    say(capsys, f"criterion 6 (order-2 error ~ alpha^4, slope 4.0 +/- 0.5 vs "
        f"12-level reference): {verdict(ok)} (slope {slope:.3f}, errors "
        f"{_fmt_errors(stated_reference_study.errors_order2)})")
    assert ok


def test_criterion_6_order4_coupling_scaling(
    capsys, stated_reference_study, enlarged_reference_study
):
    slope12 = stated_reference_study.slope_order4
    slope24 = enlarged_reference_study.slope_order4
    ok = 5.0 <= slope12 <= 7.0
    say(capsys, f"criterion 6 (order-4 error ~ alpha^6, slope 6.0 +/- 1.0 vs "
        f"12-level reference): {verdict(ok)} (slope {slope12:.3f})")
    if not ok:
        with capsys.disabled():
            print(f"    order-4 errors vs alpha 0.025/0.05/0.1/0.2: "
                  f"{_fmt_errors(stated_reference_study.errors_order4)}")
            print(f"    with a 24-level reference instead: slope {slope24:.3f} "
                  f"(within 6.0 +/- 1.0), errors "
                  f"{_fmt_errors(enlarged_reference_study.errors_order4)}")
            print("    reading: order-4 propagation is accurate enough that the "
                  "12-level reference's own Fock-truncation error dominates the "
                  "fit; the slope recovers once the reference is converged. "
                  "Kept red because the criterion pins the 12-level reference.")
    assert ok, (
        f"order-4 slope {slope12:.3f} vs 12-level reference (need 6.0 +/- 1.0); "
        f"same scan vs 24-level reference gives {slope24:.3f}, so the deficit "
        f"is reference truncation, not propagator scaling"
    )


# --- 7: invertibility diagnostic ------------------------------------------------------


def test_criterion_7_breakdown_diagnostic_sanity(capsys):
    preset = get_preset("spinboson-single-mode")
    quad = QuadratureSpec(GL, 8, 1e-8)
    table = invertibility_diagnostic(
        preset.model, preset.bath, np.array([0.0, 0.5, 1.0, 2.0])
    )
    t0_exact = table.sigma_min[0] == 1.0 and table.condition_number[0] == 1.0

    free = SystemModel(2, preset.model.h_sys, preset.model.coupling, alpha=0.0)
    free_table = invertibility_diagnostic(
        free, preset.bath, np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    )
    free_dev = float(np.max(np.abs(free_table.sigma_min - 1.0)))

    correction = forward_map_correction(preset.model, preset.bath, 1.5, quad)
    alphas = np.linspace(0.1, 2.0, 20)
    eye = np.eye(4)
    sig = np.array([
        np.linalg.svd(eye + a**2 * correction, compute_uv=False)[-1] for a in alphas
    ])
    produced = sig.shape == (20,) and bool(np.all(np.isfinite(sig)))
    drops = int(np.sum(np.diff(sig) <= 1e-15))
    trend = "yes" if drops == len(sig) - 1 else "no"

    ok = t0_exact and free_dev < 1e-12 and produced
    say(capsys, f"criterion 7 (forward-map diagnostic: sigma_min(0) = 1 exactly, "
        f"= 1 at zero coupling, coupling scan produced): {verdict(ok)} "
        f"(zero-coupling dev {free_dev:.1e}; sigma_min non-increasing in alpha: "
        f"{trend} ({drops}/{len(sig) - 1} steps at t = 1.5))")
    assert t0_exact
    assert free_dev < 1e-12
    assert produced


# --- 8: numerics hygiene ---------------------------------------------------------------


def test_criterion_8_stepper_and_quadrature_convergence_orders(capsys):
    preset = get_preset("spinboson-single-mode")
    quad = QuadratureSpec(GL, 8, 1e-8)
    gen = build_generator(preset.model, preset.bath, 2, quad, 1.0, interp="direct")
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    grid = np.array([0.0, 1.0])
    ref = propagate(rho0, gen, grid, stepper="rk45-adaptive", atol=1e-13).states[-1]
    errors = [
        np.max(np.abs(
            propagate(rho0, gen, grid, stepper="rk4-fixed", max_step=h).states[-1] - ref
        ))
        for h in (0.2, 0.1, 0.05)
    ]
    rk4_slopes = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
    rk4_mean = sum(rk4_slopes) / len(rk4_slopes)

    ref_k4 = K4_influence(preset.model, preset.bath, 1.0, QuadratureSpec(GL, 24, 1e-8)).matrix
    simpson_errors = [
        np.linalg.norm(
            K4_influence(
                preset.model, preset.bath, 1.0, QuadratureSpec("simpson-uniform", npu, 1e-8)
            ).matrix - ref_k4
        )
        for npu in (8, 16, 32)
    ]
    simpson_slopes = [
        math.log2(simpson_errors[k] / simpson_errors[k + 1]) for k in range(2)
    ]
    ok = (
        abs(rk4_mean - 4.0) <= 0.3
        and all(abs(s - 4.0) <= 0.8 for s in simpson_slopes)
    )
    say(capsys, f"criterion 8 (fixed-step integrator order 4 +/- 0.3 by step "
        f"halving, composite-rule quadrature order ~4 by node doubling on "
        f"|K4(1)|): {verdict(ok)} (stepper slope {rk4_mean:.2f}, quadrature "
        f"slopes {simpson_slopes[0]:.2f}, {simpson_slopes[1]:.2f})")
    assert abs(rk4_mean - 4.0) <= 0.3
    for s in simpson_slopes:
        assert abs(s - 4.0) <= 0.8
