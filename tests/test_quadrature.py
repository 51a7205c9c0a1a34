"""Simplex quadrature: exactness, closed forms, convergence order."""

import math

import numpy as np
import pytest

from tclgen.quadrature import (
    _CHUNK_PAIRS,
    QuadratureSpec,
    cumulative_weights,
    integrate_interval,
    integrate_simplex2,
    integrate_simplex3,
)

GL = QuadratureSpec("gauss-legendre-nested", 16, 1e-8)
SIMPSON = QuadratureSpec("simpson-uniform", 16, 1e-8)
BOTH = [GL, SIMPSON]


def as_mats(values) -> np.ndarray:
    """Lift a batch of scalars to (B, 1, 1) matrices."""
    return np.asarray(values, dtype=complex)[:, None, None]


def contracted(g):
    """Triple-simplex integrand of a scalar g(t1, t2, t3), summed over the t3 nodes."""
    return lambda t1s, t2s, t3s, w3: as_mats(
        np.sum(w3 * g(t1s[:, None], t2s[:, None], t3s), axis=1))


# --- spec validation ---------------------------------------------------------------


def test_spec_defaults():
    spec = QuadratureSpec()
    assert spec.scheme == "gauss-legendre-nested"
    assert spec.nodes_per_unit_time == 16
    assert spec.tolerance == 1e-8


@pytest.mark.parametrize(
    "kwargs",
    [
        {"scheme": "trapezoid"},
        {"nodes_per_unit_time": 3},
        {"tolerance": 0.0},
        {"tolerance": 1.5},
    ],
)
def test_spec_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        QuadratureSpec(**kwargs)


def test_grid_sizing():
    assert GL.intervals(1.0) == 16
    assert GL.intervals(0.01) == 4
    assert GL.gauss_points(0.01) == 8
    assert GL.gauss_points(1.5) == 24
    assert GL.gauss_points(100.0) == 96


def test_coarsened_halves_density():
    assert GL.coarsened().nodes_per_unit_time == 8
    assert QuadratureSpec("simpson-uniform", 5).coarsened().nodes_per_unit_time == 4
    assert GL.coarsened().scheme == GL.scheme


# --- polynomial exactness -----------------------------------------------------------


@pytest.mark.parametrize("quad", BOTH, ids=lambda q: q.scheme)
def test_interval_cubic_exact(quad):
    T = 1.7
    out = integrate_interval(lambda ts: as_mats(ts**3), T, quad)
    assert out[0, 0] == pytest.approx(T**4 / 4.0, rel=1e-12)


@pytest.mark.parametrize("quad", BOTH, ids=lambda q: q.scheme)
def test_simplex2_volume_and_bilinear(quad):
    T = 1.3
    vol = integrate_simplex2(lambda t1s, t2s: as_mats(np.ones_like(t2s)), T, quad)
    assert vol[0, 0] == pytest.approx(T**2 / 2.0, rel=1e-12)
    prod = integrate_simplex2(lambda t1s, t2s: as_mats(t1s * t2s), T, quad)
    assert prod[0, 0] == pytest.approx(T**4 / 8.0, rel=1e-12)


@pytest.mark.parametrize("quad", BOTH, ids=lambda q: q.scheme)
def test_simplex3_volume_and_trilinear(quad):
    # The trilinear monomial makes the outer integrand degree 5, beyond the
    # uniform scheme's cubic rows, so only the Gauss rule is exact there.
    T = 0.9
    vol = integrate_simplex3(contracted(lambda t1, t2, t3: np.ones_like(t2 * t3)), T, quad)
    assert vol[0, 0] == pytest.approx(T**3 / 6.0, rel=1e-12)
    prod = integrate_simplex3(contracted(lambda t1, t2, t3: t1 * t2 * t3), T, quad)
    tol = 1e-5 if quad.scheme == "simpson-uniform" else 1e-12
    assert prod[0, 0] == pytest.approx(T**6 / 48.0, abs=tol)


# --- trigonometric closed forms ------------------------------------------------------


@pytest.mark.parametrize("quad", BOTH, ids=lambda q: q.scheme)
@pytest.mark.parametrize("T", [1.0, 2.5])
def test_simplex2_difference_cosine(quad, T):
    # int_0^T dt1 int_0^t1 dt2 cos(t1 - t2) = 1 - cos(T)
    out = integrate_simplex2(lambda t1s, t2s: as_mats(np.cos(t1s - t2s)), T, quad)
    tol = 1e-6 if quad.scheme == "simpson-uniform" else 1e-12
    assert out[0, 0] == pytest.approx(1.0 - math.cos(T), abs=tol)


@pytest.mark.parametrize("quad", BOTH, ids=lambda q: q.scheme)
def test_simplex3_difference_cosine(quad):
    # int over t >= t1 >= t2 >= t3 >= 0 of cos(t1 - t3) = 2 sin T - T cos T - T
    T = 1.0
    out = integrate_simplex3(contracted(lambda t1, t2, t3: np.cos(t1 - t3)), T, quad)
    target = 2.0 * math.sin(T) - T * math.cos(T) - T
    assert target == pytest.approx(0.1426396637, abs=1e-9)
    tol = 1e-6 if quad.scheme == "simpson-uniform" else 1e-12
    assert out[0, 0] == pytest.approx(target, abs=tol)


@pytest.mark.parametrize("quad", BOTH, ids=lambda q: q.scheme)
def test_simplex3_inner_weight_couples_t2_and_t3(quad):
    # int over t >= t1 >= t2 >= t3 >= 0 of cos(t2 - t3) = T - sin T; the
    # innermost integral is sin t2, so the t3 weights must follow each t2 node
    T = 1.0
    out = integrate_simplex3(contracted(lambda t1, t2, t3: np.cos(t2 - t3)), T, quad)
    tol = 1e-6 if quad.scheme == "simpson-uniform" else 1e-12
    assert out[0, 0] == pytest.approx(T - math.sin(T), abs=tol)


def test_simpson_fourth_order_on_simplex2():
    target = 1.0 - math.cos(1.0)
    errs = []
    for npu in (8, 16, 32):
        quad = QuadratureSpec("simpson-uniform", npu, 1e-8)
        out = integrate_simplex2(lambda t1s, t2s: as_mats(np.cos(t1s - t2s)), 1.0, quad)
        errs.append(abs(out[0, 0] - target))
    slopes = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    for s in slopes:
        assert 3.2 < s < 4.8


# --- matrix-valued integrands ---------------------------------------------------------


@pytest.mark.parametrize("quad", BOTH, ids=lambda q: q.scheme)
def test_matrix_integrand(quad):
    a = np.array([[1.0, 2.0], [3.0, -1.0]], dtype=complex)
    T = 1.1

    def f(ts):
        return ts[:, None, None] * a

    out = integrate_interval(f, T, quad)
    assert np.allclose(out, (T**2 / 2.0) * a, rtol=1e-12)


# --- zero-length integrals -------------------------------------------------------------


@pytest.mark.parametrize("quad", BOTH, ids=lambda q: q.scheme)
def test_zero_time_returns_zero_matrix(quad):
    f1 = lambda ts: np.broadcast_to(np.eye(2), (len(ts), 2, 2))
    f2 = lambda t1s, t2s: np.broadcast_to(np.eye(2), (len(t2s), 2, 2))
    f3 = lambda t1s, t2s, t3s, w3: np.broadcast_to(np.eye(2), (len(t2s), 2, 2))
    for out in (
        integrate_interval(f1, 0.0, quad),
        integrate_simplex2(f2, 0.0, quad),
        integrate_simplex3(f3, 0.0, quad),
    ):
        assert out.shape == (2, 2)
        assert np.all(out == 0.0)


# --- convergence order of the uniform scheme ---------------------------------------------


def test_simpson_fourth_order_on_sine():
    target = 1.0 - math.cos(1.0)
    errs = []
    for npu in (4, 8, 16):
        quad = QuadratureSpec("simpson-uniform", npu, 1e-8)
        out = integrate_interval(lambda ts: as_mats(np.sin(ts)), 1.0, quad)
        errs.append(abs(out[0, 0] - target))
    slopes = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    for s in slopes:
        assert 3.4 < s < 4.6


# --- cumulative weight rows ----------------------------------------------------------------


def test_start_row_coefficients():
    w = cumulative_weights(8, 0.5)
    assert np.allclose(w[1, :4], np.array([9.0, 19.0, -5.0, 1.0]) * (0.5 / 24.0), atol=0)
    assert np.all(w[1, 4:] == 0.0)
    assert np.all(w[0] == 0.0)


@pytest.mark.parametrize("n", [4, 5, 7, 8, 12])
def test_every_cumulative_row_integrates_cubics_exactly(n):
    h = 0.37
    nodes = h * np.arange(n + 1)
    w = cumulative_weights(n, h)
    for p in range(4):
        vals = nodes**p
        exact = nodes ** (p + 1) / (p + 1)
        assert np.allclose(w @ vals, exact, atol=1e-12 * max(1.0, exact[-1]))


# --- batched engines against a per-node loop ---------------------------------------------


def g2(t1, t2):
    """A smooth 2 x 2 integrand of (t1, t2), broadcast over array times."""
    t1, t2 = np.broadcast_arrays(t1, t2)
    return np.stack([np.stack([np.cos(t1 - 2.0 * t2), np.sin(t2) * t1], -1),
                     np.stack([np.exp(-t1 * t2), 1j * t1 * t2**2], -1)], -2)


def g3(t1, t2, t3):
    """A smooth 2 x 2 integrand of (t1, t2, t3), broadcast over array times."""
    return g2(t1, t2) * np.exp(1j * (t1 - 3.0 * t3))[..., None, None] + t3[..., None, None]


def batched3(t1s, t2s, t3s, w3):
    return np.einsum("bc,bcij->bij", w3, g3(t1s[:, None], t2s[:, None], t3s))


def simpson_rows(t, quad):
    """Grid nodes, cumulative weights and the support end of each row."""
    n = quad.intervals(t)
    cw = cumulative_weights(n, t / n)
    return np.linspace(0.0, t, n + 1), cw, [np.nonzero(row)[0].max(initial=0) for row in cw]


def gauss_rule(quad, t):
    x, w = np.polynomial.legendre.leggauss(quad.gauss_points(t))
    return (x + 1.0) / 2.0, w / 2.0


def loop_simplex2(g, t, quad):
    """The double sum, one outer node at a time."""
    total = np.zeros((2, 2), dtype=complex)
    if quad.scheme == "simpson-uniform":
        ts, cw, ends = simpson_rows(t, quad)
        for i in range(len(ts)):
            inner = slice(0, ends[i] + 1)
            total += cw[-1, i] * np.einsum("b,bij->ij", cw[i, inner], g(ts[i], ts[inner]))
        return total
    x, w = gauss_rule(quad, t)
    for t1, w1 in zip(t * x, t * w):
        total += w1 * np.einsum("b,bij->ij", t1 * w, g(t1, t1 * x))
    return total


def loop_simplex3(g, t, quad):
    """The triple sum, one outer node at a time."""
    total = np.zeros((2, 2), dtype=complex)
    if quad.scheme == "simpson-uniform":
        ts, cw, ends = simpson_rows(t, quad)
        for i in range(len(ts)):
            for j in range(ends[i] + 1):
                inner = slice(0, ends[j] + 1)
                total += cw[-1, i] * cw[i, j] * np.einsum(
                    "c,cij->ij", cw[j, inner], g(ts[i], ts[j], ts[inner]))
        return total
    x, w = gauss_rule(quad, t)
    for t1, w1 in zip(t * x, t * w):
        for t2, w2 in zip(t1 * x, t1 * w):
            total += w1 * w2 * np.einsum("c,cij->ij", t2 * w, g(t1, t2, t2 * x))
    return total


ENGINE_CASES = [
    # t = 0; 21 Gauss points (441 pairs, a partial last chunk); the 96-node cap
    (GL, 0.0), (GL, 1.3), (GL, 7.0),
    # t = 0; odd interval counts 5 and 7; every grid starts with the short
    # rows m < 3, whose support reaches ahead of the node
    (SIMPSON, 0.0), (QuadratureSpec("simpson-uniform", 5), 1.0),
    (QuadratureSpec("simpson-uniform", 7), 1.0), (SIMPSON, 1.3),
]


@pytest.mark.parametrize("quad, t", ENGINE_CASES, ids=lambda v: getattr(v, "scheme", v))
def test_batched_engines_match_a_per_node_loop(quad, t):
    if quad.scheme == "gauss-legendre-nested" and t == 7.0:
        assert quad.gauss_points(t) == 96
    pairs = [
        (integrate_simplex2(lambda t1s, t2s: g2(t1s, t2s), t, quad), loop_simplex2(g2, t, quad)),
        (integrate_simplex3(batched3, t, quad), loop_simplex3(g3, t, quad)),
    ]
    for out, ref in pairs:
        if t == 0.0:
            assert out.shape == (2, 2) and np.all(out == 0.0) and np.all(ref == 0.0)
        else:
            assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("t", [0.0, 1.3])
@pytest.mark.parametrize("quad", BOTH, ids=lambda q: q.scheme)
def test_stacked_integrand_equals_separate_calls(quad, t):
    # an integrand may return (B, S, D, D); each of its S matrices integrates
    # as it would alone, and at t = 0 the zero keeps the stacked shape
    def h3(t1s, t2s, t3s, w3):
        return 2.0 * batched3(t1s, t2s, t3s, w3) - t1s[:, None, None]

    cases = [
        (integrate_interval, lambda ts: g2(ts, 0.5 * ts), lambda ts: g2(0.3 * ts, ts)),
        (integrate_simplex2, g2, lambda t1s, t2s: g2(t2s, t1s) * t1s[:, None, None]),
        (integrate_simplex3, batched3, h3),
    ]
    for engine, f, g in cases:
        stacked = engine(lambda *a: np.stack([f(*a), g(*a)], axis=1), t, quad)
        separate = np.stack([engine(f, t, quad), engine(g, t, quad)])
        assert stacked.shape == (2, 2, 2)
        if t == 0.0:
            assert np.all(stacked == 0.0) and np.all(separate == 0.0)
        else:
            assert np.linalg.norm(stacked - separate) <= 1e-14 * np.linalg.norm(separate)


@pytest.mark.parametrize("quad", BOTH, ids=lambda q: q.scheme)
def test_no_integrand_call_exceeds_the_chunk(quad):
    T = 2.5  # 40 Gauss points or 41 grid nodes: well over one chunk of pairs
    calls = []

    def f2(t1s, t2s):
        calls.append((t1s.shape, t2s.shape))
        return g2(t1s, t2s)

    def f3(t1s, t2s, t3s, w3):
        assert t3s.shape == w3.shape == (t1s.size, t3s.shape[1])
        calls.append((t1s.shape, t2s.shape))
        return batched3(t1s, t2s, t3s, w3)

    for engine, f in ((integrate_simplex2, f2), (integrate_simplex3, f3)):
        calls.clear()
        engine(f, T, quad)
        assert len(calls) > 1
        assert all(s1 == s2 and len(s1) == 1 and 1 <= s1[0] <= _CHUNK_PAIRS for s1, s2 in calls)
        if quad.scheme == "gauss-legendre-nested":
            assert sum(s1[0] for s1, _ in calls) == quad.gauss_points(T) ** 2
