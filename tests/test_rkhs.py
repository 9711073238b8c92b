"""Disc kernels, span arithmetic, multiplier adjoints, Dirichlet-seminorm invariance."""

import numpy as np
import pytest

from speclab import (
    KERNEL_NAMES,
    Kernel,
    SpanElement,
    compose_mobius,
    compose_power,
    dirichlet_kernel,
    dirichlet_seminorm,
    dirichlet_seminorm_quad,
    disc_quadrature,
    gram,
    hardy_kernel,
    harmonic_hardy_kernel,
    kernel_by_name,
    kernel_from_gram,
    multiplier_adjoint_check,
    poly_derivative,
    poly_eval,
    reproduce,
)
from speclab.linalg_core import _sample

HARDY = kernel_by_name("hardy")


def random_disc_points(rng, n, radius=0.95):
    r = radius * np.sqrt(rng.uniform(0, 1, n))
    th = rng.uniform(0, 2 * np.pi, n)
    return r * np.exp(1j * th)


# ---------------------------------------------------------------- kernel values

def test_hardy_kernel_at_origin():
    for w in (0.0, 0.3 + 0.4j, -0.9):
        assert hardy_kernel(0.0, w) == pytest.approx(1.0)


def test_hardy_gram_hand_values():
    np.testing.assert_allclose(gram(HARDY, [0.0]), [[1.0]])
    g = gram(HARDY, [0.0, 0.5])
    np.testing.assert_allclose(g, [[1.0, 1.0], [1.0, 4.0 / 3.0]], atol=1e-14)


def test_harmonic_hardy_diagonal_value():
    # (1 + |z|^2) / (1 - |z|^2) at z = 1/2
    assert harmonic_hardy_kernel(0.5, 0.5) == pytest.approx(5.0 / 3.0)


def test_dirichlet_kernel_series_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = random_disc_points(rng, 1, radius=0.6)[0]
        w = random_disc_points(rng, 1, radius=0.6)[0]
        s = np.conjugate(w) * z
        series = sum(s ** n / (n + 1) for n in range(21))
        assert abs(dirichlet_kernel(z, w) - series) <= 1e-10


def test_dirichlet_kernel_series_limit_at_zero():
    assert dirichlet_kernel(0.0, 0.3) == pytest.approx(1.0)
    assert dirichlet_kernel(0.4j, 0.0) == pytest.approx(1.0)


def test_kernels_reject_points_outside_disc():
    with pytest.raises(ValueError):
        hardy_kernel(1.0, 0.5)
    with pytest.raises(ValueError):
        dirichlet_kernel(0.5, 1.2)
    with pytest.raises(ValueError):
        gram(HARDY, [0.5, 2.0])
    # one bad point in an array is named, whichever argument holds it
    for name in KERNEL_NAMES:
        with pytest.raises(ValueError, match=r"w = \(1\.2\+0j\)"):
            kernel_by_name(name).evaluate(0.5, np.array([0.1, 1.2, 0.3j]))
        with pytest.raises(ValueError, match="z = "):
            kernel_by_name(name).evaluate(np.array([[0.0], [-1.0]]), 0.5)
    with pytest.raises(ValueError, match=r"point = \(0\.9\+0\.9j\)"):
        HARDY.check_point(np.array([0.1, 0.9 + 0.9j, 2.0]))


def test_check_point_rejects_nan_on_every_domain():
    ev = lambda x, y: 0.0 * x * y
    kernels = [HARDY, Kernel("unit", "interval", ev, (0.0, 1.0)), kernel_from_gram([0.0, 0.5], np.eye(2))]
    for k in kernels:
        k.check_point(np.array([0.0, 0.5]))
        for bad in (np.nan, complex(0.5, np.nan), np.array([0.0, np.nan])):
            with pytest.raises(ValueError, match="nan"):
                k.check_point(bad)
            with pytest.raises(ValueError):
                gram(k, np.atleast_1d(bad))
    with pytest.raises(ValueError, match=r"point \(1\.5\+0j\) outside \[0\.0, 1\.0\]"):
        kernels[1].check_point(np.array([0.25, 1.5, -1.0]))


def test_broadcast_gram_matches_scalar_calls():
    # s = conj(w) z: exactly 0 at z = 0, either side of the |s| = 1e-2 series switch
    # for pairs with 0.95, and close to the boundary between 0.95 and 0.95j
    pts = np.array([0.0, 0.95, 0.95j, 0.0099 / 0.95 * np.exp(0.7j),
                    0.0101 / 0.95 * np.exp(-2.1j), 0.3 - 0.4j])
    s = np.abs(np.conj(pts)[None, :] * pts[:, None])
    assert np.any(s == 0.0) and np.any((s > 0.0098) & (s < 1e-2)) and np.any((s > 1e-2) & (s < 0.0102))
    for name in KERNEL_NAMES:
        k = kernel_by_name(name)
        scalar = [[k.evaluate(complex(z), complex(w)) for w in pts] for z in pts]
        assert all(np.isscalar(v) for row in scalar for v in row)
        np.testing.assert_allclose(gram(k, pts), np.array(scalar), rtol=1e-15, atol=0.0)


def test_registry_contents_and_lookup_failure():
    assert KERNEL_NAMES == ("dirichlet", "hardy", "harmonic-hardy")
    for name in KERNEL_NAMES:
        assert kernel_by_name(name).name == name
    with pytest.raises(ValueError, match="unknown kernel"):
        kernel_by_name("bergman")


def test_hermitian_symmetry_probes():
    rng = np.random.default_rng(5)
    for name in KERNEL_NAMES:
        k = kernel_by_name(name)
        for _ in range(25):
            z, w = random_disc_points(rng, 2)
            assert abs(k.evaluate(z, w) - np.conjugate(k.evaluate(w, z))) < 1e-12


def test_all_kernels_psd_on_random_point_sets():
    # 200 point sets, sizes 2..12, split over the builtin kernels
    rng = np.random.default_rng(7)
    for trial in range(200):
        k = kernel_by_name(KERNEL_NAMES[trial % len(KERNEL_NAMES)])
        pts = random_disc_points(rng, int(rng.integers(2, 13)))
        g = gram(k, pts)
        assert np.max(np.abs(g - g.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(g).min() >= -1e-9


def test_gram_random_hardy_min_eigenvalue():
    pts = random_disc_points(np.random.default_rng(9), 12)
    assert np.linalg.eigvalsh(gram(HARDY, pts)).min() >= -1e-10


def test_kernel_from_gram_finite_set():
    pts = [0.0, 0.5j, -0.25]
    base = gram(HARDY, pts)
    k = kernel_from_gram(pts, base)
    np.testing.assert_allclose(gram(k, pts), base, atol=1e-14)
    with pytest.raises(ValueError):
        k.evaluate(0.1, 0.5j)  # not in the finite domain
    # the lookup broadcasts: one evaluator call gives the base matrix bit for bit
    calls = []
    counting = Kernel(k.name, k.domain, lambda x, y: calls.append(1) or k.evaluate(x, y), k.domain_data)
    shuffled = [pts[2], pts[0], pts[1], pts[0]]
    assert np.array_equal(gram(counting, pts), base)
    assert np.array_equal(gram(counting, shuffled), base[np.ix_([2, 0, 1, 0], [2, 0, 1, 0])])
    assert len(calls) == 2
    # within 1e-12 of a ground point counts as that point; anything else is named
    assert k.evaluate(0.5j + 1e-13, -0.25) == base[1, 2]
    with pytest.raises(ValueError, match=r"point \(0\.1\+0j\) not in the kernel's finite ground set"):
        k.check_point(np.array([0.0, 0.1, 0.2]))


def per_set_gram(k, points):
    """gram as it was formed for one point set at a time: the reference for the stacked route."""
    z = np.array([complex(p) for p in points])
    k.check_point(z)
    return _sample(k.evaluate, z[:, None], z[None, :])


@pytest.mark.parametrize("size", [1, 2, 7, 12])
def test_stacked_gram_equals_per_set_gram(size):
    rng = np.random.default_rng(size)
    stack = random_disc_points(rng, 4 * 3 * size).reshape(4, 3, size)
    stack[0, 0, 0] = 0.0  # s = conj(w) z exactly 0
    stack[1] *= 0.05  # |s| < 1e-2: the Dirichlet kernel's series branch
    ground = stack[2, 0]
    finite = kernel_from_gram(ground, gram(HARDY, ground))
    cases = [(kernel_by_name(name), stack) for name in KERNEL_NAMES]
    cases.append((finite, ground[rng.integers(0, size, (4, 3, size))]))
    for k, points in cases:
        got = gram(k, points)
        assert got.shape == (4, 3, size, size)
        for idx in np.ndindex(4, 3):
            want = per_set_gram(k, points[idx])
            assert got.dtype == want.dtype == gram(k, list(points[idx])).dtype
            np.testing.assert_array_equal(got[idx], want, strict=True)
    assert gram(kernel_by_name("harmonic-hardy"), stack).dtype == np.float64  # a real kernel stays real


def test_gram_rejects_a_scalar_and_empty_point_sets():
    with pytest.raises(ValueError, match=r"1-d sequence or a \(\.\.\., n\) stack"):
        gram(HARDY, 0.5)
    for empty in ([], np.zeros((3, 0), dtype=complex)):
        with pytest.raises(ValueError, match="need at least one point"):
            gram(HARDY, empty)
    with pytest.raises(ValueError, match="outside the open unit disc"):
        gram(HARDY, np.array([[0.1, 0.2], [0.3, 1.5]]))  # a bad point anywhere in the stack


# ---------------------------------------------------------------- span elements

def test_reproducing_identity():
    x0 = 0.3 + 0.2j
    f = SpanElement(HARDY, [x0], [1.0])
    for x in (0.0, 0.5, -0.4j):
        assert abs(reproduce(f, x) - hardy_kernel(x, x0)) < 1e-14


def test_zero_span_vanishes():
    f = SpanElement(HARDY, [0.2, 0.4j], [0.0, 0.0])
    assert reproduce(f, 0.7) == 0
    assert f.norm_squared() == 0.0


def test_norm_via_gram_matches_reproduce_pairing():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        pts = random_disc_points(rng, n, radius=0.8)
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = SpanElement(HARDY, pts, coeffs)
        nsq = f.norm_squared()
        assert nsq >= -1e-10
        pairing = sum(np.conjugate(a) * reproduce(f, x) for a, x in zip(coeffs, pts))
        assert abs(pairing.imag) < 1e-10 * (1 + abs(pairing))
        assert abs(nsq - pairing.real) < 1e-10 * (1 + abs(pairing))


def test_pointwise_bound_and_hardy_growth():
    rng = np.random.default_rng(13)
    for _ in range(50):
        pts = random_disc_points(rng, 4, radius=0.7)
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f = SpanElement(HARDY, pts, coeffs)
        z = random_disc_points(rng, 1, radius=0.9)[0]
        bound = f.norm() * np.sqrt(hardy_kernel(z, z).real)
        assert abs(reproduce(f, z)) <= bound + 1e-10
        assert abs(reproduce(f, z)) <= f.norm() / np.sqrt(1 - abs(z) ** 2) + 1e-10


def test_hardy_coefficient_boundary_consistency():
    # sum |a_n|^2 = (1/2pi) int |f(e^it)|^2 dt for polynomials
    rng = np.random.default_rng(17)
    t = np.linspace(-np.pi, np.pi, 2049)[:-1]
    for _ in range(20):
        deg = int(rng.integers(0, 12))
        a = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        boundary = poly_eval(a, np.exp(1j * t))
        quad = float(np.sum(np.abs(boundary) ** 2)) * (2 * np.pi / t.size) / (2 * np.pi)
        want = float(np.sum(np.abs(a) ** 2))
        assert abs(quad - want) < 1e-10 * (1 + want)


# ---------------------------------------------------------------- multiplier adjoint

def test_constant_symbol_adjoint_is_scalar():
    pts = [0.0, 0.25, -0.3 + 0.1j]
    report = multiplier_adjoint_check([2.0 - 1.0j], HARDY, pts, n_trunc=32)
    assert report.max_residual <= 1e-12


def test_coordinate_symbol_geometric_tail():
    # adjoint shift on truncated kernels: residual is the pure series tail
    rng = np.random.default_rng(19)
    pts = list(random_disc_points(rng, 8, radius=0.5)) + [0.5, -0.5, 0.5j]
    report = multiplier_adjoint_check((0.0, 1.0), HARDY, pts, n_trunc=64)
    assert report.max_residual <= 2.0 * 0.5 ** 64
    assert report.truncation == 64


def test_residual_shrinks_with_truncation():
    pts = [0.5, 0.4 - 0.2j]
    res = [multiplier_adjoint_check((0.0, 1.0), HARDY, pts, n_trunc=n).max_residual
           for n in (8, 16, 32)]
    assert res[0] > res[1] > res[2]


def test_evaluator_symbol_agrees_with_coefficients():
    pts = [0.3, -0.2 + 0.4j]
    r1 = multiplier_adjoint_check(lambda z: 1.0 + 0.5 * z, HARDY, pts, n_trunc=32)
    r2 = multiplier_adjoint_check((1.0, 0.5), HARDY, pts, n_trunc=32)
    np.testing.assert_allclose(r1.residuals, r2.residuals, atol=1e-10)
    # DFT-recovered coefficients carry float noise; exact sequences do not
    assert r2.max_residual <= 2.0 * 0.5 ** 32


def test_multiplier_norm_dominates_symbol():
    rng = np.random.default_rng(23)
    pts = random_disc_points(rng, 12, radius=0.8)
    coeffs = (0.5, -1.0, 0.25j)
    report = multiplier_adjoint_check(coeffs, HARDY, pts, n_trunc=32)
    sup = max(abs(poly_eval(coeffs, z)) for z in pts)
    assert report.multiplier_norm >= sup - 1e-10


def test_probe_point_outside_disc_rejected():
    for bad in (1.0, 0.6 + 0.8j, np.nan):
        with pytest.raises(ValueError, match="probe point = "):
            multiplier_adjoint_check((0.0, 1.0), HARDY, [0.2, bad], n_trunc=16)


def test_high_degree_symbol_rejected():
    with pytest.raises(ValueError):
        multiplier_adjoint_check(np.ones(40), HARDY, [0.1], n_trunc=64)
    with pytest.raises(ValueError):
        multiplier_adjoint_check(lambda z: z ** 40, HARDY, [0.1], n_trunc=64)


# ---------------------------------------------------------------- dirichlet seminorm

def test_identity_map_has_unit_seminorm():
    assert dirichlet_seminorm([0.0, 1.0]) == pytest.approx(1.0)


def test_seminorm_coefficients_vs_quadrature():
    rng = np.random.default_rng(29)
    for _ in range(10):
        deg = int(rng.integers(1, 17))
        a = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        da = poly_derivative(a)
        quad = dirichlet_seminorm_quad(lambda z: poly_eval(da, z))
        want = dirichlet_seminorm(a)
        assert abs(quad - want) <= 1e-6 * (1 + want)


def test_power_composition_multiplies_seminorm():
    rng = np.random.default_rng(31)
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    base = dirichlet_seminorm(a)
    for n in (2, 3):
        assert abs(dirichlet_seminorm(compose_power(a, n)) - n * base) <= 1e-8 * (1 + base)


def test_mobius_composition_preserves_seminorm():
    rng = np.random.default_rng(37)
    for _ in range(5):
        a = rng.standard_normal(9) + 1j * rng.standard_normal(9)  # degree 8
        u = rng.uniform(0.2, 0.8)
        center = u * np.exp(2j * np.pi * rng.uniform())
        phase = np.exp(2j * np.pi * rng.uniform())
        composed = compose_mobius(a, center, phase)
        quad = dirichlet_seminorm_quad(composed.derivative)
        want = dirichlet_seminorm(a)
        assert abs(quad - want) <= 1e-6 * (1 + want)


def test_mobius_requires_interior_center():
    with pytest.raises(ValueError):
        compose_mobius([0.0, 1.0], 1.0, 1.0)
    with pytest.raises(ValueError):
        compose_mobius([0.0, 1.0], 0.5, 2.0)  # |v| != 1


def test_degree_cap_enforced():
    with pytest.raises(ValueError):
        dirichlet_seminorm(np.ones(40))


def test_disc_quadrature_total_mass():
    nodes, weights = disc_quadrature()
    assert abs(np.sum(weights) - np.pi) < 1e-10
    assert np.max(np.abs(nodes)) < 1.0


@pytest.mark.parametrize("n_radial", [1, 2, 7, 64, 199])
def test_disc_quadrature_radial_rule_is_gauss_legendre_on_unit_interval(n_radial):
    x, w = np.polynomial.legendre.leggauss(n_radial)
    r, wr = (x + 1.0) / 2.0, w / 2.0
    nodes, weights = disc_quadrature(n_radial, 3)
    assert np.array_equal(np.abs(nodes[::3]), r)
    assert np.array_equal(weights[::3], wr * r * (2.0 * np.pi / 3))


@pytest.mark.parametrize("sizes, name", [((4, 0), "n_angular"), ((4, -3), "n_angular"), ((0, 8), "n_radial")])
def test_disc_quadrature_rejects_sizes_below_one(sizes, name):
    # before: ZeroDivisionError, "negative dimensions are not allowed", and a
    # message about gauss_legendre_grid's panels and per_panel
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got "):
        disc_quadrature(*sizes)
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got "):
        dirichlet_seminorm_quad(lambda z: np.ones_like(z), *sizes)


def test_composed_function_chain_rule():
    a = np.array([0.5, -1.0, 2.0])  # f(z) = 0.5 - z + 2 z^2
    composed = compose_mobius(a, 0.3, 1.0)
    h = 1e-6
    for z in (0.1, -0.2 + 0.3j):
        fd = (composed.value(z + h) - composed.value(z - h)) / (2 * h)
        assert abs(composed.derivative(z) - fd) < 1e-6
