"""Finite measures: Fourier transforms, Poisson smoothing, Herglotz recovery, Bochner tests."""

import math

import numpy as np
import pytest

from speclab import (
    FiniteMeasure,
    extract_atoms,
    halfplane_window,
    herglotz_recover,
    measure_fourier,
    measure_from_json,
    measure_to_json,
    poisson_smooth,
    positive_definite_test,
)


def poisson_density(x, y):
    return (y / np.pi) / (x * x + y * y)


def random_positive_atoms(rng, max_atoms=5):
    k = int(rng.integers(1, max_atoms + 1))
    locs = rng.uniform(-4.0, 4.0, size=k)
    masses = rng.uniform(0.1, 2.0, size=k)
    return FiniteMeasure.from_atoms(list(zip(locs, masses)))


# ---------------------------------------------------------------- fourier transform

def test_point_mass_at_origin_flat_transform():
    mu = FiniteMeasure.from_atoms([(0.0, 1.0)])
    for w in (-3.0, 0.0, 0.5, 11.0):
        assert measure_fourier(mu, w) == pytest.approx(1.0)


def test_shifted_atom_phase():
    a = 1.7
    mu = FiniteMeasure.from_atoms([(a, 1.0)])
    for w in (-2.0, 0.3, 5.0):
        assert measure_fourier(mu, w) == pytest.approx(np.exp(-1j * a * w), abs=1e-14)


def test_poisson_density_transform_decays_exponentially():
    y = 1.0
    half = 3.2e4
    grid = np.arange(-half, half + 0.125, 0.25)
    mu = FiniteMeasure.from_density(grid, poisson_density(grid, y))
    for w in np.linspace(-10.0, 10.0, 41):
        assert abs(measure_fourier(mu, float(w)) - np.exp(-y * abs(w))) < 1e-4


def test_transform_bounded_by_total_variation():
    rng = np.random.default_rng(2)
    grid = np.linspace(-5.0, 5.0, 2001)
    dens = np.exp(-grid ** 2) * (1.0 + 0.5j)
    mu = FiniteMeasure(atoms=((0.3, -0.7 + 0.2j), (-1.0, 1.5)),
                       density_grid=grid, density_values=dens)
    tv = mu.total_variation()
    ws = rng.uniform(-20.0, 20.0, size=64)
    vals = measure_fourier(mu, ws)
    assert vals.shape == (64,)
    assert np.max(np.abs(vals)) <= tv + 1e-12


def test_fourier_uniqueness_probe():
    # distinct two-atom measures must separate somewhere on a 64-point probe;
    # matching transforms on the probe pin the representation atom for atom
    rng = np.random.default_rng(4)
    probe = np.linspace(-8.0, 8.0, 64)
    for _ in range(25):
        mu = FiniteMeasure.from_atoms(
            [(rng.uniform(-3, 3), rng.uniform(0.2, 2)) for _ in range(2)])
        nu = FiniteMeasure.from_atoms(
            [(rng.uniform(-3, 3), rng.uniform(0.2, 2)) for _ in range(2)])
        gap = np.max(np.abs(measure_fourier(mu, probe) - measure_fourier(nu, probe)))
        assert gap > 1e-8

    mu = FiniteMeasure.from_atoms([(-0.5, 1.0), (2.0, 0.25)])
    nu = FiniteMeasure.from_atoms([(2.0, 0.25), (-0.5, 1.0)])  # same measure, reordered
    assert np.max(np.abs(measure_fourier(mu, probe) - measure_fourier(nu, probe))) < 1e-14
    assert sorted(mu.atoms) == sorted(nu.atoms)


def test_density_transform_matches_direct_trapezoid_sum():
    # oracle: the M x N phase matrix summed by np.trapezoid; grids cover the
    # factored (arithmetic) path at large offsets and odd sizes, and the
    # chunked path on grids perturbed off arithmetic within the uniformity check
    rng = np.random.default_rng(12)
    base = np.linspace(-50.0, 50.0, 5000)
    grids = [
        np.arange(-3.2e4, 3.2e4 + 0.125, 0.25)[::7],
        np.linspace(1e5, 1e5 + 3.0, 2),
        np.linspace(0.0, 1.0, 3),
        np.linspace(-7.3, 11.1, 1001),
        np.arange(1e3, 1e3 + 10.0, 0.1),
        base + 5e-11 * rng.standard_normal(base.size),
        np.linspace(-5.0, 5.0, 40000) + 1e-13 * rng.standard_normal(40000),
    ]
    for g in grids:
        v = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
        w = rng.uniform(-20.0, 20.0, size=(3, 7))
        got = measure_fourier(FiniteMeasure.from_density(g, v), w)
        ref = np.trapezoid(np.exp(-1j * np.multiply.outer(w, g)) * v, g, axis=-1)
        assert got.shape == w.shape
        # phase roundoff of either route is ~eps |w x| per term
        scale = np.finfo(float).eps * 20.0 * np.max(np.abs(g)) * np.trapezoid(np.abs(v), g)
        assert np.max(np.abs(got - ref)) <= 16.0 * scale + 1e-14


# ---------------------------------------------------------------- poisson smoothing

def test_smooth_point_mass_gives_kernel():
    grid = np.linspace(-5.0, 5.0, 1001)
    out = poisson_smooth(FiniteMeasure.from_atoms([(0.0, 1.0)]), 0.7, grid)
    assert out.atoms == ()
    np.testing.assert_allclose(out.density_values, poisson_density(grid, 0.7), atol=1e-12)


def test_smooth_rejects_bad_y():
    with pytest.raises(ValueError):
        poisson_smooth(FiniteMeasure.from_atoms([(0.0, 1.0)]), 0.0, np.linspace(-1, 1, 11))


def test_smooth_is_linear():
    grid = np.linspace(-10.0, 10.0, 2001)
    mu = FiniteMeasure.from_atoms([(-1.0, 0.5), (2.0, 1.0 - 0.5j)])
    nu = FiniteMeasure(atoms=((0.5, 0.25),), density_grid=grid,
                       density_values=np.exp(-grid ** 2).astype(complex))
    combined = FiniteMeasure(atoms=mu.atoms + nu.atoms,
                             density_grid=grid, density_values=nu.density_values)
    y = 0.4
    lhs = poisson_smooth(combined, y, grid).density_values
    rhs = poisson_smooth(mu, y, grid).density_values + poisson_smooth(nu, y, grid).density_values
    assert np.max(np.abs(lhs - rhs)) < 1e-12

    c = 2.0 - 1.0j
    lhs = poisson_smooth(mu.scaled(c), y, grid).density_values
    assert np.max(np.abs(lhs - c * poisson_smooth(mu, y, grid).density_values)) < 1e-12


def test_smooth_preserves_unit_mass():
    # window twice the 1e-6 tail bound; step fine enough that the periodic
    # aliasing excess stays under the analytic tail, keeping mass <= 1
    y = 1.0
    half = 2.0 * halfplane_window(y)
    grid = np.arange(-half, half + 0.2, 0.4)
    mu = FiniteMeasure.from_atoms([(-5.25, 0.6), (3.1, 0.4)])
    mass = poisson_smooth(mu, y, grid).total_mass().real
    assert 1.0 - 1e-6 <= mass <= 1.0


def test_smooth_weak_star_on_gaussian_bump():
    mu = FiniteMeasure.from_atoms([(-0.7, 0.5), (1.2, 0.5)])
    bump = lambda x: np.exp(-x * x)
    want = sum(m.real * bump(x) for x, m in mu.atoms)
    grid = np.linspace(-20.0, 20.0, 20001)
    errs = []
    for y in (0.5, 0.1, 0.02):
        dens = poisson_smooth(mu, y, grid).density_values
        got = np.trapezoid(bump(grid) * dens, grid).real
        errs.append(abs(got - want))
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------- herglotz recovery

def two_atom_extension(masses_locs):
    # evaluator of z = x + iy, as herglotz_recover probes it
    def u(z):
        x, y = np.real(z), np.imag(z)
        return sum(m * poisson_density(x - a, y) for a, m in masses_locs)

    return u


def test_herglotz_single_atom_round_trip():
    u = two_atom_extension([(0.0, 1.0)])
    slice_measure = herglotz_recover(u, 1e-3, (-1.0, 1.0))
    atoms = extract_atoms(slice_measure, 1e-3)
    assert len(atoms.atoms) == 1
    loc, mass = atoms.atoms[0]
    assert abs(loc) < 1e-3
    assert abs(mass.real - 1.0) <= 0.02


def test_herglotz_two_atoms_within_two_percent():
    u = two_atom_extension([(-1.0, 2.0), (1.0, 3.0)])
    atoms = extract_atoms(herglotz_recover(u, 1e-3, (-2.0, 2.0)), 1e-3)
    got = sorted((x, m.real) for x, m in atoms.atoms)
    assert len(got) == 2
    assert abs(got[0][0] + 1.0) < 1e-2 and abs(got[1][0] - 1.0) < 1e-2
    assert abs(got[0][1] - 2.0) <= 0.02 * 2.0
    assert abs(got[1][1] - 3.0) <= 0.02 * 3.0


def test_herglotz_error_monotone_in_eps():
    u = two_atom_extension([(-1.0, 2.0), (1.0, 3.0)])
    errs = []
    for eps in (0.1, 0.01, 0.001):
        atoms = extract_atoms(herglotz_recover(u, eps, (-2.0, 2.0)), eps)
        got = sorted((x, m.real) for x, m in atoms.atoms)
        errs.append(abs(got[0][1] - 2.0) + abs(got[1][1] - 3.0))
    assert errs[0] >= errs[1] >= errs[2]


def test_herglotz_rejects_negative_and_complex_samples():
    base = two_atom_extension([(0.0, 1.0)])
    with pytest.raises(ValueError):
        herglotz_recover(lambda z: base(z) - 0.01, 1e-3, (-5.0, 5.0))
    with pytest.raises(ValueError):
        herglotz_recover(lambda z: base(z) + 1e-6j, 1e-3, (-1.0, 1.0))


def test_herglotz_mass_bound():
    # pi * y * U(x + iy) never exceeds the recovered total mass (plus slack)
    u = two_atom_extension([(-1.0, 2.0), (1.0, 3.0)])
    total = herglotz_recover(u, 1e-3, (-2.0, 2.0)).total_mass().real
    for x, y in ((0.0, 0.5), (0.3, 2.0), (-1.0, 1.0), (4.0, 10.0)):
        assert np.pi * y * u(x + 1j * y) <= total + 0.15


# ---------------------------------------------------------------- bochner verdicts

def test_exponential_kernel_is_pd():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-5.0, 5.0, size=16)
    verdict = positive_definite_test(lambda x: np.exp(-abs(x)), pts)
    assert verdict.is_pd
    assert verdict.min_eigenvalue >= -1e-9
    assert verdict.verdict == "PD"
    # a scalar-only function is sampled entry by entry, to the same verdict
    scalar = positive_definite_test(lambda x: math.exp(-abs(x)), pts)
    assert scalar.is_pd == verdict.is_pd
    assert abs(scalar.min_eigenvalue - verdict.min_eigenvalue) <= 1e-15


def test_cosine_is_pd():
    pts = np.linspace(-3.0, 3.0, 9)
    assert positive_definite_test(np.cos, pts).is_pd


def test_square_is_not_pd():
    verdict = positive_definite_test(lambda x: x * x, [0.0, 1.0, 2.0])
    assert not verdict.is_pd
    assert verdict.min_eigenvalue < -1e-9
    assert verdict.verdict == "not-PD"


def test_odd_function_fails_symmetry_precheck():
    # f(-x) != conj(f(x)) is a structural failure, reported before any verdict
    with pytest.raises(ValueError):
        positive_definite_test(lambda x: x, [0.0, 1.0])


def test_transforms_of_positive_measures_are_pd():
    rng = np.random.default_rng(8)
    for _ in range(50):
        mu = random_positive_atoms(rng)
        pts = rng.uniform(-3.0, 3.0, size=int(rng.integers(4, 12)))
        f = lambda x, mu=mu: measure_fourier(mu, x)
        assert positive_definite_test(f, pts).is_pd


# ---------------------------------------------------------------- plumbing

def test_measure_validation_and_properties(bad_grids):
    with pytest.raises(ValueError):
        FiniteMeasure(density_grid=np.array([0.0, 1.0]), density_values=None)
    for grid, values, reason in bad_grids:
        with pytest.raises(ValueError, match=f"^FiniteMeasure density: .*{reason}"):
            FiniteMeasure.from_density(grid, values)
    with pytest.raises(ValueError, match="non-finite"):
        FiniteMeasure.from_density(np.array([0.0, 1.0]), np.array([0.0, np.nan]))
    mu = FiniteMeasure.from_atoms([(0.0, 1.0), (2.0, -0.5)])
    assert mu.total_mass() == pytest.approx(0.5)
    assert mu.total_variation() == pytest.approx(1.5)
    assert not mu.is_positive()
    assert FiniteMeasure.from_atoms([(0.0, 1.0)]).is_positive()


def test_measure_json_round_trip():
    grid = np.linspace(-1.0, 1.0, 21)
    mu = FiniteMeasure(atoms=((0.5, 1.0 - 2.0j),), density_grid=grid,
                       density_values=np.cos(grid) + 0.1j * grid)
    back = measure_from_json(measure_to_json(mu))
    assert back.atoms == mu.atoms
    np.testing.assert_allclose(back.density_grid, grid, atol=1e-12)  # grid0 + step form
    np.testing.assert_allclose(back.density_values, mu.density_values, atol=1e-15)
