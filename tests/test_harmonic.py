"""Fourier coefficients, the DFT, Poisson integrals, and the twisted momentum model."""

import json
import re

import numpy as np
import pytest

from speclab import (
    FiniteMeasure,
    FourierSeries,
    SampledBoundaryFunction,
    boundary_from_csv,
    boundary_to_csv,
    dft,
    fourier_coefficients,
    halfplane_window,
    herglotz_recover,
    inverse_dft,
    momentum_model,
    poisson_disc,
    poisson_halfplane,
    poisson_smooth,
    series_from_json,
    series_to_json,
)

TWO_PI = 2.0 * np.pi


def random_trig_poly(rng, degree):
    coeffs = rng.standard_normal(2 * degree + 1) + 1j * rng.standard_normal(2 * degree + 1)
    modes = np.arange(-degree, degree + 1)

    def f(t):
        t = np.asarray(t, dtype=float)
        return np.exp(1j * np.multiply.outer(t, modes)) @ coeffs

    return f, modes, coeffs


# ---------------------------------------------------------------- fourier series

def test_single_exponential_picks_one_mode():
    f = SampledBoundaryFunction.on_circle(lambda t: np.exp(3j * t))
    series = fourier_coefficients(f, 5)
    for n in range(-5, 6):
        want = TWO_PI if n == 3 else 0.0
        assert abs(series.coefficient(n) - want) < 1e-12


def test_constant_boundary_data():
    f = SampledBoundaryFunction.on_circle(lambda t: np.ones_like(t))
    series = fourier_coefficients(f, 4)
    assert abs(series.coefficient(0) - TWO_PI) < 1e-12
    assert all(abs(series.coefficient(n)) < 1e-12 for n in range(1, 5))


def test_cosine_splits_into_two_modes():
    # cos t = (e^{it} + e^{-it})/2, so c(+-1) = pi
    f = SampledBoundaryFunction.on_circle(np.cos)
    series = fourier_coefficients(f, 3)
    assert abs(series.coefficient(1) - np.pi) < 1e-12
    assert abs(series.coefficient(-1) - np.pi) < 1e-12
    assert abs(series.coefficient(0)) < 1e-12
    assert abs(series.coefficient(2)) < 1e-12


def test_exact_up_to_aliasing_limit():
    # 64 samples resolve trig polynomials up to degree 31 exactly, as do 65; the
    # shifted grids start at t_0 = 0.3 instead of on_circle's -pi
    rng = np.random.default_rng(3)
    f, modes, coeffs = random_trig_poly(rng, 31)
    samples = [SampledBoundaryFunction.on_circle(f, n=64)]
    samples += [SampledBoundaryFunction(t, f(t)) for t in (0.3 + TWO_PI * np.arange(m) / m for m in (64, 65))]
    for sampled in samples:
        series = fourier_coefficients(sampled, 31)
        for n, c in zip(modes, coeffs):
            assert abs(series.coefficient(int(n)) - TWO_PI * c) < 1e-12 * (1 + abs(c) * TWO_PI)


def test_aliasing_order_rejected():
    sampled = SampledBoundaryFunction.on_circle(np.cos, n=64)
    with pytest.raises(ValueError, match="alias"):
        fourier_coefficients(sampled, 32)


def test_plancherel_for_trig_polynomials():
    rng = np.random.default_rng(5)
    grid = SampledBoundaryFunction.on_circle(lambda t: t * 0).grid
    step = grid[1] - grid[0]
    for _ in range(20):
        deg = int(rng.integers(1, 17))
        f, _, _ = random_trig_poly(rng, deg)
        vals = f(grid)
        norm_sq = float(np.sum(np.abs(vals) ** 2) * step)  # periodic trapezoid
        series = fourier_coefficients(SampledBoundaryFunction(grid, vals), deg)
        assert abs(series.plancherel_energy() - norm_sq) < 1e-10 * (1 + norm_sq)


def test_series_json_round_trip():
    f = SampledBoundaryFunction.on_circle(lambda t: np.cos(2 * t) + 1j * np.sin(t))
    series = fourier_coefficients(f, 3)
    back = series_from_json(series_to_json(series))
    assert back.order == 3
    np.testing.assert_allclose(back.coefficients, series.coefficients)


def test_series_json_reader_and_writer_reject_non_finite_coefficients():
    # FourierSeries(1, [nan, 1, 2]) was accepted, and json.dumps then wrote a bare NaN
    for bad in (np.nan, np.inf, complex(1.0, -np.inf)):
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            FourierSeries(1, [bad, 1.0, 2.0])
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            series_from_json([{"n": -1, "re": 1.0, "im": 0.0}, {"n": 1, "re": bad.real, "im": bad.imag}])
    series = FourierSeries(2, [0.5 - 2.0j, -1.25, 3.0j, 0.0, 1e-300 + 7.0j])
    back = series_from_json(json.loads(json.dumps(series_to_json(series), allow_nan=False)))
    assert back.order == 2 and back.coefficients.tobytes() == series.coefficients.tobytes()


@pytest.mark.parametrize("order", [2.5, True, -1, np.float64(1.0)])
def test_series_order_must_be_a_count(order):
    # FourierSeries(2.5, np.zeros(6)) was accepted and then coefficient(1) raised IndexError
    with pytest.raises(ValueError, match="^order must be an integer >= 0, got "):
        FourierSeries(order, np.zeros(6))


@pytest.mark.parametrize("n", [0.5, float("nan"), True])
def test_coefficient_mode_must_be_an_integer(n):
    # 0.5 and nan raised numpy's IndexError, and True returned c(1)
    series = FourierSeries(2, np.arange(5))
    with pytest.raises(ValueError, match="^n must be an integer >= -2, got "):
        series.coefficient(n)
    assert series.coefficient(np.int64(-2)) == 0.0 and series.coefficient(2) == 4.0


def test_boundary_csv_round_trip(tmp_path):
    f = SampledBoundaryFunction.on_circle(lambda t: np.exp(1j * t), n=32)
    path = str(tmp_path / "boundary.csv")
    boundary_to_csv(f, path)
    back = boundary_from_csv(path)
    np.testing.assert_allclose(back.grid, f.grid)
    np.testing.assert_allclose(back.values, f.values)


def test_real_boundary_sample_stays_real_through_csv(tmp_path):
    f = SampledBoundaryFunction.on_circle(np.cos, n=32)
    path = tmp_path / "boundary.csv"
    boundary_to_csv(f, str(path))
    back = boundary_from_csv(str(path))
    assert back.values.dtype == np.float64
    assert np.array_equal(back.values, f.values)
    written = path.read_text()
    boundary_to_csv(back, str(path))
    assert path.read_text() == written


def test_boundary_csv_without_samples_names_the_file_and_line(tmp_path):
    # a header-only file raised numpy's IndexError from data[:, 0]
    path = tmp_path / "boundary.csv"
    path.write_text("t,re,im\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: expected a sample row t, re, im after the header$"):
        boundary_from_csv(str(path))


@pytest.mark.parametrize("row", ["0.5,2", "0.5,2,0,1", "0.5,x,0"])
def test_boundary_csv_row_that_is_not_three_numbers_names_the_file_and_line(tmp_path, row):
    # a row of two cells raised "not enough values to unpack", and a non-number named neither file nor line
    path = tmp_path / "boundary.csv"
    path.write_text(f"t,re,im\n0,1,0\n{row}\n1,3,0\n")
    cells = re.escape(str(row.split(",")))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: expected 3 numbers t, re, im, got {cells}$"):
        boundary_from_csv(str(path))


def test_grid_validation(bad_grids):
    for grid, values, reason in bad_grids:
        with pytest.raises(ValueError, match=f"^SampledBoundaryFunction: .*{reason}"):
            SampledBoundaryFunction(grid, values)
    assert SampledBoundaryFunction.on_circle(np.cos).covers_period()


# ---------------------------------------------------------------- dft

def test_dft_delta_goes_flat():
    out = dft(np.array([1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out, np.full(4, 0.5), atol=1e-14)


def test_dft_two_point_hand_value():
    np.testing.assert_allclose(dft(np.array([1.0, 1.0])), [np.sqrt(2.0), 0.0], atol=1e-14)


def test_dft_matches_definition():
    # (F_N x)_m = N^{-1/2} sum_n e^{+2 pi i m n / N} x_n
    rng = np.random.default_rng(9)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    direct = np.array([
        sum(np.exp(2j * np.pi * m * n / 8) * x[n] for n in range(8)) / np.sqrt(8)
        for m in range(8)
    ])
    np.testing.assert_allclose(dft(x), direct, atol=1e-12)


def test_dft_unitary_and_invertible():
    rng = np.random.default_rng(15)
    for n in (1, 2, 3, 8, 64):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert abs(np.linalg.norm(dft(x)) - np.linalg.norm(x)) < 1e-12 * np.linalg.norm(x)
        assert np.max(np.abs(inverse_dft(dft(x)) - x)) < 1e-12


# ---------------------------------------------------------------- half-plane Poisson

def test_halfplane_kernel_mass():
    y = 1.0
    half = 2.0 * halfplane_window(y)
    ones = SampledBoundaryFunction.on_window(lambda t: np.ones_like(t), -half, half, 50001)
    assert abs(poisson_halfplane(ones, 0.0, y) - 1.0) <= 1e-6


def test_halfplane_damps_cosine():
    # P_y * cos(w t) = e^{-y|w|} cos(w x); relaxed tail, fine step
    y, omega = 1.0, 2.0
    tau = 1e-4
    half = 2.0 * halfplane_window(y, tau)
    f = SampledBoundaryFunction.on_window(lambda t: np.cos(omega * t), -half, half, 2 ** 22 + 1)
    for x in (0.0, 0.7):
        want = np.exp(-y * omega) * np.cos(omega * x)
        assert abs(poisson_halfplane(f, x, y, tau_tail=tau) - want) < tau


def test_halfplane_boundary_limit():
    target = lambda t: 1.0 / (1.0 + t * t)
    tau = 1e-4
    half = 2.0 * halfplane_window(0.1, tau)
    f = SampledBoundaryFunction.on_window(target, -half, half, 2 ** 17 + 1)
    x = 0.4
    errs = [abs(poisson_halfplane(f, x, y, tau_tail=tau) - target(x)) for y in (0.1, 0.01)]
    assert errs[1] < errs[0]
    assert errs[1] < 2e-2


def test_halfplane_rejects_bad_y_and_narrow_window():
    f = SampledBoundaryFunction.on_window(lambda t: np.ones_like(t), -10.0, 10.0, 101)
    with pytest.raises(ValueError):
        poisson_halfplane(f, 0.0, -1.0)
    with pytest.raises(ValueError, match="narrow"):
        poisson_halfplane(f, 0.0, 1.0)  # needs ~6.4e5 half-width at tau = 1e-6


@pytest.mark.parametrize("value", [np.nan, 0.0])
@pytest.mark.parametrize(
    "call, name",
    [
        (halfplane_window, "y"),
        (lambda y: poisson_halfplane(SampledBoundaryFunction.on_window(np.cos, -10.0, 10.0, 101), 0.0, y), "y"),
        (lambda y: poisson_smooth(FiniteMeasure.from_atoms([(0.0, 1.0)]), y, np.linspace(-1.0, 1.0, 11)), "y"),
        (lambda eps: herglotz_recover(lambda z: np.ones_like(z), eps, (-1.0, 1.0), 11), "eps"),
    ],
    ids=["halfplane_window", "poisson_halfplane", "poisson_smooth", "herglotz_recover"],
)
def test_height_must_be_positive_and_not_nan(call, name, value):
    # a NaN height fails "y <= 0" and ran on: halfplane_window returned nan and
    # poisson_smooth failed later on "density has non-finite values"
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got "):
        call(value)


def test_halfplane_harmonicity_order():
    # the computed extension is a finite-window Poisson integral of piecewise
    # linear data, hence harmonic; the 5-point Laplacian must shrink like h^2
    tau = 1e-3
    half = 2.0 * halfplane_window(1.5, tau)
    f = SampledBoundaryFunction.on_window(np.cos, -half, half, 2 ** 19 + 1)

    def u(x, y):
        return poisson_halfplane(f, x, y, tau_tail=tau).real

    x0, y0 = 0.3, 1.0
    laps = []
    for h in (0.4, 0.2, 0.1):
        lap = (u(x0 + h, y0) + u(x0 - h, y0) + u(x0, y0 + h) + u(x0, y0 - h)
               - 4.0 * u(x0, y0)) / h ** 2
        laps.append(abs(lap))
    orders = [np.log2(laps[i] / laps[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


# ---------------------------------------------------------------- disc Poisson

def test_disc_constant_boundary():
    phi = SampledBoundaryFunction.on_circle(lambda t: np.ones_like(t))
    assert abs(poisson_disc(phi, 0.5, 0.8) - 1.0) < 1e-12


def test_disc_damps_single_modes():
    rho, s = 0.7, 1.1
    for n in (3, -3, 1):
        phi = SampledBoundaryFunction.on_circle(lambda t, n=n: np.exp(1j * n * t))
        want = rho ** abs(n) * np.exp(1j * n * s)
        assert abs(poisson_disc(phi, rho, s) - want) < 1e-12


def test_disc_center_is_boundary_mean():
    rng = np.random.default_rng(21)
    for _ in range(100):
        deg = int(rng.integers(0, 9))
        f, _, _ = random_trig_poly(rng, deg)
        phi = SampledBoundaryFunction.on_circle(f)
        mean = np.sum(phi.values) * phi.step / TWO_PI
        assert abs(poisson_disc(phi, 0.0, 0.3) - mean) < 1e-10


def test_disc_rejects_rho_outside():
    phi = SampledBoundaryFunction.on_circle(np.cos)
    with pytest.raises(ValueError):
        poisson_disc(phi, 1.0, 0.0)
    with pytest.raises(ValueError):
        poisson_disc(phi, -0.1, 0.0)


# ---------------------------------------------------------------- momentum model

def test_momentum_periodic_case():
    res = momentum_model(0.0, 2)
    np.testing.assert_array_equal(res.eigenvalues, [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert res.multiplicities.tolist() == [1] * 5


def test_momentum_half_twist():
    res = momentum_model(0.5, 1)
    np.testing.assert_array_equal(res.eigenvalues, [-0.5, 0.5, 1.5])


def test_momentum_unit_gaps():
    for twist in (0.0, 0.5, 0.3, -1.7):
        res = momentum_model(twist, 4)
        gaps = np.diff(res.eigenvalues)
        np.testing.assert_allclose(gaps, 1.0, rtol=0, atol=1e-12)
    # dyadic twists are gap-exact
    assert np.all(np.diff(momentum_model(0.5, 4).eigenvalues) == 1.0)


def test_momentum_projections_are_coordinates():
    res = momentum_model(0.25, 1)
    for k, p in enumerate(res.projections):
        want = np.zeros((3, 3))
        want[k, k] = 1.0
        np.testing.assert_array_equal(p, want)
