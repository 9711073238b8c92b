"""Structural invariants checked over generated inputs."""

import csv
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from speclab import (
    BorelSet,
    FiniteMeasure,
    FourierSeries,
    SampledBoundaryFunction,
    SpectralMeasurePair,
    boundary_from_csv,
    boundary_to_csv,
    cayley_map,
    dft,
    dirichlet_seminorm,
    hadamard,
    inner_product,
    inverse_dft,
    matrix_from_json,
    matrix_to_json,
    measure_fourier,
    measure_from_json,
    measure_to_json,
    operator_norm,
    require_matrix,
    series_from_json,
    series_to_json,
    spectral_measure_to_json,
)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def cvectors(n):
    return arrays(np.complex128, (n,), elements=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False))


def cmatrices(n):
    return arrays(np.complex128, (n, n), elements=st.complex_numbers(max_magnitude=1e2, allow_nan=False, allow_infinity=False))


@settings(deadline=None)
@given(st.integers(1, 96).flatmap(cvectors))
def test_dft_is_an_isometry_with_inverse(x):
    fx = dft(x)
    scale = 1.0 + np.linalg.norm(x)
    assert abs(np.linalg.norm(fx) - np.linalg.norm(x)) <= 1e-10 * scale
    assert np.max(np.abs(inverse_dft(fx) - x)) <= 1e-10 * scale


@settings(deadline=None)
@given(finite)
def test_cayley_map_lands_on_the_unit_circle(x):
    assert abs(abs(cayley_map(x)) - 1.0) <= 1e-12


@settings(deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(cvectors(n), cvectors(n), cvectors(n))),
       st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False))
def test_inner_product_conjugate_linear_in_first_slot(xyz, a):
    x, y, z = xyz
    lhs = inner_product(a * x + y, z)
    rhs = np.conjugate(a) * inner_product(x, z) + inner_product(y, z)
    scale = 1.0 + (abs(a) + 1.0) * (np.linalg.norm(x) + np.linalg.norm(y)) * np.linalg.norm(z)
    assert abs(lhs - rhs) <= 1e-9 * scale


@settings(deadline=None)
@given(st.floats(-1e3, 1e3, allow_nan=False), st.floats(1e-6, 1e3, allow_nan=False))
def test_interval_membership_respects_endpoints(lo, width):
    hi = lo + width
    mid = lo + width / 2.0
    assert BorelSet.interval(lo, hi).contains(mid)
    slack = 1e-6 * (1.0 + max(abs(lo), abs(hi)))  # well past the endpoint tolerance
    assert not BorelSet.interval(lo, hi).contains(hi + slack)
    assert not BorelSet.interval(lo, hi, closed="neither").contains(lo)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(cmatrices(n), cmatrices(n))))
def test_operator_norm_triangle_and_product(ab):
    a, b = ab
    na, nb = operator_norm(a), operator_norm(b)
    scale = 1.0 + na + nb
    assert operator_norm(a + b) <= na + nb + 1e-9 * scale
    assert operator_norm(a @ b) <= na * nb + 1e-9 * (1.0 + na * nb)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(cmatrices(n), cmatrices(n))))
def test_hadamard_preserves_positivity(ab):
    # Schur product theorem on generated PSD factors
    p = ab[0] @ ab[0].conj().T
    q = ab[1] @ ab[1].conj().T
    scale = 1.0 + operator_norm(p) * operator_norm(q)
    assert np.linalg.eigvalsh(hadamard(p, q)).min() >= -1e-9 * scale


@settings(deadline=None)
@given(st.lists(st.tuples(finite, st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=6),
       finite)
def test_measure_transform_bounded_by_total_variation(atoms, omega):
    mu = FiniteMeasure.from_atoms(atoms)
    assert abs(measure_fourier(mu, omega)) <= mu.total_variation() + 1e-12


@settings(deadline=None)
@given(arrays(np.complex128, (7,), elements=st.complex_numbers(max_magnitude=1e2, allow_nan=False, allow_infinity=False)),
       st.floats(0.01, 10.0, allow_nan=False))
def test_seminorm_energy_is_quadratically_homogeneous(coeffs, c):
    # the seminorm is the energy sum n |a_n|^2, so scaling f scales it by c^2
    base = dirichlet_seminorm(coeffs)
    assert abs(dirichlet_seminorm(c * coeffs) - c * c * base) <= 1e-9 * (1.0 + c * c * base)


# ---------------------------------------------------------------- complex data through its readers and writers

# signed zeros, the least subnormal, the least normal and numbers near the largest float
EDGE_PARTS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308]
part = st.one_of(st.sampled_from(EDGE_PARTS), st.floats(allow_nan=False, allow_infinity=False))
bad_part = st.sampled_from([np.nan, np.inf, -np.inf])


def complex_data(n):
    """n complex numbers with the exact bits of generated (re, im) parts (re + 1j im would turn -0.0 into +0.0)."""
    return st.lists(st.tuples(part, part), min_size=n, max_size=n).map(
        lambda pairs: np.array(pairs, dtype=float).reshape(n, 2).view(complex)[:, 0])


def real_data(n):
    return st.lists(part, min_size=n, max_size=n).map(lambda xs: np.array(xs, dtype=float))


def through_json(obj):
    return json.loads(json.dumps(obj, allow_nan=False))


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def sampled(values):
    """Sampled data as a reader gives it back: float64 when every imaginary part is +0.0, else complex128."""
    plus_zero = all(y == 0.0 and math.copysign(1.0, y) > 0 for y in values.imag.tolist())
    return values.real if plus_zero else values


def boundary_through_csv(f):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "boundary.csv")
        boundary_to_csv(f, path)
        return boundary_from_csv(path)


def density_grid(n):
    # exact binary steps, so grid0 + step * k gives the points back
    return 0.5 * np.arange(n) - 1.0


def density_measure(values):
    return FiniteMeasure.from_density(density_grid(values.size), values)


shapes = st.tuples(st.integers(1, 4), st.integers(1, 4))


@settings(deadline=None)
@given(shapes.flatmap(lambda rc: complex_data(rc[0] * rc[1]).map(lambda v: v.reshape(rc))))
def test_matrix_json_round_trips_the_bits(a):
    assert same_bits(matrix_from_json(through_json(matrix_to_json(a))), a)
    # a real matrix is stored complex, so it comes back complex128 with +0.0 imaginary parts
    assert same_bits(matrix_from_json(through_json(matrix_to_json(a.real))), require_matrix(a.real))


@settings(deadline=None)
@given(st.integers(0, 4).flatmap(lambda order: complex_data(2 * order + 1)))
def test_series_json_round_trips_the_bits(c):
    order = (c.size - 1) // 2
    assert same_bits(series_from_json(through_json(series_to_json(FourierSeries(order, c)))).coefficients, c)
    real = FourierSeries(order, c.real)
    assert same_bits(series_from_json(through_json(series_to_json(real))).coefficients, real.coefficients)


@settings(deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(real_data(n), complex_data(n))),
       st.integers(2, 9).flatmap(complex_data))
def test_measure_json_round_trips_the_bits(atoms, density):
    locations, masses = atoms
    for m, v in ((masses, density), (masses.real, density.real)):
        mu = FiniteMeasure(tuple(zip(locations.tolist(), m.tolist())), density_grid(v.size), v)
        back = measure_from_json(through_json(measure_to_json(mu)))
        assert same_bits([x for x, _ in back.atoms], locations) and all(type(b) is complex for _, b in back.atoms)
        # atom masses are complex either way; a real density comes back float64
        assert same_bits(np.array([b for _, b in back.atoms], dtype=complex), m.astype(complex))
        assert same_bits(back.density_grid, mu.density_grid) and same_bits(back.density_values, sampled(v))


@settings(deadline=None)
@given(st.integers(2, 9).flatmap(complex_data))
def test_boundary_csv_round_trips_the_bits(values):
    grid = 0.25 * np.arange(values.size)
    assert same_bits(boundary_through_csv(SampledBoundaryFunction(grid, values)).values, sampled(values))
    assert same_bits(boundary_through_csv(SampledBoundaryFunction(grid, values.real)).values, values.real)


@settings(deadline=None)
@given(st.integers(1, 6).flatmap(complex_data), st.data())
def test_readers_reject_a_non_finite_part_without_a_warning(values, data):
    i = data.draw(st.integers(0, values.size - 1))
    key = data.draw(st.sampled_from(["re", "im"]))
    bad = data.draw(bad_part)
    matrix = matrix_to_json(values[None, :])
    matrix[key][i] = bad
    series = series_to_json(FourierSeries(0, values[:1]))
    series[0][key] = bad
    pairs = [(float(k), m) for k, m in enumerate(values.tolist())]
    atoms = measure_to_json(FiniteMeasure.from_atoms(pairs))
    atoms["atoms"][i][key] = bad
    density = measure_to_json(density_measure(np.append(values, 1.0)))
    density["density"][key][i] = bad
    rows = [[0.25 * k, z.real, z.imag] for k, z in enumerate(np.append(values, 1.0))]
    rows[i][1 if key == "re" else 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            matrix_from_json(matrix)
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            series_from_json(series)
        with pytest.raises(ValueError, match="^FiniteMeasure atoms: masses must be finite$"):
            measure_from_json(atoms)
        with pytest.raises(ValueError, match="^FiniteMeasure density: values must be finite$"):
            measure_from_json(density)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "boundary.csv")
            with open(path, "w") as fh:
                fh.write("t,re,im\n" + "".join(f"{t:.17g},{x:.17g},{y:.17g}\n" for t, x, y in rows))
            with pytest.raises(ValueError, match="^SampledBoundaryFunction: values must be finite$"):
                boundary_from_csv(path)


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), part, part), min_size=1, max_size=12))
def test_series_json_keeps_the_last_value_of_a_repeated_mode(items):
    got = series_from_json([{"n": n, "re": x, "im": y} for n, x, y in items])
    last = {n: (x, y) for n, x, y in items}
    order = max(abs(n) for n in last)
    want = np.array([last.get(n, (0.0, 0.0)) for n in range(-order, order + 1)]).view(complex)[:, 0]
    assert same_bits(got.coefficients, want)


def former_matrix_to_json(a):
    m = require_matrix(a)
    flat = m.ravel(order="C")
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "re": [float(x) for x in flat.real], "im": [float(x) for x in flat.imag]}


def former_series_to_json(series):
    out = []
    for n in range(-series.order, series.order + 1):
        c = series.coefficient(n)
        out.append({"n": n, "re": float(c.real), "im": float(c.imag)})
    return out


def former_measure_to_json(mu):
    out = {"atoms": [{"x": x, "re": m.real, "im": m.imag} for x, m in mu.atoms]}
    if mu.density_grid is not None:
        out["density"] = {
            "grid0": float(mu.density_grid[0]),
            "step": mu.density_step,
            "re": [float(t) for t in mu.density_values.real],
            "im": [float(t) for t in mu.density_values.imag],
        }
    else:
        out["density"] = None
    return out


def former_spectral_measure_to_json(pair):
    return {"atoms": [{"x": float(lam), "re": float(m.real), "im": float(m.imag)}
                      for lam, m in zip(pair.eigenvalues, pair.masses)]}


def former_boundary_to_csv(f, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "re", "im"])
        for t, v in zip(f.grid, f.values):
            w.writerow([f"{t:.17g}", f"{v.real:.17g}", f"{v.imag:.17g}"])


def csv_text(writer, f):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "boundary.csv")
        writer(f, path)
        with open(path, newline="") as fh:
            return fh.read()


@settings(deadline=None)
@given(st.integers(1, 9).flatmap(complex_data))
def test_writers_keep_the_text_of_the_former_writer_expressions(values):
    n = values.size
    order = (n - 1) // 2
    locations = np.linspace(-1.0, 1.0, n)
    measures = [
        FiniteMeasure(), FiniteMeasure.from_atoms(list(zip(locations.tolist(), values.tolist()))),
        FiniteMeasure.from_atoms([(x, v) for x, v in zip(locations.tolist(), values.real.tolist())]),
    ]
    if n >= 2:
        measures += [density_measure(values), density_measure(values.real),
                     FiniteMeasure(tuple(zip(locations.tolist(), values.tolist())), locations, values)]
    cases = [
        (matrix_to_json, former_matrix_to_json, [values[None, :], values[:, None], values.real[None, :]]),
        (series_to_json, former_series_to_json, [FourierSeries(order, values[:2 * order + 1]),
                                                 FourierSeries(order, values.real[:2 * order + 1])]),
        (measure_to_json, former_measure_to_json, measures),
        (spectral_measure_to_json, former_spectral_measure_to_json,
         [SpectralMeasurePair(locations, values), SpectralMeasurePair(locations, values.real)]),
    ]
    for writer, former, objects in cases:
        for obj in objects:
            assert json.dumps(writer(obj)) == json.dumps(former(obj))
    if n >= 2:
        for f in (SampledBoundaryFunction(locations, values), SampledBoundaryFunction(locations, values.real)):
            assert csv_text(boundary_to_csv, f) == csv_text(former_boundary_to_csv, f)
