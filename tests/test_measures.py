"""Finite measures: Fourier transforms, Poisson smoothing, Herglotz recovery, Bochner tests."""

import math
import tracemalloc

import numpy as np
import pytest

from speclab import measures
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
    # chunked path on grids perturbed off arithmetic within the uniformity check.
    # A real density is stored as float64 and must transform to the same bits
    # as its complex-typed twin on both paths: the chunked path once summed
    # complex tiles into a float64 accumulator, and raised
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
        real = FiniteMeasure.from_density(g, v.real)
        assert real.density_values.dtype == np.float64
        twin = measure_fourier(FiniteMeasure.from_density(g, v.real.astype(complex)), w)
        assert np.array_equal(measure_fourier(real, w), twin)


def _lattice_reference(g, origin, h, s=0):
    # the check as first written, with its N-point temporaries
    ideal = origin + (s + np.arange(g.size)) * h
    return bool(np.max(np.abs(g - ideal)) <= 4.0 * np.spacing(np.max(np.abs(g))))


def _ulps_off(g, k, i=None):
    # g with its point i (the middle one by default) moved k ulps of max |g| off the lattice
    g = g.copy()
    g[g.size // 2 if i is None else i] += k * np.spacing(np.max(np.abs(g)))
    return g


_LATTICE_CASES = {
    # grid, origin, step, whole-step offset s
    "all negative": (-7.0 + 0.01 * np.arange(300), -7.0, 0.01, 0),
    "whole-step offset": (0.25 * np.arange(-40, 60), 0.25 * -43, 0.25, 3),
    "negative offset, large origin": (1e5 + 0.5 * np.arange(1, 101), 1e5 + 0.5 * 6, 0.5, -5),
    "3 ulps off": (_ulps_off(-3.0 + 0.125 * np.arange(81), 3), -3.0, 0.125, 0),
    "5 ulps off": (_ulps_off(-3.0 + 0.125 * np.arange(81), 5), -3.0, 0.125, 0),
    "off by a step": (np.linspace(0.0, 1.0, 11), 0.1, 0.1, 0),
}


@pytest.mark.parametrize("name", sorted(_LATTICE_CASES))
def test_on_lattice_matches_the_reference_expression(name):
    g, origin, h, s = _LATTICE_CASES[name]
    got = measures._on_lattice(g, origin, h, s)
    assert got == _lattice_reference(g, origin, h, s)
    assert got == (name not in ("5 ulps off", "off by a step"))


_MANY_CHUNKS = -3.0 + 0.125 * np.arange(3 * measures._CHUNK + 1001)


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("i", [17, measures._CHUNK - 1, measures._CHUNK, _MANY_CHUNKS.size - 17, _MANY_CHUNKS.size - 1])
def test_on_lattice_reads_every_chunk(i, k):
    # the gaps are taken chunk by chunk: a point off the lattice in the first or the last
    # chunk, or on either side of a chunk boundary, gives the verdict of the whole-grid check
    g = _ulps_off(_MANY_CHUNKS, k, i)
    got = measures._on_lattice(g, -3.0, 0.125)
    assert got == _lattice_reference(g, -3.0, 0.125)
    assert got == (k == 3)


def _unblocked_fourier(g, v, w, fold=True):
    # the lattice route as first written: one (A x B) @ (B x 2M) product per real part,
    # with N-point trapezoid weights and blocks.  With fold, each part's product is taken at
    # the sorted unique |w| and conjugated back onto w's negative entries, as the blocked
    # route takes it; without, at every w in w's order
    n = g.size
    h = (g[-1] - g[0]) / (n - 1)
    b = int(np.ceil(np.sqrt(n)))
    a = -(-n // b)
    at, back = np.unique(np.abs(w), return_inverse=True) if fold else (w, np.arange(w.size))
    m = at.size
    dg = np.diff(g)
    weights = np.empty_like(g)
    np.add(dg[:-1], dg[1:], out=weights[1:-1])
    weights[0], weights[-1] = dg[0], dg[-1]
    weights /= 2.0
    phase = np.exp(-1j * np.multiply.outer(np.arange(b) * h, at))
    columns = np.hstack((phase.real, phase.imag))
    outer = np.exp(-1j * np.multiply.outer(g[0] + np.arange(a) * (b * h), at))
    out = []
    for part in ((v.real, v.imag) if np.iscomplexobj(v) else (v,)):
        block = np.zeros(a * b)
        np.multiply(part, weights, out=block[:n])
        p = block.reshape(a, b) @ columns
        f = np.einsum("am,am->m", outer, p[:, :m] + 1j * p[:, m:])[back]
        out.append(np.where(np.signbit(w), f.conj(), f) if fold else f)
    return out[0] if len(out) == 1 else out[0] + 1j * out[1]


def _lattice_density(kind, n):
    rng = np.random.default_rng(n)
    g = np.linspace(-50.0, 75.0, n)
    assert measures._on_lattice(g, g[0], (g[-1] - g[0]) / (n - 1))
    v = np.exp(-((g - 5.0) / 20.0) ** 2) + 0.3 * rng.standard_normal(n)
    if kind == "complex":
        v = v * (1.0 - 0.5j) + 0.2j * rng.standard_normal(n)
    return g, v, rng


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [2, 3, 1001, 16_384, 16_385, 40_001, 256_001])
def test_blocked_lattice_transform_matches_the_unblocked_product(kind, n):
    # a grid of one row block keeps the bits of the single product over the same columns,
    # the sorted unique |w|; more blocks sum the same terms block by block, which moves the
    # result at roundoff
    g, v, rng = _lattice_density(kind, n)
    w = np.concatenate([[0.0], rng.uniform(-20.0, 20.0, 36)])
    got, ref = measures._density_fourier(g, v, w), _unblocked_fourier(g, v, w)
    b = int(np.ceil(np.sqrt(n)))
    one_block = -(-n // b) <= measures._CHUNK // b
    assert one_block == (n <= 16_384)
    assert got.dtype == ref.dtype == np.complex128
    if one_block:
        assert got.tobytes() == ref.tobytes()
    else:
        assert np.max(np.abs(got - ref)) <= 4e-15 * np.max(np.abs(ref))


_OMEGA_SETS = {
    "unsorted": np.array([3.5, -0.25, 17.0, -9.0, 0.5, -3.5, 2.0]),
    "duplicated": np.array([-4.0, 4.0, 4.0, 1.5, -4.0, 1.5, -1.5, 4.0]),
    "all negative": -np.linspace(0.5, 12.0, 9)[::-1],
    "signed zeros": np.array([0.0, -0.0, 2.0, -0.0, -2.0, 0.0]),
    "empty": np.array([]),
}


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [1001, 16_384, 40_001])
@pytest.mark.parametrize("name", sorted(_OMEGA_SETS))
def test_folded_transform_matches_the_unfolded_route(name, n, kind):
    # the fold takes one sum per |w|; the route that sums at every w agrees to roundoff, on
    # one-block (n <= 16384) and multi-block grids.  max |F| is taken over w and 0, as in the
    # test above: these densities' transforms peak at 0, and the roundoff scales with it
    g, v, _ = _lattice_density(kind, n)
    w = _OMEGA_SETS[name]
    got, ref = measures._density_fourier(g, v, w), _unblocked_fourier(g, v, np.append(w, 0.0), fold=False)
    assert got.shape == w.shape and got.dtype == np.complex128
    assert np.max(np.abs(got - ref[:-1]), initial=0.0) <= 4e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1001, 40_001])
def test_transform_of_a_real_part_is_hermitian(n):
    # F(-w) = conj F(w) bit for bit for a real density, and for a complex one
    # F_v(-w) = conj F_{conj v}(w), since each real part is conjugated on its own
    w = np.concatenate([[0.0], np.random.default_rng(n).uniform(0.0, 20.0, 24)])
    g, v, _ = _lattice_density("real", n)
    assert measures._density_fourier(g, v, -w).tobytes() == measures._density_fourier(g, v, w).conj().tobytes()
    g, v, _ = _lattice_density("complex", n)
    flipped = measures._density_fourier(g, v.conj(), w).conj()
    assert measures._density_fourier(g, v, -w).tobytes() == flipped.tobytes()


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_non_finite_frequencies_give_nan_where_the_unfolded_route_does(kind):
    g, v, _ = _lattice_density(kind, 1001)
    w = np.array([1.0, np.nan, -np.inf, 2.5, np.inf, -np.nan, -1.0, 0.0])
    with np.errstate(invalid="ignore"):
        got, ref = measures._density_fourier(g, v, w), _unblocked_fourier(g, v, w, fold=False)
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan) and nan[[1, 2, 4, 5]].all()
    assert np.max(np.abs(got[~nan] - ref[~nan])) <= 4e-15 * np.max(np.abs(ref[~nan]))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_lattice_transform_memory_per_point(kind):
    # the density went through a complex128 block array, with 24 B/point of lattice and
    # weight temporaries: 32 B/point for a real density, 40 for a complex one.  Then each
    # real part took 8 B/point of blocks beside 8 B/point of weights: 16 MB for a real
    # density here.  Row blocks of about 16384 points cut that to the 1000 x 162 real
    # columns and one block's arrays, 1.87 MB; one sum per |w| and one reused block buffer
    # cut it to the 1000 x 82 columns, the buffer and one block's grid steps, 0.95 MB
    n = 1_000_000
    g = np.linspace(-3.2e4, 3.2e4, n)
    v = (1.0 / np.pi) / (g * g + 1.0)
    mu = FiniteMeasure.from_density(g, v if kind == "real" else v * (1.0 - 0.5j))
    omega = np.linspace(-10.0, 10.0, 81)
    tracemalloc.start()
    try:
        got = measure_fourier(mu, omega)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = np.exp(-np.abs(omega)) * (1.0 if kind == "real" else 1.0 - 0.5j)
    assert np.max(np.abs(got - want)) <= 1e-4
    assert peak <= 1.0e6


def _chunked_density(kind, n):
    rng = np.random.default_rng(n)
    g = np.linspace(-4.0, 6.0, n)
    v = np.exp(-g * g) * (1.0 + 0.5 * rng.random(n))
    return g, v if kind == "real" else v * (1.0 - 2.0j) + 0.1j * rng.standard_normal(n)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [2, 3, measures._CHUNK, measures._CHUNK + 1, measures._CHUNK + 2, 3 * measures._CHUNK + 7, 1_000_000])
def test_total_mass_and_variation_match_one_trapezoid(kind, n):
    # the trapezoid sums run over chunks that share their boundary points; the chunk sums
    # add up to one np.trapezoid call's value at roundoff
    g, v = _chunked_density(kind, n)
    mu = FiniteMeasure.from_density(g, v)
    scale = np.trapezoid(np.abs(v), g)
    assert abs(mu.total_mass() - np.trapezoid(v, g)) <= 1e-14 * scale
    assert abs(mu.total_variation() - scale) <= 1e-14 * scale


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_total_mass_and_variation_bound_their_memory(kind):
    # one np.trapezoid call held 16 B/point for a real density (16 MB here) and |v| beside
    # it for the variation (24 MB); the chunked sums hold O(16384) points
    g, v = _chunked_density(kind, 1_000_000)
    mu = FiniteMeasure.from_density(g, v)
    tracemalloc.start()
    try:
        mu.total_mass()
        mu.total_variation()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


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


def direct_smooth(mu, y, x):
    # oracle: the M x N kernel matrix summed by np.trapezoid, plus the atoms
    out = np.zeros(x.shape, dtype=complex)
    for a, m in mu.atoms:
        out += m * poisson_density(x - a, y)
    if mu.density_grid is not None:
        u = mu.density_grid
        out += np.trapezoid(poisson_density(x[:, None] - u[None, :], y) * mu.density_values, u, axis=1)
    return out


def smooth_routes(monkeypatch):
    # records each call of the tiled direct sum, the route off the lattice
    calls = []
    tiled = measures._kernel_sum

    def counting(*args):
        calls.append(args[1].size)
        return tiled(*args)

    monkeypatch.setattr(measures, "_kernel_sum", counting)
    return calls


def _grid(lo, h, n):
    return lo + h * np.arange(n)


_FFT_CASES = {
    # density grid u, output grid x, density values, atoms
    "equal grids, signed": (np.linspace(-7.3, 11.1, 1001), None, "real", ()),
    "wider output, whole-step offset, complex": (
        np.linspace(-2.0, 3.0, 501), _grid(-2.0 - 137 * 0.01, 0.01, 1400), "complex", ()),
    "output left of density, no overlap": (_grid(1e3, 0.1, 100), _grid(1e3 - 40.0, 0.1, 300), "complex", ()),
    "N = 2": (np.linspace(1.0, 1.5, 2), np.linspace(-1.0, 2.5, 8), "complex", ()),
    "N = 3": (np.linspace(0.0, 1.0, 3), None, "real", ()),
    "atoms and grid part": (np.linspace(-5.0, 5.0, 801), np.linspace(-6.0, 6.0, 961), "complex",
                            ((-1.3, 0.5 - 0.25j), (2.0, -1.0), (4.9, 2.0j))),
}


@pytest.mark.parametrize("name", sorted(_FFT_CASES))
def test_smooth_lattice_grids_take_fft_route(name, monkeypatch):
    u, x, kind, atoms = _FFT_CASES[name]
    x = u if x is None else x
    rng = np.random.default_rng(21)
    v = rng.standard_normal(u.size)
    if kind == "complex":
        v = v + 1j * rng.standard_normal(u.size)
    mu = FiniteMeasure(atoms=atoms, density_grid=u, density_values=v)
    calls = smooth_routes(monkeypatch)
    for y in (0.03, 0.7):
        got = poisson_smooth(mu, y, x).density_values
        ref = direct_smooth(mu, y, x)
        # the FFT error is absolute: eps log2(n_fft) max|k| sum |w v|, max|k| <= 1/(pi y);
        # the atoms add their own roundoff, eps |m| max|k| each
        n_fft = 2.0 ** math.ceil(math.log2(x.size + u.size - 1))
        mass = np.trapezoid(np.abs(v), u) + sum(abs(m) for _, m in atoms)
        bound = np.finfo(float).eps * math.log2(2.0 * n_fft) * mass / (np.pi * y)
        assert np.max(np.abs(got - ref)) <= bound
    assert calls == []


@pytest.mark.parametrize("name", sorted(_FFT_CASES))
def test_smooth_real_measure_stays_real(name, monkeypatch):
    # a real density with real atom masses convolves one row, not two, and its
    # output is float64: on the FFT route, the bits of the real part of its
    # complex-typed twin's output, whose imaginary part is exactly zero
    u, x, _, atoms = _FFT_CASES[name]
    x = u if x is None else x
    v = np.random.default_rng(25).standard_normal(u.size)
    atoms = tuple((a, complex(m).real) for a, m in atoms)
    real = FiniteMeasure(atoms=atoms, density_grid=u, density_values=v)
    twin = FiniteMeasure(atoms=atoms, density_grid=u, density_values=v.astype(complex))
    calls = smooth_routes(monkeypatch)
    got = poisson_smooth(real, 0.3, x).density_values
    ref = poisson_smooth(twin, 0.3, x).density_values
    assert calls == []
    assert got.dtype == np.float64 and ref.dtype == np.complex128
    assert np.array_equal(got, ref.real) and not np.any(ref.imag)


def _perturbed(g, seed):
    # ~1e-10 off arithmetic, inside the uniformity check; the ends stay on the
    # lattice, so only the grid's own test can send it to the direct sum
    g = g.copy()
    g[1:-1] += 1e-10 * np.random.default_rng(seed).standard_normal(g.size - 2)
    return g


_U = np.linspace(-5.0, 5.0, 801)
_FALLBACK_CASES = {
    # density grid u, output grid x
    "half-step offset": (_U, _U + 0.5 * (_U[1] - _U[0])),
    "density grid off arithmetic": (_perturbed(_U, 22), _U),
    "output grid off arithmetic": (_U, _perturbed(_U, 23)),
}


@pytest.mark.parametrize("name", sorted(_FALLBACK_CASES))
def test_smooth_off_lattice_grids_take_direct_sum(name, monkeypatch):
    u, x = _FALLBACK_CASES[name]
    v = np.exp(-u ** 2) * (1.0 - 0.5j) + 0.3 * np.random.default_rng(24).standard_normal(u.size)
    mu = FiniteMeasure(atoms=((0.4, 1.5),), density_grid=u, density_values=v)
    calls = smooth_routes(monkeypatch)
    for y in (0.03, 0.7):
        got = poisson_smooth(mu, y, x).density_values
        ref = direct_smooth(mu, y, x)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert calls == [x.size, x.size]


def test_smooth_real_measure_stays_real_on_the_direct_sum(monkeypatch):
    # off the lattice a real density is one column of the tiled sum, and its
    # complex-typed twin two: one column goes through a matrix-vector product,
    # two through a matrix product, which sum in different orders, so the real
    # parts agree to roundoff, not to the bit
    u, x = _FALLBACK_CASES["half-step offset"]
    v = np.exp(-u ** 2) + 0.3 * np.random.default_rng(26).standard_normal(u.size)
    real = FiniteMeasure(atoms=((0.4, 1.5),), density_grid=u, density_values=v)
    twin = FiniteMeasure(atoms=((0.4, 1.5),), density_grid=u, density_values=v.astype(complex))
    calls = smooth_routes(monkeypatch)
    got = poisson_smooth(real, 0.3, x).density_values
    ref = poisson_smooth(twin, 0.3, x).density_values
    assert calls == [x.size, x.size]
    assert got.dtype == np.float64 and not np.any(ref.imag)
    assert np.max(np.abs(got - ref.real)) <= 1e-13 * np.max(np.abs(ref))


def test_smooth_complex_atom_makes_the_output_complex():
    u = np.linspace(-2.0, 2.0, 101)
    mu = FiniteMeasure(atoms=((0.0, 1.0 + 0.5j),), density_grid=u, density_values=np.exp(-u ** 2))
    out = poisson_smooth(mu, 0.5, u).density_values
    assert out.dtype == np.complex128
    np.testing.assert_allclose(out.imag, 0.5 * poisson_density(u, 0.5), rtol=1e-15)
    assert poisson_smooth(FiniteMeasure.from_atoms([(0.0, 2.0)]), 0.5, u).density_values.dtype == np.float64


@pytest.mark.parametrize("offset, limit", [(0.0, 10e6), (0.5, 50e6)])
def test_smooth_memory_is_linear_in_grid_size(offset, limit):
    # a 4001 x 4001 kernel matrix alone takes 128 MB; the FFT route (whole-step
    # offset) needs O(M + N) and the direct sum (half-step offset) 128 x 512 tiles
    u = np.linspace(-10.0, 10.0, 4001)
    x = u + offset * (u[1] - u[0])
    mu = FiniteMeasure.from_density(u, np.exp(-u ** 2))
    tracemalloc.start()
    try:
        out = poisson_smooth(mu, 0.5, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit
    rows = [0, 1234, 4000]
    ref = direct_smooth(mu, 0.5, x[rows])
    assert np.max(np.abs(out.density_values[rows] - ref)) <= 1e-12 * np.max(np.abs(ref))


def _off_lattice_fourier():
    g = np.linspace(-10.0, 10.0, 100_001)
    g += 1e-12 * np.random.default_rng(24).standard_normal(g.size)
    mu, omega = FiniteMeasure.from_density(g, np.exp(-g ** 2)), np.linspace(-8.0, 8.0, 81)
    assert not measures._on_lattice(g, g[0], mu.density_step)
    ref = np.trapezoid(np.exp(-1j * np.multiply.outer(omega[::20], g)) * np.exp(-g ** 2), g, axis=-1)
    return lambda: measure_fourier(mu, omega)[::20], ref


def _half_step_smooth():
    u = np.linspace(-10.0, 10.0, 4001)
    mu, x, rows = FiniteMeasure.from_density(u, np.exp(-u ** 2)), u + 0.5 * (u[1] - u[0]), [0, 1234, 4000]
    return lambda: poisson_smooth(mu, 0.5, x).density_values[rows], direct_smooth(mu, 0.5, x[rows])


@pytest.mark.parametrize("case", [_off_lattice_fourier, _half_step_smooth])
def test_direct_sum_memory_is_bounded_by_its_tiles(case):
    # the direct sum's kernel holds three or four tiles at once.  On 256 x 16384 tiles that peaked
    # at 43.3 MB (81 x 100001 points, complex) and 24.6 MB (4001 x 4001, real)
    run, ref = case()
    tracemalloc.start()
    try:
        got = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_real_density_is_stored_once_at_float64_size():
    # the density was cast to complex128, 16 B/point, and its finiteness checked
    # apart from the grid's: 32 B/point in all.  Then a float64 density was kept as
    # given, and the peak was the grid check's steps and their sign mask: 9 B/point.
    # The steps are now checked in chunks, and the peak is one finiteness mask: 1 B/point
    n = 1_000_000
    grid, values = np.linspace(0.0, 1.0, n), np.exp(-np.linspace(0.0, 1.0, n))
    tracemalloc.start()
    try:
        mu = FiniteMeasure.from_density(grid, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mu.density_values.dtype == np.float64
    assert peak <= 2 * n


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
    with pytest.raises(ValueError, match="slice samples are not real"):
        herglotz_recover(lambda z: base(z) + 1e-6j, 1e-3, (-1.0, 1.0))


def test_herglotz_reads_complex_samples_with_zero_imaginary_part_as_real():
    # only a complex slice is checked for an imaginary part; one that has none gives the
    # float64 slice of the real evaluator, bit for bit
    base = two_atom_extension([(0.0, 1.0)])
    real = herglotz_recover(base, 1e-3, (-1.0, 1.0))
    twin = herglotz_recover(lambda z: base(z) + 0j, 1e-3, (-1.0, 1.0))
    assert real.density_values.dtype == twin.density_values.dtype == np.float64
    assert real.density_values.tobytes() == twin.density_values.tobytes()


def extract_atoms_by_loop(slice_measure, eps, window_width=None):
    """extract_atoms as it scanned for peaks with one Python step per sample: the reference."""
    window_width = 6.0 * eps if window_width is None else window_width
    x, v = slice_measure.density_grid, slice_measure.density_values.real
    threshold = 10.0 * float(np.median(v))
    reach = int(round(window_width / 2.0 / slice_measure.density_step))
    atoms = []
    for k in range(1, len(x) - 1):
        if v[k] > threshold and v[k] >= v[k - 1] and v[k] > v[k + 1]:
            j0, j1 = max(0, k - reach), min(len(x) - 1, k + reach)
            raw = float(np.trapezoid(v[j0:j1 + 1], x[j0:j1 + 1]))
            captured = (np.arctan((x[j1] - x[k]) / eps) + np.arctan((x[k] - x[j0]) / eps)) / np.pi
            atoms.append((float(x[k]), raw / captured))
    return atoms


def _slices():
    x = np.linspace(-1.0, 1.0, 201)
    bump = lambda a: np.exp(-((x - a) / 0.02) ** 2)
    plateau = np.where(np.abs(x - 0.3) < 0.051, 1.0, 0.0) + bump(-0.5)  # a flat top: only its last sample is a peak
    ends = 1e-3 + bump(-1.0) + bump(1.0) + bump(0.0)  # maxima at index 0 and len - 1, never taken
    ties = np.tile([0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0], 17)[:201]  # flat tops of 2 and 3 samples
    u = lambda z: sum(m * (z.imag / np.pi) / ((z.real - a) ** 2 + z.imag ** 2) for a, m in ((-1.0, 2.0), (1.0, 3.0)))
    return {
        "plateau": (FiniteMeasure.from_density(x, plateau), 0.01),
        "ends": (FiniteMeasure.from_density(x, ends), 0.01),
        "ties": (FiniteMeasure.from_density(x, ties), 0.01),
        "noise": (FiniteMeasure.from_density(x, np.random.default_rng(5).uniform(0.0, 1.0, 201) ** 8), 0.01),
        "herglotz-roundtrip": (herglotz_recover(u, 1e-3, (-2.0, 2.0)), 1e-3),  # the experiment's slice
    }


@pytest.mark.parametrize("case", ["plateau", "ends", "ties", "noise", "herglotz-roundtrip"])
def test_peak_scan_finds_the_atoms_of_the_per_sample_loop(case):
    slice_measure, eps = _slices()[case]
    want = extract_atoms_by_loop(slice_measure, eps)
    assert extract_atoms(slice_measure, eps).atoms == tuple(want)
    assert want or case == "ends"
    locations = [loc for loc, _ in want]
    if case == "ends":
        assert locations == [0.0]  # the maxima at -1 and 1 are the first and last samples
    if case == "plateau":
        np.testing.assert_allclose(locations, [-0.5, 0.35], atol=1e-12)
    if case == "ties":
        assert len(locations) == 2 * 17 - 1  # the last 2-top is cut off at sample 200


@pytest.mark.parametrize("field, value", [
    ("eps", -1e-3), ("eps", 0.0), ("eps", np.nan), ("eps", np.inf),
    ("window_width", -1.0), ("window_width", 0.0), ("window_width", np.nan), ("window_width", np.inf),
])
def test_extract_atoms_rejects_bad_scales_by_name(field, value):
    # a bad scale is named before any atom is read, never turned into a wrong mass or a numpy error
    slice_measure, _ = _slices()["herglotz-roundtrip"]
    kw = {"eps": 1e-3, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be finite and > 0"):
        extract_atoms(slice_measure, **kw)


@pytest.mark.parametrize("n", [0, 1, -3, 2.5])
def test_herglotz_rejects_sample_counts_below_two(n):
    # n = 0 raised numpy's empty-reduction error and n = 1 FiniteMeasure's
    # ">= 2 points"; neither named n
    with pytest.raises(ValueError, match="^n must be an integer >= 2"):
        herglotz_recover(lambda z: np.ones_like(z).real, 0.1, (-1.0, 1.0), n)


def test_herglotz_mass_bound():
    # pi * y * U(x + iy) never exceeds the recovered total mass (plus slack)
    u = two_atom_extension([(-1.0, 2.0), (1.0, 3.0)])
    total = herglotz_recover(u, 1e-3, (-2.0, 2.0)).total_mass().real
    for x, y in ((0.0, 0.5), (0.3, 2.0), (-1.0, 1.0), (4.0, 10.0)):
        assert np.pi * y * u(x + 1j * y) <= total + 0.15


def test_herglotz_recover_samples_in_blocks():
    # U(x + 1j * eps) on the whole grid held the 16 B/point complex argument and U's own
    # whole-array temporaries beside the grid and slice: 5.38 MB at N = 96 001
    u = two_atom_extension([(-1.0, 2.0), (1.0, 3.0)])
    n = 96001  # the default sample count for eps = 1e-3 on (-2, 2)
    herglotz_recover(u, 1e-3, (-2.0, 2.0))  # first call: lazy set-up
    tracemalloc.start()
    try:
        slice_measure = herglotz_recover(u, 1e-3, (-2.0, 2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    x = np.linspace(-2.0, 2.0, n)
    assert slice_measure.density_values.tobytes() == u(x + 1j * 1e-3).tobytes()
    assert peak <= 2 * 8 * n + 80 * measures._CHUNK


@pytest.mark.parametrize("n", [2, 3, 96000, 96001])
@pytest.mark.parametrize("data", ["normal", "ties"])
def test_median_has_the_bits_of_np_median(n, data):
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) if data == "normal" else rng.integers(0, 4, n) * 0.1
    got = measures._median(v)
    assert np.float64(got).tobytes() == np.median(v).tobytes()


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


def test_pd_verdict_keeps_the_bits_of_the_written_out_hermitian_part():
    # a complex f with f(-x) = conj(f(x)) up to roundoff; its probe matrix is Hermitian only to that roundoff
    pts = np.random.default_rng(8).uniform(-3.0, 3.0, size=12)
    f = lambda x: np.exp(-x * x + 0.3j * x) * (1.0 + 1e-14 * x)  # noqa: E731
    m = f(pts[:, None] - pts[None, :])
    assert np.any(m != m.conj().T)
    verdict = positive_definite_test(f, pts)
    assert verdict.min_eigenvalue == float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_is_named_by_its_probed_difference(bad):
    # a NaN sample once gave PDVerdict(False, nan): a verdict from no data
    f = lambda x: np.where(np.abs(x - 1.5) < 0.1, bad, np.exp(-np.abs(x)))  # noqa: E731 - bad at +-1.5 only
    with pytest.raises(ValueError, match=r"^f not finite at the probed difference points\[2\] - points\[0\] = 1\.5$"):
        positive_definite_test(f, [0.0, 1.0, 1.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_is_rejected(bad):
    # [0.0, nan] once gave a PD verdict: the constant f never saw the NaN difference
    with pytest.raises(ValueError, match="^points must be finite$"):
        positive_definite_test(lambda x: np.ones_like(x), [0.0, bad])


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
    with pytest.raises(ValueError, match="^FiniteMeasure density: values must be finite$"):
        FiniteMeasure.from_density(np.array([0.0, 1.0]), np.array([0.0, np.nan]))
    mu = FiniteMeasure.from_atoms([(0.0, 1.0), (2.0, -0.5)])
    assert mu.total_mass() == pytest.approx(0.5)
    assert mu.total_variation() == pytest.approx(1.5)
    assert not mu.is_positive()
    assert FiniteMeasure.from_atoms([(0.0, 1.0)]).is_positive()


def test_is_positive_reads_a_density():
    # a density is positive when every sample is real and >= 0 up to tau
    g = np.linspace(-1.0, 1.0, 11)
    tau = 1e-6
    assert FiniteMeasure.from_density(g, 1.0 - g * g).is_positive(tau)
    dipped = 1.0 - g * g
    dipped[-1] = -2.0 * tau
    assert not FiniteMeasure.from_density(g, dipped).is_positive(tau)
    dipped[-1] = -0.5 * tau
    assert FiniteMeasure.from_density(g, dipped).is_positive(tau)
    tilted = (1.0 - g * g).astype(complex)
    tilted[4] += 2j * tau
    assert not FiniteMeasure.from_density(g, tilted).is_positive(tau)
    tilted[4] -= 1.5j * tau
    assert FiniteMeasure.from_density(g, tilted).is_positive(tau)


def test_measure_json_round_trip():
    grid = np.linspace(-1.0, 1.0, 21)
    mu = FiniteMeasure(atoms=((0.5, 1.0 - 2.0j),), density_grid=grid,
                       density_values=np.cos(grid) + 0.1j * grid)
    back = measure_from_json(measure_to_json(mu))
    assert back.atoms == mu.atoms
    np.testing.assert_allclose(back.density_grid, grid, atol=1e-12)  # grid0 + step form
    np.testing.assert_allclose(back.density_values, mu.density_values, atol=1e-15)


@pytest.mark.parametrize("n, lo, hi", [(4001, -10.0, 10.0), (100_001, 0.1, 7.3), (21, -1.0, 1.0)])
def test_json_round_trip_keeps_the_grid_bits(n, lo, hi):
    # the step was written as g[1] - g[0], and grid0 + step k drifted off the grid:
    # 1760 ulps of max |g| at the last point of linspace(-10, 10, 4001)
    grid = np.linspace(lo, hi, n)
    mu = FiniteMeasure.from_density(grid, np.exp(-grid ** 2))
    back = measure_from_json(measure_to_json(mu))
    assert np.array_equal(back.density_grid, grid)
    assert back.total_mass() == mu.total_mass()
    assert measure_to_json(back) == measure_to_json(mu)


def test_real_density_stays_real_through_json():
    grid = np.linspace(-1.0, 1.0, 21)
    mu = FiniteMeasure.from_density(grid, np.cos(grid))
    back = measure_from_json(measure_to_json(mu))
    assert back.density_values.dtype == np.float64
    assert np.array_equal(back.density_values, mu.density_values)
    assert measure_to_json(back) == measure_to_json(mu)
