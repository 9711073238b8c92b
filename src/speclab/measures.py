"""Finite Borel measures on the line: atoms plus an absolutely continuous part.

The data model is a finite atom list plus an optional density sampled on a
uniform grid.  That covers everything this package computes with (discrete and
absolutely continuous parts); singular-continuous measures are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .harmonic import TAU_TAIL
from .linalg_core import (
    _CHUNK,
    _first_non_finite,
    _from_parts,
    _hermitian_defect,
    _hermitian_part,
    _require_count,
    _require_finite,
    _require_interval,
    _require_scale,
    _require_tolerance,
    _row_blocks,
    _sample,
    _to_parts,
    _uniform_grid,
)

__all__ = [
    "FiniteMeasure",
    "measure_fourier",
    "poisson_smooth",
    "herglotz_recover",
    "extract_atoms",
    "positive_definite_test",
    "PDVerdict",
    "measure_to_json",
    "measure_from_json",
    "TAU_NEG",
    "TAU_TAIL",
]

TAU_NEG = 1e-9


@dataclass(frozen=True)
class FiniteMeasure:
    """atoms: list of finite (location, complex mass); density: finite samples on a uniform grid.

    density_values is float64 when real (bool, integer or floating input) and complex128 otherwise.
    """

    atoms: tuple = ()
    density_grid: np.ndarray | None = field(default=None, repr=False)
    density_values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        atoms = tuple((float(x), complex(m)) for x, m in self.atoms)
        _require_finite(**{"FiniteMeasure atoms: locations": [x for x, _ in atoms],
                           "FiniteMeasure atoms: masses": [m for _, m in atoms]})
        object.__setattr__(self, "atoms", atoms)
        g, v = self.density_grid, self.density_values
        if (g is None) != (v is None):
            raise ValueError("density grid and values must be given together")
        if g is not None:
            g, v = _uniform_grid(g, v, "FiniteMeasure density")
            object.__setattr__(self, "density_grid", g)
            object.__setattr__(self, "density_values", v)

    @property
    def density_step(self) -> float:
        """(g[-1] - g[0]) / (n - 1): the step end to end, so g[0] + step * k lands on the last point."""
        if self.density_grid is None:
            raise ValueError("measure has no density part")
        g = self.density_grid
        return float((g[-1] - g[0]) / (g.size - 1))

    @staticmethod
    def from_atoms(pairs: Sequence[tuple[float, complex]]) -> "FiniteMeasure":
        return FiniteMeasure(atoms=tuple(pairs))

    @staticmethod
    def from_density(grid: np.ndarray, values: np.ndarray) -> "FiniteMeasure":
        return FiniteMeasure(atoms=(), density_grid=grid, density_values=values)

    def total_mass(self) -> complex:
        """mu(R): atom masses plus the density summed against its trapezoid weights, one _row_blocks block at a time."""
        out = sum((m for _, m in self.atoms), 0j)
        if self.density_grid is not None:
            g, v = self.density_grid, self.density_values
            out += complex(sum(_trapezoid_weights(g, r.start, r.stop) @ v[r] for r in _row_blocks(g.shape)))
        return complex(out)

    def total_variation(self) -> float:
        out = float(sum(abs(m) for _, m in self.atoms))
        if self.density_grid is not None:
            g, v = self.density_grid, self.density_values
            out += float(sum(_trapezoid_weights(g, r.start, r.stop) @ np.abs(v[r]) for r in _row_blocks(g.shape)))
        return out

    def is_positive(self, tau: float = TAU_NEG) -> bool:
        """Every atom mass and density value is real and >= 0 up to the tolerance tau (finite, >= 0)."""
        _require_tolerance(tau=tau)
        for _, m in self.atoms:
            if abs(m.imag) > tau or m.real < -tau:
                return False
        if self.density_values is not None:
            v = self.density_values
            if np.max(np.abs(v.imag), initial=0.0) > tau or np.min(v.real, initial=0.0) < -tau:
                return False
        return True

    def scaled(self, c: complex) -> "FiniteMeasure":
        dv = None if self.density_values is None else c * self.density_values
        return FiniteMeasure(tuple((x, c * m) for x, m in self.atoms), self.density_grid, dv)


def measure_fourier(mu: FiniteMeasure, omega) -> complex | np.ndarray:
    """mu_hat(omega) = integral e^{-i x omega} d mu(x).

    Atom part is summed exactly; the density part uses the trapezoid rule on
    its grid.  omega may be a scalar or an array (evaluated pointwise).  On a
    lattice grid the density's transform is summed once per distinct |omega|
    for each real part of the density and conjugated for negative omega, since
    a real part's transform is Hermitian: a symmetric omega set costs half.
    """
    w = np.asarray(omega, dtype=float)
    out = np.zeros(w.shape, dtype=complex)
    for x, m in mu.atoms:
        out += m * np.exp(-1j * x * w)
    if mu.density_grid is not None:
        out += _density_fourier(mu.density_grid, mu.density_values, w.ravel()).reshape(w.shape)
    if np.isscalar(omega) or w.ndim == 0:
        return complex(out)
    return out


_ROWS, _COLS = 128, 512


def _trapezoid_weights(g: np.ndarray, lo: int = 0, hi: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Weights w with sum_j w_j f(g_j) = np.trapezoid(f(g), g) on the ascending grid g, or w[lo:hi] (hi <= g.size).

    Each entry is formed from the grid points beside it, so a slice has the bits of the whole.  The
    entries are written into out (hi - lo floats) when it is given, and into a new array otherwise.
    """
    hi = g.size if hi is None else min(hi, g.size)
    out = np.empty(hi - lo) if out is None else out
    first = max(lo - 1, 0)
    dg = np.diff(g[first:min(hi + 1, g.size)])  # dg[t] = g[first + t + 1] - g[first + t]
    i, j = max(lo, 1), min(hi, g.size - 1)  # the points i..j-1 have a grid step on each side
    np.add(dg[i - 1 - first:j - 1 - first], dg[i - first:j - first], out=out[i - lo:j - lo])
    if lo == 0:
        out[0] = dg[0]
    if hi == g.size:
        out[-1] = dg[-1]
    out /= 2.0
    return out


def _on_lattice(g: np.ndarray, origin: float, h: float, s: int = 0) -> bool:
    """Whether g_i = origin + (s + i) h for every i, to within 4 ulps of max |g|.

    The gaps are formed in place, one _row_blocks chunk at a time, and their max is exact, so the check
    holds O(_CHUNK) floats beyond g.
    """
    worst = 0.0
    for r in _row_blocks(g.shape):
        gap = np.arange(*r.indices(g.size), dtype=float)
        gap += s
        gap *= h
        gap += origin
        gap -= g[r]
        np.abs(gap, out=gap)
        worst = max(worst, np.max(gap))
    return bool(worst <= 4.0 * np.spacing(max(np.max(g), -np.min(g))))


def _real_parts(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The real arrays x is made of: (x,) when x is real, (x.real, x.imag) when it is complex."""
    return (x.real, x.imag) if np.iscomplexobj(x) else (x,)


def _joined(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The inverse of _real_parts: parts[0] for one part, parts[0] + 1j parts[1] for two."""
    return parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]


def _kernel_sum(kernel: Callable, x: np.ndarray, g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_j kernel(x_i, g_j) u_j for each x_i, one sum per trailing column of u, in the dtype of kernel * u.

    The kernel is called on tiles of at most _ROWS x _COLS points, so no len(x) x len(g) array is
    formed.  Each row block is the sum of its tiles; an empty x makes one empty block, of that dtype.
    """
    return np.concatenate([
        sum(kernel(x[r:r + _ROWS, None], g[None, c:c + _COLS]) @ u[c:c + _COLS] for c in range(0, g.size, _COLS))
        for r in range(0, max(x.size, 1), _ROWS)
    ])


def _phases(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """e^{-i x_j w_k} as a len(x) x len(w) complex array, exponentiated in place."""
    z = -1j * np.multiply.outer(x, w)
    return np.exp(z, out=z)


def _density_fourier(g: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Trapezoid rule for int e^{-i x w} v(x) dx on the grid g, at each w (1-d).

    The trapezoid weights are folded into the density.  When g is arithmetic
    to within a few ulps, index k = a*B + b splits the phase into
    e^{-i w (g_0 + a B h)} e^{-i w b h}, so the sum is an (A x B) @ (B x M)
    product and only (A + B) M exponentials, with A, B ~ sqrt(N).  The product
    is taken in real arithmetic, once per real part of v (v itself when it is
    real, v.real and v.imag when it is complex): the weighted (A x B) blocks of
    the part times the (B x 2M) real matrix of the inner phases' real and
    imaginary parts.  The transform of a real part is Hermitian,
    F(-w) = conj F(w), so M counts only the sorted unique |w|: each part's sum
    is taken once per |w|, scattered back to w's order and conjugated where w's
    sign bit is set (-0 included).  A complex v is transformed as
    F(re) + i F(im).  The sum runs in the row blocks of _row_blocks((A, B)),
    about _CHUNK points each: each block's trapezoid weights are written into
    one buffer, which every block reuses, weighted by the part in place,
    multiplied by the columns, and summed against the block's rows of outer
    phases into the M-vector result; the columns are filled in the row blocks
    of _row_blocks((B, B)), the same number of rows at a time.  So the working
    set is O(sqrt(N) M + block): the columns and one block's arrays, and no
    array of N points.  A grid of one block (N up to about _CHUNK) has the bits
    of the unblocked product over the same columns; more blocks move the sum at
    roundoff.  Otherwise the direct sum runs over tiles, at every w, so no
    M x N temporary is formed.
    """
    n = g.size
    h = (g[-1] - g[0]) / (n - 1)
    if not _on_lattice(g, g[0], h):
        return _kernel_sum(lambda wr, gc: np.exp(-1j * (wr * gc)), w, g, v * _trapezoid_weights(g))
    w_abs, back = np.unique(np.abs(w), return_inverse=True)
    m = w_abs.size
    b = int(np.ceil(np.sqrt(n)))
    a = -(-n // b)
    columns = np.empty((b, 2 * m))
    for r in _row_blocks((b, b)):
        phase = _phases(np.arange(r.start, min(r.stop, b)) * h, w_abs)
        columns[r, :m], columns[r, m:] = _real_parts(phase)
    parts, sums = _real_parts(v), None
    blocks = _row_blocks((a, b))
    block = np.empty(len(range(a)[blocks[0]]) * b)
    for r in blocks:
        lo, hi, k = r.start * b, min(r.stop * b, n), len(range(a)[r])
        outer = _phases(g[0] + np.arange(r.start, r.start + k) * (b * h), w_abs)
        terms = []
        for part in parts:
            _trapezoid_weights(g, lo, hi, out=block[:hi - lo])
            np.multiply(block[:hi - lo], part[lo:hi], out=block[:hi - lo])
            block[hi - lo:] = 0.0  # the last block's rows past the grid's end
            p = block[:k * b].reshape(k, b) @ columns
            terms.append(np.einsum("am,am->m", outer, p[:, :m] + 1j * p[:, m:]))
        sums = terms if sums is None else [s + t for s, t in zip(sums, terms)]
    negative, folded = np.signbit(w), []
    for s in sums:
        s = s[back]
        folded.append(np.conjugate(s, out=s, where=negative))
    return _joined(folded)


def poisson_smooth(mu: FiniteMeasure, y: float, grid: np.ndarray) -> FiniteMeasure:
    """Harmonic extension slice: density u(x) = (1/pi) int y / ((x-u)^2 + y^2) dmu(u).

    Returns a density-only measure on the given uniform grid.  For positive mu
    the smoothed mass never exceeds the input mass, and captures it up to the
    kernel tail outside the grid window.  The output density is float64 when
    mu's density (if any) is float64 and every atom mass is real, and
    complex128 otherwise.

    The density part is the trapezoid sum sum_j k(x_i - u_j) w_j v_j over the
    density grid u, taken once per real part of w v: one row for a real
    density, two (real and imaginary) for a complex one.  When u is arithmetic
    with step h and x_i = u_0 + (s + i) h for an integer s, both to within 4
    ulps, the sum is a Toeplitz matvec: the kernel is sampled once at the
    M + N - 1 offsets and convolved with each row by a zero-padded real FFT of
    length n_fft >= M + N - 1, so the working set is O(n_fft) per row.  Its
    error is absolute, about eps log2(n_fft) max|k| sum_j |w_j v_j|, with
    max|k| <= 1/(pi y).  Any other grid pair takes the direct sum over tiles of
    at most 128 x 512 points.  Neither route forms an M x N array.
    """
    _require_scale(y=y)
    x = np.asarray(grid, dtype=float)
    kernel = lambda d: (y / np.pi) / (d * d + y * y)
    rows = ()
    if mu.density_grid is not None:
        u = mu.density_grid
        parts = np.stack(_real_parts(_trapezoid_weights(u) * mu.density_values))
        n, h = u.size, mu.density_step
        s = round((x[0] - u[0]) / h)
        if _on_lattice(u, u[0], h) and _on_lattice(x, u[0], h, s):
            # x_i - u_j = (s + i - j) h: sample offsets (s - n + 1) h ... (s + M - 1) h
            n_fft = 1 << (x.size + n - 2).bit_length()
            k = kernel((s - n + 1 + np.arange(x.size + n - 1)) * h)
            conv = np.fft.irfft(np.fft.rfft(k, n_fft) * np.fft.rfft(parts, n_fft), n_fft)
            rows = conv[:, n - 1:n - 1 + x.size]
        else:
            rows = _kernel_sum(lambda xr, uc: kernel(xr - uc), x, u, parts.T).T
    real = len(rows) < 2 and not any(m.imag for _, m in mu.atoms)
    dens = np.zeros(x.shape, dtype=float if real else complex)
    for a, m in mu.atoms:
        dens += (m.real if real else m) * kernel(x - a)
    if len(rows):
        dens += _joined(rows)
    return FiniteMeasure.from_density(x, dens)


def herglotz_recover(U: Callable, eps: float, window: tuple[float, float], n: int | None = None) -> FiniteMeasure:
    """Sample the slice u -> U(u + i*eps) of a positive harmonic function.

    Returns the slice as a density measure on the window.  U is called on
    t + i*eps for the real grid t, once per block of about 16 384 points, so
    no N-point complex argument is formed.  Atom locations and masses are
    read off afterwards with extract_atoms.  Raises ValueError if a sample is
    negative beyond -1e-9 (the function is then not positive harmonic on the
    probed region), and if the sample count n is given but is not an integer
    >= 2.
    """
    _require_scale(eps=eps)
    lo, hi = float(window[0]), float(window[1])
    _require_interval("window", lo, hi)
    if n is None:
        # resolve the Lorentzian scale eps well: window integrals of the slice
        # are trapezoid sums, and coarse peaks bleed mass
        n = max(1001, int(np.ceil((hi - lo) / (eps / 24.0))) + 1)
    _require_count(2, n=n)
    x = np.linspace(lo, hi, n)
    vals = _sample(lambda t: U(t + 1j * eps), x)
    if np.iscomplexobj(vals) and np.max(np.abs(vals.imag), initial=0.0) > 1e-9 * (1.0 + np.max(np.abs(vals.real))):
        raise ValueError("slice samples are not real: U is not a harmonic-positive evaluator")
    v = vals.real
    if np.min(v) < -TAU_NEG:
        raise ValueError(f"negative slice sample {np.min(v):.3e}: not a positive harmonic function")
    return FiniteMeasure.from_density(x, v)


def extract_atoms(slice_measure: FiniteMeasure, eps: float, window_width: float | None = None) -> FiniteMeasure:
    """Read atom locations/masses off a Poisson slice at height eps.

    Local maxima above 10x the median density are taken as atom locations;
    each mass is the window integral over width 6*eps (default), divided by
    the in-window kernel mass (2/pi) arctan(half_width/eps) so the tail the
    window misses is accounted for analytically.  An eps or window_width that
    is not finite or is <= 0 raises ValueError.
    """
    if slice_measure.density_grid is None:
        raise ValueError("expected a density measure")
    _require_scale(eps=eps)  # before 6 eps is formed from it
    window_width = 6.0 * eps if window_width is None else window_width
    _require_scale(window_width=window_width)
    x = slice_measure.density_grid
    v = slice_measure.density_values.real
    threshold = 10.0 * _median(v)
    half = window_width / 2.0
    step = slice_measure.density_step
    reach = int(round(half / step))
    inner = v[1:-1]  # the first and last samples are never peaks
    peaks = np.flatnonzero((inner > threshold) & (inner >= v[:-2]) & (inner > v[2:])) + 1
    atoms = []
    for k in peaks.tolist():
        j0, j1 = max(0, k - reach), min(len(x) - 1, k + reach)
        raw = float(np.trapezoid(v[j0:j1 + 1], x[j0:j1 + 1]))
        # in-window mass of the ideal kernel over the actual edges, so the
        # missed tails are undone without an O(step) boundary mismatch
        captured = (np.arctan((x[j1] - x[k]) / eps)
                    + np.arctan((x[k] - x[j0]) / eps)) / np.pi
        atoms.append((float(x[k]), raw / captured))
    return FiniteMeasure.from_atoms(atoms)


def _median(v: np.ndarray) -> float:
    """The median of a nonempty 1-d array of finite values, with np.median's bits.

    It is taken from one partition, without np.median's NaN check, which imports
    numpy.ma on first use.
    """
    below, above = (v.size - 1) // 2, v.size // 2
    mid = np.partition(v, [below, above])
    return float((mid[below] + mid[above]) / 2.0)


@dataclass(frozen=True)
class PDVerdict:
    is_pd: bool
    min_eigenvalue: float
    points: np.ndarray

    @property
    def verdict(self) -> str:
        return "PD" if self.is_pd else "not-PD"


def positive_definite_test(f: Callable, points: Sequence[float], tau: float = TAU_NEG) -> PDVerdict:
    """Finite-section positive-definiteness test of a function on the line.

    Builds M[k, j] = f(x_k - x_j) and reports the minimum eigenvalue; the
    verdict is PD iff min eig >= -tau.  f is called on the matrix of
    differences once per block of about 16 384 entries; a function that does
    not broadcast is sampled entry by entry instead.  The Hermitian-symmetry
    precondition f(-x) = conj(f(x)) is checked on the probed differences
    first and its violation raises ValueError (a structural failure, not a
    not-PD verdict), as do a non-finite point, a non-finite sample, named by
    its probed difference, and a tau that is not finite or is below 0.
    """
    _require_tolerance(tau=tau)
    x = np.asarray(points, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("points must be a nonempty 1-d list")
    _require_finite(points=x)
    m = _sample(f, x[:, None] - x[None, :])
    bad = _first_non_finite(m)
    if bad is not None:
        i, j = bad
        raise ValueError(f"f not finite at the probed difference points[{i}] - points[{j}] = {float(x[i] - x[j])!r}")
    scale = float(np.max(np.abs(m))) + 1.0
    defect = float(_hermitian_defect(m))
    if defect > tau * scale:
        raise ValueError(
            f"f(-x) != conj(f(x)) on probed differences (defect {defect:.3e}); "
            "not a candidate positive-definite function"
        )
    w = np.linalg.eigvalsh(_hermitian_part(m))
    lo = float(w[0])
    return PDVerdict(lo >= -tau, lo, x)


def measure_to_json(mu: FiniteMeasure) -> dict:
    """Serialize to {atoms: [{x, re, im}], density: {grid0, step, re, im}}."""
    re, im = _to_parts([m for _, m in mu.atoms])
    out: dict = {"atoms": [{"x": x, "re": r, "im": i} for (x, _), r, i in zip(mu.atoms, re, im)], "density": None}
    if mu.density_grid is not None:
        re, im = _to_parts(mu.density_values)
        out["density"] = {"grid0": float(mu.density_grid[0]), "step": mu.density_step, "re": re, "im": im}
    return out


def measure_from_json(obj: dict) -> FiniteMeasure:
    """Inverse of measure_to_json, bit for bit; the density is float64 when every imaginary part is +0.0."""
    listed = obj.get("atoms", [])
    atoms = tuple(zip((float(a["x"]) for a in listed), _from_parts([a["re"] for a in listed], [a["im"] for a in listed])))
    dens = obj.get("density")
    if dens is None:
        return FiniteMeasure(atoms)
    values = _from_parts(dens["re"], dens["im"])
    grid = float(dens["grid0"]) + float(dens["step"]) * np.arange(values.size)
    return FiniteMeasure(atoms, grid, values)
