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
    its grid.  omega may be a scalar or an array (evaluated pointwise).  The
    density's transform is summed once per distinct |omega| for each real part
    of the density and conjugated for negative omega, since a real part's
    transform is Hermitian: a symmetric omega set costs half.
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
_SPLIT = 128  # the lattice transform's innermost index c runs over this many grid steps


def _trapezoid_weights(g: np.ndarray, lo: int = 0, hi: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Weights w with sum_j w_j f(g_j) = np.trapezoid(f(g), g) to roundoff on the ascending grid g, or w[lo:hi].

    An inner weight is (g_{k+1} - g_{k-1}) / 2, one subtraction, and an end weight half its one step.  Each is
    formed from the grid points beside it, so a slice has the bits of the whole.  The entries are written into
    out (hi - lo floats, hi capped at g.size) when it is given, and into a new array otherwise.
    """
    hi = g.size if hi is None else min(hi, g.size)
    out = np.empty(hi - lo) if out is None else out
    i, j = max(lo, 1), min(hi, g.size - 1)  # the points i..j-1 have a grid point on each side
    np.subtract(g[i + 1:j + 1], g[i - 1:j - 1], out=out[i - lo:j - lo])
    if lo == 0:
        out[0] = g[1] - g[0]
    if hi == g.size:
        out[-1] = g[-1] - g[-2]
    out /= 2.0
    return out


def _off_lattice(g: np.ndarray, lo: int, hi: int, origin: float, h: float, s: int, top: float, out: np.ndarray) -> bool:
    """Whether some g_i, lo <= i < hi, lies more than 4 ulps of top (max |g|) from origin + (s + i) h.

    The gaps are formed in out (at least hi - lo floats), and their max is exact.
    """
    gap = np.multiply(np.arange(lo + s, hi + s, dtype=float), h, out=out[:hi - lo])
    gap += origin
    gap -= g[lo:hi]
    np.abs(gap, out=gap)
    return bool(np.max(gap, initial=0.0) > 4.0 * np.spacing(top))


def _on_lattice(g: np.ndarray, origin: float, h: float, s: int = 0) -> bool:
    """Whether g_i = origin + (s + i) h for every i, to within 4 ulps of max |g|.

    The gaps are formed by _off_lattice, one _row_blocks chunk at a time in one buffer, so the check holds
    O(_CHUNK) floats beyond g.
    """
    top, gap = max(np.max(g), -np.min(g)), np.empty(min(g.size, _CHUNK))
    return not any(_off_lattice(g, r.start, min(r.stop, g.size), origin, h, s, top, gap) for r in _row_blocks(g.shape))


def _real_parts(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The real arrays x is made of: (x,) when x is real, (x.real, x.imag) when it is complex."""
    return (x.real, x.imag) if np.iscomplexobj(x) else (x,)


def _joined(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The inverse of _real_parts: parts[0] for one part, parts[0] + 1j parts[1] for two."""
    return parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]


def _kernel_sum(kernel: Callable, x: np.ndarray, g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_j kernel(x_i, g_j) u_pj for each x_i and each row u_p of the P x len(g) array u, as a P x len(x) array
    in the dtype of kernel * u.

    The kernel is called on tiles of at most _ROWS x _COLS points, so no len(x) x len(g) array is formed.  Each
    tile takes one matrix-vector product per row of u, so a row's sums have the same bits whatever rows are
    stacked with it.  Each row block is the sum of its tiles; an empty x makes one empty block, of that dtype.
    """
    return np.concatenate([
        sum(kernel(x[r:r + _ROWS, None], g[None, c:c + _COLS]) @ u[:, c:c + _COLS, None]
            for c in range(0, g.size, _COLS))[..., 0]
        for r in range(0, max(x.size, 1), _ROWS)
    ], axis=1)


def _phases(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """e^{-i x_j w_k} as a len(x) x len(w) complex array, exponentiated in place."""
    z = -1j * np.multiply.outer(x, w)
    return np.exp(z, out=z)


def _density_fourier(g: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Trapezoid rule for int e^{-i x w} v(x) dx on the grid g, at each w (1-d).

    The sum is taken once per real part of v (v itself when it is real, v.real and v.imag when it is
    complex) and once per sorted unique |w|.  The transform of a real part is Hermitian,
    F(-w) = conj F(w), so each part's sums are scattered back to w's order and conjugated where w's
    sign bit is set (-0 included), and a complex v is transformed as F(re) + i F(im).  A symmetric w
    set costs half.  _lattice_sums takes the sums when g is arithmetic to within 4 ulps; at the first
    block that is not, the direct sum runs over tiles of the complex kernel instead, so no M x N
    temporary is formed on either route.
    """
    w_abs, back = np.unique(np.abs(w), return_inverse=True)
    parts = _real_parts(v)
    sums = _lattice_sums(g, parts, w_abs)
    if sums is None:
        weighted = np.stack(parts)
        weighted *= _trapezoid_weights(g)
        sums = _kernel_sum(lambda wr, gc: np.exp(-1j * (wr * gc)), w_abs, g, weighted)
    negative, folded = np.signbit(w), []
    for s in sums:
        s = s[back]
        folded.append(np.conjugate(s, out=s, where=negative))
    return _joined(folded)


def _lattice_sums(g: np.ndarray, parts: Sequence[np.ndarray], w: np.ndarray) -> list[np.ndarray] | None:
    """Each real part's trapezoid sum of e^{-i x w} part(x) dx at each w, or None when g is off the lattice.

    On the lattice g_k = g_0 + k h, the index splits as k = (a B + b) C + c, with C = _SPLIT (or N when
    N is smaller) and A ~ B ~ sqrt(N / C), so the phase is e^{-i w (g_0 + a B C h)} e^{-i w b C h}
    e^{-i w c h}: (A + B + C) M exponentials in all.  The sum runs in the row blocks of
    _row_blocks((A, B C)), about _CHUNK points each (one row, B C points, when that is more).  For each
    block, the gaps g_k - (g_0 + k h) are formed in one buffer, which every block reuses, and checked by
    _off_lattice; then the part's trapezoid weights are written into it and weighted by the part in
    place.  The buffer, as a (rows B) x C matrix, takes one real product with the C x 2M matrix of the
    inner phases' real and imaginary parts, and the result is contracted over b with the B x M middle
    phases into the block's rows of an A x M array per part.  After the last block, that array is
    contracted over a with the A x M outer phases.  So the working set is O((C + sqrt(N / C)) M + block):
    the phases, the A x M arrays and one block's arrays, and no array of N points.
    """
    n, m = g.size, w.size
    h = (g[-1] - g[0]) / (n - 1)
    c = min(_SPLIT, n)
    b = int(np.ceil(np.sqrt(-(-n // c))))
    a = -(-n // (b * c))
    columns = np.hstack(_real_parts(_phases(np.arange(c) * h, w)))
    middle = _phases(np.arange(b) * (c * h), w).conj()  # vecdot conjugates its first operand
    top = max(g[-1], -g[0])  # max |g|, as g ascends
    blocks = _row_blocks((a, b * c))
    block = np.empty(len(range(a)[blocks[0]]) * b * c)
    rows = np.empty((len(parts), a, m), dtype=complex)  # each part's sum over b and c, for each a
    for r in blocks:
        lo, hi, k = r.start * b * c, min(r.stop * b * c, n), len(range(a)[r])
        if _off_lattice(g, lo, hi, g[0], h, 0, top, block):
            return None
        for part, row in zip(parts, rows):
            _trapezoid_weights(g, lo, hi, out=block[:hi - lo])
            np.multiply(block[:hi - lo], part[lo:hi], out=block[:hi - lo])
            block[hi - lo:] = 0.0  # the last block's points past the grid's end
            p = block[:k * b * c].reshape(k * b, c) @ columns
            inner = np.empty((k, b, m), dtype=complex)
            inner.real = p[:, :m].reshape(k, b, m)
            inner.imag = p[:, m:].reshape(k, b, m)
            np.vecdot(middle, inner, axis=-2, out=row[r])
    outer = _phases(g[0] + np.arange(a) * (b * c * h), w).conj()
    return list(np.vecdot(outer, rows, axis=-2))


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
            rows = _kernel_sum(lambda xr, uc: kernel(xr - uc), x, u, parts)
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
