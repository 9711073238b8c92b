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
from .linalg_core import _require_finite, _sample, _uniform_grid

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
    """atoms: list of (location, complex mass); density: samples on a uniform grid."""

    atoms: tuple = ()
    density_grid: np.ndarray | None = field(default=None, repr=False)
    density_values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        atoms = tuple((float(x), complex(m)) for x, m in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        g, v = self.density_grid, self.density_values
        if (g is None) != (v is None):
            raise ValueError("density grid and values must be given together")
        if g is not None:
            g, v = _uniform_grid(g, v, "FiniteMeasure density")
            if not np.isfinite(v).all():
                raise ValueError("density has non-finite values")
            object.__setattr__(self, "density_grid", g)
            object.__setattr__(self, "density_values", v)

    @property
    def density_step(self) -> float:
        if self.density_grid is None:
            raise ValueError("measure has no density part")
        return float(self.density_grid[1] - self.density_grid[0])

    @staticmethod
    def from_atoms(pairs: Sequence[tuple[float, complex]]) -> "FiniteMeasure":
        return FiniteMeasure(atoms=tuple(pairs))

    @staticmethod
    def from_density(grid: np.ndarray, values: np.ndarray) -> "FiniteMeasure":
        return FiniteMeasure(atoms=(), density_grid=grid, density_values=values)

    def total_mass(self) -> complex:
        """mu(R): atom masses plus the trapezoid integral of the density."""
        out = sum((m for _, m in self.atoms), 0j)
        if self.density_grid is not None:
            out += complex(np.trapezoid(self.density_values, self.density_grid))
        return complex(out)

    def total_variation(self) -> float:
        out = float(sum(abs(m) for _, m in self.atoms))
        if self.density_grid is not None:
            out += float(np.trapezoid(np.abs(self.density_values), self.density_grid))
        return out

    def is_positive(self, tau: float = TAU_NEG) -> bool:
        """Every atom mass and density value is real and >= 0 up to the finite tolerance tau."""
        _require_finite(tau=tau)
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
    its grid.  omega may be a scalar or an array (evaluated pointwise).
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


_ROWS, _COLS = 256, 1 << 14


def _trapezoid_weights(g: np.ndarray) -> np.ndarray:
    """Weights w with sum_j w_j f(g_j) = np.trapezoid(f(g), g) on the ascending grid g."""
    dg = np.diff(g)
    return np.concatenate((dg[:1], dg[:-1] + dg[1:], dg[-1:])) / 2.0


def _on_lattice(g: np.ndarray, origin: float, h: float, s: int = 0) -> bool:
    """Whether g_i = origin + (s + i) h for every i, to within 4 ulps of max |g|."""
    ideal = origin + (s + np.arange(g.size)) * h
    return bool(np.max(np.abs(g - ideal)) <= 4.0 * np.spacing(np.max(np.abs(g))))


def _kernel_sum(kernel: Callable, x: np.ndarray, g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_j kernel(x_i, g_j) u_j for each x_i, one sum per trailing column of u.

    The kernel is called on tiles of at most _ROWS x _COLS points, so no
    len(x) x len(g) array is formed.
    """
    out = np.zeros((x.size,) + u.shape[1:], dtype=u.dtype)
    for r in range(0, x.size, _ROWS):
        for c in range(0, g.size, _COLS):
            out[r:r + _ROWS] += kernel(x[r:r + _ROWS, None], g[None, c:c + _COLS]) @ u[c:c + _COLS]
    return out


def _density_fourier(g: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Trapezoid rule for int e^{-i x w} v(x) dx on the grid g, at each w (1-d).

    The trapezoid weights are folded into the density.  When g is arithmetic
    to within a few ulps, index k = a*B + b splits the phase into
    e^{-i w (g_0 + a B h)} e^{-i w b h}, so the sum is one (A x B) @ (B x M)
    product and only (A + B) M exponentials, with A, B ~ sqrt(N).  Otherwise
    the direct sum runs over tiles, so no M x N temporary is formed.
    """
    u = v * _trapezoid_weights(g)
    n = g.size
    h = (g[-1] - g[0]) / (n - 1)
    if _on_lattice(g, g[0], h):
        b = int(np.ceil(np.sqrt(n)))
        a = -(-n // b)
        blocks = np.zeros(a * b, dtype=complex)
        blocks[:n] = u
        inner = blocks.reshape(a, b) @ np.exp(-1j * np.multiply.outer(np.arange(b) * h, w))
        outer = np.exp(-1j * np.multiply.outer(g[0] + np.arange(a) * (b * h), w))
        return np.einsum("am,am->m", outer, inner)
    return _kernel_sum(lambda wr, gc: np.exp(-1j * (wr * gc)), w, g, u)


def poisson_smooth(mu: FiniteMeasure, y: float, grid: np.ndarray) -> FiniteMeasure:
    """Harmonic extension slice: density u(x) = (1/pi) int y / ((x-u)^2 + y^2) dmu(u).

    Returns a density-only measure on the given uniform grid.  For positive mu
    the smoothed mass never exceeds the input mass, and captures it up to the
    kernel tail outside the grid window.

    The density part is the trapezoid sum sum_j k(x_i - u_j) w_j v_j over the
    density grid u.  When u is arithmetic with step h and x_i = u_0 + (s + i) h
    for an integer s, both to within 4 ulps, the sum is a Toeplitz matvec: the
    kernel is sampled once at the M + N - 1 offsets and convolved with w v by a
    zero-padded real FFT of length n_fft >= M + N - 1.  Its error is absolute,
    about eps log2(n_fft) max|k| sum_j |w_j v_j|, with max|k| <= 1/(pi y).  Any
    other grid pair takes the direct sum over tiles of at most 256 x 16384
    points.  Neither route forms an M x N array.
    """
    if not y > 0:
        raise ValueError("y must be positive")
    x = np.asarray(grid, dtype=float)
    dens = np.zeros(x.shape, dtype=complex)
    for a, m in mu.atoms:
        dens += m * (y / np.pi) / ((x - a) ** 2 + y * y)
    if mu.density_grid is not None:
        u = mu.density_grid
        wv = _trapezoid_weights(u) * mu.density_values
        parts = np.stack((wv.real, wv.imag))
        kernel = lambda d: (y / np.pi) / (d * d + y * y)
        n = u.size
        h = (u[-1] - u[0]) / (n - 1)
        s = round((x[0] - u[0]) / h)
        if _on_lattice(u, u[0], h) and _on_lattice(x, u[0], h, s):
            # x_i - u_j = (s + i - j) h: sample offsets (s - n + 1) h ... (s + M - 1) h
            n_fft = 1 << (x.size + n - 2).bit_length()
            k = kernel((s - n + 1 + np.arange(x.size + n - 1)) * h)
            conv = np.fft.irfft(np.fft.rfft(k, n_fft) * np.fft.rfft(parts, n_fft), n_fft)
            re, im = conv[:, n - 1:n - 1 + x.size]
        else:
            re, im = _kernel_sum(lambda xr, uc: kernel(xr - uc), x, u, parts.T).T
        dens += re + 1j * im
    return FiniteMeasure.from_density(x, dens)


def herglotz_recover(U: Callable, eps: float, window: tuple[float, float], n: int | None = None) -> FiniteMeasure:
    """Sample the slice u -> U(u + i*eps) of a positive harmonic function.

    Returns the slice as a density measure on the window.  Atom locations and
    masses are read off afterwards with extract_atoms.  Raises ValueError if a
    sample is negative beyond -1e-9 (the function is then not positive
    harmonic on the probed region), and if the sample count n is given
    but is not an integer >= 2.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must satisfy lo < hi")
    if n is None:
        # resolve the Lorentzian scale eps well: window integrals of the slice
        # are trapezoid sums, and coarse peaks bleed mass
        n = max(1001, int(np.ceil((hi - lo) / (eps / 24.0))) + 1)
    elif not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    x = np.linspace(lo, hi, n)
    vals = np.asarray(U(x + 1j * eps), dtype=complex)
    if np.max(np.abs(vals.imag), initial=0.0) > 1e-9 * (1.0 + np.max(np.abs(vals.real))):
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
    window misses is accounted for analytically.
    """
    if slice_measure.density_grid is None:
        raise ValueError("expected a density measure")
    if window_width is None:
        window_width = 6.0 * eps
    x = slice_measure.density_grid
    v = slice_measure.density_values.real
    med = float(np.median(v))
    threshold = 10.0 * med
    half = window_width / 2.0
    step = slice_measure.density_step
    reach = int(round(half / step))
    atoms = []
    for k in range(1, len(x) - 1):
        if v[k] > threshold and v[k] >= v[k - 1] and v[k] > v[k + 1]:
            j0, j1 = max(0, k - reach), min(len(x) - 1, k + reach)
            raw = float(np.trapezoid(v[j0:j1 + 1], x[j0:j1 + 1]))
            # in-window mass of the ideal kernel over the actual edges, so the
            # missed tails are undone without an O(step) boundary mismatch
            captured = (np.arctan((x[j1] - x[k]) / eps)
                        + np.arctan((x[k] - x[j0]) / eps)) / np.pi
            atoms.append((float(x[k]), raw / captured))
    return FiniteMeasure.from_atoms(atoms)


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
    verdict is PD iff min eig >= -tau.  f is called once on the matrix of
    differences; a function that does not broadcast is sampled entry by entry
    instead.  The Hermitian-symmetry precondition f(-x) = conj(f(x)) is
    checked on the probed differences first and its violation raises
    ValueError (a structural failure, not a not-PD verdict), as does a
    non-finite tau.
    """
    _require_finite(tau=tau)
    x = np.asarray(points, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("points must be a nonempty 1-d list")
    m = _sample(f, x[:, None] - x[None, :])
    scale = float(np.max(np.abs(m))) + 1.0
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > tau * scale:
        raise ValueError(
            f"f(-x) != conj(f(x)) on probed differences (defect {defect:.3e}); "
            "not a candidate positive-definite function"
        )
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    lo = float(w[0])
    return PDVerdict(lo >= -tau, lo, x)


def measure_to_json(mu: FiniteMeasure) -> dict:
    """Serialize to {atoms: [{x, re, im}], density: {grid0, step, re, im}}."""
    out: dict = {"atoms": [{"x": x, "re": m.real, "im": m.imag} for x, m in mu.atoms]}
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


def measure_from_json(obj: dict) -> FiniteMeasure:
    atoms = tuple((float(a["x"]), float(a["re"]) + 1j * float(a["im"])) for a in obj.get("atoms", []))
    dens = obj.get("density")
    if dens is None:
        return FiniteMeasure(atoms)
    re = np.asarray(dens["re"], dtype=float)
    im = np.asarray(dens["im"], dtype=float)
    grid = float(dens["grid0"]) + float(dens["step"]) * np.arange(re.size)
    return FiniteMeasure(atoms, grid, re + 1j * im)
