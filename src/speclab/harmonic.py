"""Fourier series, the unitary DFT, and Poisson integrals on half-plane and disc.

Normalizations:

* Fourier coefficients carry no 1/(2pi):  c(n) = integral_{-pi}^{pi} f(t) e^{-int} dt,
  so Plancherel reads ||f||^2_{L2} = (1/2pi) sum |c(n)|^2;
* the DFT is (F_N x)_m = N^{-1/2} sum_n e^{+2pi i m n / N} x_n (unitary);
* the half-plane kernel is P_y(x) = (1/pi) y / (x^2 + y^2), total mass 1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .linalg_core import (SpectralResolution, _from_parts, _real_scalar, _require_count, _require_finite, _require_interval,
                          _require_scale, _sample, _to_parts, _uniform_grid)

__all__ = [
    "FourierSeries",
    "SampledBoundaryFunction",
    "fourier_coefficients",
    "dft",
    "inverse_dft",
    "poisson_halfplane",
    "halfplane_window",
    "poisson_disc",
    "momentum_model",
    "series_to_json",
    "series_from_json",
    "boundary_to_csv",
    "boundary_from_csv",
]

TAU_TAIL = 1e-6
DEFAULT_GRID = 2048


@dataclass(frozen=True)
class FourierSeries:
    """Coefficients c(n) for n in [-order, order], stored at index n + order."""

    order: int
    coefficients: np.ndarray

    def __post_init__(self):
        _require_count(0, order=self.order)
        c = np.asarray(self.coefficients, dtype=complex)
        if c.shape != (2 * self.order + 1,):
            raise ValueError(f"expected {2 * self.order + 1} coefficients, got {c.shape}")
        _require_finite(coefficients=c)
        object.__setattr__(self, "coefficients", c)

    def coefficient(self, n: int) -> complex:
        _require_count(-self.order, n=n)
        if n > self.order:
            raise ValueError(f"mode {n} outside [-{self.order}, {self.order}]")
        return complex(self.coefficients[n + self.order])

    def plancherel_energy(self) -> float:
        """(1/2pi) sum |c(n)|^2, which equals ||f||^2 for a degree <= order polynomial."""
        return float(np.sum(np.abs(self.coefficients) ** 2) / (2.0 * np.pi))


@dataclass(frozen=True)
class SampledBoundaryFunction:
    """Finite samples on a uniform grid (circle period or real-line window).

    The values are float64 when real (bool, integer or floating input) and complex128 otherwise.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g, v = _uniform_grid(self.grid, self.values, "SampledBoundaryFunction")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def covers_period(self, period: float = 2.0 * np.pi) -> bool:
        span = self.grid[-1] - self.grid[0] + self.step
        return abs(span - period) <= 1e-9 * period

    @staticmethod
    def on_circle(f, n: int = DEFAULT_GRID) -> "SampledBoundaryFunction":
        """Sample f on the right-open periodic grid t_k = -pi + 2pi k / n."""
        _require_count(2, n=n)
        t = -np.pi + 2.0 * np.pi * np.arange(n) / n
        return SampledBoundaryFunction(t, _sample(f, t))

    @staticmethod
    def on_window(f, lo: float, hi: float, n: int) -> "SampledBoundaryFunction":
        """Sample f on n points of [lo, hi], endpoints included."""
        _require_interval("(lo, hi)", lo, hi)
        _require_count(2, n=n)
        t = np.linspace(lo, hi, n)
        return SampledBoundaryFunction(t, _sample(f, t))


def fourier_coefficients(f: SampledBoundaryFunction, order: int) -> FourierSeries:
    """Trapezoid-rule Fourier coefficients c(n) = integral f(t) e^{-int} dt.

    On the periodic grid the rule is a plain step-weighted sum, exact to
    roundoff for trigonometric polynomials of degree <= grid size / 2 - 1.
    Orders beyond that limit alias and are rejected.  On the grid t_0 + k h
    with m h = 2pi the sum is h e^{-i n t_0} fft(f)[n mod m] (Cooley-Tukey).
    """
    if not f.covers_period():
        raise ValueError("samples must cover one full period of length 2*pi")
    _require_count(0, order=order)
    m = f.grid.size
    if order > m // 2 - 1:
        raise ValueError(f"order {order} exceeds the aliasing limit {m // 2 - 1} for {m} samples")
    n = np.arange(-order, order + 1)
    coeffs = f.step * np.exp(-1j * n * f.grid[0]) * np.fft.fft(f.values)[n % m]
    return FourierSeries(order, coeffs)


def dft(x: np.ndarray) -> np.ndarray:
    """Unitary DFT, (F x)_m = N^{-1/2} sum_n e^{+2pi i m n / N} x_n."""
    v = np.asarray(x, dtype=complex).ravel()
    n = v.size
    if n < 1:
        raise ValueError("empty vector")
    return np.fft.ifft(v) * np.sqrt(n)


def inverse_dft(x: np.ndarray) -> np.ndarray:
    """Inverse of dft (conjugate phase, same normalization)."""
    v = np.asarray(x, dtype=complex).ravel()
    n = v.size
    if n < 1:
        raise ValueError("empty vector")
    return np.fft.fft(v) / np.sqrt(n)


def halfplane_window(y: float, tau_tail: float = TAU_TAIL) -> float:
    """Half-width T with Poisson tail mass (2/pi) arctan(y/T) < tau_tail."""
    _require_scale(y=y)
    if not 0 < _real_scalar("tau_tail", tau_tail) < 1:
        raise ValueError("tau_tail must lie in (0, 1)")
    return y / np.tan(np.pi * tau_tail / 2.0)


def poisson_halfplane(
    f: SampledBoundaryFunction,
    x: float,
    y: float,
    tau_tail: float = TAU_TAIL,
) -> complex:
    """Poisson integral (P_y * f)(x) of boundary samples, by product integration.

    The samples are interpolated piecewise-linearly and the kernel moments
    integrated exactly per cell (arctan / log antiderivatives), so for f == 1
    the result is the in-window kernel mass exactly, off by at most the
    analytic arctan tail bound.  The window must extend at least
    halfplane_window(y, tau_tail) to each side of x.

    Raises ValueError for a non-finite x, y <= 0 or a window too narrow for tau_tail.
    """
    _require_finite(x=x)
    t, v, h = f.grid, f.values, f.step
    need = halfplane_window(y, tau_tail)
    if x - t[0] < need or t[-1] - x < need:
        raise ValueError(
            f"window [{t[0]:.6g}, {t[-1]:.6g}] too narrow around x={x:.6g}: "
            f"tail mass exceeds tau_tail={tau_tail:.1e} (need half-width {need:.6g})"
        )
    s = t - x
    at = np.arctan(s / y)
    lg = np.log(s * s + y * y)
    i0 = (at[1:] - at[:-1]) / np.pi                 # cell integrals of P_y
    i1 = y * (lg[1:] - lg[:-1]) / (2.0 * np.pi)     # cell integrals of s * P_y
    slope = (v[1:] - v[:-1]) / h
    total = np.sum(v[:-1] * i0 + slope * (i1 - s[:-1] * i0))
    return complex(total)


def poisson_disc(phi: SampledBoundaryFunction, rho: float, s: float) -> complex:
    """Poisson integral on the unit disc at the point rho * e^{is}.

    Kernel (1/2pi)(1 - rho^2) / (1 - 2 rho cos(s - t) + rho^2) against periodic
    boundary samples; rho = 0 returns the boundary mean.  A non-finite s or a rho not in [0, 1) raises ValueError.
    """
    _require_finite(s=s)
    if not 0.0 <= _real_scalar("rho", rho) < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    if not phi.covers_period():
        raise ValueError("boundary samples must cover one full period")
    t = phi.grid
    kern = (1.0 - rho * rho) / (1.0 - 2.0 * rho * np.cos(s - t) + rho * rho)
    return complex(phi.step * np.sum(kern * phi.values) / (2.0 * np.pi))


def momentum_model(lambda_twist: float, order: int) -> SpectralResolution:
    """Diagonal momentum operator on frequency modes n = -order..order.

    Eigenvalue on mode n is lambda_twist + n for a finite real twist (twist 0 gives the
    periodic case, where differentiation multiplies mode n by n).  Exact by construction:
    the eigenvectors are the coordinate basis in mode order.
    """
    _require_count(0, order=order)
    _require_finite(lambda_twist=_real_scalar("lambda_twist", lambda_twist))
    modes = np.arange(-order, order + 1)
    dim = modes.size
    eigenvalues = lambda_twist + modes.astype(float)
    return SpectralResolution(eigenvalues, np.eye(dim, dtype=complex), np.arange(dim + 1))


def series_to_json(series: FourierSeries) -> list[dict]:
    """Export as a list of {n, re, im} triples."""
    re, im = _to_parts(series.coefficients)
    return [{"n": n, "re": x, "im": y} for n, x, y in zip(range(-series.order, series.order + 1), re, im)]


def series_from_json(items: list[dict]) -> FourierSeries:
    """Inverse of series_to_json, bit for bit; a mode absent from items is 0, and a repeated mode keeps its last value."""
    if not items:
        raise ValueError("empty series")
    last = dict(zip((int(it["n"]) for it in items), _from_parts([it["re"] for it in items], [it["im"] for it in items])))
    order = max(map(abs, last))
    return FourierSeries(order, [last.get(n, 0.0) for n in range(-order, order + 1)])


def boundary_to_csv(f: SampledBoundaryFunction, path: str) -> None:
    """Write samples as CSV with header t, re, im."""
    re, im = _to_parts(f.values)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "re", "im"])
        w.writerows([f"{t:.17g}", f"{x:.17g}", f"{y:.17g}"] for t, x, y in zip(f.grid.tolist(), re, im))


def boundary_from_csv(path: str) -> SampledBoundaryFunction:
    """Inverse of boundary_to_csv; a file with no sample row, or a row that is not 3 numbers, raises
    ValueError naming the file and the line."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != ["t", "re", "im"]:
        raise ValueError(f"{path}: line 1: expected CSV header: t, re, im")
    if len(rows) < 2:
        raise ValueError(f"{path}: line 2: expected a sample row t, re, im after the header")
    samples = []
    for line, row in enumerate(rows[1:], start=2):
        try:
            t, re, im = map(float, row)
        except ValueError:
            raise ValueError(f"{path}: line {line}: expected 3 numbers t, re, im, got {row}") from None
        samples.append((t, re, im))
    data = np.array(samples)
    return SampledBoundaryFunction(data[:, 0], _from_parts(data[:, 1], data[:, 2]))
