"""Reproducing-kernel machinery on the unit disc.

Builtin kernels (Hardy, harmonic Hardy, Dirichlet) with Gram assembly and
span arithmetic, a truncated-model multiplier adjoint check, and the
Dirichlet seminorm computed two independent ways (coefficients vs 2-D
quadrature of |f'|^2) together with Mobius composition for its conformal
invariance.

Kernel convention: evaluate(x, y) is the kernel function centered at y
evaluated at x, so gram[i, j] = evaluate(x_i, x_j) and PSD means
sum conj(a_i) a_j gram[i, j] >= 0.  evaluate may broadcast over arrays of
points, as the builtin kernels do (scalar points still give a scalar); a
kernel that does not is sampled entry by entry.

A finite-set kernel (kernel_from_gram) reads a point as the first ground
point within 1e-12 of it; a point with no such ground point is outside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .integral_ops import gauss_legendre_grid
from .linalg_core import _require_count, _require_finite, _sample, operator_norm

__all__ = [
    "Kernel",
    "kernel_by_name",
    "kernel_from_gram",
    "KERNEL_NAMES",
    "hardy_kernel",
    "harmonic_hardy_kernel",
    "dirichlet_kernel",
    "gram",
    "SpanElement",
    "reproduce",
    "multiplier_adjoint_check",
    "MultiplierReport",
    "dirichlet_seminorm",
    "dirichlet_seminorm_quad",
    "disc_quadrature",
    "poly_eval",
    "poly_derivative",
    "compose_power",
    "MobiusMap",
    "compose_mobius",
    "ComposedFunction",
]

MAX_POLY_DEGREE = 32
_SERIES_SWITCH = 1e-2


def _require_disc_point(z, name: str = "z") -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    outside = ~(np.abs(z) < 1.0)  # a NaN point is outside too
    if outside.any():
        raise ValueError(f"{name} = {z[outside][0]} lies outside the open unit disc")
    return z


def hardy_kernel(z, w):
    """Hardy-space kernel 1 / (1 - conj(w) z); equals 1 whenever z or w is 0."""
    z = _require_disc_point(z, "z")
    w = _require_disc_point(w, "w")
    return 1.0 / (1.0 - np.conj(w) * z)


def harmonic_hardy_kernel(z, w):
    """Harmonic-extension kernel (1 - |z|^2 |w|^2) / |1 - conj(w) z|^2 (real)."""
    z = _require_disc_point(z, "z")
    w = _require_disc_point(w, "w")
    return (1.0 - np.abs(z) ** 2 * np.abs(w) ** 2) / np.abs(1.0 - np.conj(w) * z) ** 2


def dirichlet_kernel(z, w):
    """Dirichlet-space kernel sum_n (conj(w) z)^n / (n+1) = -log(1-s)/s at s = conj(w) z.

    The closed form degenerates at s = 0; below |s| < 1e-2 the power series is
    used instead, making the value at 0 the series limit 1.
    """
    z = _require_disc_point(z, "z")
    w = _require_disc_point(w, "w")
    s = np.conj(w) * z
    small = np.abs(s) < _SERIES_SWITCH
    series, term = np.zeros_like(s), np.ones_like(s)
    for n in range(12):
        series += term / (n + 1)
        term *= s
    safe = np.where(small, 0.5, s)  # keeps the closed form off s = 0
    return np.where(small, series, -np.log(1.0 - safe) / safe)[()]  # a scalar for scalar z, w


@dataclass(frozen=True)
class Kernel:
    """Named kernel with a domain tag: 'disc', 'interval', or 'finite'."""

    name: str
    domain: str
    evaluate: Callable = field(repr=False)
    domain_data: tuple = ()

    def check_point(self, x) -> None:
        """Raise ValueError naming the first point of x (one point or an array of them)
        outside the domain; a NaN point is always outside."""
        if self.domain == "disc":
            _require_disc_point(x, "point")
        elif self.domain == "interval":
            lo, hi = self.domain_data
            xv = np.asarray(x, dtype=complex)
            outside = ~((xv.imag == 0) & (lo <= xv.real) & (xv.real <= hi))
            if outside.any():
                raise ValueError(f"point {xv[outside][0]} outside [{lo}, {hi}]")
        elif self.domain == "finite":
            _ground_index(self.domain_data, x)
        else:
            raise ValueError(f"unknown domain tag {self.domain!r}")


_BUILTINS = {
    "hardy": lambda: Kernel("hardy", "disc", hardy_kernel),
    "harmonic-hardy": lambda: Kernel("harmonic-hardy", "disc", harmonic_hardy_kernel),
    "dirichlet": lambda: Kernel("dirichlet", "disc", dirichlet_kernel),
}

KERNEL_NAMES = tuple(sorted(_BUILTINS))


def kernel_by_name(name: str) -> Kernel:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(f"unknown kernel {name!r}; known: {', '.join(KERNEL_NAMES)}")


def _ground_index(pts: tuple, t) -> np.ndarray:
    """Index of the first ground point within 1e-12 of each point of t; t broadcasts."""
    tv = np.asarray(t, dtype=complex)
    near = np.abs(tv[..., None] - np.asarray(pts)) <= 1e-12
    found = near.any(axis=-1)
    if not found.all():
        raise ValueError(f"point {tv[~found][0]} not in the kernel's finite ground set")
    return near.argmax(axis=-1)


def kernel_from_gram(points: Sequence[complex], matrix: np.ndarray) -> Kernel:
    """Kernel on a finite ground set, backed by a user-supplied Gram matrix."""
    pts = tuple(complex(p) for p in points)
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (len(pts), len(pts)):
        raise ValueError("gram matrix shape does not match the point count")
    ev = lambda x, y: m[_ground_index(pts, x), _ground_index(pts, y)]
    return Kernel("user-gram", "finite", ev, pts)


def gram(k: Kernel, points: Sequence[complex]) -> np.ndarray:
    """Gram matrix G[i, j] = k(x_i, x_j) after checking every point's domain.

    A stack (..., n) of point sets gives the (..., n, n) stack of their Gram
    matrices, each bitwise as for its point set alone.  k.evaluate is called
    once per block of about 16 384 entries along the first axis.
    """
    z = np.asarray(points, dtype=complex)
    if z.ndim == 0:
        raise ValueError("points must be a 1-d sequence or a (..., n) stack of them, got a scalar")
    if not z.shape[-1]:
        raise ValueError("need at least one point")
    k.check_point(z)
    return _sample(k.evaluate, z[..., :, None], z[..., None, :])


@dataclass(frozen=True)
class SpanElement:
    """f = sum_i a_i k_{x_i} in the space of the kernel."""

    kernel: Kernel
    points: tuple
    coefficients: np.ndarray

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        c = np.asarray(self.coefficients, dtype=complex).ravel()
        if len(pts) != c.size:
            raise ValueError("points and coefficients must have equal length")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "coefficients", c)

    def norm_squared(self) -> float:
        g = gram(self.kernel, self.points)
        val = complex(np.vdot(self.coefficients, g @ self.coefficients))
        if val.real < -1e-10 * (1.0 + float(np.max(np.abs(g)))):
            raise ValueError(f"Gram form produced a negative square norm {val.real:.3e}")
        return max(val.real, 0.0)

    def norm(self) -> float:
        return float(np.sqrt(self.norm_squared()))


def reproduce(f: SpanElement, x) -> complex:
    """Evaluate a span element at a point, f(x) = sum_i a_i k(x, x_i)."""
    f.kernel.check_point(x)
    return complex(np.sum(f.coefficients * _sample(f.kernel.evaluate, x, np.array(f.points))))


def _symbol_coefficients(b: Callable, n_trunc: int) -> np.ndarray:
    """Recover polynomial coefficients of b by DFT on the unit circle (exact for degree <= n_trunc)."""
    m = n_trunc + 1
    t = 2.0 * np.pi * np.arange(m) / m
    return np.fft.fft(_sample(b, np.exp(1j * t))) / m


@dataclass(frozen=True)
class MultiplierReport:
    """Residuals of the truncated adjoint identity M_b* k_x = conj(b(x)) k_x."""

    truncation: int
    points: tuple
    residuals: np.ndarray
    max_residual: float
    multiplier_norm: float
    max_abs_symbol: float


def multiplier_adjoint_check(
    b,
    k: Kernel,
    points: Sequence[complex],
    n_trunc: int = 64,
) -> MultiplierReport:
    """Check the multiplier adjoint identity in the degree-N monomial model.

    Builds the Toeplitz multiplication matrix of the polynomial symbol b on
    the monomial basis {1, z, ..., z^N} of the Hardy space, applies its
    adjoint to the truncated kernel vectors k_x = (conj(x)^n)_n, and reports
    the worst l2 residual against conj(b(x)) k_x.  The truncation tail is
    geometric, so the residual decays like |x|^N.

    The symbol b is either its coefficient sequence (exact model: the
    residual is purely the truncation tail) or an evaluator, in which case
    the coefficients are recovered by a DFT on the unit circle, which adds
    roundoff at the 1e-16 scale.  Either way it must be a polynomial of
    degree <= N/2; only the Hardy kernel's model is implemented.
    """
    if k.name != "hardy":
        raise ValueError("the monomial multiplier model is built on the Hardy kernel")
    _require_count(2, n_trunc=n_trunc)
    if callable(b):
        coeffs = _symbol_coefficients(b, n_trunc)
        top = float(np.max(np.abs(coeffs)))
        high = coeffs[n_trunc // 2 + 1 :]
        if top > 0 and float(np.max(np.abs(high), initial=0.0)) > 1e-9 * top:
            raise ValueError("symbol is not a polynomial of degree <= N/2")
    else:
        coeffs = np.asarray(b, dtype=complex).ravel()
        if coeffs.size - 1 > n_trunc // 2:
            raise ValueError("symbol is not a polynomial of degree <= N/2")
    dim = n_trunc + 1
    lag = np.subtract.outer(np.arange(dim), np.arange(dim))  # mb[i, j] = coeffs[i - j] for i >= j
    mb = np.tril(np.concatenate((coeffs, np.zeros(dim - coeffs.size)))[np.abs(lag)])
    pts = tuple(_require_disc_point(points, "probe point").tolist())
    residuals = np.empty(len(pts))
    max_abs_b = 0.0
    cb = [complex(c).conjugate() for c in coeffs]
    for idx, x in enumerate(pts):
        # scalar arithmetic throughout: conj(b(x)) * kv[n] then runs through the
        # exact same multiply sequence as kv[n + m], so shift terms cancel bitwise
        # and the reported residual is purely the truncation tail
        cx = complex(x).conjugate()
        kv = [1.0 + 0j]
        for _ in range(dim - 1):
            kv.append(kv[-1] * cx)
        bx = complex(b(x)) if callable(b) else complex(poly_eval(coeffs, x))
        max_abs_b = max(max_abs_b, abs(bx))
        cbx = bx.conjugate()
        acc = 0.0
        for n in range(dim):
            lhs = 0j
            for m, cm in enumerate(cb):
                if n + m < dim:
                    lhs += cm * kv[n + m]
            acc += abs(lhs - cbx * kv[n]) ** 2
        residuals[idx] = float(np.sqrt(acc))
    return MultiplierReport(
        n_trunc,
        pts,
        residuals,
        float(np.max(residuals, initial=0.0)),
        operator_norm(mb),
        max_abs_b,
    )


def poly_eval(coeffs: Sequence[complex], z):
    """Evaluate sum_n a_n z^n (Horner), broadcasting over z."""
    zv = np.asarray(z, dtype=complex)
    acc = np.zeros_like(zv)
    for a in reversed(list(coeffs)):
        acc = acc * zv + complex(a)
    return acc if acc.shape else complex(acc)


def poly_derivative(coeffs: Sequence[complex]) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size <= 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, c.size)


def dirichlet_seminorm(coeffs: Sequence[complex]) -> float:
    """[f] = sum_n n |a_n|^2 for a polynomial of degree <= 32."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size - 1 > MAX_POLY_DEGREE:
        raise ValueError(f"polynomial degree {c.size - 1} exceeds {MAX_POLY_DEGREE}")
    n = np.arange(c.size)
    return float(np.sum(n * np.abs(c) ** 2))


def disc_quadrature(n_radial: int = 64, n_angular: int = 256):
    """Tensor polar rule for integrals over the unit disc.

    Returns (points, weights) with sum_k w_k f(z_k) ~ integral_D f dA: the radial
    rule gauss_legendre_grid(0, 1, 1, n_radial), weighted by r, times a uniform angular grid.
    """
    _require_count(1, n_radial=n_radial, n_angular=n_angular)
    radial = gauss_legendre_grid(0.0, 1.0, 1, n_radial)
    r, wr = radial.nodes, radial.weights
    t = 2.0 * np.pi * np.arange(n_angular) / n_angular
    dt = 2.0 * np.pi / n_angular
    z = (r[:, None] * np.exp(1j * t)[None, :]).ravel()
    w = (wr * r)[:, None] * np.full((1, n_angular), dt)
    return z, w.ravel()


def dirichlet_seminorm_quad(derivative, n_radial: int = 64, n_angular: int = 256) -> float:
    """[f] = (1/pi) integral_D |f'(z)|^2 dA by the tensor polar rule."""
    z, w = disc_quadrature(n_radial, n_angular)
    return float(np.sum(w * np.abs(_sample(derivative, z)) ** 2) / np.pi)


def compose_power(coeffs: Sequence[complex], n: int) -> np.ndarray:
    """Coefficients of f(z^n): a_k moves to index n*k."""
    _require_count(1, n=n)
    c = np.asarray(coeffs, dtype=complex).ravel()
    out = np.zeros(n * (c.size - 1) + 1, dtype=complex)
    out[:: n] = c
    return out


@dataclass(frozen=True)
class MobiusMap:
    """Disc automorphism phi(z) = v (a - z) / (1 - conj(a) z), |a| < 1, |v| = 1."""

    a: complex
    v: complex

    def __post_init__(self):
        a = complex(self.a)
        v = complex(self.v)
        _require_finite(a=a, v=v)
        if abs(a) >= 1.0:
            raise ValueError(f"|a| must be < 1, got {abs(a)}")
        if abs(abs(v) - 1.0) > 1e-12:
            raise ValueError(f"|v| must be 1, got {abs(v)}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "v", v)

    def value(self, z):
        zv = np.asarray(z, dtype=complex)
        return self.v * (self.a - zv) / (1.0 - np.conj(self.a) * zv)

    def derivative(self, z):
        zv = np.asarray(z, dtype=complex)
        return self.v * (abs(self.a) ** 2 - 1.0) / (1.0 - np.conj(self.a) * zv) ** 2


@dataclass(frozen=True)
class ComposedFunction:
    """f o phi for polynomial f, exposing value and chain-rule derivative evaluators."""

    coeffs: np.ndarray
    mobius: MobiusMap

    def value(self, z):
        return poly_eval(self.coeffs, self.mobius.value(z))

    def derivative(self, z):
        dcoeffs = poly_derivative(self.coeffs)
        return poly_eval(dcoeffs, self.mobius.value(z)) * self.mobius.derivative(z)


def compose_mobius(coeffs: Sequence[complex], a: complex, v: complex) -> ComposedFunction:
    """f o phi with phi(z) = v (a - z)/(1 - conj(a) z); seminorm via quadrature."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size - 1 > MAX_POLY_DEGREE:
        raise ValueError(f"polynomial degree {c.size - 1} exceeds {MAX_POLY_DEGREE}")
    return ComposedFunction(c, MobiusMap(a, v))
