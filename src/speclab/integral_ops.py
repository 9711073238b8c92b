"""Nystrom-discretized integral operators and the Sturm-Liouville solver chain.

Integral operators store only their kernel samples K; B = W^{1/2} K W^{1/2},
whose Hermitian eigensolve approximates the operator spectrum, is formed from
K on access.  The Sturm-Liouville path is: a spectral shift ladder for
problems where the operator is not injective, homogeneous solutions u, v by
fixed-step RK4 shooting (with cubic-Hermite dense output) and a Wronskian
check, all run once per solve.  Each shot multiplies the 2 x 2 transfer
matrices of its RK4 steps in blocks of 64, vectorized: 64 + n/64
Python-level steps for n RK4 steps, 128 at the default n = 4096.  The Green
kernel u(max) v(min) / W is real and semiseparable, so its symmetrized
Nystrom matrix S = W^{1/2} G W^{1/2} is never formed: S y is two cumulative
sums over the nodes, O(n), and Lanczos with full reorthogonalization on that
product gives the few extremal eigenpairs the solve needs, in O(n * steps)
memory; it diagonalizes its tridiagonal matrix only at the steps where it
can stop.  _green_eigs is the one entry point to that eigensolve.  One
routine, _green_sums, applies G by those prefix and suffix sums: for the
product, for the extension of eigenfunctions off the grid, and for each
mode's residual, the defect of the integral eigen-equation
f = (lambda - shift) G f on trapezoid cells.  The grid-doubling check is the
same solve at twice the nodes (same solutions).  The Volterra square V*V has
the same form, kernel 1 - max(x, y) with u = 1 - x, v = 1 and W = 1, so
_green_eigs serves its spectrum too.  rayleigh_refine takes its successive
Rayleigh minima from one Hermitian eigensolve (Courant-Fischer).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .linalg_core import (
    _first_non_finite,
    _hermitian_defect,
    _hermitian_part,
    _read_key_values,
    _require_2d,
    _require_count,
    _require_finite,
    _require_interval,
    _require_scale,
    _require_square,
    _require_stack,
    _row_blocks,
    _sample,
    _unstack,
    operator_norm,
    require_hermitian,
    require_matrix,
)

__all__ = [
    "QuadratureGrid",
    "gauss_legendre_grid",
    "IntegralOperator",
    "nystrom",
    "hs_norm",
    "trace",
    "volterra",
    "VolterraPair",
    "SturmLiouvilleProblem",
    "SLSolutions",
    "SLMode",
    "NonInjectiveError",
    "sl_homogeneous_solutions",
    "sl_green",
    "sl_shift",
    "sl_eigensolve",
    "rayleigh_refine",
    "sl_problem_from_config",
    "sl_modes_to_csv",
    "sl_modes_to_json",
]

DEFAULT_PANELS = 50
NODES_PER_PANEL = 8
ODE_STEPS = 4096
SHIFT_LADDER_DEPTH = 64


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes strictly inside [a, b] with positive weights summing to b - a, all finite."""

    a: float
    b: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.nodes, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if x.ndim != 1 or x.shape != w.shape or x.size == 0:
            raise ValueError("nodes/weights must be matching nonempty 1-d arrays")
        _require_finite(a=self.a, b=self.b, nodes=x, weights=w)
        # each test below passes only on a True comparison, so NaN fails it too
        if not (np.diff(x) > 0).all():
            raise ValueError("nodes must be strictly ascending")
        if not (self.a < x[0] and x[-1] < self.b):
            raise ValueError("nodes must lie strictly inside (a, b)")
        if not (w > 0).all():
            raise ValueError("weights must be positive")
        if not abs(np.sum(w) - (self.b - self.a)) <= 1e-12 * max(1.0, self.b - self.a):
            raise ValueError("weights must sum to b - a within 1e-12")
        object.__setattr__(self, "nodes", x)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.nodes.size


def gauss_legendre_grid(
    a: float,
    b: float,
    panels: int = DEFAULT_PANELS,
    per_panel: int = NODES_PER_PANEL,
) -> QuadratureGrid:
    """Composite Gauss-Legendre rule: `panels` panels of `per_panel` nodes each."""
    _require_interval("(a, b)", a, b)
    _require_count(1, panels=panels, per_panel=per_panel)
    x0, w0 = _gauss_legendre(per_panel)
    edges = np.linspace(a, b, panels + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = (hi - lo) / 2.0
    return QuadratureGrid(a, b, (half * x0 + (lo + hi) / 2.0).ravel(), (half * w0).ravel())


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """leggauss(n) on [-1, 1], built once per n and read-only because every caller shares it."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class IntegralOperator:
    """Kernel samples K on a quadrature grid; the symmetrized matrix is formed from them on access."""

    grid: QuadratureGrid
    kernel_matrix: np.ndarray = field(repr=False)

    @property
    def symmetrized(self) -> np.ndarray:
        """B = W^{1/2} K W^{1/2} for the grid's quadrature weights W, a new array on each access.

        B is formed in one n x n allocation: the rows of K are scaled into it, then its
        columns in place, with the bits of sw[:, None] * K * sw[None, :].
        """
        sw = np.sqrt(self.grid.weights)
        b = sw[:, None] * self.kernel_matrix
        b *= sw[None, :]
        return b

    def apply(self, f: np.ndarray) -> np.ndarray:
        """(T f)(x_i) = sum_j w_j K_ij f(x_j): float64 for a real kernel and a real f, else complex128."""
        fv = np.asarray(f).ravel()
        if fv.size != self.grid.size:
            raise ValueError("sample vector does not match the grid")
        return self.kernel_matrix @ (self.grid.weights * fv)

    def hermitian_defect(self) -> float:
        return float(_hermitian_defect(self.symmetrized))


def nystrom(k: Callable, grid: QuadratureGrid) -> IntegralOperator:
    """Sample a kernel on grid x grid and store K; B = W^{1/2} K W^{1/2} is formed on access.

    k is called as k(x[rows, None], x[None, :]) once per block of
    16 384 // n rows (once in all while n^2 <= 16 384), so besides K only one
    block's temporaries are held; a kernel that does not broadcast is sampled
    entry by entry instead.  A real kernel is stored as float64.  A non-finite
    sample raises ValueError naming the indices.
    """
    x = grid.nodes
    km = _sample(k, x[:, None], x[None, :])
    bad = _first_non_finite(km)
    if bad is not None:
        i, j = bad
        raise ValueError(f"kernel sample not finite at nodes ({i}, {j})")
    return IntegralOperator(grid, km)


def _check_positive(herm: np.ndarray, scale: float, message: str) -> None:
    """ValueError(message) unless herm + 1e-10 * scale * I has a Cholesky factor.

    Only herm's lower triangle is read, and the factor is formed over it, in
    place: the shift is added to the diagonal, then a left-looking blocked
    Cholesky (Golub & Van Loan, Matrix Computations, 4.2) takes one block
    column of _row_blocks rows at a time.  The block column is reduced by the
    factor's columns to its left in one product of its own size, its diagonal
    block is factored by np.linalg.cholesky, and its rows below are solved
    against that factor.  So besides herm the check holds one block column's
    temporaries, about _CHUNK entries.
    """
    herm[np.diag_indices_from(herm)] += 1e-10 * scale
    try:
        for cols in _row_blocks(herm.shape):
            lo, hi = cols.start, min(cols.stop, len(herm))
            # written back by assignment: an in-place subtraction into the strided block would copy it
            update = herm[lo:, :lo] @ herm[cols, :lo].conj().T
            herm[lo:, cols] = np.subtract(herm[lo:, cols], update, out=update)
            del update  # before the solve's result is formed
            herm[cols, cols] = np.linalg.cholesky(herm[cols, cols])
            # L21 = A21 L11^-* is the transpose of conj(L11)^-1 A21^T, so only L11 is conjugated
            herm[hi:, cols] = np.linalg.solve(herm[cols, cols].conj(), herm[hi:, cols].T).T
    except np.linalg.LinAlgError:
        raise ValueError(message)


def hs_norm(t) -> float | np.ndarray:
    """Hilbert-Schmidt norm: quadrature L2 norm of a kernel, Frobenius for a matrix.

    A stack (..., rows, cols) gives the array of its matrices' norms, each
    bitwise as for the matrix alone.  The sum of squares is one dot product of
    the real parts plus one of the imaginary parts, in row-major order, as
    np.linalg.norm(matrix, "fro") forms it for a row-major matrix: the two
    agree bit for bit there.
    """
    if isinstance(t, IntegralOperator):
        return float(np.linalg.norm(t.symmetrized, "fro"))
    m = _require_stack(t)
    flat = m.reshape(*m.shape[:-2], m.shape[-2] * m.shape[-1])
    return _unstack(np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag)))


def trace(t):
    """sum_i w_i k(x_i, x_i) for an operator, sum of diagonal entries for a matrix.

    The operator form requires a Hermitian positive kernel (Mercer), checked on
    the symmetrized matrix B: its Hermitian defect, then a Cholesky factor of
    (B + B*) / 2 shifted by 1e-10 (1 + max |B_ij|).  The check holds one n x n
    array beside the stored kernel, B itself: max |B_ij| and the defect are
    read in row blocks of about 16 384 entries, (B + B*) / 2 is written over
    B's lower triangle, and the shifted factor over that, one block column at
    a time.  The matrix form takes any square matrix.
    """
    if isinstance(t, IntegralOperator):
        b = t.symmetrized
        scale = max(float(np.max(np.abs(b[rows]))) for rows in _row_blocks(b.shape)) + 1.0
        if _hermitian_defect(b) > 1e-10 * scale:
            raise ValueError("operator trace requires a Hermitian kernel")
        _check_positive(_hermitian_part(b, in_place=True), scale, "operator trace requires a positive kernel")
        return float(np.sum(t.grid.weights * np.real(np.diag(t.kernel_matrix))))
    return complex(np.trace(_require_square(require_matrix(t))))


@dataclass(frozen=True)
class VolterraPair:
    v: IntegralOperator
    vstar_v: IntegralOperator


def volterra(grid: QuadratureGrid) -> VolterraPair:
    """The Volterra operator Vf(x) = int_0^x f and its adjoint product V*V on [0, 1].

    V's kernel is the step chi(y <= x) with value 1/2 on the diagonal (average
    of the one-sided limits); V*V has the continuous kernel 1 - max(x, y).
    Both are built by nystrom, and being real they are stored as float64.
    """
    if abs(grid.a) > 1e-12 or abs(grid.b - 1.0) > 1e-12:
        raise ValueError("Volterra operators are built on [0, 1]")
    return VolterraPair(nystrom(lambda x, y: (y < x) + 0.5 * (y == x), grid), nystrom(lambda x, y: 1.0 - np.maximum(x, y), grid))


class NonInjectiveError(ValueError):
    """Raised when the homogeneous solutions are dependent (|W| below tolerance)."""


@dataclass(frozen=True)
class SturmLiouvilleProblem:
    """-y'' + q y = lambda y on [a, b] with separated boundary conditions.

    bc_left = (alpha0, alpha1) imposes alpha0 y(a) + alpha1 y'(a) = 0 and
    bc_right = (beta0, beta1) the same at b; each pair must be finite and nonzero.
    The potential q must be real-valued and continuous.
    """

    a: float
    b: float
    q: Callable = field(repr=False)
    bc_left: tuple[float, float] = (1.0, 0.0)
    bc_right: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        _require_interval("(a, b)", self.a, self.b)
        for name, pair in (("bc_left", self.bc_left), ("bc_right", self.bc_right)):
            if len(pair) != 2 or (pair[0] == 0.0 and pair[1] == 0.0):
                raise ValueError(f"{name} must be a nonzero pair")
        _require_finite(bc_left=self.bc_left, bc_right=self.bc_right)

    def shifted(self, mu: float) -> "SturmLiouvilleProblem":
        """The problem with potential q - mu (spectrum translates by -mu)."""
        if mu == 0.0:
            return self
        base = self.q
        return SturmLiouvilleProblem(self.a, self.b, lambda x: base(x) - mu, self.bc_left, self.bc_right)


def _eval_potential(q: Callable, xs: np.ndarray) -> np.ndarray:
    vals = _sample(q, xs)
    if not np.isfinite(vals).all():
        raise ValueError("potential not finite on the integration grid")
    if np.max(np.abs(vals.imag)) > 1e-12 * (1.0 + np.max(np.abs(vals.real))):
        raise ValueError("complex potentials are not supported")
    return vals.real


def _rk4_step(q0, qm, q1, hh: float, cy, cp):
    """One classical RK4 step of (y, y')' = (y', q y) from x to x + hh, elementwise.

    q0, qm, q1 are the potential at the start, the midpoint and the end of the step.
    """
    k1y = cp
    k1p = q0 * cy
    y2 = cy + 0.5 * hh * k1y
    p2 = cp + 0.5 * hh * k1p
    k2y = p2
    k2p = qm * y2
    y3 = cy + 0.5 * hh * k2y
    p3 = cp + 0.5 * hh * k2p
    k3y = p3
    k3p = qm * y3
    y4 = cy + hh * k3y
    p4 = cp + hh * k3p
    k4y = p4
    k4p = q1 * y4
    return (cy + hh / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
            cp + hh / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p))


_RK4_BLOCK = 64


def _rk4_linear(qs: np.ndarray, hh: float, y0: float, p0: float):
    """Integrate y'' = q(x) y with classical RK4 at fixed step hh from the first node.

    qs holds the potential at half-step resolution (node k at index 2k, the
    midpoint of step k at 2k+1).  Returns (y, y') over all nodes in integration
    order; shooting from the last node is the same call on qs[::-1] with step -h.

    An RK4 step of this linear system is linear, (y, y')_{k+1} = M_k (y, y')_k,
    so the n step matrices come from one vectorized step applied to the start
    vectors (1, 0) and (0, 1).  They are propagated in blocks of _RK4_BLOCK
    steps, the last padded with identity steps: one loop over the positions in
    a block forms the prefix products of every block at once, a second carries
    the start vector from block to block, and one broadcast product gives every
    node.  That is _RK4_BLOCK + n / _RK4_BLOCK Python-level steps in place
    of n, 2 sqrt(n) at n = 4096.
    """
    n = (qs.size - 1) // 2
    q0, qm, q1 = qs[0:-1:2], qs[1::2], qs[2::2]
    blocks = -(-n // _RK4_BLOCK)
    prefix = np.empty((blocks * _RK4_BLOCK, 2, 2))
    prefix[:n, 0, 0], prefix[:n, 1, 0] = _rk4_step(q0, qm, q1, hh, 1.0, 0.0)
    prefix[:n, 0, 1], prefix[:n, 1, 1] = _rk4_step(q0, qm, q1, hh, 0.0, 1.0)
    prefix[n:] = np.eye(2)
    prefix = prefix.reshape(blocks, _RK4_BLOCK, 2, 2)  # prefix[b, j] = M_{bB+j} ... M_{bB}, B = _RK4_BLOCK
    for j in range(1, _RK4_BLOCK):
        prefix[:, j] = prefix[:, j] @ prefix[:, j - 1]
    starts = np.empty((blocks, 2))  # (y, y') at the first node of each block
    starts[0] = y0, p0
    for b in range(1, blocks):
        starts[b] = prefix[b - 1, -1] @ starts[b - 1]
    nodes = (prefix @ starts[:, None, :, None]).reshape(-1, 2)[:n]
    y = np.concatenate([[y0], nodes[:, 0]])
    p = np.concatenate([[p0], nodes[:, 1]])
    return y, p


def _hermite_eval(a: float, h: float, f: np.ndarray, fp: np.ndarray, x) -> np.ndarray:
    """Piecewise cubic Hermite evaluation of (f, f') node data; O(h^4) accurate."""
    xv = np.asarray(x, dtype=float)
    flat = xv.ravel()
    n = f.size - 1
    k = np.clip(np.floor((flat - a) / h).astype(int), 0, n - 1)
    s = (flat - (a + k * h)) / h
    s2 = s * s
    s3 = s2 * s
    h00 = 1.0 - 3.0 * s2 + 2.0 * s3
    h10 = s - 2.0 * s2 + s3
    h01 = 3.0 * s2 - 2.0 * s3
    h11 = s3 - s2
    out = h00 * f[k] + h * h10 * fp[k] + h01 * f[k + 1] + h * h11 * fp[k + 1]
    return out.reshape(xv.shape)


@dataclass(frozen=True)
class SLSolutions:
    """Homogeneous solutions v (left BC, shot from a) and u (right BC, shot from b)."""

    problem: SturmLiouvilleProblem
    step: float
    xs: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    vp: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    up: np.ndarray = field(repr=False)
    q_nodes: np.ndarray = field(repr=False)
    wronskian: float
    drift: float

    def v_at(self, x):
        return _hermite_eval(self.problem.a, self.step, self.v, self.vp, x)

    def u_at(self, x):
        return _hermite_eval(self.problem.a, self.step, self.u, self.up, x)

    def vp_at(self, x):
        # y'' = q y is known at the nodes, so y' interpolates at the same order
        return _hermite_eval(self.problem.a, self.step, self.vp, self.q_nodes * self.v, x)

    def up_at(self, x):
        return _hermite_eval(self.problem.a, self.step, self.up, self.q_nodes * self.u, x)


def sl_homogeneous_solutions(p: SturmLiouvilleProblem, h: float | None = None) -> SLSolutions:
    """Shoot the two homogeneous solutions of -y'' + q y = 0 and their Wronskian.

    v starts at a with data (alpha1, -alpha0), u starts at b with data
    (beta1, -beta0); both are integrated with classical fixed-step RK4
    (default step (b-a)/4096, at least 16 steps), each shot as blocked
    products of the steps' transfer matrices (_rk4_linear): 128 vectorized
    Python-level steps at the default step.  W = u v' - u' v is constant up
    to O(h^4); if |W| <= 1e-6 (1 + max_x (|u v'| + |u' v|)), small against the
    two terms that cancel in it, the operator is not injective on the
    boundary-condition domain and NonInjectiveError directs the caller to
    sl_shift.  (Scaling by max|u| max|v| instead would grow like W^2 for
    exponentially growing u and v, and reject stiff injective problems such
    as q = 50.)
    """
    if h is None:
        h = (p.b - p.a) / ODE_STEPS
    _require_scale(h=h)
    n = max(16, int(round((p.b - p.a) / h)))
    h = (p.b - p.a) / n
    xs_half = p.a + (h / 2.0) * np.arange(2 * n + 1)
    qs = _eval_potential(p.q, xs_half)
    xs = xs_half[::2]
    a0, a1 = p.bc_left
    b0, b1 = p.bc_right
    v, vp = _rk4_linear(qs, h, a1, -a0)
    u, up = (s[::-1] for s in _rk4_linear(qs[::-1], -h, b1, -b0))
    wr = u * vp - up * v
    w = float(np.mean(wr))
    drift = float(np.max(wr) - np.min(wr))
    tau_w = 1e-6 * (1.0 + np.max(np.abs(u * vp) + np.abs(up * v)))
    if abs(w) <= tau_w:
        raise NonInjectiveError(
            f"homogeneous solutions are dependent (|W| = {abs(w):.3e} <= {tau_w:.3e}); "
            "the operator has 0 in its spectrum, use sl_shift to move it"
        )
    return SLSolutions(p, h, xs, v, vp, u, up, qs[::2], w, drift)


def sl_green(p: SturmLiouvilleProblem, solutions: SLSolutions) -> Callable:
    """Green kernel G(x,t) = u(max(x,t)) v(min(x,t)) / W, symmetric by construction."""
    w = solutions.wronskian

    def g(x, t):
        hi = np.maximum(x, t)
        lo = np.minimum(x, t)
        return solutions.u_at(hi) * solutions.v_at(lo) / w

    return g


def _shift_ladder(p: SturmLiouvilleProblem, depth: int) -> tuple[float, SLSolutions]:
    """The first injective rung mu of the ladder 0, +-1, ..., +-depth and the
    homogeneous solutions of the problem shifted by mu."""
    candidates = [0.0]
    for m in range(1, depth + 1):
        candidates.extend([float(m), float(-m)])
    for mu in candidates:
        try:
            return mu, sl_homogeneous_solutions(p.shifted(mu))
        except NonInjectiveError:
            continue
    raise ValueError(f"no injectivity shift found on the ladder up to +-{depth}")


def sl_shift(p: SturmLiouvilleProblem, depth: int = SHIFT_LADDER_DEPTH) -> float:
    """A real mu such that the problem with potential q - mu is injective.

    mu = 0 is tried first, then the ladder +-1, +-2, ... up to `depth`;
    exhaustion raises ValueError.
    """
    _require_count(0, depth=depth)
    return _shift_ladder(p, depth)[0]


def _panel_grid(a: float, b: float, n_nodes: int) -> QuadratureGrid:
    """Composite Gauss-Legendre grid on [a, b] with about n_nodes nodes, NODES_PER_PANEL per panel."""
    return gauss_legendre_grid(a, b, max(1, int(round(n_nodes / NODES_PER_PANEL))), NODES_PER_PANEL)


def _green_sums(lower: np.ndarray, upper: np.ndarray, ux: np.ndarray, vx: np.ndarray, k: np.ndarray) -> np.ndarray:
    """u(x_i) sum_{j < k_i} lower_j + v(x_i) sum_{j >= k_i} upper_j: W G f at the points x.

    The one routine that applies the Green kernel G = u(max) v(min) / W, for
    the Lanczos product, the off-grid extension and the residual defect.
    lower and upper are the terms v f and u f of an integral over [a, b],
    quadrature-weighted nodes or trapezoid cells, with k_i the number of terms
    left of x_i; ux, vx are u and v at x, shaped to broadcast against the sums.
    Each sum is one cumulative sum: O(len(lower) + len(x)).  The suffix sums
    are a reversed cumulative sum, not the total minus a prefix, which cancels
    when u f grows by orders of magnitude across the interval.
    """
    prefix = np.zeros((lower.shape[0] + 1,) + lower.shape[1:])
    np.cumsum(lower, axis=0, out=prefix[1:])
    suffix = np.zeros_like(prefix)
    suffix[:-1] = np.cumsum(upper[::-1], axis=0)[::-1]
    return ux * prefix[k] + vx * suffix[k]


def _green_matvec(
    u: np.ndarray | float, v: np.ndarray | float, wronskian: float, grid: QuadratureGrid
) -> Callable[[np.ndarray], np.ndarray]:
    """y -> S y for S = W^{1/2} G W^{1/2} on the grid, real symmetric, in O(n) per product.

    G = u(max) v(min) / wronskian with u and v given at the grid nodes (arrays,
    or numbers broadcast over them): the Sturm-Liouville Green kernel, or the
    Volterra product V*V, whose kernel 1 - max(x, y) has u = 1 - x, v = 1.
    """
    sw = np.sqrt(grid.weights)
    k = np.arange(1, grid.size + 1)
    return lambda y: sw * _green_sums(v * (sw * y), u * (sw * y), u, v, k) / wronskian


def _green_extension(solutions: SLSolutions, grid: QuadratureGrid, f_nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j w_j G(x_i, x_j) f(x_j) at the points x for each column of f_nodes sampled at the grid nodes."""
    u = solutions.u_at(grid.nodes)[:, None]
    v = solutions.v_at(grid.nodes)[:, None]
    k = np.searchsorted(grid.nodes, x, side="right")
    wf = grid.weights[:, None] * f_nodes
    return _green_sums(v * wf, u * wf, solutions.u_at(x)[:, None], solutions.v_at(x)[:, None], k) / solutions.wronskian


def _lanczos(apply: Callable[[np.ndarray], np.ndarray], n: int, n_top: int) -> tuple[np.ndarray, np.ndarray]:
    """The n_top largest-|theta| Ritz values of a real symmetric n x n operator and their Ritz vectors.

    Lanczos (Parlett, The Symmetric Eigenvalue Problem; Golub & Van Loan,
    Matrix Computations, ch. 10) from a fixed-seed Gaussian start vector, so
    reruns repeat every bit.  Each step orthogonalizes A q_m against all
    previous vectors, twice; alpha_m = q_m . A q_m and beta_m is the norm of
    what is left.  After step m the Ritz pairs (theta_i, s_i) of the m x m
    tridiagonal T_m have residual norms beta_m |s_mi|, and the iteration stops
    once each of the n_top largest-|theta| pairs has beta_m |s_mi| <=
    1e-14 max|theta|, or at m = n.  T_m is diagonalized and that test made
    only where it can stop: at m = n; where beta_m <= 1e-14 max|alpha|, since
    |s_mi| <= 1 and max|theta| >= max|alpha| make every pair pass there, so
    breakdown (beta_m = 0, an invariant Krylov space) and nearly invariant
    spaces stop at once; and from m = 2 n_top on, every 4th step.  A later
    stop only lowers the residuals.  Returns theta ordered by decreasing
    |theta| and the Ritz vectors as orthonormal columns.
    """
    q = np.random.default_rng(0).standard_normal(n)
    q /= np.linalg.norm(q)
    basis = np.empty((min(n, 4 * n_top), n))  # rows q_0, q_1, ...; doubled when full
    alpha: list[float] = []
    beta: list[float] = []
    while True:
        m = len(alpha)
        if m == basis.shape[0]:
            basis = np.concatenate([basis, np.empty((min(n, 2 * m) - m, n))])
        basis[m] = q
        w = apply(q)
        alpha.append(float(q @ w))
        for _ in range(2):  # one pass loses orthogonality once beta_m << |alpha_m|
            w -= basis[: m + 1].T @ (basis[: m + 1] @ w)
        b = float(np.linalg.norm(w))
        last = m + 1 == n
        if last or b <= 1e-14 * max(map(abs, alpha)) or (m + 1 >= 2 * n_top and (m + 1 - 2 * n_top) % 4 == 0):
            theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            top = np.argsort(-np.abs(theta))[:n_top]
            if last or np.all(b * np.abs(s[-1, top]) <= 1e-14 * np.max(np.abs(theta))):
                return theta[top], basis[: m + 1].T @ s[:, top]
        beta.append(b)
        q = w / b


def _green_eigs(
    u: np.ndarray | float, v: np.ndarray | float, wronskian: float, grid: QuadratureGrid, n_top: int
) -> tuple[np.ndarray, np.ndarray]:
    """The n_top largest-|mu| eigenpairs of S = W^{1/2} G W^{1/2}, G = u(max) v(min) / wronskian on the grid.

    The one Green eigensolve, for the Sturm-Liouville solve and for V*V:
    Lanczos on the O(n) product of _green_matvec.
    """
    return _lanczos(_green_matvec(u, v, wronskian, grid), grid.size, n_top)


def _sl_candidates(mu_green: np.ndarray, mu_shift: float, k_wanted: int) -> tuple[np.ndarray, list[int]]:
    """(lambdas, indices) of the k_wanted smallest |lambda| = |1/mu + shift| among the
    4 k_wanted largest |mu| Green eigenvalues above 1e-13 max|mu|."""
    order = np.argsort(-np.abs(mu_green))
    floor = 1e-13 * float(np.max(np.abs(mu_green)))
    cand = [int(i) for i in order[: 4 * k_wanted] if abs(mu_green[i]) > floor]
    lam_cand = [(float(1.0 / mu_green[i] + mu_shift), i) for i in cand]
    lam_cand.sort(key=lambda t: abs(t[0]))
    return np.array([lam for lam, _ in lam_cand[:k_wanted]]), [i for _, i in lam_cand[:k_wanted]]


def _sl_residuals(solutions: SLSolutions, x: np.ndarray, f: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """||f - scale G f|| / ||f|| for each column of f sampled on the uniform grid x.

    G f(x) = (u(x) int_a^x v f + v(x) int_x^b u f) / W is applied by
    _green_sums on the trapezoid cells of v f and u f, O(len(x)).
    """
    u = solutions.u_at(x)[:, None]
    v = solutions.v_at(x)[:, None]
    half = (x[1] - x[0]) / 2.0
    cells = lambda y: half * (y[1:] + y[:-1])
    defect = f - scale * _green_sums(cells(v * f), cells(u * f), u, v, np.arange(x.size)) / solutions.wronskian
    return np.linalg.norm(defect, axis=0) / np.linalg.norm(f, axis=0)


@dataclass(frozen=True)
class SLMode:
    k: int
    lam: float
    nodes: np.ndarray = field(repr=False)
    samples: np.ndarray = field(repr=False)
    residual: float
    refine_drift: float | None = None
    shift: float | None = None


def sl_eigensolve(
    p: SturmLiouvilleProblem,
    n_nodes: int = DEFAULT_PANELS * NODES_PER_PANEL,
    k_wanted: int = 5,
    check_refinement: bool = True,
) -> list[SLMode]:
    """Lowest |lambda| eigenvalues/eigenfunctions of -y'' + q y = lambda y.

    The shift ladder and RK4 shooting run once.  The Green operator of the
    shifted problem is discretized as S = W^{1/2} G W^{1/2} on the Nystrom
    grid, real and symmetric, with G_ij = u(x_max) v(x_min) / W; S is never
    formed, since G is semiseparable and S y takes two cumulative sums over
    the nodes.  Lanczos on that product gives the 4 k_wanted largest-|mu|
    Ritz pairs of S, stopping when each has residual <= 1e-14 max|mu|, and
    lambda = 1/mu + shift.  One start vector suffices: with separated
    boundary conditions every eigenvalue is simple, so no eigenvector hides
    behind another of the same eigenvalue.  Eigenfunction node samples are
    orthonormal under the quadrature pairing, and each mode records the
    ladder's shift.  Each mode's residual is the relative L2 defect of
    f = (lambda - shift) G f on 2001 uniform points, where f is the Nystrom
    extension (1/mu) sum_j w_j G(x, x_j) f(x_j).  One routine applies G for
    the product, the extension and the residual: prefix and suffix sums over
    the weighted nodes, or over trapezoid cells for the residual.  With
    check_refinement, the same solutions and the same solve give the
    eigenvalues at 2 n_nodes (a second Lanczos); each mode records its
    relative drift as refine_drift, and a drift above 1% emits a
    RuntimeWarning.  Time is O(n_nodes * steps^2) and memory
    O(n_nodes * steps) for the Lanczos step count, about 50 at k_wanted = 5;
    the steps x steps tridiagonal eigensolve runs from step 8 k_wanted on,
    every 4th step, about 4 times per Lanczos at k_wanted = 5.
    """
    _require_count(1, k_wanted=k_wanted, n_nodes=n_nodes)
    mu_shift, sols = _shift_ladder(p, SHIFT_LADDER_DEPTH)

    def solve(n: int):
        grid = _panel_grid(p.a, p.b, n)
        theta, ritz = _green_eigs(sols.u_at(grid.nodes), sols.v_at(grid.nodes), sols.wronskian, grid, 4 * k_wanted)
        lams, idx = _sl_candidates(theta, mu_shift, k_wanted)
        return grid, theta, ritz, lams, idx

    grid, theta, ritz, lams, idx = solve(n_nodes)
    drifts: list[float | None] = [None] * len(idx)
    if check_refinement:
        finer = solve(2 * n_nodes)[3]
        for r, (lam, lam2) in enumerate(zip(lams, finer)):
            drifts[r] = float(abs(lam - lam2) / max(1.0, abs(lam)))
        for r, drift in enumerate(drifts):
            if drift is not None and drift > 0.01:
                warnings.warn(
                    f"eigenvalue {r + 1} unstable under grid doubling "
                    f"(drift {drift:.2%}); increase n_nodes",
                    RuntimeWarning,
                )
                break

    psi = ritz[:, idx]
    psi *= np.sign(psi[np.argmax(np.abs(psi), axis=0), np.arange(len(idx))])
    f_nodes = psi / np.sqrt(grid.weights)[:, None]
    # extend off-grid: f(x) = (1/mu) sum_j w_j G(x, x_j) f(x_j)
    fine = np.linspace(p.a, p.b, 2001)
    f_fine = _green_extension(sols, grid, f_nodes, fine) / theta[idx]
    residuals = _sl_residuals(sols, fine, f_fine, lams - mu_shift)
    return [
        SLMode(r + 1, float(lams[r]), grid.nodes, f_nodes[:, r], float(residuals[r]), drifts[r], mu_shift)
        for r in range(len(idx))
    ]


def rayleigh_refine(b: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """First k eigenvalues of a positive Hermitian matrix as successive Rayleigh minima.

    The j-th minimum of <x, Bx>/<x, x> over the orthocomplement of the first
    j - 1 minimizers is the j-th smallest eigenvalue of B, and the minimizers
    are orthonormal eigenvectors (Courant-Fischer).  So one Hermitian
    eigensolve of the checked Hermitian part gives them all.  Returns
    (ascending eigenvalues, minimizer columns).  Raises ValueError when B is
    not positive within tolerance.
    """
    m = require_hermitian(_require_2d(b))
    n = m.shape[0]
    _require_count(1, k=k)
    if k > n:
        raise ValueError(f"k must be in 1..{n}")
    herm = _hermitian_part(m)
    _check_positive(herm.copy(), 1.0 + operator_norm(m), "matrix is not positive within tolerance")
    w, v = np.linalg.eigh(herm)
    return w[:k], v[:, :k]


_BUILTIN_POTENTIALS = {
    "zero": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    "one": lambda x: np.ones_like(np.asarray(x, dtype=float)),
}


def _parse_potential(text: str) -> Callable:
    name = text.strip()
    if name in _BUILTIN_POTENTIALS:
        return _BUILTIN_POTENTIALS[name]
    if name.startswith("const:"):
        c = float(name.split(":", 1)[1])
        return lambda x: c * np.ones_like(np.asarray(x, dtype=float))
    if name.startswith("poly:"):
        coeffs = [float(t) for t in name.split(":", 1)[1].split(",")]
        return lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coeffs)
    raise ValueError(f"unknown potential {text!r}: use zero, one, const:c, or poly:c0,c1,...")


def sl_problem_from_config(path: str) -> SturmLiouvilleProblem:
    """Load a problem from a flat key=value file.

    Keys: interval = a,b ; q = zero|one|const:c|poly:c0,c1,... ;
    bc_left = alpha0,alpha1 ; bc_right = beta0,beta1.
    Unknown keys are rejected; '#' starts a comment, alone or after a value.
    """
    data = _read_key_values(path, ("interval", "q", "bc_left", "bc_right"))
    if "interval" not in data:
        raise ValueError("config must set interval = a,b")
    a, b = (float(t) for t in data["interval"].split(","))
    q = _parse_potential(data.get("q", "zero"))
    bcl = tuple(float(t) for t in data.get("bc_left", "1,0").split(","))
    bcr = tuple(float(t) for t in data.get("bc_right", "1,0").split(","))
    return SturmLiouvilleProblem(a, b, q, bcl, bcr)


def sl_modes_to_csv(modes: Sequence[SLMode], path: str) -> None:
    """Write (k, lambda, residual) rows."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "lambda", "residual"])
        for m in modes:
            w.writerow([m.k, f"{m.lam:.17g}", f"{m.residual:.17g}"])


def sl_modes_to_json(modes: Sequence[SLMode]) -> list[dict]:
    """Eigenfunction samples as JSON-ready dicts."""
    return [
        {
            "k": m.k,
            "lambda": float(m.lam),
            "residual": float(m.residual),
            "refine_drift": m.refine_drift,
            "shift": m.shift,
            "nodes": [float(x) for x in m.nodes],
            "samples": [float(np.real(s)) for s in m.samples],
        }
        for m in modes
    ]
