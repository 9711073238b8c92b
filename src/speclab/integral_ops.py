"""Nystrom-discretized integral operators and the Sturm-Liouville solver chain.

Integral operators store only their kernel samples K; B = W^{1/2} K W^{1/2},
whose Hermitian eigensolve approximates the operator spectrum, is formed from
K on access, whole or one block at a time (trace reads it by block
columns).  The Sturm-Liouville path is: a spectral shift ladder for problems
where the operator is not injective, homogeneous solutions u, v by
fixed-step RK4 shooting (with cubic-Hermite dense output) and a Wronskian
check, all run once per solve.  Each shot multiplies the 2 x 2 transfer
matrices of its n RK4 steps in blocks of ceil(sqrt(n)), vectorized: about
2 sqrt(n) Python-level steps, 126 at the default n = 4096.  The Green
kernel u(max) v(min) / W is real and semiseparable, so its symmetrized
Nystrom matrix S = W^{1/2} G W^{1/2} is never formed: S y is two cumulative
sums over the nodes, O(n), and Lanczos with full reorthogonalization on that
product gives the few extremal eigenpairs the solve needs, in O(n * steps)
memory.  Its one stopping rule certifies the modes it returns: converged,
and nearer 0 in lambda = 1/mu + shift than any eigenvalue not yet converged
can be; it diagonalizes its tridiagonal matrix only where it can stop.
_green_eigs is the one entry point to that eigensolve.  _green_sums applies
G by those sums, to u and v sampled once per point set: for the product,
the extension of eigenfunctions off the grid, and each mode's residual, the
defect of f = (lambda - shift) G f on trapezoid cells.  The grid-doubling
check is the same solve at twice the nodes (same solutions).  The Volterra
square V*V has the same form, kernel 1 - max(x, y) with u = 1 - x, v = 1
and W = 1, so _green_eigs serves its spectrum too.  rayleigh_refine takes
its successive Rayleigh minima from one Hermitian eigensolve
(Courant-Fischer).
"""

from __future__ import annotations

import csv
import math
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
    _sum_of_squares,
    _unstack,
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

        B is formed in one n x n allocation, as its block by _symmetrized_block.
        """
        return self._symmetrized_block(slice(None), slice(None))

    def _symmetrized_block(self, rows: slice, cols: slice) -> np.ndarray:
        """B[rows, cols], a new array formed from K: sw[rows, None] * K[rows, cols], then
        *= sw[None, cols] for sw = W^{1/2}, with the bits of sw[:, None] * K * sw[None, :]."""
        sw = np.sqrt(self.grid.weights)
        block = sw[rows, None] * self.kernel_matrix[rows, cols]
        block *= sw[None, cols]
        return block

    def apply(self, f: np.ndarray) -> np.ndarray:
        """(T f)(x_i) = sum_j w_j K_ij f(x_j): float64 for a real kernel and a real f, else complex128."""
        fv = np.asarray(f).ravel()
        if fv.size != self.grid.size:
            raise ValueError("sample vector does not match the grid")
        return self.kernel_matrix @ (self.grid.weights * fv)

    def hermitian_defect(self) -> float:
        """max |B_ij - conj(B_ji)|, read from K by row blocks of B of about _CHUNK entries,
        each with its mirrored column block: no n x n array is formed."""
        every, b = slice(None), self._symmetrized_block
        defects = (_hermitian_defect(b(rows, every), b(every, rows)) for rows in _row_blocks(self.kernel_matrix.shape))
        return float(max(defects, default=0.0))


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


_PANELS = 12  # block columns of a Cholesky check, each at least _PANEL_WIDTH wide
_PANEL_WIDTH = 32


def _panels(n: int) -> list[slice]:
    """The block columns of _check_positive's factor for an n x n matrix: max(_PANEL_WIDTH,
    n / _PANELS) columns each but the last, so at most _PANELS of them.  Width w trades the
    factor's memory, n^2 / 2 + n w / 2 entries with about n w of temporaries, against its
    _PANELS^2 / 2 products and the per-panel factor and inverse."""
    width = max(_PANEL_WIDTH, -(-n // _PANELS))
    return [slice(lo, min(lo + width, n)) for lo in range(0, n, width)]


def _check_positive(panels: list[np.ndarray], scale: float) -> None:
    """ValueError unless H + 1e-10 * scale * I has a Cholesky factor, for the
    Hermitian matrix H given by its block columns from the diagonal down.

    panels[j] is H[lo:, cols] for the j-th block column cols of _panels(n), lo = cols.start,
    so only H's lower triangle and its diagonal blocks are read, about n^2 / 2 entries.  A
    left-looking blocked Cholesky (Golub & Van Loan, Matrix Computations, 4.2) factors them
    in place into L's panels, one at a time: the shift goes on its diagonal, each earlier
    panel's product is subtracted from it, its diagonal block is factored by
    np.linalg.cholesky, and its rows below are multiplied by that factor's inverse.  So
    besides the panels the check holds one panel's temporaries.
    """
    for j, panel in enumerate(panels):
        width = panel.shape[1]
        diagonal = np.arange(width)
        panel[diagonal, diagonal] += 1e-10 * scale
        for earlier in panels[:j]:
            top = len(earlier) - len(panel)  # the panel's first row among the earlier panel's rows
            panel -= earlier[top:] @ earlier[top:top + width].conj().T
        try:
            panel[:width] = np.linalg.cholesky(panel[:width])
        except np.linalg.LinAlgError:
            raise ValueError("operator trace requires a positive kernel")
        # L21 = A21 L11^-*: a product with L11's inverse, which costs less than a solve
        panel[width:] = panel[width:] @ np.linalg.inv(panel[:width]).conj().T


def hs_norm(t) -> float | np.ndarray:
    """Hilbert-Schmidt norm: quadrature L2 norm of a kernel, Frobenius for a matrix.

    A stack (..., rows, cols) gives the array of its matrices' norms, each
    bitwise as for the matrix alone.  The sum of squares is one dot product of
    the real parts plus one of the imaginary parts, in row-major order, as
    np.linalg.norm(matrix, "fro") forms it for a row-major matrix: the two
    agree bit for bit there.  An operator's B = W^{1/2} K W^{1/2} is read from
    K by the row blocks of _row_blocks, each block summed so and the blocks'
    sums added, so one block of B is held, never B.
    """
    if isinstance(t, IntegralOperator):
        every = slice(None)
        blocks = (t._symmetrized_block(rows, every) for rows in _row_blocks(t.kernel_matrix.shape))
        return float(np.sqrt(sum(_sum_of_squares(b.reshape(-1)) for b in blocks)))
    m = _require_stack(t)
    return _unstack(np.sqrt(_sum_of_squares(m.reshape(*m.shape[:-2], m.shape[-2] * m.shape[-1]))))


def trace(t):
    """sum_i w_i k(x_i, x_i) for an operator, sum of diagonal entries for a matrix.

    The operator form requires a Hermitian positive kernel (Mercer), checked on
    the symmetrized matrix B: its Hermitian defect, then a Cholesky factor of
    (B + B*) / 2 shifted by 1e-10 (1 + max |B_ij|).  B is never formed.  It is
    read from the stored kernel one block column of _panels at a time: the
    column's rows from its diagonal block down, and the mirrored block row, each
    formed once with the bits of B's entries.  Together they hold every entry
    of B once or twice, so they give max |B_ij| and the Hermitian defect, and
    they give that block column of (B + B*) / 2, which _check_positive factors
    in place after the defect is checked.  So the check holds the lower
    triangle of (B + B*) / 2, about n^2 / 2 entries, beside the kernel, and one
    block column's temporaries.  The matrix form takes any square matrix.
    """
    if isinstance(t, IntegralOperator):
        parts, largest, defect = [], 0.0, 0.0
        for cols in _panels(len(t.kernel_matrix)):
            below = slice(cols.start, None)
            column, row = t._symmetrized_block(below, cols), t._symmetrized_block(cols, below)
            largest = max(largest, float(np.max(np.abs(column))), float(np.max(np.abs(row))))
            defect = max(defect, float(_hermitian_defect(column, row)))
            parts.append(_hermitian_part(column, row))
            del column, row  # before the next block column's are formed
        scale = largest + 1.0
        if defect > 1e-10 * scale:
            raise ValueError("operator trace requires a Hermitian kernel")
        _check_positive(parts, scale)
        return float(np.sum(t.grid.weights * np.real(np.diag(t.kernel_matrix))))
    return complex(np.trace(_require_square(require_matrix(t))))


@dataclass(frozen=True)
class VolterraPair:
    v: IntegralOperator
    vstar_v: IntegralOperator


def _volterra_step(x, y):
    """V's kernel chi(y <= x), 1/2 on the diagonal."""
    return (y < x) + 0.5 * (y == x)


def _volterra_product(x, y):
    """V*V's kernel 1 - max(x, y)."""
    return 1.0 - np.maximum(x, y)


def volterra(grid: QuadratureGrid) -> VolterraPair:
    """The Volterra operator Vf(x) = int_0^x f and its adjoint product V*V on [0, 1].

    V's kernel is the step chi(y <= x) with value 1/2 on the diagonal (average
    of the one-sided limits), _volterra_step; V*V has the continuous kernel
    1 - max(x, y), _volterra_product.  Both are built by nystrom, and being real
    they are stored as float64.
    """
    if abs(grid.a) > 1e-12 or abs(grid.b - 1.0) > 1e-12:
        raise ValueError("Volterra operators are built on [0, 1]")
    return VolterraPair(nystrom(_volterra_step, grid), nystrom(_volterra_product, grid))


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
    if _first_non_finite(vals) is not None:
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


def _rk4_linear(qs: np.ndarray, hh: float, y0: float, p0: float):
    """Integrate y'' = q(x) y with classical RK4 at fixed step hh from the first node.

    qs holds the potential at half-step resolution (node k at index 2k, the
    midpoint of step k at 2k+1).  Returns (y, y') over all nodes in integration
    order; shooting from the last node is the same call on qs[::-1] with step -h.

    An RK4 step of this linear system is linear, (y, y')_{k+1} = M_k (y, y')_k,
    so the n step matrices come from one vectorized step applied to the start
    vectors (1, 0) and (0, 1).  They are propagated in blocks of width
    ceil(sqrt(n)), the last padded with identity steps: one loop over the
    positions in a block forms the prefix products of every block at once, a
    second carries the start vector from block to block, and one broadcast
    product gives every node.  That is (width - 1) + (blocks - 1) Python-level
    steps in place of n, the fewest of any width: 126 at n = 4096 (width 64).
    """
    n = (qs.size - 1) // 2
    width = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    q0, qm, q1 = qs[0:-1:2], qs[1::2], qs[2::2]
    blocks = -(-n // width)
    prefix = np.empty((blocks * width, 2, 2))
    prefix[:n, 0, 0], prefix[:n, 1, 0] = _rk4_step(q0, qm, q1, hh, 1.0, 0.0)
    prefix[:n, 0, 1], prefix[:n, 1, 1] = _rk4_step(q0, qm, q1, hh, 0.0, 1.0)
    prefix[n:] = np.eye(2)
    prefix = prefix.reshape(blocks, width, 2, 2)  # prefix[b, j] = M_{bB+j} ... M_{bB}, B = width
    for j in range(1, width):
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
    products of the steps' transfer matrices (_rk4_linear): 126 vectorized
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


def _green_sums(lower: np.ndarray, upper: np.ndarray, ux: np.ndarray, vx: np.ndarray, k: np.ndarray | slice) -> np.ndarray:
    """u(x_i) sum_{j < k_i} lower_j + v(x_i) sum_{j >= k_i} upper_j: W G f at the points x.

    The one routine that applies the Green kernel G = u(max) v(min) / W, for
    the Lanczos product, the off-grid extension and the residual defect.
    lower and upper are the terms v f and u f of an integral over [a, b],
    quadrature-weighted nodes or trapezoid cells, with k_i the number of terms
    left of x_i (an index array, or a slice where the k_i are consecutive, so
    the sums are read as views); ux, vx are u and v at x, shaped to broadcast
    against the sums.
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
    return lambda y: sw * _green_sums(v * (sw * y), u * (sw * y), u, v, slice(1, None)) / wronskian


def _green_extension(u: np.ndarray, v: np.ndarray, wronskian: float, grid: QuadratureGrid, f_nodes: np.ndarray,
                     x: np.ndarray, ux: np.ndarray, vx: np.ndarray) -> np.ndarray:
    """sum_j w_j G(x_i, x_j) f(x_j) at x for each column of f_nodes, from u, v at the nodes and columns ux, vx at x."""
    wf = grid.weights[:, None] * f_nodes
    k = np.searchsorted(grid.nodes, x, side="right")
    return _green_sums(v[:, None] * wf, u[:, None] * wf, ux, vx, k) / wronskian


def _lanczos(
    apply: Callable[[np.ndarray], np.ndarray], n: int, k: int, shift: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """k Ritz values of a real symmetric n x n operator A and their Ritz vectors, by Lanczos.

    Lanczos (Parlett, The Symmetric Eigenvalue Problem; Golub & Van Loan,
    Matrix Computations, ch. 10) from a fixed-seed Gaussian start vector, so
    reruns repeat every bit.  Each step orthogonalizes A q_m against all
    previous vectors, twice; alpha_m = q_m . A q_m and beta_m is the norm of
    what is left.  After step m the Ritz pairs (theta_i, s_i) of the m x m
    tridiagonal T_m have residual norms beta_m |s_mi|, and a pair has
    converged once beta_m |s_mi| <= 1e-14 max|theta|.  _lanczos_pick says
    when to stop and which pairs to return: the k values
    lambda = 1/theta + shift nearest 0, once certified (at shift 0, the k
    largest |theta| above 1e-13 max|theta|, once converged).  T_m is
    diagonalized and that test made only where it can stop: at m = n; where
    beta_m <= 1e-14 max|alpha|, since |s_mi| <= 1 and max|theta| >= max|alpha|
    make every pair pass there, so breakdown (beta_m = 0, an invariant
    Krylov space) and nearly invariant spaces stop at once; and from m = 2 k
    on, every 4th step.  A later stop only lowers the residuals.  Returns
    theta and the Ritz vectors as orthonormal columns, ordered by increasing
    |1/theta + shift|.
    """
    q = np.random.default_rng(0).standard_normal(n)
    q /= np.linalg.norm(q)
    basis = np.empty((min(n, 4 * k), n))  # rows q_0, q_1, ...; doubled when full
    alpha: list[float] = []
    beta: list[float] = []
    alpha_max = 0.0
    while True:
        m = len(alpha)
        if m == basis.shape[0]:
            basis = np.concatenate([basis, np.empty((min(n, 2 * m) - m, n))])
        basis[m] = q
        w = apply(q)
        alpha.append(float(q @ w))
        alpha_max = max(alpha_max, abs(alpha[-1]))
        for _ in range(2):  # one pass loses orthogonality once beta_m << |alpha_m|
            w -= basis[: m + 1].T @ (basis[: m + 1] @ w)
        b = float(np.linalg.norm(w))
        final = m + 1 == n or b <= 1e-14 * alpha_max
        if final or (m + 1 >= 2 * k and (m + 1 - 2 * k) % 4 == 0):
            theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            order = np.argsort(-np.abs(theta))
            theta, s = theta[order], s[:, order]
            pick = _lanczos_pick(theta, b * np.abs(s[-1]) <= 1e-14 * abs(theta[0]), k, shift, final)
            if pick is not None:
                return theta[pick], basis[: m + 1].T @ s[:, pick]
        beta.append(b)
        q = w / b


def _lanczos_pick(theta: np.ndarray, converged: np.ndarray, k: int, shift: float, final: bool) -> np.ndarray | None:
    """Indices of the Ritz values _lanczos returns, or None while it must go on.

    theta is ordered by decreasing |theta|, and theta_p ends the longest
    prefix of converged pairs.  Extremal pairs converge first, so every
    eigenvalue outside that prefix has |mu| <= |theta_p|.  Where A is the
    inverse of L - shift, such an eigenvalue gives L the eigenvalue
    lambda = 1/mu + shift with |lambda| >= 1/|theta_p| - |shift|.  So once k
    prefix members above 1e-13 max|theta| have |1/theta + shift| at most that
    bound, the k of them nearest 0 are k eigenvalues of L nearest 0 (ties
    aside).  theta_p itself meets the bound bit for bit when shift is 0 or of
    the sign opposite to theta_p, so with shift 0 the rule is that the k
    largest |theta| above the floor have converged.  At the final step
    (m = n, or a nearly invariant Krylov space) nothing lies outside the
    Krylov space that the iteration can reach, so the best available above
    the floor are returned.
    """
    p = theta.size if final else int(np.cumprod(converged).sum())
    idx = np.flatnonzero(np.abs(theta[:p]) > 1e-13 * abs(theta[0]))
    lam = np.abs(1.0 / theta[idx] + shift)
    if not final:
        sure = lam <= 1.0 / abs(theta[p - 1]) - abs(shift)
        idx, lam = idx[sure], lam[sure]
        if idx.size < k:
            return None
    return idx[np.argsort(lam, kind="stable")[:k]]


def _green_eigs(
    u: np.ndarray | float, v: np.ndarray | float, wronskian: float, grid: QuadratureGrid, k: int, shift: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """The k eigenpairs of S = W^{1/2} G W^{1/2}, G = u(max) v(min) / wronskian on the grid,
    whose lambda = 1/mu + shift lie nearest 0, ordered by |lambda|: with shift 0, the k largest |mu|.

    The one Green eigensolve, for the Sturm-Liouville solve and for V*V:
    Lanczos on the O(n) product of _green_matvec, stopped once those k are
    certified (_lanczos_pick).
    """
    return _lanczos(_green_matvec(u, v, wronskian, grid), grid.size, k, shift)


def _sl_residuals(u: np.ndarray, v: np.ndarray, wronskian: float, x: np.ndarray, f: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """||f - scale G f|| / ||f|| for each column of f sampled on the uniform grid x.

    G f(x) = (u(x) int_a^x v f + v(x) int_x^b u f) / W, u and v sampled at x as
    columns, is applied by _green_sums on the cells of v f and u f, O(len(x)).
    """
    half = (x[1] - x[0]) / 2.0
    cells = lambda y: half * (y[1:] + y[:-1])
    defect = f - scale * _green_sums(cells(v * f), cells(u * f), u, v, slice(None)) / wronskian
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
    the nodes.  Lanczos on that product stops once the k_wanted values
    lambda = 1/mu + shift nearest 0 are certified: their Ritz pairs of S have
    residual <= 1e-14 max|mu|, and every eigenvalue not yet converged lies
    at least as far from 0 (_lanczos_pick); at shift 0, that is once the
    k_wanted largest |mu| have converged.  One start vector suffices: with
    separated boundary conditions every eigenvalue is simple, so no
    eigenvector hides behind another of the same eigenvalue.  Eigenfunction
    node samples are orthonormal under the quadrature pairing, and each mode
    records the ladder's shift.  Each mode's residual is the relative L2 defect of
    f = (lambda - shift) G f on 2001 uniform points, where f is the Nystrom
    extension (1/mu) sum_j w_j G(x, x_j) f(x_j).  One routine applies G for
    the product, the extension and the residual: prefix and suffix sums over
    the weighted nodes, or over trapezoid cells for the residual, with u and
    v sampled once per point set (each solve's nodes, the 2001 points).  With
    check_refinement, the same solutions and the same solve give the
    eigenvalues at 2 n_nodes (a second Lanczos); each mode records its
    relative drift as refine_drift, and a drift above 1% emits a
    RuntimeWarning.  Time is O(n_nodes * steps^2) and memory
    O(n_nodes * steps) for the Lanczos step count, 22 to 26 at k_wanted = 5;
    the steps x steps tridiagonal eigensolve runs from step 2 k_wanted on,
    every 4th step, 4 or 5 times per Lanczos at k_wanted = 5.
    """
    _require_count(1, k_wanted=k_wanted, n_nodes=n_nodes)
    mu_shift, sols = _shift_ladder(p, SHIFT_LADDER_DEPTH)

    def solve(n: int):
        grid = _panel_grid(p.a, p.b, n)
        u, v = sols.u_at(grid.nodes), sols.v_at(grid.nodes)
        mu, psi = _green_eigs(u, v, sols.wronskian, grid, k_wanted, mu_shift)
        return grid, u, v, mu, psi, 1.0 / mu + mu_shift

    grid, u, v, mu, psi, lams = solve(n_nodes)
    drifts: list[float | None] = [None] * mu.size
    if check_refinement:
        finer = solve(2 * n_nodes)[-1]
        drifts[: finer.size] = (float(abs(lam - lam2) / max(1.0, abs(lam))) for lam, lam2 in zip(lams, finer))
        for r, drift in enumerate(drifts[: finer.size]):
            if drift > 0.01:
                warnings.warn(
                    f"eigenvalue {r + 1} unstable under grid doubling "
                    f"(drift {drift:.2%}); increase n_nodes",
                    RuntimeWarning,
                )
                break

    psi *= np.sign(psi[np.argmax(np.abs(psi), axis=0), np.arange(mu.size)])
    f_nodes = psi / np.sqrt(grid.weights)[:, None]
    # extend off-grid: f(x) = (1/mu) sum_j w_j G(x, x_j) f(x_j)
    fine = np.linspace(p.a, p.b, 2001)
    u_fine, v_fine = sols.u_at(fine[:, None]), sols.v_at(fine[:, None])
    f_fine = _green_extension(u, v, sols.wronskian, grid, f_nodes, fine, u_fine, v_fine) / mu
    residuals = _sl_residuals(u_fine, v_fine, sols.wronskian, fine, f_fine, lams - mu_shift)
    return [
        SLMode(r + 1, float(lams[r]), grid.nodes, f_nodes[:, r], float(residuals[r]), drifts[r], mu_shift)
        for r in range(mu.size)
    ]


def rayleigh_refine(b: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """First k eigenvalues of a positive Hermitian matrix as successive Rayleigh minima.

    The j-th minimum of <x, Bx>/<x, x> over the orthocomplement of the first
    j - 1 minimizers is the j-th smallest eigenvalue of B, and the minimizers
    are orthonormal eigenvectors (Courant-Fischer).  So one Hermitian
    eigensolve of the checked Hermitian part gives them all.  Returns
    (ascending eigenvalues, minimizer columns).  The same eigenvalues decide
    positivity: ValueError when the least is below -1e-10 (1 + max |lambda|).
    """
    m = require_hermitian(_require_2d(b))
    n = m.shape[0]
    _require_count(1, k=k)
    if k > n:
        raise ValueError(f"k must be in 1..{n}")
    w, v = np.linalg.eigh(_hermitian_part(m))
    if w[0] < -1e-10 * (1.0 + max(-w[0], w[-1])):
        raise ValueError("matrix is not positive within tolerance")
    return w[:k], v[:, :k]


def sl_problem_from_config(path: str) -> SturmLiouvilleProblem:
    """Load a problem from a flat key=value file.

    Keys: interval = a,b ; q = zero|one|const:c|poly:c0,c1,... (zero is const:0, one is
    const:1, and const:c is poly:c) ; bc_left = alpha0,alpha1 ; bc_right = beta0,beta1.
    Unknown keys are rejected; '#' starts a comment, alone or after a value.  A value that is
    not its key's count of finite numbers raises ValueError naming the file and the key.
    """
    data = _read_key_values(path, ("interval", "q", "bc_left", "bc_right"))

    def numbers(key: str, text: str, count: int | None = None) -> list[float]:
        """The comma-separated numbers of a key's value: `count` of them, or at least one, all finite."""
        try:
            values = [float(t) for t in text.split(",")]
        except ValueError:
            values = []
        if not values or count not in (None, len(values)) or not all(map(math.isfinite, values)):
            raise ValueError(f"{path}: {key} must be {count or 'one or more'} comma-separated finite number(s), got {text!r}")
        return values

    a, b = numbers("interval", data.get("interval", ""), 2)
    text = data.get("q", "zero")
    kind, _, args = {"zero": "const:0", "one": "const:1"}.get(text, text).partition(":")
    if kind not in ("const", "poly"):
        raise ValueError(f"{path}: unknown potential {text!r}: use zero, one, const:c, or poly:c0,c1,...")
    coeffs = numbers("q", args, 1 if kind == "const" else None)
    q = lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coeffs)
    bcl, bcr = (tuple(numbers(key, data.get(key, "1,0"), 2)) for key in ("bc_left", "bc_right"))
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
