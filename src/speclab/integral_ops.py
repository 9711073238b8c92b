"""Nystrom-discretized integral operators and the Sturm-Liouville solver chain.

Integral operators carry their raw kernel samples K and the symmetrized
matrix B = W^{1/2} K W^{1/2} whose Hermitian eigensolve approximates the
operator spectrum.  The Sturm-Liouville path is: a spectral shift ladder for
problems where the operator is not injective, homogeneous solutions u, v by
fixed-step RK4 shooting (with cubic-Hermite dense output) and a Wronskian
check, all run once per solve.  The Green kernel u(max) v(min) / W is real
and semiseparable, so its symmetrized Nystrom matrix and the off-grid
interpolation table are assembled in float64 from u and v at the points, and
a real symmetric eigensolve gives the spectrum.  The grid-doubling check
compares eigenvalues only (eigvalsh at twice the nodes, same solutions), and
each mode's residual is the defect of the integral eigen-equation
f = (lambda - shift) G f, with G applied in O(N) by cumulative sums.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .linalg_core import _read_key_values, _sample, operator_norm, require_hermitian, require_matrix

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
    """Nodes strictly inside [a, b] with positive weights summing to b - a."""

    a: float
    b: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.nodes, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if x.ndim != 1 or x.shape != w.shape or x.size == 0:
            raise ValueError("nodes/weights must be matching nonempty 1-d arrays")
        if np.any(np.diff(x) <= 0):
            raise ValueError("nodes must be strictly ascending")
        if x[0] <= self.a or x[-1] >= self.b:
            raise ValueError("nodes must lie strictly inside (a, b)")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if abs(np.sum(w) - (self.b - self.a)) > 1e-12 * max(1.0, self.b - self.a):
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
    if not b > a:
        raise ValueError("need a < b")
    if panels < 1 or per_panel < 1:
        raise ValueError("panels and per_panel must be >= 1")
    x0, w0 = leggauss(per_panel)
    edges = np.linspace(a, b, panels + 1)
    nodes = []
    weights = []
    for k in range(panels):
        lo, hi = edges[k], edges[k + 1]
        half = (hi - lo) / 2.0
        nodes.append(half * x0 + (lo + hi) / 2.0)
        weights.append(half * w0)
    return QuadratureGrid(a, b, np.concatenate(nodes), np.concatenate(weights))


@dataclass(frozen=True)
class IntegralOperator:
    """Kernel samples on a quadrature grid plus the symmetrized matrix."""

    grid: QuadratureGrid
    kernel_matrix: np.ndarray = field(repr=False)
    symmetrized: np.ndarray = field(repr=False)

    def apply(self, f: np.ndarray) -> np.ndarray:
        """(T f)(x_i) = sum_j w_j K_ij f(x_j)."""
        fv = np.asarray(f, dtype=complex).ravel()
        if fv.size != self.grid.size:
            raise ValueError("sample vector does not match the grid")
        return self.kernel_matrix @ (self.grid.weights * fv)

    def hermitian_defect(self) -> float:
        b = self.symmetrized
        return float(np.max(np.abs(b - b.conj().T)))


def nystrom(k: Callable, grid: QuadratureGrid) -> IntegralOperator:
    """Sample a kernel on grid x grid and store K with B = W^{1/2} K W^{1/2}.

    k is called once as k(x[:, None], x[None, :]); a kernel that does not
    broadcast is sampled entry by entry instead.  A non-finite sample raises
    ValueError naming the indices.
    """
    x = grid.nodes
    km = _sample(k, x[:, None], x[None, :])
    bad = ~np.isfinite(km.view(float)).reshape(km.shape + (2,)).all(axis=-1)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"kernel sample not finite at nodes ({i}, {j})")
    return IntegralOperator(grid, km, _symmetrized(km, grid))


def _symmetrized(km: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """W^{1/2} K W^{1/2} for the grid's quadrature weights W."""
    sw = np.sqrt(grid.weights)
    return sw[:, None] * km * sw[None, :]


def _positive_hermitian_part(m: np.ndarray, scale: float, message: str) -> np.ndarray:
    """(M + M*) / 2 once it plus 1e-10 * scale * I has a Cholesky factor, else ValueError(message)."""
    herm = (m + m.conj().T) / 2.0
    try:
        np.linalg.cholesky(herm + 1e-10 * scale * np.eye(m.shape[0]))
    except np.linalg.LinAlgError:
        raise ValueError(message)
    return herm


def hs_norm(t) -> float:
    """Hilbert-Schmidt norm: quadrature L2 norm of a kernel, Frobenius for a matrix."""
    if isinstance(t, IntegralOperator):
        return float(np.linalg.norm(t.symmetrized, "fro"))
    return float(np.linalg.norm(require_matrix(t), "fro"))


def trace(t):
    """sum_i w_i k(x_i, x_i) for an operator, sum of diagonal entries for a matrix.

    The operator form requires a Hermitian positive kernel (checked on the
    symmetrized matrix); the matrix form takes any square matrix.
    """
    if isinstance(t, IntegralOperator):
        b = t.symmetrized
        scale = float(np.max(np.abs(b))) + 1.0
        if t.hermitian_defect() > 1e-10 * scale:
            raise ValueError("operator trace requires a Hermitian kernel")
        _positive_hermitian_part(b, scale, "operator trace requires a positive kernel")
        return float(np.sum(t.grid.weights * np.real(np.diag(t.kernel_matrix))))
    m = require_matrix(t)
    if m.shape[0] != m.shape[1]:
        raise ValueError("trace needs a square matrix")
    return complex(np.trace(m))


@dataclass(frozen=True)
class VolterraPair:
    v: IntegralOperator
    vstar_v: IntegralOperator


def volterra(grid: QuadratureGrid) -> VolterraPair:
    """The Volterra operator Vf(x) = int_0^x f and its adjoint product V*V on [0, 1].

    V's kernel is the step chi(y <= x) with value 1/2 on the diagonal (average
    of the one-sided limits); V*V has the continuous kernel 1 - max(x, y).
    """
    if abs(grid.a) > 1e-12 or abs(grid.b - 1.0) > 1e-12:
        raise ValueError("Volterra operators are built on [0, 1]")
    x = grid.nodes
    xi = x[:, None]
    yj = x[None, :]
    kv = (yj < xi).astype(complex) + 0.5 * (yj == xi)
    kvv = (1.0 - np.maximum(xi, yj)).astype(complex)
    make = lambda km: IntegralOperator(grid, km, _symmetrized(km, grid))
    return VolterraPair(make(kv), make(kvv))


class NonInjectiveError(ValueError):
    """Raised when the homogeneous solutions are dependent (|W| below tolerance)."""


@dataclass(frozen=True)
class SturmLiouvilleProblem:
    """-y'' + q y = lambda y on [a, b] with separated boundary conditions.

    bc_left = (alpha0, alpha1) imposes alpha0 y(a) + alpha1 y'(a) = 0 and
    bc_right = (beta0, beta1) the same at b; each pair must be nonzero.
    The potential q must be real-valued and continuous.
    """

    a: float
    b: float
    q: Callable = field(repr=False)
    bc_left: tuple[float, float] = (1.0, 0.0)
    bc_right: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("need a < b")
        for name, pair in (("bc_left", self.bc_left), ("bc_right", self.bc_right)):
            if len(pair) != 2 or (pair[0] == 0.0 and pair[1] == 0.0):
                raise ValueError(f"{name} must be a nonzero pair")

    def shifted(self, mu: float) -> "SturmLiouvilleProblem":
        """The problem with potential q - mu (spectrum translates by -mu)."""
        if mu == 0.0:
            return self
        base = self.q
        return SturmLiouvilleProblem(self.a, self.b, lambda x: base(x) - mu, self.bc_left, self.bc_right)


def _eval_potential(q: Callable, xs: np.ndarray) -> np.ndarray:
    vals = _sample(q, xs)
    if not np.all(np.isfinite(vals.view(float))):
        raise ValueError("potential not finite on the integration grid")
    if np.max(np.abs(vals.imag)) > 1e-12 * (1.0 + np.max(np.abs(vals.real))):
        raise ValueError("complex potentials are not supported")
    return vals.real


def _rk4_linear(qs: np.ndarray, hh: float, y0: float, p0: float):
    """Integrate y'' = q(x) y with classical RK4 at fixed step hh from the first node.

    qs holds the potential at half-step resolution (node k at index 2k, the
    midpoint of step k at 2k+1).  Returns (y, y') over all nodes in integration
    order; shooting from the last node is the same call on qs[::-1] with step -h.
    """
    n = (qs.size - 1) // 2
    y = np.empty(n + 1)
    p = np.empty(n + 1)
    y[0], p[0] = y0, p0
    cy, cp = y0, p0
    for k in range(n):
        q0, qm, q1 = qs[2 * k], qs[2 * k + 1], qs[2 * k + 2]
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
        cy = cy + hh / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        cp = cp + hh / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        y[k + 1], p[k + 1] = cy, cp
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
    (default step (b-a)/4096).  W = u v' - u' v is constant up to O(h^4);
    if |W| <= 1e-6 (1 + max|u| max|v|) the operator is not injective on the
    boundary-condition domain and NonInjectiveError directs the caller to
    sl_shift.
    """
    if h is None:
        h = (p.b - p.a) / ODE_STEPS
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
    tau_w = 1e-6 * (1.0 + np.max(np.abs(u)) * np.max(np.abs(v)))
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
    return _shift_ladder(p, depth)[0]


def _green_samples(solutions: SLSolutions, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The matrix G(x_i, t_j) = u(max) v(min) / W from u and v at the points only.

    O(len(x) + len(t)) Hermite evaluations in place of sl_green's two per
    entry; the entries are bit for bit those of sl_green(...)(x[:, None], t[None, :]).
    """
    upper = np.outer(solutions.u_at(x), solutions.v_at(t))
    lower = np.outer(solutions.v_at(x), solutions.u_at(t))
    out = np.where(x[:, None] >= t[None, :], upper, lower)
    out /= solutions.wronskian
    return out


def _panel_grid(a: float, b: float, n_nodes: int) -> QuadratureGrid:
    """Composite Gauss-Legendre grid on [a, b] with about n_nodes nodes, NODES_PER_PANEL per panel."""
    return gauss_legendre_grid(a, b, max(1, int(round(n_nodes / NODES_PER_PANEL))), NODES_PER_PANEL)


def _green_symmetrized(solutions: SLSolutions, grid: QuadratureGrid) -> np.ndarray:
    """W^{1/2} G W^{1/2} on the grid: real symmetric for real q and real boundary data."""
    return _symmetrized(_green_samples(solutions, grid.nodes, grid.nodes), grid)


def _sl_candidates(mu_green: np.ndarray, mu_shift: float, k_wanted: int) -> list[tuple[float, int]]:
    """(lambda, index) for the k_wanted smallest |lambda| = |1/mu + shift| among the
    4 k_wanted largest |mu| Green eigenvalues above 1e-13 max|mu|."""
    order = np.argsort(-np.abs(mu_green))
    floor = 1e-13 * float(np.max(np.abs(mu_green)))
    cand = [int(i) for i in order[: 4 * k_wanted] if abs(mu_green[i]) > floor]
    lam_cand = [(float(1.0 / mu_green[i] + mu_shift), i) for i in cand]
    lam_cand.sort(key=lambda t: abs(t[0]))
    return lam_cand[:k_wanted]


def _sl_residuals(solutions: SLSolutions, x: np.ndarray, f: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """||f - scale G f|| / ||f|| for each column of f sampled on the uniform grid x.

    G f(x) = (u(x) int_a^x v f + v(x) int_x^b u f) / W is applied in O(len(x))
    by cumulative trapezoid sums.
    """
    u = solutions.u_at(x)[:, None]
    v = solutions.v_at(x)[:, None]
    half = (x[1] - x[0]) / 2.0

    def cumulative(y):
        out = np.zeros_like(y)
        np.cumsum(half * (y[1:] + y[:-1]), axis=0, out=out[1:])
        return out

    left = cumulative(v * f)
    right = cumulative(u * f)
    right = right[-1] - right
    defect = f - scale * (u * left + v * right) / solutions.wronskian
    return np.linalg.norm(defect, axis=0) / np.linalg.norm(f, axis=0)


@dataclass(frozen=True)
class SLMode:
    k: int
    lam: float
    nodes: np.ndarray = field(repr=False)
    samples: np.ndarray = field(repr=False)
    residual: float
    refine_drift: float | None = None


def sl_eigensolve(
    p: SturmLiouvilleProblem,
    n_nodes: int = DEFAULT_PANELS * NODES_PER_PANEL,
    k_wanted: int = 5,
    check_refinement: bool = True,
) -> list[SLMode]:
    """Lowest |lambda| eigenvalues/eigenfunctions of -y'' + q y = lambda y.

    The shift ladder and RK4 shooting run once.  The symmetrized Nystrom
    matrix of the Green operator of the shifted problem is assembled, real
    and symmetric, from u and v at the nodes (G_ij = u(x_max) v(x_min) / W),
    and real eigh gives its eigenvalues mu; lambda = 1/mu + shift.
    Eigenfunction node samples are orthonormal under the quadrature pairing.
    Each mode's residual is the relative L2 defect of f = (lambda - shift) G f
    on 2001 uniform points, where f is the Nystrom extension
    (1/mu) sum_j w_j G(x, x_j) f(x_j) and G is applied by cumulative
    trapezoid sums.  With check_refinement, the same solutions give the
    eigenvalues at 2 n_nodes (eigvalsh only); each mode records its relative
    drift as refine_drift, and a drift above 1% emits a RuntimeWarning.
    """
    mu_shift, sols = _shift_ladder(p, SHIFT_LADDER_DEPTH)
    grid = _panel_grid(p.a, p.b, n_nodes)
    wb, vb = np.linalg.eigh(_green_symmetrized(sols, grid))
    lam_cand = _sl_candidates(wb, mu_shift, k_wanted)
    lams = np.array([lam for lam, _ in lam_cand])
    idx = [i for _, i in lam_cand]

    drifts: list[float | None] = [None] * len(lam_cand)
    if check_refinement:
        wf = np.linalg.eigvalsh(_green_symmetrized(sols, _panel_grid(p.a, p.b, 2 * n_nodes)))
        finer = _sl_candidates(wf, mu_shift, k_wanted)
        for r, (lam, (lam2, _)) in enumerate(zip(lams, finer)):
            drifts[r] = float(abs(lam - lam2) / max(1.0, abs(lam)))
        for r, drift in enumerate(drifts):
            if drift is not None and drift > 0.01:
                warnings.warn(
                    f"eigenvalue {r + 1} unstable under grid doubling "
                    f"(drift {drift:.2%}); increase n_nodes",
                    RuntimeWarning,
                )
                break

    psi = vb[:, idx]
    psi *= np.sign(psi[np.argmax(np.abs(psi), axis=0), np.arange(len(idx))])
    f_nodes = psi / np.sqrt(grid.weights)[:, None]
    # extend off-grid: f(x) = (1/mu) sum_j w_j G(x, x_j) f(x_j)
    fine = np.linspace(p.a, p.b, 2001)
    f_fine = (_green_samples(sols, fine, grid.nodes) @ (grid.weights[:, None] * f_nodes)) / wb[idx]
    residuals = _sl_residuals(sols, fine, f_fine, lams - mu_shift)
    return [
        SLMode(r + 1, float(lams[r]), grid.nodes, f_nodes[:, r], float(residuals[r]), drifts[r])
        for r in range(len(idx))
    ]


def rayleigh_refine(b: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """First k eigenvalues of a positive Hermitian matrix by successive Rayleigh minimization.

    Each eigenvalue is the minimum of <x, Bx>/<x, x> over the orthocomplement
    of the previous minimizers, located by projected inverse iteration with a
    Rayleigh-quotient polish.  Returns (ascending eigenvalues, minimizer
    columns); monotonicity is enforced exactly.  Raises ValueError when B is
    not positive within tolerance.
    """
    m = require_hermitian(b)
    n = m.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    scale = operator_norm(m)
    herm = _positive_hermitian_part(m, 1.0 + scale, "matrix is not positive within tolerance")
    mu = np.zeros(k)
    vecs = np.zeros((n, k), dtype=complex)

    def project(x: np.ndarray, j: int) -> np.ndarray:
        for c in range(j):
            x = x - np.vdot(vecs[:, c], x) * vecs[:, c]
        return x

    for j in range(k):
        x = project(np.ones(n, dtype=complex) + 1e-3 * np.arange(n), j)
        col = 0
        while np.linalg.norm(x) < 1e-8 and col < n:
            e = np.zeros(n, dtype=complex)
            e[col] = 1.0
            x = project(e, j)
            col += 1
        x = x / np.linalg.norm(x)
        rho_old = np.inf
        for _ in range(300):
            try:
                y = np.linalg.solve(herm, x)
            except np.linalg.LinAlgError:
                y = np.linalg.solve(herm + 1e-12 * (1.0 + scale) * np.eye(n), x)
            y = project(y, j)
            ny = np.linalg.norm(y)
            if ny == 0.0:
                break
            x = y / ny
            rho = float(np.vdot(x, herm @ x).real)
            if abs(rho - rho_old) <= 1e-15 * (1.0 + abs(rho)):
                break
            rho_old = rho
        rho = float(np.vdot(x, herm @ x).real)
        for _ in range(3):  # Rayleigh-quotient polish, cubic near convergence
            try:
                y = np.linalg.solve(herm - rho * np.eye(n), x)
            except np.linalg.LinAlgError:
                break
            y = project(y, j)
            ny = np.linalg.norm(y)
            if ny == 0.0 or not np.isfinite(ny):
                break
            x = y / ny
            rho = float(np.vdot(x, herm @ x).real)
        if j > 0:
            rho = max(rho, mu[j - 1])  # exact monotonicity
        mu[j] = rho
        vecs[:, j] = x
    return mu, vecs


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
            "nodes": [float(x) for x in m.nodes],
            "samples": [float(np.real(s)) for s in m.samples],
        }
        for m in modes
    ]
