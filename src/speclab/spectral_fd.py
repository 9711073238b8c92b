"""Finite-dimensional spectral machinery for Hermitian matrices.

Projection-valued measures over Borel-set descriptors, measurable calculus,
vector-pair spectral measures, resolvents (direct and Neumann series), the
Gelfand radius sequence, Hausdorff distance of spectra, the Cayley transform,
unitary evolution, uncertainty records, and commuting diagonalization.

Sign conventions worth stating once:

* `resolvent(A, z)` returns (A - zI)^-1, so a diagonal entry is 1/(lambda - z);
* `neumann_resolvent` sums the Laurent series sum_n A^n / z^(n+1), which
  converges (for |z| > spectral radius) to (zI - A)^-1, i.e. MINUS the above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .linalg_core import (
    SpectralResolution,
    _first_failure,
    _hermitian_part,
    _require_2d,
    _require_count,
    _require_finite,
    _require_square,
    _require_stack,
    _require_tolerance,
    _synthesize,
    _unstack,
    hermitian_eig,
    matrix_to_json,
    operator_norm,
    require_hermitian,
    require_matrix,
)

__all__ = [
    "BorelSet",
    "ProjectionValuedMeasure",
    "SpectralMeasurePair",
    "pvm",
    "measurable_calculus",
    "spectral_measure",
    "resolvent",
    "neumann_resolvent",
    "NeumannResult",
    "spectral_radius_gelfand",
    "hausdorff_distance_spectra",
    "cayley",
    "cayley_map",
    "evolve",
    "uncertainty",
    "UncertaintyRecord",
    "commuting_diagonalization",
    "CompatibilityResult",
    "resolution_to_json",
    "spectral_measure_to_json",
]


def _endpoint_tol(lam: float) -> float:
    return 1e-12 * (1.0 + abs(lam))


@dataclass(frozen=True)
class BorelSet:
    """Finite union of intervals and singletons on the real line.

    Intervals are (lo, hi, lo_closed, hi_closed) with lo <= hi, infinite
    endpoints allowed.  Membership of a value within 1e-12*(1+|x|) of an
    endpoint is decided by the endpoint's closedness.
    """

    intervals: tuple = ()
    points: tuple = ()

    @staticmethod
    def interval(lo: float, hi: float, closed: str = "both") -> "BorelSet":
        if closed not in ("both", "left", "right", "neither"):
            raise ValueError(f"closed must be both/left/right/neither, got {closed!r}")
        if not lo <= hi:
            raise ValueError("interval needs lo <= hi")
        lc = closed in ("both", "left")
        hc = closed in ("both", "right")
        return BorelSet(intervals=((float(lo), float(hi), lc, hc),))

    @staticmethod
    def point(x: float) -> "BorelSet":
        _require_finite(x=x)
        return BorelSet(points=(float(x),))

    @staticmethod
    def real_line() -> "BorelSet":
        return BorelSet.interval(-np.inf, np.inf, closed="neither")

    @staticmethod
    def empty() -> "BorelSet":
        return BorelSet()

    def union(self, other: "BorelSet") -> "BorelSet":
        return BorelSet(self.intervals + other.intervals, self.points + other.points)

    def __or__(self, other: "BorelSet") -> "BorelSet":
        return self.union(other)

    def contains(self, lam: float) -> bool:
        tol = _endpoint_tol(lam)
        for p in self.points:
            if abs(lam - p) <= tol:
                return True
        for lo, hi, lc, hc in self.intervals:
            if np.isfinite(lo) and abs(lam - lo) <= tol:
                if lc:
                    return True
                continue
            if np.isfinite(hi) and abs(lam - hi) <= tol:
                if hc:
                    return True
                continue
            if lo < lam < hi:
                return True
        return False


def pvm(res: SpectralResolution, e: BorelSet) -> np.ndarray:
    """Projection sum_{lambda_i in E} P_i; zero matrix for an empty hit set."""
    return res.combine([1.0 if e.contains(float(lam)) else 0.0 for lam in res.eigenvalues])


@dataclass(frozen=True)
class ProjectionValuedMeasure:
    resolution: SpectralResolution

    def __call__(self, e: BorelSet) -> np.ndarray:
        return pvm(self.resolution, e)


def _values_on_spectrum(m: Callable, eigenvalues: np.ndarray) -> np.ndarray:
    """complex(m(lambda)) for each eigenvalue, as a complex array.

    m is called one scalar at a time: an array call may round differently
    (x**3 does).  An exception from the evaluator, or a NaN or infinite
    value, raises ValueError naming the eigenvalue.
    """
    vals = np.empty(len(eigenvalues), dtype=complex)
    for i, lam in enumerate(eigenvalues):
        try:
            vals[i] = complex(m(float(lam)))
        except Exception as exc:
            raise ValueError(f"evaluator undefined at eigenvalue {lam}: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"evaluator not finite at eigenvalue {eigenvalues[bad[0]]}: {vals[bad[0]]}")
    return vals


def measurable_calculus(res: SpectralResolution, m: Callable) -> np.ndarray:
    """m(A) = sum_i m(lambda_i) P_i.

    The evaluator must produce a finite complex value at every eigenvalue;
    anything else (exception, inf, nan) raises ValueError naming the point.
    """
    return res.combine(_values_on_spectrum(m, res.eigenvalues))


@dataclass(frozen=True)
class SpectralMeasurePair:
    """Atoms (lambda_i, <x, P_i y>) of the vector-pair spectral measure.

    Masses are stored unnormalized, so they sum to <x, y> exactly; any
    comparison against a convention that divides by pi must re-apply the
    factor itself.
    """

    eigenvalues: np.ndarray
    masses: np.ndarray = field(repr=False)

    def total_mass(self) -> complex:
        return complex(np.sum(self.masses))

    def integrate(self, m: Callable) -> complex:
        """sum_i m(lambda_i) * mass_i, i.e. <x, m(A) y>.

        The evaluator must produce a finite complex value at every eigenvalue,
        as in measurable_calculus.
        """
        return complex(np.sum(_values_on_spectrum(m, self.eigenvalues) * self.masses))


def spectral_measure(res: SpectralResolution, x: np.ndarray, y: np.ndarray) -> SpectralMeasurePair:
    """Vector-pair spectral measure with mass_i = <x, P_i y>.

    Stacks (..., n) of equal shape give masses[..., i] for each pair of
    vectors, each row bitwise as for its pair alone: every vector is
    multiplied by V* on its own, with the bits of (V* @ x[..., None])[..., 0].
    The coordinates V* x are taken as conj(conj(x) V), one row vector at a
    time, so no copy of V* is formed.  A stacked result's total_mass and
    integrate sum over the whole stack, and spectral_measure_to_json rejects it.
    """
    xv = np.asarray(x, dtype=complex)
    yv = np.asarray(y, dtype=complex)
    if xv.shape[-1:] != (res.dim,) or yv.shape[-1:] != (res.dim,):
        raise ValueError("vector dimension does not match the resolution")
    if xv.shape != yv.shape:
        raise ValueError(f"x and y must have the same shape, got {xv.shape} and {yv.shape}")

    def coords(v):
        c = (np.conj(v)[..., None, :] @ res.eigenvectors)[..., 0, :]
        np.subtract(0.0, c.imag, out=c.imag)  # the conjugate, with +0 zeros as in _synthesize
        return c

    masses = np.add.reduceat(np.conj(coords(xv)) * coords(yv), res.offsets[:-1], axis=-1)
    return SpectralMeasurePair(res.eigenvalues.copy(), masses)


def resolvent(a: np.ndarray, z: complex) -> np.ndarray:
    """R(z) = (A - zI)^-1 for Hermitian A and z off the spectrum.

    Diagonalized form: eigenvalue lambda contributes 1/(lambda - z).  Raises
    ValueError when z is not finite or is within 1e-12*(1+||A||-scale) of an eigenvalue.
    """
    _require_finite(z=z)
    m = require_hermitian(_require_2d(a))
    w = np.linalg.eigvalsh(m)
    dist = float(np.min(np.abs(w - z), initial=np.inf))
    tau_sing = 1e-12 * (1.0 + float(np.max(np.abs(w), initial=0.0)))
    if dist <= tau_sing:
        raise ValueError(f"z={z} is within {tau_sing:.3e} of the spectrum (near-singular)")
    n = m.shape[0]
    return np.linalg.solve(m - z * np.eye(n), np.eye(n, dtype=complex))


@dataclass(frozen=True)
class NeumannResult:
    """Partial-sum record for the Laurent resolvent series."""

    matrix: np.ndarray = field(repr=False)
    converged: bool
    terms: int
    tail: float


def _neumann_skip(m: np.ndarray, z: complex, tau: float, kmax: int) -> int:
    """The largest K < kmax such that no term T_k = A^k / z^(k+1), 1 <= k <= K, can stop the series.

    A fixed unit probe x, taken 20 power steps of A*A toward A's top right
    singular vector, is walked forward as x_k = A x_(k-1) / z.  ||x_k|| / |z|
    bounds ||T_k|| below and (||A||_F / |z|)^k / |z| bounds it above (Golub &
    Van Loan, Matrix Computations, 2.3); term k is passed over only when the
    lower bound clears tau and the upper bound clears 1e120, each by the
    relative margin 1e-8, far above a bound's roundoff.  An overflowed bound
    (inf or nan) never clears.  The certificate is one of exact arithmetic:
    the computed terms carry their products' roundoff, so a term within
    roundoff of tau may be passed over where the term loop would stop at it.
    """
    margin = 1.0 + 1e-8
    x = np.random.default_rng(0).standard_normal(m.shape[0])  # fixed start: reruns make the same calls
    x /= np.linalg.norm(x)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed bound reads inf or nan: no skip
        for _ in range(20):
            y = ((m @ x).conj() @ m).conj()  # A*A x, without a copy of A*
            ny = float(np.linalg.norm(y))
            if not 0.0 < ny < np.inf:  # a step whose vector vanishes or overflows is not taken
                break
            x = y / ny
        ratio = float(np.linalg.norm(m)) / abs(z)
        upper = 1.0 / abs(z)
        for k in range(1, kmax):
            x = m @ x / z
            upper *= ratio
            if not (float(np.linalg.norm(x)) / abs(z) >= tau * margin and upper * margin <= 1e120):
                return k - 1
    return max(kmax - 1, 0)


def _neumann_head(m: np.ndarray, z: complex, r: int) -> tuple[np.ndarray, np.ndarray]:
    """(T_0 + ... + T_(r-1), T_r) for T_k = A^k / z^(k+1) and r >= 1, by binary powering.

    (S, P) = (sum_{j<r} B^j, B^r) with B = A/z is built over the binary digits
    of r, from S = 0, P = I: a doubling step is S += P S, then P = P P; a unit
    step is S += P, then P = (P / z) A, dividing first so that the product is
    no larger than the term loop's A T_j.  The leading digit's unit step gives
    (I, A/z), so the first doubling step adds P in place of the product P I,
    the same sum bit for bit for finite A, and gives (I + B, B^2).  Three
    n x n buffers, so memory is that of the term loop.
    """
    s = np.eye(m.shape[0], dtype=complex)
    p = m / z
    w = np.empty_like(s)
    for step, digit in enumerate(bin(r)[3:]):
        if step:
            np.matmul(p, s, out=w)
            s += w
        else:
            s += p
        np.matmul(p, p, out=w)
        p, w = w, p
        if digit == "1":
            s += p
            p /= z
            np.matmul(p, m, out=w)
            p, w = w, p
    s /= z
    p /= z
    return s, p


def neumann_resolvent(a: np.ndarray, z: complex, kmax: int = 256, tau: float = 1e-12) -> NeumannResult:
    """Partial sums of sum_{n>=0} A^n / z^(n+1), converging to (zI - A)^-1.

    Convergence is declared when a term's operator norm drops below tau; if
    kmax terms never get there the result carries converged=False (a flag,
    not an exception).  A term whose norm exceeds 1e120 (or is not finite)
    stops the series unconverged.  Note the sign: the limit is the inverse of
    (zI - A), which is minus `resolvent(a, z)`.

    The series first skips ahead: `_neumann_skip` certifies an index K before
    which no term can stop the series, and `_neumann_head` sums the terms up
    to K by binary powering, in about 2 log2(K) products rather than K.  The
    term loop then decides each term from K + 1 on by its exact SVD norm, so
    `tail` is the exact norm of the last term.  With K = 0 the loop alone sums
    the series, from the first term.  tau must be finite and >= 0.
    """
    m = _require_square(require_matrix(a))
    _require_count(0, kmax=kmax)
    _require_tolerance(tau=tau)
    n = m.shape[0]
    if z == 0:
        return NeumannResult(np.full((n, n), np.nan, dtype=complex), False, 0, np.inf)
    tail = 1.0 / abs(z) if n else 0.0  # ||I / z||, exactly
    skip = _neumann_skip(m, z, tau, kmax)
    if skip:
        acc, term = _neumann_head(m, z, skip + 1)
    else:  # the loop's own first product, so a call with no skip keeps the loop's bits
        acc = np.eye(n, dtype=complex) / z
        term = m @ acc / z
    for k in range(skip + 1, kmax + 1):
        if k > skip + 1:
            term = m @ term / z
        tail = operator_norm(term)
        if not np.isfinite(tail) or tail > 1e120:
            return NeumannResult(acc, False, k, float(tail))
        acc += term
        if tail < tau:
            return NeumannResult(acc, True, k, float(tail))
    return NeumannResult(acc, False, kmax, float(tail))


def spectral_radius_gelfand(a: np.ndarray, kmax: int = 20) -> np.ndarray:
    """The sequence ||A^(2^k)||^(1/2^k) for k = 0..kmax.

    Powers are renormalized at every squaring (log accumulation) so the
    sequence is overflow/underflow safe; a nilpotent matrix yields exact
    zeros once the power vanishes.  A stack (..., n, n) gives one sequence
    per matrix, shape (..., kmax + 1).
    """
    m = _require_square(_require_stack(a))
    _require_count(0, kmax=kmax)
    seq = np.zeros(m.shape[:-2] + (kmax + 1,))
    seq[..., 0] = nrm = np.asarray(operator_norm(m))
    live = nrm != 0.0  # False from a matrix's first vanishing power on: its remaining entries stay 0
    scale = np.where(live, nrm, 1.0)
    c = m / scale[..., None, None]
    t = np.log(scale)  # log ||A^(2^k)|| maintained exactly in t
    for k in range(1, kmax + 1):
        c = c @ c
        cn = np.asarray(operator_norm(c))
        live &= cn != 0.0
        if not live.any():
            break
        cn = np.where(live, cn, 1.0)  # a vanished power stays 0; its entries are masked to 0 below
        c = c / cn[..., None, None]
        t = 2.0 * t + np.log(cn)
        seq[..., k] = np.where(live, np.exp(t / 2.0 ** k), 0.0)
    return seq


def hausdorff_distance_spectra(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Exact Hausdorff distance between the eigenvalue sets of two Hermitian matrices.

    Stacks (..., n, n) and (..., m, m) give the array of distances, pair by pair.
    """
    wa = np.linalg.eigvalsh(require_hermitian(a))
    wb = np.linalg.eigvalsh(require_hermitian(b))
    return _set_distance(wa, wb)


def _set_distance(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Hausdorff distance of two finite sets in the complex plane; np.maximum lets a NaN propagate.

    Two empty sets are 0 apart and an empty set is inf from a nonempty one,
    the sup/inf convention for max(sup_x inf_y |x - y|, sup_y inf_x |x - y|).
    Stacks of sets (..., m) and (..., n) give the array of distances.
    """
    if x.shape[-1] == 0 or y.shape[-1] == 0:
        lead = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        return _unstack(np.full(lead, 0.0 if x.shape[-1] == y.shape[-1] == 0 else np.inf))
    d = np.abs(x[..., :, None] - y[..., None, :])
    return _unstack(np.maximum(d.min(axis=-1).max(axis=-1), d.min(axis=-2).max(axis=-1)))


def cayley_map(x) -> complex:
    """Cayley map (x - i) / (x + i), real line onto the unit circle minus 1; elementwise on an array."""
    return (x - 1j) / (x + 1j)


def cayley(a: np.ndarray) -> np.ndarray:
    """U = (A - iI)(A + iI)^-1, unitary for Hermitian A, eigenvalues (lambda-i)/(lambda+i).

    A stack (..., n, n) is transformed matrix by matrix.
    """
    m = require_hermitian(a)
    eye = np.eye(m.shape[-1], dtype=complex)
    x = np.linalg.solve(m + 1j * eye, eye)
    return (m - 1j * eye) @ x


def evolve(a: np.ndarray, t: float) -> np.ndarray:
    """e^{itA} = sum_i e^{i lambda_i t} P_i, computed through the eigensystem.

    A stack (..., n, n) is evolved matrix by matrix, and t may be an array
    broadcast against the stack's leading axes: evolve(A, [s, t]) for a single
    A gives the pair e^{isA}, e^{itA} from one eigendecomposition.
    """
    m = require_hermitian(a)
    t = np.asarray(t)
    if not np.all(np.isfinite(t)):
        raise ValueError(f"t must be finite, got {t}")
    w, v = np.linalg.eigh(m)
    return _synthesize(v, np.exp(1j * w * t[..., None])[..., None, :])


@dataclass(frozen=True)
class UncertaintyRecord:
    """lhs = (1/4)|<[A,B]>|^2, rhs = Var(A) Var(B), robertson_lhs adds the anticommutator term.

    Each field is a float, or for stacked inputs an array over the stack's leading axes.
    """

    lhs: float
    rhs: float
    robertson_lhs: float
    mean_a: float
    mean_b: float
    var_a: float
    var_b: float


def uncertainty(a: np.ndarray, b: np.ndarray, h: np.ndarray) -> UncertaintyRecord:
    """Uncertainty data for two observables in the state h (means subtracted internally).

    Both (1/4)|<h,[A,B]h>|^2 <= Var Var and the sharper version with the
    centered anticommutator term added on the left hold for every valid input;
    the record reports the three numbers so callers can assert either form.
    Stacks A, B of shape (..., n, n) with states h of shape (..., n) give one
    record of arrays, entry by entry.
    """
    ma = require_hermitian(a)
    mb = require_hermitian(b)
    hv = np.asarray(h, dtype=complex)
    if mb.shape != ma.shape or hv.shape != ma.shape[:-1]:
        raise ValueError(
            f"A, B and h must be shaped (..., n, n), (..., n, n) and (..., n); got {ma.shape}, {mb.shape}, {hv.shape}"
        )
    nrm = np.linalg.norm(hv, axis=-1)
    failed = ~(np.abs(nrm - 1.0) <= 1e-10)  # also a NaN norm
    if np.any(failed):
        index, at = _first_failure(failed)
        raise ValueError(f"state{at} must be a unit vector, got norm {nrm[index]}")
    col = hv[..., None]
    mean_a = np.vecdot(hv, (ma @ col)[..., 0]).real
    mean_b = np.vecdot(hv, (mb @ col)[..., 0]).real
    eye = np.eye(hv.shape[-1])
    a0h = ((ma - mean_a[..., None, None] * eye) @ col)[..., 0]
    b0h = ((mb - mean_b[..., None, None] * eye) @ col)[..., 0]
    var_a = np.vecdot(a0h, a0h).real
    var_b = np.vecdot(b0h, b0h).real
    cross = np.vecdot(a0h, b0h)  # <A0 h, B0 h>
    # commutator mean is 2i Im(cross); anticommutator mean is 2 Re(cross)
    lhs = cross.imag * cross.imag
    robertson_lhs = lhs + cross.real * cross.real
    fields = (lhs, var_a * var_b, robertson_lhs, mean_a, mean_b, var_a, var_b)
    return UncertaintyRecord(*(_unstack(f) for f in fields))


@dataclass(frozen=True)
class CompatibilityResult:
    """Joint diagonalization outcome; incompatibility is a value, not an error."""

    compatible: bool
    commutator_norm: float
    basis: np.ndarray | None = field(default=None, repr=False)
    diag_a: np.ndarray | None = None
    diag_b: np.ndarray | None = None


def commuting_diagonalization(
    a: np.ndarray,
    b: np.ndarray,
    tau_comm: float | None = None,
) -> CompatibilityResult:
    """Common eigenbasis of a commuting Hermitian pair, or the commutator norm.

    If ||AB - BA|| <= tau_comm (default 1e-10 (1+||A||)(1+||B||)) each
    eigenspace of A is refined by diagonalizing B compressed to it, giving a
    unitary basis diagonalizing both.  Otherwise the result just reports the
    commutator norm as the incompatibility witness.  A given tau_comm must be
    finite and >= 0.  Under the default, ||B|| (one eigvalsh of B) is taken
    only when the commutator norm exceeds 1e-10 (1+||A||): at or below that
    floor it is under the default whatever ||B|| is.
    """
    ma = require_hermitian(_require_2d(a))
    mb = require_hermitian(_require_2d(b))
    if ma.shape != mb.shape:
        raise ValueError("matrices must have the same shape")
    if tau_comm is not None:
        _require_tolerance(tau_comm=tau_comm)
    res = hermitian_eig(ma)
    comm = operator_norm(ma @ mb - mb @ ma)
    if tau_comm is None:  # Hermitian, so ||A|| = max |lambda| (A's from res): no SVD needed
        tau_comm = 1e-10 * (1.0 + float(np.max(np.abs(res.eigenvalues), initial=0.0)))
        if comm > tau_comm:  # at or below this floor comm clears the default for every ||B||
            tau_comm *= 1.0 + float(np.max(np.abs(np.linalg.eigvalsh(mb)), initial=0.0))
    if comm > tau_comm:
        return CompatibilityResult(False, comm)
    basis = np.empty_like(res.eigenvectors)
    db = np.empty(res.dim)
    for lo, hi in zip(res.offsets[:-1], res.offsets[1:]):
        s = res.eigenvectors[:, lo:hi]
        db[lo:hi], vb = np.linalg.eigh(_hermitian_part(s.conj().T @ mb @ s))
        basis[:, lo:hi] = s @ vb
    return CompatibilityResult(True, comm, basis, np.repeat(res.eigenvalues, res.multiplicities), db)


def resolution_to_json(res: SpectralResolution) -> dict:
    return {
        "eigenvalues": [float(x) for x in res.eigenvalues],
        "multiplicities": [int(x) for x in res.multiplicities],
        "projections": [matrix_to_json(p) for p in res.projections],
    }


def spectral_measure_to_json(pair: SpectralMeasurePair) -> dict:
    if np.ndim(pair.masses) != 1:
        raise ValueError("spectral_measure_to_json takes a single pair's measure, not a stack")
    return {
        "atoms": [
            {"x": float(lam), "re": float(m.real), "im": float(m.imag)}
            for lam, m in zip(pair.eigenvalues, pair.masses)
        ]
    }
