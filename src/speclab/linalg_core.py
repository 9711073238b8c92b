"""Finite-dimensional complex linear algebra with explicit spectral resolutions.

Conventions used throughout the package:

* inner products are conjugate-linear in the FIRST slot,
  <x, a*y + b*z> = a<x, y> + b<x, z>;
* matrices are dense complex128 numpy arrays, row-major in serialized form;
* validated matrices are complex128, but a sampled evaluator's values (a
  kernel, a potential) stay float64 when they are real;
* a Hermitian matrix is resolved as A = sum_i lambda_i P_i with strictly
  ascending distinct eigenvalues and orthogonal projections P_i, stored as
  the eigenvector matrix V plus cluster offsets, P_i = V_i V_i^* for the
  column block V_i of eigenvalue i; the projections are built only on access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "inner_product",
    "InnerProductSpace",
    "gram_schmidt",
    "operator_norm",
    "hadamard",
    "hermitian_eig",
    "cluster_offsets",
    "SpectralResolution",
    "require_matrix",
    "require_hermitian",
    "hermiticity_tol",
    "cluster_tol_default",
    "matrix_to_json",
    "matrix_from_json",
]


def _require_2d(a: np.ndarray) -> np.ndarray:
    """Coerce to a complex128 array, raising ValueError unless it is 2-d."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    return m


def require_matrix(a: np.ndarray) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array, raising ValueError otherwise."""
    return _require_stack(_require_2d(a))


def _require_stack(a: np.ndarray) -> np.ndarray:
    """Coerce to a finite complex128 array of ndim >= 2: a matrix, or a stack (..., rows, cols) of them.

    A non-finite entry raises ValueError naming the first matrix of the stack that holds one.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2:
        raise ValueError(f"expected a 2-d matrix or a stack of them, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        finite = np.isfinite(m).all(axis=(-2, -1))
        raise ValueError(f"matrix{_first_failure(~finite)[1]} has non-finite entries")
    return m


def _first_failure(failed: np.ndarray) -> tuple[tuple, str]:
    """The first True of a mask over a stack's leading axes: its index, and ' at index i' naming it.

    A single matrix has a 0-d mask, the index () and the empty name.
    """
    index = tuple(int(i) for i in np.unravel_index(np.argmax(failed), failed.shape))
    return index, f" at index {index[0] if len(index) == 1 else index}" if index else ""


def _require_square(m: np.ndarray) -> np.ndarray:
    """ValueError unless the validated matrix, or each matrix of the validated stack, is square."""
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _unstack(x: np.ndarray):
    """A single matrix's result (0-d) as a Python float; a stack's results as the array."""
    return float(x) if np.ndim(x) == 0 else x


def _sample(f: Callable, *args) -> np.ndarray:
    """f called once on its argument arrays, as an array of their broadcast shape:
    float64 for bool, integer or floating values, complex128 for any others.

    An evaluator that raises on arrays, or returns the wrong shape, is called entry by entry.
    """
    arrays = np.broadcast_arrays(*(np.asarray(a) for a in args))
    shape = arrays[0].shape
    real_or_complex = lambda v: np.asarray(v, dtype=float if v.dtype.kind in "biuf" else complex)
    try:
        out = real_or_complex(np.asarray(f(*args)))
        if out.shape == shape:
            return out
    except Exception:  # whatever a user evaluator raises on arrays, it may still take scalars
        pass
    entries = zip(*(a.ravel().tolist() for a in arrays))
    return real_or_complex(np.array([f(*e) for e in entries])).reshape(shape)


def _require_finite(**fields) -> None:
    """ValueError naming the first field with a NaN or infinite entry."""
    for name, value in fields.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")


def _read_key_values(path: str, known: Sequence[str]) -> dict[str, str]:
    """The key = value lines of a flat config file as strings; '#' starts a comment
    anywhere on a line.  A line without '=' or with a key not in `known` raises
    ValueError at `path:line:`."""
    values: dict[str, str] = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = (s.strip() for s in line.partition("="))
        if not eq:
            raise ValueError(f"{path}:{ln}: expected key=value, got {raw!r}")
        if key not in known:
            raise ValueError(f"{path}:{ln}: unknown key {key!r} (known: {', '.join(known)})")
        values[key] = val
    return values


def _uniform_grid(grid, values, owner: str) -> tuple[np.ndarray, np.ndarray]:
    """The grid as float and the values as complex, checked to be matching 1-d arrays
    of >= 2 points on a strictly increasing grid whose steps spread by at most
    1e-9 (1 + max |grid|).  A failed check raises ValueError naming `owner`."""
    g = np.asarray(grid, dtype=float)
    v = np.asarray(values, dtype=complex)
    if g.ndim != 1 or g.shape != v.shape or g.size < 2:
        raise ValueError(f"{owner}: grid/values must be matching 1-d arrays with >= 2 points")
    steps = np.diff(g)
    if np.any(steps <= 0):
        raise ValueError(f"{owner}: grid must be strictly increasing")
    if np.max(steps) - np.min(steps) > 1e-9 * (1.0 + np.max(np.abs(g))):
        raise ValueError(f"{owner}: grid step is not constant")
    return g, v


def operator_norm(a: np.ndarray) -> float | np.ndarray:
    """Operator norm (largest singular value).

    A stack (..., rows, cols) gives the array of its matrices' norms, each bitwise as for the matrix alone.
    """
    m = _require_stack(a)
    if m.size == 0:
        return _unstack(np.zeros(m.shape[:-2]))
    return _unstack(np.linalg.svd(m, compute_uv=False)[..., 0])


def _norm_certainly_within(a: np.ndarray, x: np.ndarray, lo: float, hi: float) -> tuple[bool, np.ndarray]:
    """Whether cheap bounds prove lo <= ||A||_2 <= hi, and the probe for the next call.

    ||A x|| for the unit vector x bounds the norm below and ||A||_F bounds it
    above (Golub & Van Loan, Matrix Computations, 2.3).  Each bound must clear
    its threshold by a relative margin of 1e-8, far above their roundoff, so a
    True never contradicts operator_norm; False means undecided, not outside.
    The returned probe is A*(A x) normalized, one power step of A*A, so a
    caller bracketing a sequence of related matrices tightens the lower bound.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed bound reads inf or nan: undecided
        ax = a @ x
        lo_a = float(np.linalg.norm(ax))
        hi_a = float(np.linalg.norm(a))
        if 0.0 < lo_a < np.inf:
            y = ((ax / lo_a).conj() @ a).conj()  # A* (A x) / ||A x||, without forming A*
            x = y / np.linalg.norm(y)
    margin = 1.0 + 1e-8
    return lo_a >= lo * margin and hi_a * margin <= hi, x


def hermiticity_tol(a: np.ndarray) -> float:
    """Default tolerance for calling a matrix Hermitian: 1e-10 * (1 + ||A||)."""
    return 1e-10 * (1.0 + operator_norm(a))


def require_hermitian(a: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Validate max_ij |A_ij - conj(A_ji)| <= tol and return the matrix.

    A stack (..., n, n) is validated matrix by matrix, and the error names the
    first matrix that fails.
    """
    m = _require_square(_require_stack(a))
    deviation = np.abs(m - m.conj().swapaxes(-2, -1))
    # hermiticity_tol is never below 1e-10, so defects all that small need no SVD
    if deviation.max(initial=0.0) <= (1e-10 if tol is None else tol):
        return m
    defect = deviation.max(axis=(-2, -1), initial=0.0)
    tol = np.broadcast_to(hermiticity_tol(m) if tol is None else tol, defect.shape)
    failed = defect > tol
    if failed.any():
        index, at = _first_failure(failed)
        raise ValueError(f"matrix{at} is not Hermitian: defect {defect[index]:.3e} > tol {tol[index]:.3e}")
    return m


def inner_product(x: np.ndarray, y: np.ndarray) -> complex:
    """<x, y> = sum_k conj(x_k) y_k, conjugate-linear in the first argument."""
    xv = np.asarray(x, dtype=complex).ravel()
    yv = np.asarray(y, dtype=complex).ravel()
    if xv.shape != yv.shape:
        raise ValueError(f"length mismatch: {xv.shape} vs {yv.shape}")
    return complex(np.vdot(xv, yv))


@dataclass(frozen=True)
class InnerProductSpace:
    """A finite-dimensional complex inner-product space.

    The pairing must be conjugate-linear in its first argument.  Vectors are
    plain arrays of coordinates (for the standard space) or of sample values
    (for quadrature realizations of function spaces).
    """

    dimension: int
    pairing: Callable[[np.ndarray, np.ndarray], complex]

    @staticmethod
    def coordinate(dimension: int) -> "InnerProductSpace":
        """C^n with the standard pairing."""
        if dimension < 1:
            raise ValueError("dimension must be positive")
        return InnerProductSpace(dimension, inner_product)

    @staticmethod
    def quadrature(nodes: np.ndarray, weights: np.ndarray) -> "InnerProductSpace":
        """Sampled L2 space: <f, g> = sum_k w_k conj(f(x_k)) g(x_k)."""
        w = np.asarray(weights, dtype=float)
        n = np.asarray(nodes, dtype=float)
        if w.shape != n.shape or w.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if np.any(w <= 0):
            raise ValueError("quadrature weights must be positive")

        def pair(f: np.ndarray, g: np.ndarray) -> complex:
            fv = np.asarray(f, dtype=complex).ravel()
            gv = np.asarray(g, dtype=complex).ravel()
            if fv.shape != (w.size,) or gv.shape != (w.size,):
                raise ValueError("sample vectors do not match the quadrature grid")
            return complex(np.sum(w * np.conj(fv) * gv))

        return InnerProductSpace(len(w), pair)

    def norm(self, x: np.ndarray) -> float:
        v = self.pairing(x, x)
        # the pairing of a vector with itself must be (numerically) real >= 0
        if abs(v.imag) > 1e-10 * (1.0 + abs(v.real)):
            raise ValueError(f"pairing is not positive: <x,x> = {v}")
        return float(np.sqrt(max(v.real, 0.0)))


def gram_schmidt(
    vectors: Sequence[np.ndarray],
    space: InnerProductSpace | None = None,
) -> list[np.ndarray]:
    """Orthonormalize a finite independent family.

    Classical construction e_n = (f_n - sum_{j<n} <e_j, f_n> e_j) / ||...||,
    run as modified Gram-Schmidt with a second sweep so the output Gram matrix
    is the identity to near machine precision.

    Raises ValueError naming the offending index when a vector is numerically
    dependent on its predecessors (residual norm <= 1e-10 * max input norm).
    """
    vecs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    if not vecs:
        return []
    if space is None:
        space = InnerProductSpace.coordinate(vecs[0].size)
    pair = space.pairing
    scale = max(space.norm(v) for v in vecs)
    tau_dep = 1e-10 * scale
    out: list[np.ndarray] = []
    for n, v in enumerate(vecs):
        w = v.copy()
        for _sweep in range(2):
            for e in out:
                w = w - pair(e, w) * e
        nrm = space.norm(w)
        if nrm <= tau_dep:
            raise ValueError(
                f"vector {n} is numerically dependent on its predecessors "
                f"(residual norm {nrm:.3e} <= {tau_dep:.3e})"
            )
        out.append(w / nrm)
    return out


def hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise (Schur) product of two matrices of identical shape."""
    ma = require_matrix(a)
    mb = require_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    return ma * mb


@dataclass(frozen=True)
class SpectralResolution:
    """A = sum_i eigenvalues[i] * P_i, with P_i = V_i V_i^*.

    eigenvalues are strictly ascending and distinct after clustering.  The
    columns of eigenvectors are orthonormal; cluster i owns the column block
    V_i = eigenvectors[:, offsets[i]:offsets[i+1]], so offsets runs from 0 to
    dim and its differences are the multiplicities.  The dense projections
    P_i are built afresh on every access to `projections`.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)
    offsets: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def multiplicities(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def projections(self) -> list[np.ndarray]:
        """The orthogonal projections P_i, one dense dim x dim matrix each."""
        v = self.eigenvectors
        blocks = (v[:, lo:hi] for lo, hi in zip(self.offsets[:-1], self.offsets[1:]))
        return [b @ b.conj().T for b in blocks]

    def combine(self, values) -> np.ndarray:
        """Return sum_i values[i] P_i as V diag(values repeated by multiplicity) V^*."""
        v = self.eigenvectors
        return (v * np.repeat(values, self.multiplicities)) @ v.conj().T

    def reconstruct(self) -> np.ndarray:
        """Return sum_i lambda_i P_i."""
        return self.combine(self.eigenvalues)


def _cluster_tol(norm: float) -> float:
    """Default eigenvalue-clustering tolerance for a matrix of norm ||A||: max(1e-8, 1e-12 ||A||)."""
    return max(1e-8, 1e-12 * norm)


def cluster_tol_default(a: np.ndarray) -> float:
    return _cluster_tol(operator_norm(a))


def cluster_offsets(w: np.ndarray, tol: float) -> np.ndarray:
    """Offsets of the chain clusters of an ascending list.

    Neighbours at most tol apart share a cluster, so cluster i is
    w[offsets[i]:offsets[i+1]]; an empty list gives offsets [0].
    """
    starts = np.flatnonzero(np.diff(w, prepend=-np.inf) > tol)
    return np.append(starts, len(w))


def hermitian_eig(a: np.ndarray, cluster_tol: float | None = None) -> SpectralResolution:
    """Spectral resolution of a Hermitian matrix.

    Eigenvalues within cluster_tol of each other (chained over adjacent gaps)
    are merged into a single eigenvalue, reported as the cluster mean, with
    the projection onto the merged eigenspace.  Default cluster_tol is
    max(1e-8, 1e-12 * ||A||); a given cluster_tol must be finite and >= 0.
    """
    m = require_hermitian(_require_2d(a))
    if cluster_tol is not None:
        _require_finite(cluster_tol=cluster_tol)
        if cluster_tol < 0:
            raise ValueError(f"cluster_tol must be >= 0, got {cluster_tol!r}")
    w, v = np.linalg.eigh(m)
    if cluster_tol is None:
        # ||A|| = max |lambda| from eigh, in place of an SVD
        cluster_tol = _cluster_tol(float(np.max(np.abs(w), initial=0.0)))
    offsets = cluster_offsets(w, cluster_tol)
    eigenvalues = np.array([float(np.mean(w[lo:hi])) for lo, hi in zip(offsets[:-1], offsets[1:])])
    return SpectralResolution(eigenvalues, v, offsets)


def matrix_to_json(a: np.ndarray) -> dict:
    """Serialize to {rows, cols, re, im} with row-major entry lists."""
    m = require_matrix(a)
    flat = m.ravel(order="C")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(x) for x in flat.real],
        "im": [float(x) for x in flat.imag],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of matrix_to_json; validates lengths against rows*cols."""
    rows, cols = int(obj["rows"]), int(obj["cols"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise ValueError("re/im length does not match rows*cols")
    return (re + 1j * im).reshape(rows, cols)
