"""Finite-dimensional complex linear algebra with explicit spectral resolutions.

Conventions used throughout the package:

* inner products are conjugate-linear in the FIRST slot,
  <x, a*y + b*z> = a<x, y> + b<x, z>;
* matrices are dense complex128 numpy arrays, row-major in serialized form;
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


def require_matrix(a: np.ndarray) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array, raising ValueError otherwise."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix has non-finite entries")
    return m


def _sample(f: Callable, *args) -> np.ndarray:
    """f called once on its argument arrays, as a complex array of their broadcast shape.

    An evaluator that raises on arrays, or returns the wrong shape, is called entry by entry.
    """
    arrays = np.broadcast_arrays(*(np.asarray(a) for a in args))
    shape = arrays[0].shape
    try:
        out = np.asarray(f(*args), dtype=complex)
        if out.shape == shape:
            return out
    except Exception:  # whatever a user evaluator raises on arrays, it may still take scalars
        pass
    entries = zip(*(a.ravel().tolist() for a in arrays))
    return np.array([complex(f(*e)) for e in entries], dtype=complex).reshape(shape)


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


def operator_norm(a: np.ndarray) -> float:
    """Operator norm (largest singular value)."""
    m = require_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


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
    """Validate max_ij |A_ij - conj(A_ji)| <= tol and return the matrix."""
    m = require_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    defect = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if tol is None:
        # hermiticity_tol is never below 1e-10, so a smaller defect needs no SVD
        tol = hermiticity_tol(m) if defect > 1e-10 else 1e-10
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > tol {tol:.3e}")
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


def cluster_tol_default(a: np.ndarray) -> float:
    return max(1e-8, 1e-12 * operator_norm(a))


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
    max(1e-8, 1e-12 * ||A||).
    """
    m = require_hermitian(a)
    w, v = np.linalg.eigh(m)
    if cluster_tol is None:
        # cluster_tol_default(m), with ||A|| = max |lambda| from eigh in place of an SVD
        cluster_tol = max(1e-8, 1e-12 * float(np.max(np.abs(w), initial=0.0)))
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
