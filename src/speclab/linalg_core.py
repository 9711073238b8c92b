"""Finite-dimensional complex linear algebra with explicit spectral resolutions.

Conventions used throughout the package:

* inner products are conjugate-linear in the FIRST slot,
  <x, a*y + b*z> = a<x, y> + b<x, z>;
* matrices are dense complex128 numpy arrays, row-major in serialized form;
* validated matrices are complex128, but sampled values (kernels, potentials,
  measure densities, boundary samples) stay float64 when real (_real_or_complex);
  every evaluator is sampled by _sample, once per block of about _CHUNK points;
* a Hermitian matrix is resolved as A = sum_i lambda_i P_i with strictly
  ascending distinct eigenvalues and orthogonal projections P_i, stored as
  the eigenvector matrix V plus cluster offsets, P_i = V_i V_i^* for the
  column block V_i of eigenvalue i; the projections are built only on access;
  every V diag(d) V^* (projections, functions of A, evolutions) is formed by
  _synthesize, which reads V^T as a view and makes no copy of V^*;
* every Hermitian part (A + A^*) / 2 and Hermitian defect max |A - A^*| is
  formed by _hermitian_part and _hermitian_defect, of the whole matrix or of a
  block and its mirrored block: the part in one new buffer, and the defect in
  row blocks of about _CHUNK entries, with no copy of A^*; the 2-norm of an
  exactly Hermitian matrix, max |lambda|, is taken by _hermitian_norm;
* one helper owns each argument rule and names the argument in its ValueError:
  _require_count (an integer >= least), _require_scale (a real scalar, finite
  and > 0), _require_interval (real, finite ends, lo < hi), _require_tolerance (a
  real scalar, finite, >= 0), _require_finite (numeric and finite).
"""

from __future__ import annotations

import functools
import math
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


def _real_or_complex(values) -> np.ndarray:
    """values as an array: float64 for bool, integer or floating values, complex128 for any others."""
    v = np.asarray(values)
    return np.asarray(v, dtype=float if v.dtype.kind in "biuf" else complex)


def _from_parts(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + 1j im read back from its parts: float64 re when every entry of im is zero, else complex128."""
    return re if not np.any(im) else re + 1j * im


_CHUNK = 1 << 14  # points per chunk of a grid pass: bounds its temporaries


def _row_blocks(shape: tuple) -> list[slice]:
    """Slices of the first axis that cut an array of this shape (ndim >= 1) into blocks of
    about _CHUNK entries: _CHUNK // (entries per row) rows each, and at least one row."""
    rows = max(1, _CHUNK // max(1, math.prod(shape[1:])))
    return [slice(lo, lo + rows) for lo in range(0, shape[0], rows)]


def _sample(f: Callable, *args) -> np.ndarray:
    """f on its argument arrays, as an array of their broadcast shape, real or complex by
    _real_or_complex.

    f is called once per block of about _CHUNK (16 384) points, cut along the first axis
    of the broadcast shape by _row_blocks, and each block is written into one result; an
    input of at most _CHUNK points is one call on the arguments as given.  The result is
    float64 unless a block comes back complex, when it is cast to complex128 once.  An
    evaluator that raises on a block, or returns the wrong shape, is called entry by entry
    on that block.
    """
    given = [np.asarray(a) for a in args]
    arrays = np.broadcast_arrays(*given)
    shape = arrays[0].shape
    if arrays[0].size <= _CHUNK:
        return _sample_block(f, args, arrays)
    out = None
    for rows in _row_blocks(shape):
        # an argument that spans the first axis is cut; one broadcast along it is passed as given
        cut = [g[rows] if g.ndim == len(shape) and len(g) > 1 else a for a, g in zip(args, given)]
        block = _sample_block(f, cut, [a[rows] for a in arrays])
        if out is None:
            out = np.empty(shape, block.dtype)
        elif out.dtype != block.dtype and out.dtype.kind == "f":
            out = out.astype(complex)
        out[rows] = block
    return out


def _sample_block(f: Callable, args, arrays: list[np.ndarray]) -> np.ndarray:
    """f(*args) as an array of the shape of `arrays` (args broadcast), real or complex by
    _real_or_complex.

    An evaluator that raises on arrays, or returns the wrong shape, is called entry by entry.
    """
    shape = arrays[0].shape
    try:
        out = _real_or_complex(f(*args))
        if out.shape == shape:
            return out
    except Exception:  # whatever a user evaluator raises on arrays, it may still take scalars
        pass
    return _real_or_complex([f(*e) for e in zip(*(a.ravel().tolist() for a in arrays))]).reshape(shape)


def _first_non_finite(v: np.ndarray) -> tuple | None:
    """The row-major index of v's first NaN or infinite entry, or None when all are finite.

    An array is checked in the row blocks of _row_blocks, so the check holds one block's
    mask; a 0-d v has the index ().
    """
    if v.ndim == 0:
        return None if np.isfinite(v) else ()
    for rows in _row_blocks(v.shape):
        finite = np.isfinite(v[rows])
        if not finite.all():
            index = np.unravel_index(np.argmin(finite), finite.shape)
            return (rows.start + int(index[0]), *map(int, index[1:]))
    return None


def _require_finite(**fields) -> None:
    """ValueError naming the first field that is not numeric (bool, integer, float or complex)
    or has a NaN or infinite entry (checked by _first_non_finite)."""
    for name, value in fields.items():
        v = np.asarray(value)
        if v.dtype.kind not in "biufc":
            raise ValueError(f"{name} must be numeric, got dtype {v.dtype}")
        if _first_non_finite(v) is not None:
            raise ValueError(f"{name} must be finite")


def _real_scalar(name: str, value) -> float:
    """value as a float; ValueError naming it unless it is a real scalar: an integer or a float,
    numpy's and 0-d arrays included, and not a bool."""
    v = np.asarray(value)
    if v.ndim or v.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(v)


def _require_tolerance(**fields) -> None:
    """ValueError naming the first tolerance that is not a real scalar, is not finite or is below 0."""
    for name, value in fields.items():
        x = _real_scalar(name, value)
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite")
        if x < 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")


def _require_count(least: int, **fields) -> None:
    """ValueError naming the first count that is not an integer >= least (a bool is not a count)."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _require_scale(**fields) -> None:
    """ValueError naming the first scale (a height, width or step) that is not a real scalar,
    or is not finite and > 0."""
    for name, value in fields.items():
        x = _real_scalar(name, value)
        if not (math.isfinite(x) and x > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _require_interval(name: str, lo, hi) -> None:
    """ValueError naming the interval unless both ends are real scalars (_real_scalar), finite, and lo < hi."""
    if not (np.isfinite(_real_scalar(name, lo)) and np.isfinite(_real_scalar(name, hi)) and lo < hi):
        raise ValueError(f"{name} must be a finite interval with lo < hi, got ({lo!r}, {hi!r})")


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
    """The grid as float and the values real or complex by _real_or_complex, checked to be
    matching 1-d arrays of >= 2 finite points on a strictly increasing grid whose steps
    spread by at most 1e-9 (1 + max |grid|).  A failed check raises ValueError naming `owner`.

    The steps are taken in the chunks of _row_blocks, adjacent chunks sharing their boundary point, so
    their min and max are exact and the step check holds O(_CHUNK) beyond the arrays."""
    g = np.asarray(grid, dtype=float)
    v = _real_or_complex(values)
    if g.ndim != 1 or g.shape != v.shape or g.size < 2:
        raise ValueError(f"{owner}: grid/values must be matching 1-d arrays with >= 2 points")
    _require_finite(**{f"{owner}: grid": g, f"{owner}: values": v})
    shortest, longest = np.inf, -np.inf
    for r in _row_blocks((g.size - 1,)):
        steps = np.diff(g[r.start:r.stop + 1])
        shortest, longest = min(shortest, np.min(steps)), max(longest, np.max(steps))
    if shortest <= 0:
        raise ValueError(f"{owner}: grid must be strictly increasing")
    if longest - shortest > 1e-9 * (1.0 + max(g[-1], -g[0])):  # max |grid|, as g increases
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


def _hermitian_norm(h: np.ndarray) -> float | np.ndarray:
    """||H|| = max |lambda| for an exactly Hermitian matrix H, or the array of norms of a stack
    (..., n, n) of them, each bitwise as for the matrix alone: one eigvalsh, no SVD.

    eigvalsh reads H's lower triangle alone: for H Hermitian bit for bit (as _hermitian_part
    builds it, or a difference of such matrices) this is ||H||, and for H Hermitian within a
    tolerance it is the norm of the Hermitian matrix that H's lower triangle defines.
    """
    return _unstack(np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1, initial=0.0))


def hermiticity_tol(a: np.ndarray) -> float:
    """Default tolerance for calling a matrix Hermitian: 1e-10 * (1 + ||A||)."""
    return 1e-10 * (1.0 + operator_norm(a))


def require_hermitian(a: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Validate max_ij |A_ij - conj(A_ji)| <= tol and return the matrix.

    A stack (..., n, n) is validated matrix by matrix, and the error names the
    first matrix that fails.
    """
    m = _require_square(_require_stack(a))
    defect = _hermitian_defect(m)
    # hermiticity_tol is never below 1e-10, so defects all that small need no SVD
    if defect.max(initial=0.0) <= (1e-10 if tol is None else tol):
        return m
    tol = np.broadcast_to(hermiticity_tol(m) if tol is None else tol, defect.shape)
    failed = defect > tol
    if failed.any():
        index, at = _first_failure(failed)
        raise ValueError(f"matrix{at} is not Hermitian: defect {defect[index]:.3e} > tol {tol[index]:.3e}")
    return m


def _hermitian_part(a: np.ndarray, mirror: np.ndarray | None = None) -> np.ndarray:
    """(A + M*) / 2 for each matrix of a stack (..., n, m) and its mirror M (..., m, n), by
    default A itself: a new C-ordered array with the bits of (A + A*) / 2 for M = A, and of
    the block (rows, cols) of (X + X*) / 2 for A = X[..., rows, cols], M = X[..., cols, rows].

    M* is copied into the result and A + M* is written over it, so A and M are left as they
    were and no other array of the result's size is formed.  The copy must be a new array:
    for real A, A.conj() is A itself, and a transposed view of it would write into A.
    """
    mirror = a if mirror is None else mirror
    part = np.empty(a.shape, np.result_type(a, 2.0))
    np.conjugate(mirror.swapaxes(-2, -1), out=part)
    np.add(a, part, out=part)
    return np.divide(part, 2.0, out=part)


def _hermitian_defect(a: np.ndarray, mirror: np.ndarray | None = None) -> np.ndarray:
    """max_ij |A_ij - conj(M_ji)| for each matrix of a stack (..., n, m) and its mirror M
    (..., m, n), by default A itself, so max |A - A*|; 0 for an empty one.

    A is read in the row blocks of _row_blocks(A's n x m shape) and M in the matching column
    blocks, so a stack of matrices of at most _CHUNK entries each is one block, and no copy
    of M* is formed.  A block's rows of M* are copied into a new buffer and A - M* is
    written over it; for real A its absolute value is taken in place, for complex A into
    one real array.  The maxima are exact, so blocks do not change the bits, and the defect
    over blocks that cover a triangle of a matrix, diagonal included, is the whole matrix's.
    """
    mirror = a if mirror is None else mirror
    maxima = []
    for rows in _row_blocks(a.shape[-2:]) or [slice(None)]:  # an empty matrix is one empty block
        deviation = np.empty(a[..., rows, :].shape, a.dtype)
        np.conjugate(mirror[..., :, rows].swapaxes(-2, -1), out=deviation)
        np.subtract(a[..., rows, :], deviation, out=deviation)
        deviation = np.abs(deviation, out=None if deviation.dtype.kind == "c" else deviation)
        maxima.append(deviation.max(axis=(-2, -1), initial=0.0))
        del deviation  # before the next block's is formed
    return functools.reduce(np.maximum, maxima)


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
        _require_count(1, dimension=dimension)
        return InnerProductSpace(dimension, inner_product)

    @staticmethod
    def quadrature(nodes: np.ndarray, weights: np.ndarray) -> "InnerProductSpace":
        """Sampled L2 space: <f, g> = sum_k w_k conj(f(x_k)) g(x_k), for finite nodes and finite weights > 0."""
        w = np.asarray(weights, dtype=float)
        n = np.asarray(nodes, dtype=float)
        if w.shape != n.shape or w.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        _require_finite(nodes=n, weights=w)
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
    P_i are built afresh on every access to `projections`; they and every
    combination sum_i values[i] P_i are formed from V by _synthesize.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)
    offsets: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def multiplicities(self) -> np.ndarray:
        return self.offsets[1:] - self.offsets[:-1]

    @property
    def projections(self) -> list[np.ndarray]:
        """The orthogonal projections P_i, one dense dim x dim matrix each."""
        v = self.eigenvectors
        blocks = (v[:, lo:hi] for lo, hi in zip(self.offsets[:-1], self.offsets[1:]))
        return [_synthesize(b, 1.0) for b in blocks]

    def combine(self, values) -> np.ndarray:
        """Return sum_i values[i] P_i as V diag(values repeated by multiplicity) V^*.

        values holds one number per eigenvalue, a 1-d array of the length of
        eigenvalues; any other shape raises ValueError.
        """
        values = np.asarray(values)
        if values.shape != self.eigenvalues.shape:
            raise ValueError(f"expected {len(self.eigenvalues)} values, one per eigenvalue, got shape {values.shape}")
        return _synthesize(self.eigenvectors, np.repeat(values, self.multiplicities))

    def reconstruct(self) -> np.ndarray:
        """Return sum_i lambda_i P_i."""
        return self.combine(self.eigenvalues)


def _synthesize(v: np.ndarray, d) -> np.ndarray:
    """V diag(d) V^* for V of shape (..., n, k), with the bits of (v * d) @ v.conj().swapaxes(-2, -1).

    d scales the columns of V: a scalar, a (k,) vector, or (..., 1, k) to
    broadcast against a stack.  The product is taken as the conjugate of
    conj(V d) V^T, with V^T a view, so besides the output the one temporary
    is V d, of V's size.  The conjugate's sign flip of the imaginary part is
    taken as 0 - x, not -x: the conjugated product has the same bits with
    every sign flipped, and 0 - x gives its zeros back as +0 where -x would
    give -0.
    """
    w = v * d
    np.conjugate(w, out=w)
    out = w @ v.swapaxes(-2, -1)
    if out.dtype.kind == "c":
        im = out.imag
        np.subtract(0.0, im, out=im)
    return out


def _cluster_tol(norm: float) -> float:
    """Default eigenvalue-clustering tolerance for a matrix of norm ||A||: max(1e-8, 1e-12 ||A||)."""
    return max(1e-8, 1e-12 * norm)


def cluster_tol_default(a: np.ndarray) -> float:
    return _cluster_tol(operator_norm(a))


def cluster_offsets(w: np.ndarray, tol: float) -> np.ndarray:
    """Offsets of the chain clusters of an ascending list.

    Neighbours at most tol apart share a cluster, so cluster i is
    w[offsets[i]:offsets[i+1]]; an empty list gives offsets [0].  tol must be
    finite and >= 0.
    """
    _require_tolerance(tol=tol)
    w = np.asarray(w)
    new = np.empty(len(w), dtype=bool)
    # the gap from -inf before w[0] clears every finite tol, unless w[0] is -inf or NaN
    new[:1] = w[:1] > -np.inf
    np.greater(w[1:] - w[:-1], tol, out=new[1:])
    return np.append(np.flatnonzero(new), len(w))


def hermitian_eig(a: np.ndarray, cluster_tol: float | None = None) -> SpectralResolution:
    """Spectral resolution of a Hermitian matrix.

    Eigenvalues within cluster_tol of each other (chained over adjacent gaps)
    are merged into a single eigenvalue, reported as the cluster mean, with
    the projection onto the merged eigenspace.  Default cluster_tol is
    max(1e-8, 1e-12 * ||A||); a given cluster_tol must be finite and >= 0.
    """
    m = require_hermitian(_require_2d(a))
    if cluster_tol is not None:
        _require_tolerance(cluster_tol=cluster_tol)
    w, v = np.linalg.eigh(m)
    if cluster_tol is None:
        # ||A|| = max |lambda| from eigh, in place of an SVD
        cluster_tol = _cluster_tol(float(np.max(np.abs(w), initial=0.0)))
    offsets = cluster_offsets(w, cluster_tol)
    eigenvalues = w[offsets[:-1]]  # a cluster of one value is its own mean
    for i in np.flatnonzero(offsets[1:] - offsets[:-1] > 1):
        eigenvalues[i] = np.mean(w[offsets[i]:offsets[i + 1]])
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
    """Inverse of matrix_to_json, bit for bit; checks lengths against rows*cols and entries by require_matrix."""
    rows, cols = int(obj["rows"]), int(obj["cols"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise ValueError("re/im length does not match rows*cols")
    return require_matrix(np.stack([re, im], axis=-1).view(complex).reshape(rows, cols))
