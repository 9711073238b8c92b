"""Inner products, spectral resolutions, Gram-Schmidt, and the norm identities."""

from fractions import Fraction

import numpy as np
import pytest

from speclab import linalg_core
from speclab import (
    FiniteMeasure,
    InnerProductSpace,
    SpectralResolution,
    commuting_diagonalization,
    gram_schmidt,
    hadamard,
    hermitian_eig,
    inner_product,
    matrix_from_json,
    matrix_to_json,
    neumann_resolvent,
    operator_norm,
    positive_definite_test,
    require_hermitian,
    spectral_radius_gelfand,
    trace,
)


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


# ---------------------------------------------------------------- oracles

def power_iteration_norm(a, iters=20000):
    """Largest singular value via power iteration on A*A.

    Independent of any eigensolver: only matvecs and Rayleigh quotients.
    """
    b = a.conj().T @ a
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(b.shape[0]) + 1j * rng.standard_normal(b.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = b @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    lam = np.vdot(v, b @ v).real
    return float(np.sqrt(lam))


def exact_monomial_gs(degree):
    """Gram-Schmidt on 1, x, ..., x^degree over L2[0,1] in exact rationals.

    The pairing of x^i with x^j is 1/(i+j+1), so the whole computation stays
    in Fraction arithmetic; only the final normalization brings in a sqrt.
    Returns coefficient rows (lowest power first) as floats.
    """
    basis = [[Fraction(1) if j == i else Fraction(0) for j in range(degree + 1)]
             for i in range(degree + 1)]

    def pair(p, q):
        return sum(ci * cj / Fraction(i + j + 1)
                   for i, ci in enumerate(p) for j, cj in enumerate(q))

    rows = []
    for v in basis:
        w = list(v)
        for u in rows:
            c = pair(u["unit_sq"], w)  # still rational: u stored unnormalized
            w = [wi - c * ui / u["norm_sq"] for wi, ui in zip(w, u["unit_sq"])]
        rows.append({"unit_sq": w, "norm_sq": pair(w, w)})
    out = []
    for u in rows:
        scale = 1.0 / np.sqrt(float(u["norm_sq"]))
        out.append([float(c) * scale for c in u["unit_sq"]])
    return out


# ---------------------------------------------------------------- inner product

def test_inner_product_orthogonal_coordinates():
    assert inner_product(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0


def test_inner_product_conjugates_first_slot():
    x = np.array([1j, 0.0])
    assert inner_product(x, x) == pytest.approx(1.0)


def test_inner_product_hand_expansion():
    # conj(1)*2 + conj(i)*3 = 2 - 3i
    got = inner_product(np.array([1.0, 1j]), np.array([2.0, 3.0]))
    assert got == pytest.approx(2.0 - 3.0j)


def test_inner_product_length_mismatch():
    with pytest.raises(ValueError):
        inner_product(np.ones(3), np.ones(4))


def test_inner_product_sesquilinearity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x, y, z = (rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(3))
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = inner_product(z, a * x + b * y)
        rhs = a * inner_product(z, x) + b * inner_product(z, y)
        assert abs(lhs - rhs) < 1e-12
        assert abs(inner_product(a * x, y) - np.conj(a) * inner_product(x, y)) < 1e-12
        assert abs(np.conj(inner_product(x, y)) - inner_product(y, x)) < 1e-12


def test_pythagorean_relation():
    rng = np.random.default_rng(11)
    space = InnerProductSpace.coordinate(6)
    for _ in range(200):
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        xh = x / space.norm(x)
        c = space.pairing(xh, y)
        residual = y - xh * c
        assert abs(space.norm(y) ** 2 - (space.norm(residual) ** 2 + abs(c) ** 2)) < 1e-12


def test_bessel_inequality():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        k = int(rng.integers(1, n + 1))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        partial = sum(abs(inner_product(q[:, i], x)) ** 2 for i in range(k))
        assert partial <= np.linalg.norm(x) ** 2 + 1e-12


# ---------------------------------------------------------------- hermitian_eig

def test_identity_resolution():
    res = hermitian_eig(np.eye(4))
    assert res.eigenvalues.tolist() == [1.0]
    np.testing.assert_allclose(res.projections[0], np.eye(4))
    assert res.multiplicities.tolist() == [4]


def test_diagonal_clustering():
    res = hermitian_eig(np.diag([3.0, 3.0, -5.0]), cluster_tol=1e-8)
    np.testing.assert_allclose(res.eigenvalues, [-5.0, 3.0])
    assert res.multiplicities.tolist() == [1, 2]
    # default cluster_tol at ||A|| = 1e6 is 1e-12 * 1e6 = 1e-6: a 5e-7 gap merges, a 2e-6 gap does not
    q = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
    for gap, mults in ((5e-7, [1, 2]), (2e-6, [1, 1, 1])):
        a = q @ np.diag([-1e6, 1.0, 1.0 + gap]) @ q.T
        assert hermitian_eig((a + a.T) / 2.0).multiplicities.tolist() == mults


def test_reconstruction_oracle_8x8():
    a = random_hermitian(np.random.default_rng(17), 8)
    res = hermitian_eig(a)
    assert operator_norm(res.reconstruct() - a) <= 1e-10


def test_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_resolution_invariants_sweep():
    # 1000 random Hermitian instances, sizes 2..16
    rng = np.random.default_rng(19)
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        a = random_hermitian(rng, n)
        res = hermitian_eig(a)
        tau = 1e-10 * (1.0 + operator_norm(a))
        assert operator_norm(res.reconstruct() - a) <= tau
        assert int(np.sum(res.multiplicities)) == n
        assert np.all(np.diff(res.eigenvalues) > 0)
        total = np.zeros((n, n), dtype=complex)
        for i, p in enumerate(res.projections):
            assert operator_norm(p @ p - p) <= 1e-10
            assert operator_norm(p - p.conj().T) <= 1e-10
            for q in res.projections[i + 1:]:
                assert operator_norm(p @ q) <= 1e-10
            total += p
        assert operator_norm(total - np.eye(n)) <= 1e-10


def test_spectral_resolution_dim():
    res = hermitian_eig(np.diag([1.0, 2.0, 2.0, 7.0]))
    assert isinstance(res, SpectralResolution)
    assert res.dim == 4
    empty = hermitian_eig(np.zeros((0, 0)))
    assert empty.dim == 0
    assert empty.eigenvalues.size == 0 and empty.multiplicities.size == 0
    assert empty.projections == []
    assert empty.reconstruct().shape == (0, 0)


# ---------------------------------------------------------------- operator norm

def test_operator_norm_identity_and_diagonal():
    assert operator_norm(np.eye(5)) == pytest.approx(1.0)
    assert operator_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0)


def test_operator_norm_power_iteration_oracle():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert operator_norm(a) == pytest.approx(power_iteration_norm(a), abs=1e-8)


def test_operator_norm_is_the_two_norm_bit_for_bit():
    rng = np.random.default_rng(31)
    for n in (1, 2, 8, 33):
        real = rng.standard_normal((n, n))
        for a in (real, real + 1j * rng.standard_normal((n, n))):
            assert operator_norm(a) == np.linalg.norm(a.astype(complex), 2)


def test_operator_norm_takes_strided_views():
    # a transposed or sliced complex matrix has no contiguous last axis; it is validated all the same
    rng = np.random.default_rng(33)
    a = rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
    for view in (a[0].T, a[0][:, ::2], a.swapaxes(-2, -1)):
        np.testing.assert_array_equal(operator_norm(view), operator_norm(view.copy()))
    with pytest.raises(ValueError, match="^matrix at index 1 has non-finite entries$"):
        operator_norm(np.where(np.arange(3)[:, None, None] == 1, np.inf, a).swapaxes(-2, -1))


def test_cstar_identity():
    # ||A*A|| = ||A||^2
    rng = np.random.default_rng(29)
    for _ in range(25):
        a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        assert abs(operator_norm(a.conj().T @ a) - operator_norm(a) ** 2) < 1e-10 * (
            1.0 + operator_norm(a) ** 2
        )


# ---------------------------------------------------------------- hadamard

def test_hadamard_identity_mask():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(hadamard(a, np.eye(2)), np.diag([1.0, 4.0]))


def test_hadamard_entrywise():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_allclose(hadamard(a, b), [[5.0, 12.0], [21.0, 32.0]])


def test_hadamard_shape_mismatch():
    with pytest.raises(ValueError):
        hadamard(np.eye(2), np.eye(3))


def test_schur_product_stays_psd():
    rng = np.random.default_rng(31)
    for _ in range(20):
        f = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        prod = hadamard(f @ f.conj().T, g @ g.conj().T)
        assert np.linalg.eigvalsh(prod).min() >= -1e-10


# ---------------------------------------------------------------- gram_schmidt

def test_gram_schmidt_fixes_orthonormal_input():
    space = InnerProductSpace.coordinate(3)
    vecs = [np.eye(3)[i] for i in range(3)]
    out = gram_schmidt(vecs, space)
    for v, w in zip(vecs, out):
        np.testing.assert_allclose(w, v, atol=1e-14)


def test_gram_schmidt_monomials_shifted_legendre():
    # dense Gauss grid on [0, 1]: exact pairing for the degrees involved
    from speclab import gauss_legendre_grid

    grid = gauss_legendre_grid(0.0, 1.0, panels=20, per_panel=8)
    space = InnerProductSpace.quadrature(grid.nodes, grid.weights)
    x = grid.nodes
    out = gram_schmidt([np.ones_like(x), x.astype(complex), (x ** 2).astype(complex)], space)

    # closed forms from direct integration
    targets = [np.ones_like(x), np.sqrt(12.0) * (x - 0.5),
               np.sqrt(180.0) * (x ** 2 - x + 1.0 / 6.0)]
    # sign convention: leading coefficient positive, like the inputs
    for got, want in zip(out, targets):
        assert np.max(np.abs(got - want)) < 1e-10

    # same answer out of the exact rational oracle
    for got, coeffs in zip(out, exact_monomial_gs(2)):
        oracle = sum(c * x ** k for k, c in enumerate(coeffs))
        assert np.max(np.abs(got - oracle)) < 1e-10


def test_gram_schmidt_output_gram_is_identity():
    rng = np.random.default_rng(37)
    space = InnerProductSpace.coordinate(6)
    for _ in range(30):
        vecs = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(4)]
        out = gram_schmidt(vecs, space)
        g = np.array([[space.pairing(u, v) for v in out] for u in out])
        assert np.max(np.abs(g - np.eye(4))) < 1e-12


def test_gram_schmidt_span_nesting():
    rng = np.random.default_rng(41)
    space = InnerProductSpace.coordinate(5)
    vecs = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(3)]
    out = gram_schmidt(vecs, space)
    for k in range(1, 4):
        # each input lies in the span of the first k outputs
        basis = np.column_stack(out[:k])
        v = vecs[k - 1]
        coeffs = np.linalg.lstsq(basis, v, rcond=None)[0]
        assert np.linalg.norm(basis @ coeffs - v) < 1e-10 * np.linalg.norm(v)


def test_gram_schmidt_dependence_names_index():
    space = InnerProductSpace.coordinate(3)
    v1 = np.array([1.0, 0.0, 0.0])
    v2 = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="2"):
        gram_schmidt([v1, v2, v1 + v2], space)


# ---------------------------------------------------------------- hermiticity guard

def test_require_hermitian_tolerates_roundoff():
    a = np.array([[1.0, 0.5 + 1e-12], [0.5, 2.0]])
    require_hermitian(a)
    # a 1e-6 defect passes only through the norm-scaled tolerance 1e-10 * (1 + 1e6)
    big = np.array([[1e6, 0.5 + 1e-6], [0.5, 2.0]])
    require_hermitian(big)
    with pytest.raises(ValueError):
        require_hermitian(big, tol=1e-7)


def test_require_hermitian_rejects_visible_defect():
    with pytest.raises(ValueError):
        require_hermitian(np.array([[1.0, 1e-3], [0.0, 2.0]]))


@pytest.mark.parametrize(
    "call",
    [require_hermitian, trace, spectral_radius_gelfand, lambda a: neumann_resolvent(a, 2.0)],
    ids=["require_hermitian", "trace", "spectral_radius_gelfand", "neumann_resolvent"],
)
def test_non_square_matrix_gets_the_one_shared_message(call):
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        call(np.ones((2, 3)))


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]])
TOLERANCE_CALLS = {
    "hermitian_eig": (lambda t: hermitian_eig(np.diag([1.0, 1.0, 2.0]), cluster_tol=t), "cluster_tol"),
    "commuting_diagonalization": (lambda t: commuting_diagonalization(PAULI_X, PAULI_Y, tau_comm=t), "tau_comm"),
    "positive_definite_test": (lambda t: positive_definite_test(np.cos, [0.0, 1.0, 2.0], tau=t), "tau"),
    "is_positive": (lambda t: FiniteMeasure.from_atoms([(0.0, -5.0)]).is_positive(t), "tau"),
    "neumann_resolvent": (lambda t: neumann_resolvent(0.1 * np.eye(2), 1.0, tau=t), "tau"),
}


@pytest.mark.parametrize(
    "case, tol",
    [(case, tol) for case in TOLERANCE_CALLS for tol in (np.nan, np.inf, -np.inf)]
    + [("hermitian_eig", -1.0), ("commuting_diagonalization", -1.0)],
)
def test_bad_tolerance_is_rejected_by_name(case, tol):
    # every comparison with NaN is False, so each call once returned a wrong
    # answer (a PD verdict flipped, a pair called compatible, a series
    # "converged" at its first term) instead of raising; cluster_tol = -1
    # once split the double eigenvalue 1 into [1, 1, 2], not strictly ascending
    call, name = TOLERANCE_CALLS[case]
    message = f"{name} must be finite" if not np.isfinite(tol) else f"{name} must be >= 0, got -1.0"
    with pytest.raises(ValueError, match=rf"^{message}$"):
        call(tol)


# ---------------------------------------------------------------- sampled evaluators

SAMPLE_DTYPES = {
    "bool": (np.bool_, np.float64),
    "int": (np.int64, np.float64),
    "float32": (np.float32, np.float64),
    "float64": (np.float64, np.float64),
    "complex64": (np.complex64, np.complex128),
    "complex128": (np.complex128, np.complex128),
    "object": (object, np.complex128),
}


@pytest.mark.parametrize("values, want", SAMPLE_DTYPES.values(), ids=SAMPLE_DTYPES.keys())
@pytest.mark.parametrize("scalars_only", [False, True], ids=["broadcast", "entrywise"])
def test_sample_keeps_real_values_real(values, want, scalars_only):
    x, y = np.linspace(0.0, 1.0, 4)[:, None], np.linspace(0.0, 1.0, 3)[None, :]

    def f(x, y):
        if scalars_only and np.ndim(x):
            raise TypeError("scalars only")
        return np.asarray(10.0 * x + y, dtype=values)

    out = linalg_core._sample(f, x, y)
    assert out.dtype == want and out.shape == (4, 3)
    np.testing.assert_array_equal(out, np.asarray(10.0 * x + y, dtype=values).astype(want))


# ---------------------------------------------------------------- serialization

def test_matrix_json_round_trip():
    rng = np.random.default_rng(43)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    obj = matrix_to_json(a)
    assert obj["rows"] == 3 and obj["cols"] == 4
    assert len(obj["re"]) == 12
    np.testing.assert_allclose(matrix_from_json(obj), a)


def test_matrix_json_length_validated():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "re": [1.0, 2.0], "im": [0.0, 0.0]})
