"""Borel sets, projection-valued measures, resolvents, Cayley/evolution, uncertainty."""

import json

import numpy as np
import pytest

from speclab import (
    BorelSet,
    ProjectionValuedMeasure,
    cayley,
    cayley_map,
    commuting_diagonalization,
    evolve,
    hausdorff_distance_spectra,
    hermitian_eig,
    inner_product,
    measurable_calculus,
    neumann_resolvent,
    operator_norm,
    pvm,
    resolution_to_json,
    resolvent,
    spectral_fd,
    spectral_measure,
    spectral_measure_to_json,
    spectral_radius_gelfand,
    uncertainty,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


# ---------------------------------------------------------------- borel sets

def test_interval_endpoint_semantics():
    e = BorelSet.interval(0.0, 1.0, closed="left")
    assert e.contains(0.0) and e.contains(0.5)
    assert not e.contains(1.0)
    assert not e.contains(1.0 - 1e-15)  # within endpoint tolerance of 1
    assert BorelSet.interval(0.0, 1.0, closed="right").contains(1.0)
    assert not BorelSet.interval(0.0, 1.0, closed="neither").contains(0.0)
    assert BorelSet.point(2.0).contains(2.0 + 1e-14)
    assert not BorelSet.point(2.0).contains(2.1)
    assert BorelSet.real_line().contains(1e9)
    assert not BorelSet.empty().contains(0.0)


def test_union_membership():
    e = BorelSet.point(1.0) | BorelSet.interval(3.0, 4.0)
    assert e.contains(1.0) and e.contains(3.5)
    assert not e.contains(2.0)


# ---------------------------------------------------------------- pvm

def test_pvm_whole_line_and_empty():
    res = hermitian_eig(np.diag([1.0, 2.0, 2.0, 5.0]))
    np.testing.assert_allclose(pvm(res, BorelSet.real_line()), np.eye(4), atol=1e-14)
    np.testing.assert_allclose(pvm(res, BorelSet.empty()), np.zeros((4, 4)), atol=1e-14)


def test_pvm_singleton_picks_eigenprojection():
    res = hermitian_eig(np.diag([1.0, 2.0, 2.0, 5.0]))
    p = pvm(res, BorelSet.point(2.0))
    want = np.diag([0.0, 1.0, 1.0, 0.0])
    np.testing.assert_allclose(p, want, atol=1e-14)


def test_pvm_additive_on_disjoint_union():
    rng = np.random.default_rng(3)
    a = random_hermitian(rng, 6)
    res = hermitian_eig(a)
    lam = res.eigenvalues
    e1 = BorelSet.point(float(lam[0]))
    e2 = BorelSet.point(float(lam[-1]))
    lhs = pvm(res, e1 | e2)
    np.testing.assert_allclose(lhs, pvm(res, e1) + pvm(res, e2), atol=1e-12)


def test_pvm_trace_counts_eigenvalues():
    # counting oracle: trace of E((-inf, median]) = #{lambda_i <= median}
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_hermitian(rng, 7)
        res = hermitian_eig(a)
        alleigs = np.repeat(res.eigenvalues, res.multiplicities)
        med = float(np.median(alleigs))
        count = int(np.sum(alleigs <= med + 1e-12 * (1 + abs(med))))
        p = pvm(res, BorelSet.interval(-np.inf, med, closed="right"))
        assert abs(np.trace(p).real - count) < 1e-10


def test_pvm_atom_iff_eigenvalue():
    res = hermitian_eig(np.diag([0.0, 1.0, 1.0, 4.0]))
    for lam in (0.0, 1.0, 4.0):
        assert operator_norm(pvm(res, BorelSet.point(lam))) > 0.5
    for lam in (0.5, 2.0, -1.0):
        assert operator_norm(pvm(res, BorelSet.point(lam))) < 1e-14


def test_pvm_callable_wrapper():
    res = hermitian_eig(np.diag([1.0, 3.0]))
    e = ProjectionValuedMeasure(res)
    np.testing.assert_allclose(e(BorelSet.point(3.0)), np.diag([0.0, 1.0]), atol=1e-14)


# ---------------------------------------------------------------- functional calculus

def test_calculus_square_matches_matrix_product():
    rng = np.random.default_rng(7)
    a = random_hermitian(rng, 6)
    res = hermitian_eig(a)
    assert operator_norm(measurable_calculus(res, lambda t: t * t) - a @ a) <= 1e-10


def test_calculus_identity_function():
    a = np.diag([2.0, -1.0, 0.5])
    res = hermitian_eig(a)
    np.testing.assert_allclose(measurable_calculus(res, lambda t: t), a, atol=1e-12)


def test_calculus_indicator_gives_projection():
    rng = np.random.default_rng(9)
    a = random_hermitian(rng, 5)
    res = hermitian_eig(a)
    med = float(np.median(res.eigenvalues))
    p = measurable_calculus(res, lambda t: 1.0 if t <= med else 0.0)
    assert operator_norm(p @ p - p) < 1e-12
    assert operator_norm(p - p.conj().T) < 1e-12


def test_calculus_star_morphism():
    # (pq)(A) = p(A) q(A) and conj(p)(A) = p(A)^* on random polynomial pairs
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_hermitian(rng, 5)
        res = hermitian_eig(a)
        cp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cq = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        p = lambda t: cp[0] + cp[1] * t + cp[2] * t ** 2 + cp[3] * t ** 3
        q = lambda t: cq[0] + cq[1] * t + cq[2] * t ** 2
        pa = measurable_calculus(res, p)
        qa = measurable_calculus(res, q)
        prod = measurable_calculus(res, lambda t: p(t) * q(t))
        scale = 1.0 + operator_norm(pa) * operator_norm(qa)
        assert operator_norm(prod - pa @ qa) <= 1e-10 * scale
        conj_p = measurable_calculus(res, lambda t: np.conj(p(t)))
        assert operator_norm(conj_p - pa.conj().T) <= 1e-10 * scale


def test_calculus_rejects_undefined_values():
    res = hermitian_eig(np.diag([0.0, 1.0]))
    with pytest.raises(ValueError):
        measurable_calculus(res, lambda t: 1.0 / t if t != 0 else np.inf)


# ---------------------------------------------------------------- spectral measures

def test_spectral_measure_total_mass():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = random_hermitian(rng, 6)
        res = hermitian_eig(a)
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        pair = spectral_measure(res, x, y)
        assert abs(pair.total_mass() - inner_product(x, y)) < 1e-12 * (
            1 + abs(inner_product(x, y)))


def test_spectral_measure_polynomial_probe():
    rng = np.random.default_rng(17)
    a = random_hermitian(rng, 6)
    res = hermitian_eig(a)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    pair = spectral_measure(res, x, y)
    m = lambda t: t ** 3 - 2.0 * t + 1.0
    want = inner_product(x, (a @ a @ a - 2.0 * a + np.eye(6)) @ y)
    assert abs(pair.integrate(m) - want) <= 1e-10 * (1 + abs(want))


def test_diagonal_measure_is_positive():
    rng = np.random.default_rng(19)
    a = random_hermitian(rng, 5)
    res = hermitian_eig(a)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    pair = spectral_measure(res, x, x)
    assert np.all(pair.masses.real >= -1e-12)
    assert np.max(np.abs(pair.masses.imag)) < 1e-12


def test_spectral_measure_supported_on_spectrum():
    res = hermitian_eig(np.diag([1.0, 1.0, 3.0]))
    pair = spectral_measure(res, np.array([1.0, 0, 1.0]), np.array([1.0, 0, 1.0]))
    np.testing.assert_allclose(pair.eigenvalues, [1.0, 3.0])


def test_resolvent_matrix_element_is_cauchy_transform():
    # <x, R(z) x> = sum mass_i / (lambda_i - z)
    rng = np.random.default_rng(23)
    a = random_hermitian(rng, 6)
    res = hermitian_eig(a)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    pair = spectral_measure(res, x, x)
    for z in (2j, 0.5 + 1j, -3.0 + 0.25j):
        want = np.sum(pair.masses / (pair.eigenvalues - z))
        got = inner_product(x, resolvent(a, z) @ x)
        assert abs(got - want) < 1e-10 * (1 + abs(want))


# ---------------------------------------------------------------- resolvents

def test_resolvent_zero_operator():
    np.testing.assert_allclose(resolvent(np.zeros((3, 3)), 1j), 1j * np.eye(3), atol=1e-14)


def test_resolvent_diagonal():
    r = resolvent(np.diag([1.0, -1.0]), 2j)
    np.testing.assert_allclose(r, np.diag([1.0 / (1.0 - 2j), 1.0 / (-1.0 - 2j)]), atol=1e-14)


def test_resolvent_rejects_spectrum_point():
    with pytest.raises(ValueError):
        resolvent(np.diag([1.0, 2.0]), 2.0)
    with pytest.raises(ValueError):
        resolvent(np.diag([1.0, 2.0]), 2.0 + 1e-14j)


def test_resolvent_norm_bound_off_axis():
    rng = np.random.default_rng(29)
    a = random_hermitian(rng, 6)
    for _ in range(100):
        z = complex(rng.uniform(-5, 5), rng.uniform(-3, 3))
        if abs(z.imag) < 1e-3:
            continue
        assert operator_norm(resolvent(a, z)) * abs(z.imag) <= 1.0 + 1e-10


# ---------------------------------------------------------------- neumann series

def test_neumann_scalar_geometric():
    out = neumann_resolvent(np.array([[0.5]]), 1.0)
    assert out.converged
    assert abs(out.matrix[0, 0] - 2.0) < 1e-12


def test_neumann_matches_direct_inverse():
    rng = np.random.default_rng(31)
    a = random_hermitian(rng, 6)
    a /= operator_norm(a)  # ||A|| = 1
    z = 3.0
    out = neumann_resolvent(a, z)
    assert out.converged
    direct = np.linalg.inv(z * np.eye(6) - a)
    assert operator_norm(out.matrix - direct) <= 1e-8
    # the series sums (zI - A)^{-1}, the sign-flipped resolvent
    assert operator_norm(out.matrix + resolvent(a, z)) <= 1e-8
    # no terms past the first: I / z, with its exact norm 1/|z| as the tail
    first = neumann_resolvent(a, z, kmax=0)
    assert np.array_equal(first.matrix, np.eye(6) / z)
    assert (first.terms, first.converged) == (0, False)
    assert abs(first.tail - 1.0 / z) <= 1e-15 / z


def test_neumann_divergence_is_flagged():
    rng = np.random.default_rng(37)
    a = random_hermitian(rng, 4)
    out = neumann_resolvent(a, 0.5 * operator_norm(a))
    assert not out.converged
    assert out.terms > 0


def test_neumann_nilpotent_terminates():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = neumann_resolvent(n, 2.0)
    assert out.converged
    np.testing.assert_allclose(out.matrix, np.linalg.inv(2.0 * np.eye(2) - n), atol=1e-12)


def _neumann_by_svd(a, z, kmax=256, tau=1e-12):
    """Reference: every stopping decision from the exact norm; returns the result and the term norms."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if z == 0:
        return spectral_fd.NeumannResult(np.full((n, n), np.nan, dtype=complex), False, 0, np.inf), []
    term = np.eye(n, dtype=complex) / z
    acc, tail, norms = term.copy(), 1.0 / abs(z), []
    for k in range(1, kmax + 1):
        term = a @ term / z
        tail = operator_norm(term)
        norms.append(tail)
        if not np.isfinite(tail) or tail > 1e120:
            return spectral_fd.NeumannResult(acc, False, k, tail), norms
        acc += term
        if tail < tau:
            return spectral_fd.NeumannResult(acc, True, k, tail), norms
    return spectral_fd.NeumannResult(acc, False, kmax, tail), norms


def _jordan(n, lam):
    return lam * np.eye(n) + np.eye(n, k=1)


def _unit_hermitian(seed, n):
    a = random_hermitian(np.random.default_rng(seed), n)
    return a / operator_norm(a)


_DIVERGENT = random_hermitian(np.random.default_rng(37), 4)  # test_neumann_divergence_is_flagged's input

# name: (A, z, keyword arguments, least number of exact norms the call must take)
NEUMANN_CASES = {
    # ||T x|| / ||T|| stays near 0.8 while the norms cross tau = 0.15 at term 7
    "jordan-loose-bound": (_jordan(12, 0.7), 2.0, {"tau": 0.15}, 2),
    "jordan-to-1e-12": (_jordan(8, 0.5), 1.0, {}, 1),
    "nilpotent": (np.eye(6, k=1), 2.0, {}, 1),
    "exits-above-1e120": (1e3 * _unit_hermitian(41, 6), 1.0, {}, 1),
    # term 2 has entries near 1e200, whose squares overflow in the Frobenius bound
    "jumps-past-1e154": (np.diag([1e100, 1.0]), 1.0, {}, 1),
    "kmax-exhausted": (_DIVERGENT, 0.5 * operator_norm(_DIVERGENT), {}, 1),  # ratio 2: 2^256 < 1e120
    "z-zero": (_unit_hermitian(43, 3), 0.0, {}, 0),
    # term 20 has norm 2^-20 exactly, 1e-10 relative above or below tau
    "norm-just-above-tau": (np.diag([0.5, 0.25, -0.125]), 1.0, {"tau": 0.5 ** 20 * (1 - 1e-10)}, 2),
    "norm-just-below-tau": (np.diag([0.5, 0.25, -0.125]), 1.0, {"tau": 0.5 ** 20 * (1 + 1e-10)}, 1),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", NEUMANN_CASES)
def test_neumann_matches_svd_per_term_reference(case, monkeypatch):
    a, z, kw, least_exact = NEUMANN_CASES[case]
    want, norms = _neumann_by_svd(a, z, **kw)
    exact = []
    monkeypatch.setattr(spectral_fd, "operator_norm", lambda t: exact.append(operator_norm(t)) or exact[-1])
    got = neumann_resolvent(a, z, **kw)
    assert np.array_equal(got.matrix, want.matrix, equal_nan=True)
    assert (got.terms, got.converged, got.tail) == (want.terms, want.converged, want.tail)
    assert len(exact) >= least_exact
    # a term whose norm lies within 1e-8 of a threshold is decided by the exact norm
    tau = kw.get("tau", 1e-12)
    near = [t for t in norms if abs(t - tau) <= 1e-8 * tau or abs(t - 1e120) <= 1e-8 * 1e120]
    assert set(near) <= set(exact)


def test_neumann_takes_few_exact_norms(monkeypatch):
    rng = np.random.default_rng(59)
    m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    a = (m + m.conj().T) / (2.0 * np.sqrt(64))  # semicircle spectrum on about [-2, 2]
    z = 2.0 * float(np.max(np.abs(np.linalg.eigvalsh(a)))) * np.exp(0.7j)
    calls = []
    monkeypatch.setattr(spectral_fd, "operator_norm", lambda t: calls.append(1) or operator_norm(t))
    out = neumann_resolvent(a, z)
    assert out.converged and out.terms > 30
    assert len(calls) <= 2


# ---------------------------------------------------------------- gelfand radius

def test_gelfand_nilpotent_hits_zero():
    seq = spectral_radius_gelfand(np.array([[0.0, 1.0], [0.0, 0.0]]), kmax=4)
    assert seq[0] == pytest.approx(1.0)
    np.testing.assert_allclose(seq[1:], 0.0, atol=1e-300)


def test_gelfand_jordan_block_decreases_to_one():
    seq = spectral_radius_gelfand(np.array([[1.0, 10.0], [0.0, 1.0]]), kmax=20)
    assert np.all(np.diff(seq) <= 1e-12)
    assert seq[-1] == pytest.approx(1.0, abs=1e-4)
    assert seq[0] > 10.0


def test_gelfand_converges_for_hermitian():
    rng = np.random.default_rng(41)
    for _ in range(20):
        a = random_hermitian(rng, 8)
        seq = spectral_radius_gelfand(a, kmax=20)
        r = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        assert abs(seq[-1] - r) <= 1e-6 * (1 + r)


# ---------------------------------------------------------------- spectra distance

def test_hausdorff_shift_by_identity():
    rng = np.random.default_rng(43)
    a = random_hermitian(rng, 5)
    c = 0.7
    assert hausdorff_distance_spectra(a, a + c * np.eye(5)) == pytest.approx(c, abs=1e-10)
    assert hausdorff_distance_spectra(a, a) == 0.0


def test_hausdorff_bounded_by_operator_distance():
    rng = np.random.default_rng(47)
    for _ in range(200):
        a = random_hermitian(rng, 6)
        b = a + 0.1 * random_hermitian(rng, 6)
        assert hausdorff_distance_spectra(a, b) <= operator_norm(a - b) + 1e-10


# ---------------------------------------------------------------- cayley transform

def test_cayley_scalar_value():
    u = cayley(np.array([[1.0]]))
    assert abs(u[0, 0] - (-1j)) < 1e-14  # (1-i)/(1+i) = -i
    assert abs(cayley_map(1.0) - (-1j)) < 1e-15


def test_cayley_unitary_and_spectral_mapping():
    rng = np.random.default_rng(53)
    for _ in range(50):
        a = random_hermitian(rng, 6)
        u = cayley(a)
        assert operator_norm(u @ u.conj().T - np.eye(6)) <= 1e-10
        got = np.sort_complex(np.linalg.eigvals(u))
        want = np.sort_complex(np.array([cayley_map(t) for t in np.linalg.eigvalsh(a)]))
        assert np.max(np.abs(got - want)) <= 1e-10


# ---------------------------------------------------------------- evolution

def test_evolve_at_zero_is_identity():
    rng = np.random.default_rng(59)
    a = random_hermitian(rng, 4)
    np.testing.assert_allclose(evolve(a, 0.0), np.eye(4), atol=1e-14)


def test_evolve_group_law_and_unitarity():
    rng = np.random.default_rng(61)
    for _ in range(30):
        a = random_hermitian(rng, 5)
        s, t = rng.uniform(-2, 2, size=2)
        us, ut, ust = evolve(a, s), evolve(a, t), evolve(a, s + t)
        assert operator_norm(us @ ut - ust) <= 1e-10
        assert operator_norm(us @ us.conj().T - np.eye(5)) <= 1e-10


def test_evolve_generator_recovery():
    rng = np.random.default_rng(67)
    a = random_hermitian(rng, 5)
    h = 1e-4
    diff = (evolve(a, h) - np.eye(5)) / h - 1j * a
    assert operator_norm(diff) <= operator_norm(a) ** 2 * h


# ---------------------------------------------------------------- uncertainty

def test_uncertainty_pauli_equality():
    h = np.array([1.0, 0.0])
    rec = uncertainty(SIGMA_X, SIGMA_Y, h)
    assert rec.lhs == pytest.approx(1.0, abs=1e-12)
    assert rec.rhs == pytest.approx(1.0, abs=1e-12)
    assert rec.robertson_lhs == pytest.approx(1.0, abs=1e-12)


def test_uncertainty_never_violated():
    rng = np.random.default_rng(71)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        a = random_hermitian(rng, n)
        b = random_hermitian(rng, n)
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        h /= np.linalg.norm(h)
        rec = uncertainty(a, b, h)
        assert rec.lhs <= rec.rhs + 1e-10
        assert rec.robertson_lhs <= rec.rhs + 1e-10
        assert rec.robertson_lhs >= rec.lhs - 1e-12


def test_uncertainty_requires_unit_state():
    with pytest.raises(ValueError):
        uncertainty(SIGMA_X, SIGMA_Y, np.array([2.0, 0.0]))


# ---------------------------------------------------------------- joint diagonalization

def test_commuting_polynomials_are_compatible():
    rng = np.random.default_rng(73)
    for _ in range(20):
        seed = random_hermitian(rng, 5)
        a = seed @ seed - 2.0 * seed
        b = seed @ seed @ seed + 0.5 * np.eye(5)
        out = commuting_diagonalization(a, b)
        assert out.compatible
        q = out.basis
        da = q.conj().T @ a @ q
        db = q.conj().T @ b @ q
        assert operator_norm(da - np.diag(np.diag(da))) <= 1e-8
        assert operator_norm(db - np.diag(np.diag(db))) <= 1e-8
        np.testing.assert_allclose(np.diag(da).real, out.diag_a, atol=1e-8)
        np.testing.assert_allclose(np.diag(db).real, out.diag_b, atol=1e-8)


def test_degenerate_pair_compatible():
    # A with a repeated eigenvalue, B = A^2: needs the eigenspace refinement
    a = np.diag([1.0, 1.0, -1.0])
    v = np.linalg.qr(np.random.default_rng(79).standard_normal((3, 3)))[0]
    a = v @ a @ v.T
    out = commuting_diagonalization(a, a @ a)
    assert out.compatible
    empty = commuting_diagonalization(np.zeros((0, 0)), np.zeros((0, 0)))
    assert empty.compatible
    assert empty.basis.shape == (0, 0) and empty.diag_a.size == 0 and empty.diag_b.size == 0


def test_pauli_pair_incompatible():
    out = commuting_diagonalization(SIGMA_X, SIGMA_Y)
    assert not out.compatible
    assert out.commutator_norm == pytest.approx(2.0, abs=1e-12)
    assert out.basis is None


# ---------------------------------------------------------------- block route vs projection sums

@pytest.mark.parametrize("split", [1e-10, None])
def test_block_route_matches_projection_sums(split):
    # Oracle: the explicit sums over res.projections that pvm, measurable_calculus,
    # spectral_measure and reconstruct used to form.  With split set, each of three
    # eigenvalues is smeared into a chain of steps well below cluster_tol (1e-8),
    # which must merge into one cluster; with split None the spectrum is simple.
    rng = np.random.default_rng(89)
    f = lambda t: np.exp(1j * t) + t * t
    for _ in range(20):
        n = int(rng.integers(1, 13))
        q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        if split is None:
            d = np.sort(rng.uniform(-3.0, 3.0, n))
        else:
            centers = rng.choice([-2.0, 0.5, 3.0], n)
            d = np.sort(centers + split * rng.integers(0, 4, n))
        a = (q * d) @ q.conj().T
        a = (a + a.conj().T) / 2.0
        res = hermitian_eig(a)
        if split is None:
            assert res.multiplicities.tolist() == [1] * n
        else:
            assert res.multiplicities.tolist() == [int(np.sum(centers == c)) for c in np.unique(centers)]
        projections = res.projections
        tau = 1e-12 * (1.0 + operator_norm(a))

        want = sum(lam * p for lam, p in zip(res.eigenvalues, projections))
        assert operator_norm(res.reconstruct() - want) <= tau

        want = sum(f(lam) * p for lam, p in zip(res.eigenvalues, projections))
        assert operator_norm(measurable_calculus(res, f) - want) <= 1e-12 * (1.0 + operator_norm(want))

        lo = float(res.eigenvalues[0])
        for e in (BorelSet.interval(lo, float(np.median(res.eigenvalues))), BorelSet.point(float(res.eigenvalues[-1])), BorelSet.real_line()):
            want = sum(p for lam, p in zip(res.eigenvalues, projections) if e.contains(float(lam)))
            assert operator_norm(pvm(res, e) - want) <= 1e-12
        assert not np.any(pvm(res, BorelSet.point(lo - 1.0)))  # empty hit set: exactly zero

        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        want = np.array([inner_product(x, p @ y) for p in projections])
        got = spectral_measure(res, x, y).masses
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.linalg.norm(x) * np.linalg.norm(y))


# ---------------------------------------------------------------- serialization

def test_resolution_and_measure_json_shapes():
    res = hermitian_eig(np.diag([1.0, 2.0]))
    obj = resolution_to_json(res)
    json.dumps(obj)
    assert obj["eigenvalues"] == [1.0, 2.0]
    pair = spectral_measure(res, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    obj2 = spectral_measure_to_json(pair)
    json.dumps(obj2)
    assert len(obj2["atoms"]) == 2
