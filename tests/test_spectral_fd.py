"""Borel sets, projection-valued measures, resolvents, Cayley/evolution, uncertainty, stacked inputs."""

import dataclasses
import json
import re
import tracemalloc
from fractions import Fraction

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
    require_hermitian,
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


# evaluators that fail at eigenvalue 0 of diag(0, 1), and the message both consumers give
UNDEFINED_EVALUATORS = {
    "inf": (lambda t: np.inf if t == 0 else 1.0, "evaluator not finite at eigenvalue 0.0: (inf+0j)"),
    "nan": (lambda t: np.nan, "evaluator not finite at eigenvalue 0.0: (nan+0j)"),
    "raises": (lambda t: 1.0 / t, "evaluator undefined at eigenvalue 0.0: float division by zero"),
}


@pytest.mark.parametrize("consumer", ["measurable_calculus", "integrate"])
@pytest.mark.parametrize("case", UNDEFINED_EVALUATORS)
def test_spectrum_consumers_reject_undefined_values_alike(consumer, case):
    m, message = UNDEFINED_EVALUATORS[case]
    res = hermitian_eig(np.diag([0.0, 1.0]))
    call = {
        "measurable_calculus": lambda: measurable_calculus(res, m),
        "integrate": lambda: spectral_measure(res, np.ones(2), np.ones(2)).integrate(m),
    }[consumer]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


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


@pytest.mark.parametrize("n", [1, 2, 8, 33, 384])
def test_stacked_spectral_measure_rows_equal_single_pair_calls(n):
    rng = np.random.default_rng(n)
    a = random_hermitian(rng, n)
    if n > 8:  # three clusters in a dense eigenbasis
        q = np.linalg.qr(a)[0]
        a = q @ np.diag(np.tile([-1.0, 0.5, 2.0], n)[:n]) @ q.conj().T
        a = (a + a.conj().T) / 2.0
    res = hermitian_eig(a)
    assert len(res.eigenvalues) == (3 if n > 8 else n)
    x = rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
    y = rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
    got = spectral_measure(res, x, y)
    assert got.masses.shape == (2, 3, len(res.eigenvalues))
    vh = res.eigenvectors.conj().T
    for idx in np.ndindex(2, 3):
        # the single-pair masses as they were formed, with V* applied to each 1-d vector: the reference
        want = np.add.reduceat(np.conj(vh @ x[idx]) * (vh @ y[idx]), res.offsets[:-1])
        np.testing.assert_array_equal(got.masses[idx], want, strict=True)
        np.testing.assert_array_equal(spectral_measure(res, x[idx], y[idx]).masses, want, strict=True)
    # the diagonal of one call on the clusters' first eigenvectors gives each cluster's own mass
    first = res.eigenvectors[:, res.offsets[:-1]].T
    own = spectral_measure(res, first, first).masses.diagonal()
    np.testing.assert_array_equal(own, [spectral_measure(res, v, v).masses[i] for i, v in enumerate(first)])


def test_spectral_measure_rejects_mismatched_vectors():
    res = hermitian_eig(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="same shape"):
        spectral_measure(res, np.ones((2, 3)), np.ones(3))
    with pytest.raises(ValueError, match="same shape"):
        spectral_measure(res, np.ones((2, 3)), np.ones((3, 3)))
    for bad in (np.ones(2), np.ones((3, 2)), 1.0):
        with pytest.raises(ValueError, match="vector dimension"):
            spectral_measure(res, bad, bad)


def test_gap_union_projection_is_zero_iff_each_gap_projection_is():
    # P(union of points) is a sum of the P_i it hits: zero exactly when every point's own P is zero
    rng = np.random.default_rng(29)
    for trial in range(40):
        n = 1 + trial % 7
        res = hermitian_eig(np.diag(np.sort(rng.integers(-2, 3, n)).astype(float)) if trial % 2 else random_hermitian(rng, n))
        ev = res.eigenvalues
        points = list((ev[:-1] + ev[1:]) / 2.0)
        if trial % 3 == 0:
            points.insert(int(rng.integers(0, len(points) + 1)), float(ev[int(rng.integers(0, len(ev)))]))  # an eigenvalue in the set
        each = all(not np.any(pvm(res, BorelSet.point(p))) for p in points)
        assert (not np.any(pvm(res, BorelSet(points=tuple(points))))) == each == (trial % 3 != 0)


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


def test_resolvent_of_empty_matrix_is_empty():
    r = resolvent(np.zeros((0, 0)), 1j)
    assert r.shape == (0, 0) and r.dtype == complex


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


@pytest.mark.parametrize("z", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
def test_neumann_rejects_non_finite_z(z):
    # z = inf returned a zero matrix flagged converged after one term, and
    # z = nan blamed A for the non-finite entries
    with pytest.raises(ValueError, match="^z must be finite$"):
        neumann_resolvent(0.1 * np.eye(2), z)


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


def _semicircle(seed, n):
    m = random_hermitian(np.random.default_rng(seed), n)
    return m / np.sqrt(n)  # spectrum on about [-2, 2]


def _radius(a):
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))


def _skip(a, z, tau=1e-12, kmax=256):
    """The index K up to which neumann_resolvent sums by doubling."""
    return spectral_fd._neumann_skip(np.asarray(a, dtype=complex), z, tau, kmax)


_DIVERGENT = random_hermitian(np.random.default_rng(37), 4)  # test_neumann_divergence_is_flagged's input
_SEMICIRCLE = _semicircle(61, 96)
# upper triangular, diagonal in [-0.7, 0.7]: ||A^k|| grows to about 4 before it decays
_GROWTH = np.diag(np.linspace(-0.7, 0.7, 96)) + 1.5 * np.triu(np.random.default_rng(11).standard_normal((96, 96)), 1) / np.sqrt(96)
_GINIBRE = np.random.default_rng(71).standard_normal((96, 192)).view(complex) / np.sqrt(192)

# name: (A, z, keyword arguments)
NEUMANN_CASES = {
    # ||T x|| / ||T|| stays near 0.8 while the norms cross tau = 0.15 at term 7
    "jordan-loose-bound": (_jordan(12, 0.7), 2.0, {"tau": 0.15}),
    "jordan-to-1e-12": (_jordan(8, 0.5), 1.0, {}),
    "nilpotent": (np.eye(6, k=1), 2.0, {}),
    "exits-above-1e120": (1e3 * _unit_hermitian(41, 6), 1.0, {}),
    # term 2 has entries near 1e200, whose squares overflow in the Frobenius bound
    "jumps-past-1e154": (np.diag([1e100, 1.0]), 1.0, {}),
    "kmax-exhausted": (_DIVERGENT, 0.5 * operator_norm(_DIVERGENT), {}),  # ratio 2: 2^256 < 1e120
    "z-zero": (_unit_hermitian(43, 3), 0.0, {}),
    # term 20 has norm 2^-20 exactly, 1e-10 relative above or below tau
    "norm-just-above-tau": (np.diag([0.5, 0.25, -0.125]), 1.0, {"tau": 0.5 ** 20 * (1 - 1e-10)}),
    "norm-just-below-tau": (np.diag([0.5, 0.25, -0.125]), 1.0, {"tau": 0.5 ** 20 * (1 + 1e-10)}),
    "semicircle-0.7": (_SEMICIRCLE, 2.0 * _radius(_SEMICIRCLE) * np.exp(0.7j), {}),
    "semicircle-2.9": (_SEMICIRCLE, 2.0 * _radius(_SEMICIRCLE) * np.exp(2.9j), {}),
    "transient-growth": (_GROWTH, 1.0, {}),  # the loop walks 8 terms after the skip
    "nilpotent-shift": (0.66 * np.eye(96, k=1), 1.0, {}),
    "ginibre": (_GINIBRE, 2.0, {}),
    # |z| < spectral radius: the terms grow tenfold each, until one passes 1e120 and is left out
    "divergent": (_SEMICIRCLE, 0.1 * _radius(_SEMICIRCLE) * np.exp(0.5j), {}),
    # K = 2 and r = 3: the unit step's P A would be 1e320 before the division by z, where the loop's A T_2 is 1e255
    "large-z": (np.array([[1e150]]), 1e65, {}),
    "real-input": (0.5 * np.random.default_rng(73).standard_normal((32, 32)) / np.sqrt(32), 1.5, {}),
    "empty": (np.zeros((0, 0)), 1.0, {}),
    "empty-tau-zero": (np.zeros((0, 0)), 1.0, {"tau": 0.0}),  # 0 >= tau always: skips to kmax - 1
}


def _against_reference(a, z, kw, monkeypatch, skip_ahead=True):
    """neumann_resolvent beside _neumann_by_svd: (K, {term index: exact norm the call took}, reference norms).

    With K = 0 the call is the term loop from the first term and must match
    bit for bit; after a skip, the doubling changes roundoff only.
    skip_ahead=False forces K = 0, the term loop alone.
    """
    want, norms = _neumann_by_svd(a, z, **kw)
    skip = spectral_fd._neumann_skip
    skips, exact = [0], {}
    with monkeypatch.context() as mp:
        mp.setattr(spectral_fd, "_neumann_skip", lambda *args: skips.append(skip(*args) if skip_ahead else 0) or skips[-1])
        # the loop takes one exact norm per term, from term K + 1 on
        mp.setattr(spectral_fd, "operator_norm", lambda t: exact.setdefault(skips[-1] + len(exact) + 1, operator_norm(t)))
        got = neumann_resolvent(a, z, **kw)
    if skips[-1] == 0:
        assert np.array_equal(got.matrix, want.matrix, equal_nan=True)
        assert (got.terms, got.converged, got.tail) == (want.terms, want.converged, want.tail)
    else:
        assert (got.terms, got.converged) == (want.terms, want.converged)
        assert abs(got.tail - want.tail) <= 1e-12 * want.tail
        assert operator_norm(got.matrix - want.matrix) <= 1e-14 * max(1.0, operator_norm(want.matrix))
    for k, t in exact.items():  # the index is right: the reference took the same norm of term k
        assert np.isclose(t, norms[k - 1], rtol=1e-12, atol=0.0)
    return skips[-1], exact, norms


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", NEUMANN_CASES)
def test_neumann_matches_svd_per_term_reference(case, monkeypatch):
    a, z, kw = NEUMANN_CASES[case]
    _, loop_exact, norms = _against_reference(a, z, kw, monkeypatch, skip_ahead=False)
    skip, exact, _ = _against_reference(a, z, kw, monkeypatch)
    terms = len(norms)  # the reference's term count, which the call matched
    # every term after the skip, and no other, is decided by its exact norm
    assert sorted(loop_exact) == list(range(1, terms + 1))
    assert sorted(exact) == list(range(skip + 1, terms + 1))
    # so a term whose norm lies within 1e-8 of a threshold is never passed over by the skip;
    # no norm falls below tau = 0
    tau = kw.get("tau", 1e-12)
    near = {k for k, t in enumerate(norms, start=1) if 0 < tau and abs(t - tau) <= 1e-8 * tau or abs(t - 1e120) <= 1e-8 * 1e120}
    assert near <= set(loop_exact) and near <= set(exact)


@pytest.mark.parametrize("kmax", ["0", "1", "K-1", "K", "K+1"])
def test_neumann_kmax_around_the_skip(kmax, monkeypatch):
    a, z, _ = NEUMANN_CASES["semicircle-0.7"]
    k = _skip(a, z)
    assert k == 37  # term 38 is the first below 1e-12
    kmax = {"0": 0, "1": 1, "K-1": k - 1, "K": k, "K+1": k + 1}[kmax]
    skip, _, _ = _against_reference(a, z, {"kmax": kmax}, monkeypatch)
    assert skip == max(0, min(k, kmax - 1))  # the last term is always the loop's, for its exact tail


def test_neumann_skip_clears_both_bounds_by_the_margin():
    # n = 1 makes every bound exact: the probe is +-1, ||x_k|| = |a|^k, and ||A||_F = |a|
    half = np.array([[0.5]])
    assert _skip(half, 1.0, tau=0.5 ** 20) == 19  # term 20's lower bound meets tau but does not clear it
    assert _skip(half, 1.0, tau=0.5 ** 20 / (1 + 2e-8)) == 20
    assert _skip(np.array([[1e120 * (1 - 1e-9)]]), 1.0) == 0  # term 1's upper bound is within 1e-8 of 1e120
    assert _skip(np.array([[1e120 * (1 - 2e-8)]]), 1.0) == 1
    assert _skip(half, 1.0, kmax=0) == _skip(half, 1.0, kmax=1) == 0


def test_neumann_doubling_against_exact_partial_sums():
    # every power of J = _jordan(6, 1/2) is dyadic, so its partial sums are exact as Fractions
    j = _jordan(6, 0.5)
    assert _skip(j, 1.0) > 0
    got = neumann_resolvent(j, 1.0)
    loop, _ = _neumann_by_svd(j, 1.0)
    assert (got.terms, got.converged) == (loop.terms, True)
    one = np.array([[Fraction(x) for x in row] for row in j], dtype=object)
    power = np.array([[Fraction(int(r == c)) for c in range(6)] for r in range(6)], dtype=object)
    exact = power.copy()
    for _ in range(got.terms):
        power = power.dot(one)
        exact = exact + power

    def error(m):
        return operator_norm(np.array([[complex(float(Fraction(v.real) - e), v.imag) for v, e in zip(r, x)] for r, x in zip(m, exact)]))

    scale = operator_norm(exact.astype(float))
    assert error(got.matrix) <= max(4.0 * error(loop.matrix), 1e-15 * scale)


def test_neumann_memory_is_three_matrices():
    n = 256
    a = _semicircle(67, n)
    z = 2.0 * _radius(a) * np.exp(0.4j)
    assert _skip(a, z) > 0
    neumann_resolvent(a, z)  # warm caches
    tracemalloc.start()
    try:
        out = neumann_resolvent(a, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.converged
    # the doubling's S, P and product buffer, as the loop's sum, term and product
    assert peak <= 3 * 16 * n * n + 64 * 1024


def _former_neumann_head(m, z, r):
    """_neumann_head as it was, with the first doubling step's product P S at S = I."""
    s = np.eye(m.shape[0], dtype=complex)
    p = m / z
    w = np.empty_like(s)
    for digit in bin(r)[3:]:
        np.matmul(p, s, out=w)
        s += w
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


def _semicircle_recipe(n):
    """perfbench's resolution-large series matrix at size n, and its spectral radius."""
    rng = np.random.default_rng(3)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = (m + m.conj().T) / (2.0 * np.sqrt(n))
    return a, _radius(a)


# (A, z): three phases at n = 8 and 96 and three |z| / spectral radius, the benchmark's n = 384 at |z| = 2 rho,
# and the transient growth case
NEUMANN_HEAD_CASES = {
    **{f"n{n}-ratio{ratio}-phase{phase}": (n, ratio, phase) for n in (8, 96) for ratio in (1.25, 2.0, 4.0) for phase in (0.4, 2.5, 4.6)},
    **{f"n384-ratio2.0-phase{phase}": (384, 2.0, phase) for phase in (0.4, 2.5, 4.6)},
    "transient-growth": None,
}


@pytest.mark.parametrize("case", NEUMANN_HEAD_CASES)
def test_neumann_head_has_the_bits_of_the_former_head(case):
    if NEUMANN_HEAD_CASES[case] is None:
        a, z, _ = NEUMANN_CASES["transient-growth"]
        a = np.asarray(a, dtype=complex)
    else:
        n, ratio, phase = NEUMANN_HEAD_CASES[case]
        a, rho = _semicircle_recipe(n)
        z = ratio * rho * np.exp(1j * phase)
    r = _skip(a, z) + 1
    assert r > 2  # the head is used, and takes at least one doubling step
    for got, want in zip(spectral_fd._neumann_head(a, z, r), _former_neumann_head(a, z, r)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("r", [1, 2, 3, 4, 38, 255, 256])
def test_neumann_head_skips_the_product_with_the_identity(r, monkeypatch):
    # per binary digit of r after the leading one: P S and P P, and P A for a 1, less the first P S,
    # which is P I; the benchmark recipe's r = 38 takes 11 products, 12 before
    calls = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *args, **kw: calls.append(1) or matmul(*args, **kw))
    spectral_fd._neumann_head(_semicircle(61, 8).astype(complex), 3.0, r)
    digits = bin(r)[3:]
    assert len(calls) == (2 * len(digits) + digits.count("1") - 1 if digits else 0)
    assert r != 38 or len(calls) == 11


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_neumann_tail_after_transient_growth_matches_a_long_double_power(seed):
    # ||A^k|| grows to 15-24 before it decays; the per-term reference's own tail is off by up to 1.1e-12 here
    a = np.diag(np.linspace(-0.7, 0.7, 96)) + 2.0 * np.triu(np.random.default_rng(seed).standard_normal((96, 96)), 1) / np.sqrt(96)
    out = neumann_resolvent(a, 1.0)
    assert out.converged
    exact = operator_norm(np.linalg.matrix_power(a.astype(np.clongdouble), out.terms).astype(complex))
    assert abs(out.tail - exact) <= 1e-13 * exact


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


@pytest.mark.parametrize("phase", [0.4, 2.5, 4.6])
def test_neumann_on_the_benchmark_recipe_takes_one_exact_norm(phase, monkeypatch):
    # perfbench's resolution-large series: an n = 384 semicircle matrix at |z| = 2 * spectral radius.
    # The skip certifies every term but the first below tau, so the loop takes one SVD.
    rng = np.random.default_rng(3)
    m = rng.standard_normal((384, 384)) + 1j * rng.standard_normal((384, 384))
    a = (m + m.conj().T) / (2.0 * np.sqrt(384))
    z = 2.0 * _radius(a) * np.exp(1j * phase)
    calls = []
    monkeypatch.setattr(spectral_fd, "operator_norm", lambda t: calls.append(1) or operator_norm(t))
    out = neumann_resolvent(a, z)
    assert out.converged
    assert len(calls) == 1


# ---------------------------------------------------------------- gelfand radius

@pytest.mark.parametrize(
    "call", [lambda a, k: spectral_radius_gelfand(a, kmax=k), lambda a, k: neumann_resolvent(a, 2.0, kmax=k)],
    ids=["spectral_radius_gelfand", "neumann_resolvent"],
)
def test_negative_kmax_is_rejected(call):
    with pytest.raises(ValueError, match="kmax"):
        call(np.eye(2), -1)


@pytest.mark.parametrize(
    "call", [lambda a, k: spectral_radius_gelfand(a, kmax=k), lambda a, k: neumann_resolvent(a, 2.0, kmax=k)],
    ids=["spectral_radius_gelfand", "neumann_resolvent"],
)
@pytest.mark.parametrize("kmax", [2.5, "3", None])
def test_non_integer_kmax_is_rejected(call, kmax):
    with pytest.raises(ValueError, match=re.escape(f"kmax must be an integer >= 0, got {kmax!r}")):
        call(np.eye(2), kmax)


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


def test_set_distance_matches_double_loop():
    rng = np.random.default_rng(45)
    for m, n in ((1, 1), (1, 5), (4, 7), (9, 3)):
        x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        from_x = max(min(abs(p - q) for q in y) for p in x)
        from_y = max(min(abs(p - q) for p in x) for q in y)
        # scalar and vectorized complex abs may differ in the last bit
        assert spectral_fd._set_distance(x, y) == pytest.approx(max(from_x, from_y), rel=1e-15)
    assert np.isnan(spectral_fd._set_distance(np.array([0.0, np.nan]), np.array([1.0j])))


def test_spectra_distance_of_empty_matrices():
    # sup over an empty set is 0 and inf over one is inf: two empty spectra are
    # 0 apart, an empty and a nonempty spectrum inf apart
    empty = np.zeros((0, 0))
    assert hausdorff_distance_spectra(empty, empty) == 0.0
    assert hausdorff_distance_spectra(empty, np.eye(2)) == np.inf
    assert hausdorff_distance_spectra(np.eye(2), empty) == np.inf
    # the empty-set branch leaves a NaN point to np.max
    assert np.isnan(spectral_fd._set_distance(np.array([np.nan]), np.array([1.0])))


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
    # a NaN norm fails the unit check too, rather than giving an all-NaN record
    with pytest.raises(ValueError, match="unit vector, got norm nan"):
        uncertainty(SIGMA_X, SIGMA_Y, np.array([np.nan, 0.0]))


@pytest.mark.parametrize(
    "a, b, h",
    [
        (SIGMA_X, SIGMA_Y, np.ones(3) / np.sqrt(3.0)),
        (SIGMA_X, np.eye(3), np.array([1.0, 0.0])),
        (np.stack([SIGMA_X] * 2), np.stack([SIGMA_Y] * 3), np.array([[1.0, 0.0]] * 2)),
        (np.stack([SIGMA_X] * 2), np.stack([SIGMA_Y] * 2), np.array([1.0, 0.0])),
    ],
    ids=["state-size", "b-size", "stack-sizes", "unstacked-state"],
)
def test_uncertainty_names_mismatched_shapes(a, b, h):
    shapes = f"got {np.shape(a)}, {np.shape(b)}, {np.shape(h)}"
    with pytest.raises(ValueError, match=re.escape(shapes)):
        uncertainty(a, b, h)


def test_evolve_rejects_non_finite_times():
    for t in (np.nan, np.inf, [0.0, -np.inf]):
        with pytest.raises(ValueError, match="t must be finite"):
            evolve(np.eye(2), t)


# ---------------------------------------------------------------- joint diagonalization

def test_commuting_polynomials_are_compatible(monkeypatch):
    # A is diagonalized once, by hermitian_eig; the commutator clears 1e-10 (1 + ||A||), so ||B|| is never needed
    eigvalsh_calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(m, *args, **kwargs):
        eigvalsh_calls.append(m)
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    rng = np.random.default_rng(73)
    for _ in range(20):
        seed = random_hermitian(rng, 5)
        a = seed @ seed - 2.0 * seed
        b = seed @ seed @ seed + 0.5 * np.eye(5)
        eigvalsh_calls.clear()
        out = commuting_diagonalization(a, b)
        assert len(eigvalsh_calls) == 0
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


@pytest.mark.parametrize("delta, compatible", [(5e-12, True), (1e-9, False)])
def test_commutator_above_the_floor_takes_the_norm_of_b(delta, compatible, monkeypatch):
    # [A, B] = 200 delta [[0, 1], [-1, 0]]: 1e-9 lies between the floor 1e-10 (1 + ||A||) = 2e-10 and
    # the default tau_comm = 2e-10 (1 + ||B||), about 2.02e-8; 2e-7 lies above the default
    a = np.diag([1.0, -1.0])
    b = 100.0 * np.array([[1.0, delta], [delta, 0.0]])
    comm = operator_norm(a @ b - b @ a)
    na = float(np.max(np.abs(np.linalg.eigvalsh(a))))
    nb = float(np.max(np.abs(np.linalg.eigvalsh(b))))
    assert 1e-10 * (1.0 + na) < comm and (comm <= 1e-10 * (1.0 + na) * (1.0 + nb)) == compatible
    eigvalsh_calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m, *args, **kwargs: eigvalsh_calls.append(m) or eigvalsh(m, *args, **kwargs))
    out = commuting_diagonalization(a, b)
    assert (out.compatible, out.commutator_norm) == (compatible, comm)
    assert len(eigvalsh_calls) == 1


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
    with pytest.raises(ValueError, match="single pair"):
        spectral_measure_to_json(spectral_measure(res, np.ones((3, 2)), np.ones((3, 2))))


# ---------------------------------------------------------------- stacked inputs

def random_hermitian_stack(rng, lead, n):
    m = rng.standard_normal(lead + (n, n)) + 1j * rng.standard_normal(lead + (n, n))
    return (m + np.swapaxes(m, -1, -2).conj()) / 2


def random_unit(rng, shape):
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return h / np.linalg.norm(h, axis=-1, keepdims=True)


def gelfand_inputs(rng, lead):
    a = rng.standard_normal(lead + (4, 4)) + 1j * rng.standard_normal(lead + (4, 4))
    if len(lead) == 2 and lead[1] > 2:  # a nilpotent and a zero matrix among general ones
        a[0, 1] = np.triu(a[0, 1], 1)
        a[1, 2] = 0.0
    return (a,)


def record(rec):
    """An UncertaintyRecord as one array, its fields along the last axis."""
    return np.stack(np.broadcast_arrays(*dataclasses.astuple(rec)), axis=-1)


# name: (call, its inputs for a given leading shape, the error a bad matrix in the stack raises)
STACKED = {
    "operator_norm": (
        operator_norm,
        lambda rng, lead: (rng.standard_normal(lead + (4, 5)) + 1j * rng.standard_normal(lead + (4, 5)),),
        "non-finite",
    ),
    "require_hermitian": (
        require_hermitian, lambda rng, lead: (random_hermitian_stack(rng, lead, 4),), "not Hermitian",
    ),
    "_set_distance": (
        spectral_fd._set_distance,
        lambda rng, lead: (rng.standard_normal(lead + (4,)) + 1j * rng.standard_normal(lead + (4,)), rng.standard_normal(lead + (5,))),
        None,
    ),
    "hausdorff_distance_spectra": (
        hausdorff_distance_spectra,
        lambda rng, lead: (random_hermitian_stack(rng, lead, 4), random_hermitian_stack(rng, lead, 5)),
        "not Hermitian",
    ),
    "spectral_radius_gelfand": (lambda a: spectral_radius_gelfand(a, kmax=6), gelfand_inputs, "non-finite"),
    "uncertainty": (
        lambda a, b, h: record(uncertainty(a, b, h)),
        lambda rng, lead: (random_hermitian_stack(rng, lead, 4), random_hermitian_stack(rng, lead, 4), random_unit(rng, lead + (4,))),
        "not Hermitian",
    ),
    "evolve": (
        evolve, lambda rng, lead: (random_hermitian_stack(rng, lead, 4), rng.uniform(-2.0, 2.0, lead)), "not Hermitian",
    ),
    "cayley": (cayley, lambda rng, lead: (random_hermitian_stack(rng, lead, 4),), "not Hermitian"),
}


@pytest.mark.parametrize("lead", [(2, 3), (0,)], ids=["2x3", "empty"])
@pytest.mark.parametrize("name", STACKED)
def test_stacked_call_equals_the_per_matrix_loop(name, lead):
    call, inputs, _ = STACKED[name]
    rng = np.random.default_rng(97)
    args = inputs(rng, lead)
    single = call(*inputs(rng, ()))
    got = call(*args)
    want = [call(*(x[i] for x in args)) for i in np.ndindex(lead)]
    assert np.shape(got) == lead + np.shape(single)
    np.testing.assert_array_equal(got, np.reshape(want, lead + np.shape(single)))


@pytest.mark.parametrize("name", STACKED)
def test_stack_error_names_the_failing_index(name):
    call, inputs, error = STACKED[name]
    args = list(inputs(np.random.default_rng(101), (4,)))
    if error is None:  # the private set distance does not validate: a NaN point stays in its own entry
        args[0][2, 1] = np.nan
        assert np.isnan(call(*args)).tolist() == [False, False, True, False]
        return
    args[0][2, 0, 1] += np.nan if error == "non-finite" else 1e-3
    with pytest.raises(ValueError, match=f"^matrix at index 2 (is|has) {error}"):
        call(*args)


def test_single_matrix_results_stay_python_floats():
    a = np.diag([1.0, -3.0])
    assert type(operator_norm(a)) is float
    assert type(hausdorff_distance_spectra(a, 2 * a)) is float
    assert type(spectral_fd._set_distance(np.array([1.0]), np.array([2.0]))) is float
    assert {type(v) for v in dataclasses.astuple(uncertainty(SIGMA_X, SIGMA_Y, np.array([1.0, 0.0])))} == {float}


def test_uncertainty_state_error_names_the_failing_index():
    a = np.stack([SIGMA_X] * 4)
    h = np.array([[1.0, 0.0]] * 4)
    h[2] = [1.0, 1.0]
    with pytest.raises(ValueError, match="^state at index 2 must be a unit vector"):
        uncertainty(a, a, h)
