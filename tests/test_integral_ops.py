"""Nystrom operators, HS norm and trace, Volterra, Sturm-Liouville Green machinery."""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from speclab import integral_ops, linalg_core
from speclab import (
    NonInjectiveError,
    QuadratureGrid,
    SturmLiouvilleProblem,
    gauss_legendre_grid,
    hermitian_eig,
    hs_norm,
    nystrom,
    operator_norm,
    rayleigh_refine,
    sl_eigensolve,
    sl_green,
    sl_homogeneous_solutions,
    sl_modes_to_csv,
    sl_modes_to_json,
    sl_problem_from_config,
    sl_shift,
    trace,
    volterra,
)

VSTAR_KERNEL = lambda x, y: 1.0 - np.maximum(x, y)


def dirichlet_problem(a, b, q):
    return SturmLiouvilleProblem(a, b, q, (1.0, 0.0), (1.0, 0.0))


def zero_q(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def const_q(c):
    return lambda x: c + 0.0 * np.asarray(x, dtype=float)


# ---------------------------------------------------------------- quadrature grids

def test_grid_weights_sum_to_length():
    for a, b in ((0.0, 1.0), (-2.0, 3.5), (0.0, np.pi)):
        g = gauss_legendre_grid(a, b, panels=7, per_panel=5)
        assert abs(np.sum(g.weights) - (b - a)) < 1e-12 * (1 + abs(b - a))
        assert np.all(g.nodes > a) and np.all(g.nodes < b)
        assert np.all(np.diff(g.nodes) > 0)


def test_gauss_legendre_rule_is_cached_and_read_only():
    x, w = integral_ops._gauss_legendre(6)
    again = integral_ops._gauss_legendre(6)
    assert again[0] is x and again[1] is w
    for arr in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def per_panel_loop_grid(a, b, panels, per_panel):
    """The composite rule built one panel at a time, from a fresh leggauss."""
    x0, w0 = np.polynomial.legendre.leggauss(per_panel)
    edges = np.linspace(a, b, panels + 1)
    nodes, weights = [], []
    for k in range(panels):
        lo, hi = edges[k], edges[k + 1]
        half = (hi - lo) / 2.0
        nodes.append(half * x0 + (lo + hi) / 2.0)
        weights.append(half * w0)
    return np.concatenate(nodes), np.concatenate(weights)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-2.0, 3.5), (0.0, np.pi), (1e-3, 7.0 / 3.0)])
@pytest.mark.parametrize("panels, per_panel", [(1, 1), (1, 64), (3, 4), (7, 5), (50, 8)])
def test_grid_equals_per_panel_loop_bit_for_bit(a, b, panels, per_panel):
    g = gauss_legendre_grid(a, b, panels=panels, per_panel=per_panel)
    nodes, weights = per_panel_loop_grid(a, b, panels, per_panel)
    assert np.array_equal(g.nodes, nodes) and np.array_equal(g.weights, weights)


def test_grid_validation():
    with pytest.raises(ValueError):
        QuadratureGrid(0.0, 1.0, np.array([0.0, 0.5]), np.array([0.5, 0.5]))  # node at edge
    with pytest.raises(ValueError):
        QuadratureGrid(0.0, 1.0, np.array([0.2, 0.8]), np.array([0.4, 0.4]))  # bad mass


GRID_RULE_VIOLATIONS = {
    "nan node": (lambda: QuadratureGrid(0.0, 1.0, np.array([0.2, np.nan, 0.8]), np.array([0.3, 0.4, 0.3])), "nodes"),
    "nan weight": (lambda: QuadratureGrid(0.0, 1.0, np.array([0.2, 0.5, 0.8]), np.array([0.3, np.nan, 0.3])), "weights"),
    "nan a": (lambda: QuadratureGrid(np.nan, 1.0, np.array([0.2, 0.5, 0.8]), np.array([0.3, 0.4, 0.3])), "a"),
    "infinite b": (lambda: QuadratureGrid(0.0, np.inf, np.array([0.2, 0.5, 0.8]), np.array([0.3, 0.4, 0.3])), "b"),
    "rule to infinity": (lambda: gauss_legendre_grid(0.0, np.inf, 4, 4), "(a, b)"),
    "rule from nan": (lambda: gauss_legendre_grid(np.nan, 1.0, 4, 4), "(a, b)"),
    "fractional panels": (lambda: gauss_legendre_grid(0.0, 1.0, 2.5, 4), "panels"),
    "fractional per_panel": (lambda: gauss_legendre_grid(0.0, 1.0, 4, 2.5), "per_panel"),
}


@pytest.mark.parametrize("case", sorted(GRID_RULE_VIOLATIONS))
def test_grid_rejects_non_finite_and_fractional_input(case):
    # a NaN compares False, so each of these once passed every check (or
    # raised numpy's TypeError), and a NaN weight made trace(V*V) NaN
    build, field_name = GRID_RULE_VIOLATIONS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic warns
        with pytest.raises(ValueError, match=rf"^{re.escape(field_name)} must be"):
            build()


# ---------------------------------------------------------------- nystrom

def test_zero_kernel_zero_operator():
    g = gauss_legendre_grid(0.0, 1.0, panels=3, per_panel=4)
    op = nystrom(lambda x, y: np.zeros_like(x * y), g)
    assert np.all(op.kernel_matrix == 0)
    assert np.all(op.apply(np.ones(g.size)) == 0)


def test_unit_kernel_integrates_to_one():
    g = gauss_legendre_grid(0.0, 1.0, panels=3, per_panel=4)
    op = nystrom(lambda x, y: np.ones_like(x * y), g)
    np.testing.assert_allclose(op.apply(np.ones(g.size)), np.ones(g.size), atol=1e-12)


def test_nystrom_entrywise_kernel_fallback():
    # scalar-only evaluator takes the slow path but must agree
    g = gauss_legendre_grid(0.0, 1.0, panels=2, per_panel=3)
    fast = nystrom(lambda x, y: np.exp(-(x - y) ** 2), g)
    slow = nystrom(lambda x, y: float(np.exp(-(x - y) ** 2)) if np.isscalar(x) or x.ndim == 0 else (_ for _ in ()).throw(TypeError), g)
    np.testing.assert_allclose(slow.kernel_matrix, fast.kernel_matrix)


def test_nystrom_rejects_non_finite_sample():
    g = gauss_legendre_grid(0.0, 1.0, panels=2, per_panel=3)
    poisoned = lambda x, y: np.where(np.abs(x - y) < 1e-12, np.nan, x * y)
    with pytest.raises(ValueError, match=r"\d"):
        nystrom(poisoned, g)


def imag_nan_at_2_0(x, y):
    km = (x * y).astype(complex)
    km.imag[2, 0] = np.nan  # the real part stays finite
    return km


@pytest.mark.parametrize(
    "kernel, where",
    [
        (lambda x, y: np.where((x == x.max()) & (y == y.min()), np.inf, x * y), "(5, 0)"),
        (imag_nan_at_2_0, "(2, 0)"),
    ],
    ids=["real-inf", "complex-nan-imag"],
)
def test_nystrom_names_the_index_of_a_non_finite_sample(kernel, where):
    g = gauss_legendre_grid(0.0, 1.0, panels=2, per_panel=3)
    with pytest.raises(ValueError, match=rf"^kernel sample not finite at nodes {re.escape(where)}$"):
        nystrom(kernel, g)


@pytest.mark.parametrize("where", [(399, 7), (40, 0), (39, 399), (0, 0)])
def test_nystrom_names_a_non_finite_sample_in_any_block(where):
    grid = gauss_legendre_grid(0.0, 1.0, panels=50, per_panel=8)
    xi, yj = grid.nodes[where[0]], grid.nodes[where[1]]
    kernel = lambda x, y: np.where((x == xi) & (y == yj), np.nan, x * y)  # noqa: E731
    with pytest.raises(ValueError, match=rf"^kernel sample not finite at nodes {re.escape(str(where))}$"):
        nystrom(kernel, grid)


@pytest.mark.parametrize(
    "kernel",
    [VSTAR_KERNEL, lambda x, y: (y < x) + 0.5 * (y == x), lambda x, y: np.exp(-((x - y) ** 2))],
    ids=["vstar_v", "v", "gaussian"],
)
def test_apply_keeps_real_input_real_and_matches_the_complex_product(kernel):
    g = gauss_legendre_grid(0.0, 1.0, panels=50, per_panel=8)
    op = nystrom(kernel, g)
    assert op.kernel_matrix.dtype == np.float64
    rng = np.random.default_rng(11)
    f = rng.standard_normal(g.size)
    h = f + 1j * rng.standard_normal(g.size)
    for vec, dtype in ((f, np.float64), (h, np.complex128)):
        out = op.apply(vec)
        want = op.kernel_matrix.astype(complex) @ (g.weights * vec.astype(complex))  # the old complex route
        assert out.dtype == dtype
        assert np.max(np.abs(out - want)) <= 1e-14 * np.max(np.abs(want))


def test_refinement_study_order_two():
    # diagonal-kink kernel: eigenvalue error halves twice per panel doubling
    exact = 4.0 / np.pi ** 2
    errs = []
    for p in (4, 8, 16):
        g = gauss_legendre_grid(0.0, 1.0, panels=p, per_panel=4)
        mu = float(np.linalg.eigvalsh(nystrom(VSTAR_KERNEL, g).symmetrized)[-1])
        errs.append(abs(mu - exact))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 2.0 - 0.1


# ---------------------------------------------------------------- hs norm and trace

def test_hs_norm_unit_kernel():
    g = gauss_legendre_grid(0.0, 1.0, panels=5, per_panel=6)
    assert hs_norm(nystrom(lambda x, y: np.ones_like(x * y), g)) == pytest.approx(1.0)


def test_hs_norm_unitary_invariance_and_domination():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        assert abs(hs_norm(q.conj().T @ a @ q) - hs_norm(a)) <= 1e-10 * (1 + hs_norm(a))
        assert operator_norm(a) <= hs_norm(a) + 1e-12


def frobenius(m):
    """hs_norm of a matrix as it was computed one matrix at a time: the reference for the stacked route."""
    return float(np.linalg.norm(np.asarray(m, dtype=complex), "fro"))


@pytest.mark.parametrize("n", [1, 2, 8, 17, 64])
def test_stacked_hs_norm_equals_frobenius_norm_bitwise(n):
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((3, 4, n, n)) + 1j * rng.standard_normal((3, 4, n, n))
    for m in (stack, stack.real):
        got = hs_norm(m)
        assert got.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            assert got[idx] == frobenius(m[idx]) == hs_norm(m[idx])
    assert isinstance(hs_norm(stack[0, 0]), float)
    # a transposed stack sums each matrix in row-major order, as for the matrix alone
    flipped = stack.swapaxes(-2, -1)
    assert np.array_equal(hs_norm(flipped), [[hs_norm(m) for m in row] for row in flipped])


def test_hs_norm_rejects_non_finite_stacks():
    stack = np.zeros((3, 2, 2))
    stack[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="matrix at index 1 has non-finite entries"):
        hs_norm(stack)
    with pytest.raises(ValueError, match="expected a 2-d matrix or a stack"):
        hs_norm(np.ones(3))
    assert hs_norm(np.zeros((0, 0))) == 0.0 and hs_norm(np.zeros((2, 0, 3))).shape == (2,)


HS_KERNELS = {
    "real": lambda x, y: np.minimum(x, y) * (1.0 - np.maximum(x, y)),
    "complex": lambda x, y: np.exp(1j * (x - y)) / (1.0 + (x - y) ** 2),
}


@pytest.mark.parametrize("kernel", HS_KERNELS.values(), ids=HS_KERNELS.keys())
@pytest.mark.parametrize("panels", [50, 100])
def test_operator_hs_norm_holds_a_few_blocks_of_b(kernel, panels):
    # B summed by row blocks of about _CHUNK entries: two blocks live at a time (the next is formed
    # before the last is released), 0.39 MB real and 0.65 MB complex at 400 and 800 nodes; forming B
    # held 8 n^2 (real) or 16 n^2 (complex), 1.28 MB and 2.56 MB at 400 nodes
    g = gauss_legendre_grid(0.0, 1.0, panels=panels, per_panel=8)
    op = nystrom(kernel, g)
    tracemalloc.start()
    try:
        got = hs_norm(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    b = op.symmetrized
    assert abs(got - np.linalg.norm(b, "fro")) <= 1e-14 * got
    squares = np.concatenate([b.real.ravel() ** 2, b.imag.ravel() ** 2])
    assert abs(got - np.sqrt(math.fsum(squares))) <= 1e-14 * got
    assert peak <= 3 * 16 * linalg_core._CHUNK


def test_trace_rank_one_projection():
    v = np.array([3.0, 4.0]) / 5.0
    assert trace(np.outer(v, v)) == pytest.approx(1.0)


def test_trace_vstar_v_half():
    g = gauss_legendre_grid(0.0, 1.0, panels=50, per_panel=8)
    assert trace(volterra(g).vstar_v) == pytest.approx(0.5, abs=1e-12)


def test_trace_equals_eigenvalue_sum():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    a = a + a.conj().T
    res = hermitian_eig(a)
    total = float(np.sum(res.eigenvalues * res.multiplicities))
    assert abs(trace(a) - total) < 1e-10 * (1 + abs(total))


def test_trace_operator_requires_positivity():
    g = gauss_legendre_grid(0.0, 1.0, panels=4, per_panel=4)
    sign_kernel = lambda x, y: np.sign(x - y) * 1j + 0.0  # skew, not positive
    with pytest.raises(ValueError):
        trace(nystrom(sign_kernel, g))


@pytest.mark.parametrize("kernel, message", [
    (lambda x, y: -1.0 + 0.0 * (x + y), "requires a positive kernel"),  # Hermitian, negative definite
    (lambda x, y: (x - y) + 1.0, "requires a Hermitian kernel"),
], ids=["indefinite", "non-hermitian"])
def test_trace_operator_names_what_a_real_kernel_lacks(kernel, message):
    g = gauss_legendre_grid(0.0, 1.0, panels=4, per_panel=4)
    op = nystrom(kernel, g)
    assert op.kernel_matrix.dtype == np.float64
    with pytest.raises(ValueError, match=f"operator trace {message}"):
        trace(op)


@pytest.mark.parametrize("panels", [50, 100])
def test_trace_operator_check_holds_half_a_matrix(panels):
    # the lower triangle of (B + B*) / 2 in _panels' block columns, n^2 / 2 + n w / 2 entries for
    # width w = n / 12, with one block column's temporaries: 0.63 * 8 n^2 at 400 and 800 nodes.
    # B alone with one row block's temporaries peaked at 1.15 * 8 n^2 (400 nodes) and 1.04 (800)
    g = gauss_legendre_grid(0.0, 1.0, panels=panels, per_panel=8)
    n = g.size
    op = volterra(g).vstar_v
    tracemalloc.start()
    try:
        tr = trace(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr == pytest.approx(0.5, abs=1e-12)
    assert peak <= 0.7 * 8 * n * n


def test_hermitian_defect_reads_one_row_block_of_b():
    # max |B - B*| from K: one row block of B, its mirrored column block and the deviation, each
    # about _CHUNK entries, with numpy's 8192-entry buffer for the transposed read of the mirror;
    # forming B first held 8 n^2, 1.28 MB at 400 nodes
    g = gauss_legendre_grid(0.0, 1.0, panels=50, per_panel=8)
    op = nystrom(lambda x, y: np.cos(x - y) + 1e-3 * x * y * (x - y), g)
    op.hermitian_defect()  # first call: lazy set-up
    tracemalloc.start()
    try:
        defect = op.hermitian_defect()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    b = op.symmetrized
    assert defect == float(np.max(np.abs(b - b.T))) > 0.0
    assert peak <= 8 * (3 * linalg_core._CHUNK + 8192) + 16 * 1024


@pytest.mark.parametrize("kernel", [VSTAR_KERNEL, lambda x, y: np.exp(1j * (x - y)) / (1.0 + (x - y) ** 2) + 1e-9 * x * y * (x - y)],
                         ids=["real", "complex"])
def test_trace_check_sees_the_bits_of_the_whole_matrix_expressions(kernel, monkeypatch):
    # 160 nodes: five block columns of 32, each read from K without forming B; the complex
    # kernel's defect, about 1e-12, passes the check, and its part differs from B
    g = gauss_legendre_grid(0.0, 1.0, panels=20, per_panel=8)
    op = nystrom(kernel, g)
    b = op.symmetrized
    columns = integral_ops._panels(len(b))
    assert [c.stop - c.start for c in columns] == [32] * 5
    scale = float(np.max(np.abs(b))) + 1.0
    defect = np.abs(b - b.conj().T).max()
    part = (b + b.conj().T) / 2.0
    seen = {"defects": []}
    defect_of, check = integral_ops._hermitian_defect, integral_ops._check_positive

    def probe_defect(*args):
        seen["defects"].append(defect_of(*args))
        return seen["defects"][-1]

    def probe_check(panels, s):
        seen.update(panels=[p.copy() for p in panels], scale=s)  # before the shift
        check(panels, s)

    monkeypatch.setattr(integral_ops, "_hermitian_defect", probe_defect)
    monkeypatch.setattr(integral_ops, "_check_positive", probe_check)
    trace(op)
    assert seen["scale"] == scale
    assert len(seen["defects"]) == len(columns) and max(seen["defects"]).tobytes() == defect.tobytes()
    assert len(seen["panels"]) == len(columns)
    for cols, panel in zip(columns, seen["panels"]):
        # rows lo: of the block column, the lower triangle's and the diagonal block's entries
        assert panel.tobytes() == part[cols.start:, cols].tobytes()


_MERCER_KERNELS = {
    "positive-definite": VSTAR_KERNEL,
    "rank-deficient": lambda x, y: np.cos(3.0 * (x - y)),  # rank 2, singular until the shift
    "slightly-indefinite": lambda x, y: np.cos(3.0 * (x - y)) - 1e-6 * (x - 0.5) * (y - 0.5),
}


@pytest.mark.parametrize("kind", list(_MERCER_KERNELS))
@pytest.mark.parametrize("nodes", [160, 400, 800])
def test_trace_verdict_matches_the_dense_cholesky(kind, nodes):
    # the dense route: np.linalg.cholesky of the shifted (B + B*) / 2, formed whole
    g = gauss_legendre_grid(0.0, 1.0, panels=nodes // 8, per_panel=8)
    op = nystrom(_MERCER_KERNELS[kind], g)
    b = op.symmetrized
    shift = 1e-10 * (float(np.max(np.abs(b))) + 1.0)
    try:
        np.linalg.cholesky((b + b.conj().T) / 2.0 + shift * np.eye(len(b)))
        positive = True
    except np.linalg.LinAlgError:
        positive = False
    assert positive == (kind != "slightly-indefinite")
    if positive:
        assert trace(op) == float(np.sum(g.weights * np.diag(op.kernel_matrix)))
    else:
        with pytest.raises(ValueError, match="^operator trace requires a positive kernel$"):
            trace(op)


@pytest.mark.parametrize("entry", [(100, 10), (10, 100), (50, 50)])
@pytest.mark.parametrize("ratio", [0.5, 0.9, 1.1, 2.0])
def test_trace_hermitian_threshold_is_1e_10_times_one_plus_max_b(entry, ratio):
    # a positive kernel with max |B| about 4, and one entry moved so that B's Hermitian defect is
    # ratio times 1e-10 (1 + max |B|): below or above one block column's diagonal block, or an
    # imaginary part on the diagonal.  A threshold of 1e-10 alone, or of 1e-10 max |B|, would
    # put 0.5 or 0.9 on the wrong side
    g = gauss_legendre_grid(0.0, 1.0, panels=20, per_panel=8)
    k = nystrom(lambda x, y: 480.0 * (1.0 - np.maximum(x, y)), g).kernel_matrix
    b = integral_ops.IntegralOperator(g, k).symmetrized
    threshold = 1e-10 * (float(np.max(np.abs(b))) + 1.0)
    sw = np.sqrt(g.weights)
    i, j = entry
    if i == j:
        k = k.astype(complex)
        k[i, i] += 1j * ratio * threshold / (2.0 * sw[i] ** 2)
    else:
        k[i, j] += ratio * threshold / (sw[i] * sw[j])
    op = integral_ops.IntegralOperator(g, k)
    b = op.symmetrized
    scale = float(np.max(np.abs(b))) + 1.0
    assert np.linalg.eigvalsh((b + b.conj().T) / 2.0)[0] > threshold  # positive, so the defect alone decides
    assert np.abs(b - b.conj().T).max() / (1e-10 * scale) == pytest.approx(ratio, rel=1e-4)
    if ratio < 1.0:
        assert trace(op) == float(np.sum(g.weights * np.real(np.diag(k))))
    else:
        with pytest.raises(ValueError, match="^operator trace requires a Hermitian kernel$"):
            trace(op)


def _hermitian_with_lowest(h, lowest):
    """h with its smallest eigenvalue moved to `lowest`, the rest of its spectrum kept."""
    w, v = np.linalg.eigh(h)
    w[0] = lowest
    h = (v * w) @ v.conj().T
    return (h + h.conj().T) / 2.0


@pytest.mark.parametrize("ratio", [-0.5, -2.0])
@pytest.mark.parametrize("family", ["gaussian", "random-half-rank", "random-half-rank-complex"])
@pytest.mark.parametrize("nodes", [160, 400, 800])
def test_trace_verdict_matches_the_dense_cholesky_near_the_shift(ratio, family, nodes):
    # (B + B*) / 2 with its smallest eigenvalue at ratio times the shift 1e-10 (1 + max |B|), beside
    # many eigenvalues near 0 that the shift lifts to about the shift, so the diagonal blocks of the
    # factor are ill-conditioned: the blocked factor, which takes L21 from inv(L11), must reach the
    # verdict of np.linalg.cholesky on the shifted matrix formed whole
    g = gauss_legendre_grid(0.0, 1.0, panels=nodes // 8, per_panel=8)
    if family == "gaussian":  # eigenvalues falling to rounding level
        h = nystrom(lambda x, y: np.exp(-10.0 * (x - y) ** 2), g).symmetrized
    else:
        rng = np.random.default_rng(nodes)
        q = rng.standard_normal((nodes, nodes // 2))
        if family.endswith("complex"):
            q = q + 1j * rng.standard_normal((nodes, nodes // 2))
        q = np.linalg.qr(q)[0]
        h = (q * np.geomspace(1e-6, 1.0, nodes // 2)) @ q.conj().T
    shift = 1e-10 * (float(np.max(np.abs(h))) + 1.0)
    h = _hermitian_with_lowest(h, ratio * shift)
    sw = np.sqrt(g.weights)
    op = integral_ops.IntegralOperator(g, h / sw[:, None] / sw[None, :])
    b = op.symmetrized
    part = (b + b.conj().T) / 2.0
    shift = 1e-10 * (float(np.max(np.abs(b))) + 1.0)
    assert np.linalg.eigvalsh(part)[0] / shift == pytest.approx(ratio, rel=1e-3)
    try:
        np.linalg.cholesky(part + shift * np.eye(nodes))
        positive = True
    except np.linalg.LinAlgError:
        positive = False
    assert positive == (ratio > -1.0)
    if positive:
        assert trace(op) == float(np.sum(g.weights * np.real(np.diag(op.kernel_matrix))))
    else:
        with pytest.raises(ValueError, match="^operator trace requires a positive kernel$"):
            trace(op)


@pytest.mark.parametrize("kernel, message", [
    (lambda x, y: -np.exp(1j * (x - y)), "requires a positive kernel"),  # Hermitian, rank one, negative
    (lambda x, y: np.exp(1j * (x + y)), "requires a Hermitian kernel"),  # symmetric, not Hermitian
], ids=["indefinite", "non-hermitian"])
@pytest.mark.parametrize("panels", [4, 50])
def test_trace_operator_names_what_a_complex_kernel_lacks(kernel, message, panels):
    g = gauss_legendre_grid(0.0, 1.0, panels=panels, per_panel=8)
    op = nystrom(kernel, g)
    assert op.kernel_matrix.dtype == np.complex128
    with pytest.raises(ValueError, match=f"^operator trace {message}$"):
        trace(op)


def test_symmetrized_is_one_allocation_with_the_bits_of_the_product():
    g = gauss_legendre_grid(0.0, 1.0, panels=50, per_panel=8)
    n = g.size
    op = nystrom(lambda x, y: -0.0 * x + np.cos(x - y), g)
    op.kernel_matrix[0, :7] = -0.0
    op.symmetrized  # first access: lazy set-up
    tracemalloc.start()
    try:
        b = op.symmetrized
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b.tobytes() == symmetrized_reference(op.kernel_matrix, g).tobytes()
    # B, sqrt(w) and numpy's 8192-entry buffer for a broadcast operand; the product's second
    # multiplication allocated a second n x n array
    assert peak <= 8 * n * n + 8 * n + 8 * 8192 + 4 * 1024


def _cholesky_input(kind, n, dtype):
    """A Hermitian n x n matrix: positive definite, indefinite (negative definite at n = 1), or
    positive semidefinite of rank n // 2, singular until trace's 1e-10 (1 + max |A_ij|) shift."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, n)).astype(dtype)
    if dtype is np.complex128:
        x += 1j * rng.standard_normal((n, n))
    if kind == "definite":
        a = x @ x.conj().T / max(n, 1) + 0.1 * np.eye(n)
    elif kind == "indefinite":
        q = np.linalg.qr(x)[0]
        a = (q * np.linspace(-1.0, 2.0, n)) @ q.conj().T
    else:
        a = x[:, : n // 2] @ x[:, : n // 2].conj().T
    return (a + a.conj().T) / 2.0


@pytest.mark.parametrize("kind", ["definite", "indefinite", "singular-until-shifted"])
@pytest.mark.parametrize("n", [0, 1, 32, 33, 127, 400])  # one block column up to n = 32, two at 33, twelve at 400
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_blocked_cholesky_agrees_with_numpy(kind, n, dtype, monkeypatch):
    a = _cholesky_input(kind, n, dtype)
    scale = 1.0 + np.max(np.abs(a), initial=0.0)
    try:
        want = np.linalg.cholesky(a + 1e-10 * scale * np.eye(n))
    except np.linalg.LinAlgError:
        want = None
    assert (want is None) == (kind == "indefinite" and n > 0)
    herm = a.copy()
    herm[np.triu_indices(n, 1)] = np.nan  # only the lower triangle is read
    columns = integral_ops._panels(n)
    panels = [herm[cols.start:, cols].copy() for cols in columns]
    blocks = []
    factor = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda d: blocks.append(len(d)) or factor(d))
    if want is None:
        with pytest.raises(ValueError, match="^operator trace requires a positive kernel$"):
            integral_ops._check_positive(panels, scale)
        return
    integral_ops._check_positive(panels, scale)
    assert blocks == [cols.stop - cols.start for cols in columns]
    got = np.zeros((n, n), dtype)
    for cols, panel in zip(columns, panels):
        got[cols.start:, cols] = panel  # L's panels, factored in place
    assert np.isfinite(got).all() and not np.any(np.triu(got, 1))
    size = max(np.linalg.norm(want), 1e-300)
    # the shifted singular matrix has condition about 1e10, so two backward-stable factors differ
    # by up to about 1e10 * 1e-16 * ||L||: there the two factors' residuals are compared instead
    if kind == "singular-until-shifted":
        shifted = a + 1e-10 * scale * np.eye(n)
        assert np.linalg.norm(got @ got.conj().T - shifted) <= 1e-14 * np.linalg.norm(shifted) * max(n, 1)
        assert np.linalg.norm(got - want) <= 1e-9 * size
    else:
        assert np.linalg.norm(got - want) <= 1e-12 * size


# ---------------------------------------------------------------- volterra

def test_volterra_integrates_ones_to_x():
    # step-kernel quadrature: exact integral is x, error is panel-local
    g = gauss_legendre_grid(0.0, 1.0, panels=50, per_panel=8)
    out = volterra(g).v.apply(np.ones(g.size))
    assert np.max(np.abs(out - g.nodes)) < 5e-4


def symmetrized_reference(km, g):
    """W^{1/2} K W^{1/2}, the expression nystrom once evaluated and stored beside K."""
    sw = np.sqrt(g.weights)
    return sw[:, None] * km * sw[None, :]


def complex_volterra_kernels(x):
    """The complex construction the float64 kernels replaced, kept as their oracle."""
    xi, yj = x[:, None], x[None, :]
    return (yj < xi).astype(complex) + 0.5 * (yj == xi), (1.0 - np.maximum(xi, yj)).astype(complex)


@pytest.mark.parametrize("panels", [1, 7, 50])
def test_volterra_kernels_are_real_and_equal_the_complex_construction(panels):
    g = gauss_legendre_grid(0.0, 1.0, panels=panels, per_panel=8)
    pair = volterra(g)
    for op, want in zip((pair.v, pair.vstar_v), complex_volterra_kernels(g.nodes)):
        assert op.kernel_matrix.dtype == op.symmetrized.dtype == np.float64
        assert not np.any(want.imag)
        np.testing.assert_array_equal(op.kernel_matrix, want.real)
        np.testing.assert_array_equal(op.symmetrized, symmetrized_reference(want, g).real)


def test_operator_stores_its_kernel_once():
    # B = W^{1/2} K W^{1/2} was stored beside K: two n x n copies of one operator
    assert tuple(f.name for f in dataclasses.fields(integral_ops.IntegralOperator)) == ("grid", "kernel_matrix")
    g = gauss_legendre_grid(0.0, 1.0, panels=50, per_panel=8)
    n = g.size
    tracemalloc.start()
    try:
        op = nystrom(VSTAR_KERNEL, g)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert op.kernel_matrix.dtype == np.float64
    assert held <= 8 * n * n + 64 * n


def test_nystrom_samples_in_row_blocks():
    # the whole-array 1.0 - np.maximum(x, y) held its n x n temporary beside K: 2.00 * 8 n^2
    g = gauss_legendre_grid(0.0, 1.0, panels=50, per_panel=8)
    n = g.size
    nystrom(VSTAR_KERNEL, g)  # first call: lazy set-up
    tracemalloc.start()
    try:
        op = nystrom(VSTAR_KERNEL, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.kernel_matrix.tobytes() == VSTAR_KERNEL(g.nodes[:, None], g.nodes[None, :]).tobytes()
    assert peak <= 8 * n * n + 32 * linalg_core._CHUNK


@pytest.mark.parametrize("kernel", [VSTAR_KERNEL, lambda x, y: np.exp(1j * x * y) / (1.0 + (x - y) ** 2)],
                         ids=["real", "complex"])
def test_symmetrized_is_formed_from_the_kernel_on_access(kernel):
    g = gauss_legendre_grid(0.0, 1.0, panels=7, per_panel=8)
    op = nystrom(kernel, g)
    b = op.symmetrized
    assert b.dtype == op.kernel_matrix.dtype
    assert np.array_equal(b, symmetrized_reference(op.kernel_matrix, g))
    assert np.array_equal(op.symmetrized, b)


def test_volterra_wrong_interval_rejected():
    with pytest.raises(ValueError):
        volterra(gauss_legendre_grid(0.0, 2.0, panels=4, per_panel=4))


def test_vstar_v_eigenvalues_against_ode_oracle():
    # mu f = V*V f differentiates twice to mu f'' = -f with f'(0) = 0, f(1) = 0,
    # giving f_k = cos((2k-1) pi x / 2) and mu_k = 4 / ((2k-1) pi)^2
    g = gauss_legendre_grid(0.0, 1.0, panels=50, per_panel=8)
    pair = volterra(g)
    mu = np.linalg.eigvalsh(pair.vstar_v.symmetrized)[::-1]
    for k in range(1, 6):
        want = 4.0 / ((2 * k - 1) ** 2 * np.pi ** 2)
        assert abs(mu[k - 1] - want) <= 1e-3 * want

    # the oracle's first eigenfunction indeed solves the integral equation
    f1 = np.cos(np.pi * g.nodes / 2.0)
    resid = pair.vstar_v.apply(f1) - (4.0 / np.pi ** 2) * f1
    assert np.max(np.abs(resid)) < 1e-4


def test_volterra_spectrum_collapses():
    g = gauss_legendre_grid(0.0, 1.0, panels=50, per_panel=8)
    pair = volterra(g)
    lam = np.linalg.eigvals(pair.v.kernel_matrix * pair.v.grid.weights[None, :])
    assert np.max(np.abs(lam)) <= 0.05
    # discrete V*V matches the product of discretizations at quadrature scale
    bv = pair.v.symmetrized
    assert operator_norm(bv.conj().T @ bv - pair.vstar_v.symmetrized) < 1e-3


def test_riesz_schauder_tail_volterra():
    g = gauss_legendre_grid(0.0, 1.0, panels=50, per_panel=8)
    mu = np.sort(np.abs(np.linalg.eigvalsh(volterra(g).vstar_v.symmetrized)))[::-1]
    assert mu[19] < 0.05 * mu[0]


# ---------------------------------------------------------------- homogeneous solutions

def test_q_zero_dirichlet_solutions_by_hand():
    # -y'' = 0 with the normative initial data (alpha1, -alpha0) = (0, -1):
    # v(x) = -x, u(x) = 1 - x, W = -1; the Green kernel t(1-x) is unaffected
    p = dirichlet_problem(0.0, 1.0, zero_q)
    sol = sl_homogeneous_solutions(p)
    xs = np.linspace(0.0, 1.0, 11)
    assert np.max(np.abs(sol.v_at(xs) - (-xs))) <= 1e-8
    assert np.max(np.abs(sol.u_at(xs) - (1.0 - xs))) <= 1e-8
    assert abs(abs(sol.wronskian) - 1.0) <= 1e-8


def test_backward_shot_mirrors_forward_shot():
    # q constant and Dirichlet ends: u(x) = -v(a + b - x) and u'(x) = v'(a + b - x),
    # and RK4 with step -h reproduces that mirror image exactly
    p = dirichlet_problem(0.0, 2.0, lambda x: 2.5 * np.ones_like(np.asarray(x, dtype=float)))
    sol = sl_homogeneous_solutions(p, h=2.0 / 512)
    assert np.array_equal(sol.u, -sol.v[::-1])
    assert np.array_equal(sol.up, sol.vp[::-1])
    assert abs(sol.v[-1]) > 1.0  # the shot has grown well away from its start


def sequential_rk4_shot(qs, hh, y0, p0):
    """The shot one RK4 step at a time: the sequential route that _rk4_linear's block products reproduce."""
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


@pytest.mark.parametrize("c", [0.0, -1.0, 50.0, 200.0])
@pytest.mark.parametrize("steps", [16, 17, 100, 4096, 4097])
def test_transfer_matrix_shot_matches_sequential_steps(c, steps):
    # the blocks are ceil(sqrt(steps)) wide: 16, 100 and 4096 steps fill 4, 10 and 64 blocks
    # exactly, while 17 and 4097 are not multiples of their 5- and 65-step blocks, so the
    # last block is padded with identity steps; q = 200 grows the shot to ~1e19
    h = np.pi / steps
    qs = c + 0.3 * np.cos((h / 2.0) * np.arange(2 * steps + 1))
    for q_dir, hh in ((qs, h), (qs[::-1], -h)):
        for y0, p0 in ((1.0, 0.0), (0.0, 1.0)):
            y, p = integral_ops._rk4_linear(q_dir, hh, y0, p0)
            y_ref, p_ref = sequential_rk4_shot(q_dir, hh, y0, p0)
            assert y.shape == p.shape == (steps + 1,)
            assert np.max(np.abs(y - y_ref)) <= 1e-13 * np.max(np.abs(y_ref))
            assert np.max(np.abs(p - p_ref)) <= 1e-13 * np.max(np.abs(p_ref))


def former_rk4_linear(qs, hh, y0, p0):
    """_rk4_linear as it was with its transfer matrices propagated in fixed blocks of 64 steps."""
    n = (qs.size - 1) // 2
    q0, qm, q1 = qs[0:-1:2], qs[1::2], qs[2::2]
    blocks = -(-n // 64)
    prefix = np.empty((blocks * 64, 2, 2))
    prefix[:n, 0, 0], prefix[:n, 1, 0] = integral_ops._rk4_step(q0, qm, q1, hh, 1.0, 0.0)
    prefix[:n, 0, 1], prefix[:n, 1, 1] = integral_ops._rk4_step(q0, qm, q1, hh, 0.0, 1.0)
    prefix[n:] = np.eye(2)
    prefix = prefix.reshape(blocks, 64, 2, 2)
    for j in range(1, 64):
        prefix[:, j] = prefix[:, j] @ prefix[:, j - 1]
    starts = np.empty((blocks, 2))
    starts[0] = y0, p0
    for b in range(1, blocks):
        starts[b] = prefix[b - 1, -1] @ starts[b - 1]
    nodes = (prefix @ starts[:, None, :, None]).reshape(-1, 2)[:n]
    return np.concatenate([[y0], nodes[:, 0]]), np.concatenate([[p0], nodes[:, 1]])


@pytest.mark.parametrize("c", [0.0, -1.0, 50.0, 200.0])
def test_default_shot_keeps_the_bits_of_the_64_step_blocks(c, monkeypatch):
    # at the default ODE_STEPS = 4096 the block width ceil(sqrt(n)) is 64, so every shot the
    # CLI runs multiplies its transfer matrices in the former order
    steps = integral_ops.ODE_STEPS
    h = np.pi / steps
    qs = c + 0.3 * np.cos((h / 2.0) * np.arange(2 * steps + 1))
    for q_dir, hh in ((qs, h), (qs[::-1], -h)):
        for y0, p0 in ((1.0, 0.0), (0.0, 1.0), (0.3, -2.0)):
            y, p = integral_ops._rk4_linear(q_dir, hh, y0, p0)
            y_ref, p_ref = former_rk4_linear(q_dir, hh, y0, p0)
            assert y.tobytes() == y_ref.tobytes() and p.tobytes() == p_ref.tobytes()
    p = SturmLiouvilleProblem(0.0, 1.0, lambda x: c + np.sin(5.0 * x), (1.0, 0.5), (0.0, 1.0))
    sol = sl_homogeneous_solutions(p)
    monkeypatch.setattr(integral_ops, "_rk4_linear", former_rk4_linear)
    ref = sl_homogeneous_solutions(p)
    for name in ("v", "vp", "u", "up"):
        assert getattr(sol, name).tobytes() == getattr(ref, name).tobytes()


def test_solutions_and_derivatives_match_closed_forms():
    # q = 2 with Dirichlet ends on [0, 2]: v = -sinh(r x) / r and v' = -cosh(r x)
    # for r = sqrt(2); u is the mirror image, u(x) = -v(2 - x) and u'(x) = v'(2 - x)
    r = np.sqrt(2.0)
    sol = sl_homogeneous_solutions(dirichlet_problem(0.0, 2.0, const_q(2.0)))
    assert np.all(sol.q_nodes == 2.0) and sol.q_nodes.shape == sol.xs.shape
    x = np.linspace(0.0, 2.0, 301)  # mostly between the RK4 nodes
    for got, want in ((sol.v_at(x), -np.sinh(r * x) / r), (sol.vp_at(x), -np.cosh(r * x)),
                      (sol.u_at(x), np.sinh(r * (2.0 - x)) / r), (sol.up_at(x), -np.cosh(r * (2.0 - x)))):
        assert np.all(np.abs(got - want) <= 1e-11 * (1.0 + np.abs(want)))


def test_wronskian_drift_small():
    p = dirichlet_problem(0.0, np.pi, lambda x: np.cos(x))
    sol = sl_homogeneous_solutions(p)
    assert sol.drift <= 1e-8


def test_sine_kernel_rejected_as_non_injective():
    # -y'' - y = 0 has solution sin x meeting Dirichlet conditions on [0, pi]
    p = dirichlet_problem(0.0, np.pi, lambda x: -np.ones_like(np.asarray(x, dtype=float)))
    with pytest.raises(NonInjectiveError):
        sl_homogeneous_solutions(p)


def test_complex_potential_rejected():
    p = dirichlet_problem(0.0, 1.0, lambda x: 1j * np.ones_like(np.asarray(x, dtype=float)))
    with pytest.raises(ValueError):
        sl_homogeneous_solutions(p)


@pytest.mark.parametrize(
    "q, message",
    [
        (lambda x: 1j * x, "complex potentials are not supported"),
        (lambda x: np.where(x > 0.5, np.nan, x), "potential not finite on the integration grid"),
        (lambda x: np.where(x > 0.5, np.nan, 1j * x), "potential not finite on the integration grid"),
    ],
    ids=["complex", "nan", "complex-nan"],
)
def test_potential_evaluation_rejects_complex_and_non_finite_values(q, message):
    xs = np.linspace(0.0, 1.0, 9)
    with pytest.raises(ValueError, match=rf"^{message}$"):
        integral_ops._eval_potential(q, xs)


# ---------------------------------------------------------------- green's functions

def test_green_closed_form_q_zero():
    p = dirichlet_problem(0.0, 1.0, zero_q)
    g = sl_green(p, sl_homogeneous_solutions(p))
    for x, t in ((0.8, 0.3), (0.5, 0.5), (0.2, 0.9)):
        want = t * (1.0 - x) if t <= x else x * (1.0 - t)
        assert abs(g(x, t) - want) <= 1e-8


def test_green_symmetry():
    p = dirichlet_problem(0.0, np.pi, lambda x: np.cos(x))
    g = sl_green(p, sl_homogeneous_solutions(p))
    mesh = np.linspace(0.1, np.pi - 0.1, 9)
    for x in mesh:
        for t in mesh:
            assert abs(g(x, t) - g(t, x)) <= 1e-10


def test_green_satisfies_left_boundary_condition():
    p = dirichlet_problem(0.0, 1.0, lambda x: 1.0 + 0.0 * np.asarray(x, dtype=float))
    g = sl_green(p, sl_homogeneous_solutions(p))
    for t in (0.2, 0.5, 0.9):
        assert abs(g(0.0, t)) <= 1e-10  # alpha = (1, 0): G(a, t) = 0


# ---------------------------------------------------------------- shift ladder

def test_shift_zero_for_injective_problem():
    assert sl_shift(dirichlet_problem(0.0, 1.0, zero_q)) == 0.0


@pytest.mark.parametrize("c", [50.0, 200.0])
def test_shift_zero_for_stiff_injective_problem(c):
    # the spectrum is k^2 + c > 0; |W| ~ 1e9 (c = 50) or 7e17 (c = 200) is far
    # below max|u| max|v|, but not below the terms u v' and u' v that cancel in W
    assert sl_shift(dirichlet_problem(0.0, np.pi, const_q(c))) == 0.0


def test_shift_finds_workable_mu():
    neg_one = lambda x: -np.ones_like(np.asarray(x, dtype=float))
    p = dirichlet_problem(0.0, np.pi, neg_one)
    mu = sl_shift(p)
    assert mu != 0.0
    sol = sl_homogeneous_solutions(p.shifted(mu))
    assert abs(sol.wronskian) > 0.0  # accepted by the ladder


def test_shifted_spectrum_translates():
    # q - mu translates every eigenvalue down by mu
    one_q = lambda x: np.ones_like(np.asarray(x, dtype=float))
    p = dirichlet_problem(0.0, np.pi, one_q)
    base = sl_eigensolve(p, n_nodes=240, k_wanted=5, check_refinement=False)
    mu = 3.0
    shifted = sl_eigensolve(p.shifted(mu), n_nodes=240, k_wanted=5, check_refinement=False)
    lam0 = sorted(m.lam for m in base)
    lam1 = sorted(m.lam + mu for m in shifted)
    for a, b in zip(lam0, lam1):
        # two separate discretizations: agreement at quadrature accuracy
        assert abs(a - b) <= 1e-3 * (1 + abs(a))


# ---------------------------------------------------------------- eigensolve

def test_dirichlet_laplacian_classical_spectrum():
    p = dirichlet_problem(0.0, np.pi, zero_q)
    modes = sl_eigensolve(p, n_nodes=400, k_wanted=5)
    for m, k in zip(modes, range(1, 6)):
        assert abs(m.lam - k * k) <= 0.005 * k * k
        # eigenfunction proportional to sin(kx) up to sign
        target = np.sin(k * m.nodes)
        target /= np.linalg.norm(target)
        got = np.real(m.samples) / np.linalg.norm(np.real(m.samples))
        align = abs(np.dot(got, target))
        assert align > 0.999


def test_constant_potential_shifts_spectrum():
    one_q = lambda x: np.ones_like(np.asarray(x, dtype=float))
    modes = sl_eigensolve(dirichlet_problem(0.0, np.pi, one_q), n_nodes=400, k_wanted=5)
    for m, k in zip(modes, range(1, 6)):
        want = k * k + 1.0
        assert abs(m.lam - want) <= 0.005 * want


def test_eigenfunction_gram_identity():
    p = dirichlet_problem(0.0, np.pi, zero_q)
    modes = sl_eigensolve(p, n_nodes=400, k_wanted=5)
    grid = gauss_legendre_grid(0.0, np.pi, panels=50, per_panel=8)
    samples = np.column_stack([m.samples for m in modes])
    gram = samples.conj().T @ (grid.weights[:, None] * samples)
    assert np.max(np.abs(gram - np.eye(5))) <= 1e-8


def test_noninjective_problem_solved_through_shift():
    # q = -1 on [0, pi]: lambda_k = k^2 - 1, including the zero eigenvalue
    neg_one = lambda x: -np.ones_like(np.asarray(x, dtype=float))
    modes = sl_eigensolve(dirichlet_problem(0.0, np.pi, neg_one), n_nodes=240, k_wanted=3)
    lams = sorted(m.lam for m in modes)
    for got, want in zip(lams, (0.0, 3.0, 8.0)):
        assert abs(got - want) <= 0.005 * (1 + want)
    assert [m.shift for m in modes] == [1.0] * 3  # mu = 0 is rejected, +1 accepted
    assert [blob["shift"] for blob in sl_modes_to_json(modes)] == [1.0] * 3


def test_eigensolve_stable_under_grid_doubling():
    p = dirichlet_problem(0.0, np.pi, lambda x: np.cos(x))
    coarse = sl_eigensolve(p, n_nodes=200, k_wanted=5, check_refinement=False)
    fine = sl_eigensolve(p, n_nodes=400, k_wanted=5, check_refinement=False)
    for c, f in zip(coarse, fine):
        assert abs(c.lam - f.lam) <= 1e-3 * abs(f.lam)


def test_eigenvalue_growth_ratio():
    modes = sl_eigensolve(dirichlet_problem(0.0, np.pi, zero_q), n_nodes=400, k_wanted=5)
    lams = sorted(abs(m.lam) for m in modes)
    assert lams[4] / lams[0] >= 20.0


def test_hs_compactness_bound():
    # sum of squared Green eigenvalues is the HS norm of the kernel
    p = dirichlet_problem(0.0, np.pi, zero_q)
    g = sl_green(p, sl_homogeneous_solutions(p))
    grid = gauss_legendre_grid(0.0, np.pi, panels=30, per_panel=8)
    op = nystrom(g, grid)
    mu = np.linalg.eigvalsh(op.symmetrized)
    assert float(np.sum(mu ** 2)) <= hs_norm(op) ** 2 + 1e-10


def test_riesz_schauder_tail_green():
    p = dirichlet_problem(0.0, np.pi, zero_q)
    g = sl_green(p, sl_homogeneous_solutions(p))
    grid = gauss_legendre_grid(0.0, np.pi, panels=30, per_panel=8)
    mu = np.sort(np.abs(np.linalg.eigvalsh(nystrom(g, grid).symmetrized)))[::-1]
    assert mu[19] < 0.05 * mu[0]


# ---------------------------------------------------------------- structured eigensolve vs dense route

def neg_one_q(x):
    return -np.ones_like(np.asarray(x, dtype=float))


SL_CASES = {
    "dirichlet-q0": dirichlet_problem(0.0, np.pi, zero_q),
    "dirichlet-q-1": dirichlet_problem(0.0, np.pi, neg_one_q),  # lambda = 0: through the ladder
    "dirichlet-cos": dirichlet_problem(0.0, np.pi, np.cos),
    # stiff: u and v grow like e^{sqrt(q) x}, to ~1e9 and ~1e17 at the far end
    "dirichlet-q50": dirichlet_problem(0.0, np.pi, const_q(50.0)),
    "dirichlet-q200": dirichlet_problem(0.0, np.pi, const_q(200.0)),
    "robin-neumann-x2": SturmLiouvilleProblem(0.0, 1.0, lambda x: np.asarray(x, dtype=float) ** 2,
                                              (1.0, -0.5), (0.0, 1.0)),
    "robin-q0": SturmLiouvilleProblem(0.0, np.pi, zero_q, (1.0, 1.0), (1.0, 0.5)),
}


def dense_sl_oracle(p, n_nodes, k_wanted):
    """The complex Nystrom route: sl_green sampled by nystrom, complex eigh, phase by argmax."""
    mu = sl_shift(p)
    shifted = p.shifted(mu)
    sols = sl_homogeneous_solutions(shifted)
    g = sl_green(shifted, sols)
    grid = gauss_legendre_grid(p.a, p.b, max(1, round(n_nodes / 8)), 8)
    op = nystrom(g, grid)
    wb, vb = np.linalg.eigh((op.symmetrized + op.symmetrized.conj().T) / 2.0)
    floor = 1e-13 * np.max(np.abs(wb))
    cand = [i for i in np.argsort(-np.abs(wb))[: 4 * k_wanted] if abs(wb[i]) > floor]
    chosen = sorted(((1.0 / wb[i] + mu, i) for i in cand), key=lambda t: abs(t[0]))[:k_wanted]
    samples = []
    for _, i in chosen:
        psi = vb[:, i]
        k0 = np.argmax(np.abs(psi))
        samples.append(psi * np.conj(psi[k0] / abs(psi[k0])) / np.sqrt(grid.weights))
    return np.array([lam for lam, _ in chosen]), samples, op, g, sols, grid


@pytest.mark.parametrize("name", sorted(SL_CASES))
def test_structured_eigensolve_matches_dense_route(name):
    p = SL_CASES[name]
    lams, samples, op, g, sols, grid = dense_sl_oracle(p, 240, 5)
    modes = sl_eigensolve(p, n_nodes=240, k_wanted=5, check_refinement=False)
    assert len(modes) == len(lams) == 5
    for m, lam, f in zip(modes, lams, samples):
        # max(1, |lambda|): q = -1 has lambda ~ 0 = 1/mu + 1, which both routes
        # get only to absolute roundoff
        assert abs(m.lam - lam) <= 1e-12 * max(1.0, abs(lam))
        # argmax sign rule ties on symmetric problems (sin 2x peaks at pi/4 and 3pi/4)
        assert min(np.max(np.abs(m.samples - f)), np.max(np.abs(m.samples + f))) <= 1e-10
    # the O(n) products against the dense tables they replace, componentwise:
    # |fast - dense| <= 1e-12 (|table| |vector|), a summation-order bound
    # (n eps = 5e-14 at n = 240) that a product cancelling between terms much
    # larger than the result cannot meet
    assert not np.any(op.kernel_matrix.imag)
    b = ((op.symmetrized + op.symmetrized.T) / 2.0).real
    matvec = integral_ops._green_matvec(sols.u_at(grid.nodes), sols.v_at(grid.nodes), sols.wronskian, grid)
    for y in np.random.default_rng(11).standard_normal((3, grid.size)):
        sy = matvec(y)
        assert sy.dtype == np.float64
        assert np.all(np.abs(sy - b @ y) <= 1e-12 * (np.abs(b) @ np.abs(y)))
    fine = np.linspace(p.a, p.b, 2001)
    table = g(fine[:, None], grid.nodes[None, :]).real
    f_nodes = np.column_stack([m.samples for m in modes])
    wf = grid.weights[:, None] * f_nodes
    u, v = sols.u_at(grid.nodes), sols.v_at(grid.nodes)
    ext = integral_ops._green_extension(u, v, sols.wronskian, grid, f_nodes, fine, sols.u_at(fine[:, None]), sols.v_at(fine[:, None]))
    assert np.all(np.abs(ext - table @ wf) <= 1e-12 * (np.abs(table) @ np.abs(wf)))


@pytest.mark.parametrize("name", ["dirichlet-q0", "dirichlet-q-1", "dirichlet-cos", "robin-q0"])
def test_residual_is_integral_equation_defect(name):
    # f = (lambda - shift) G f holds up to discretization error, which falls
    # about 4x per grid doubling; the old ODE-defect residual stayed near 1
    p = SL_CASES[name]
    coarse = sl_eigensolve(p, n_nodes=400, k_wanted=5, check_refinement=False)
    fine = sl_eigensolve(p, n_nodes=800, k_wanted=5, check_refinement=False)
    assert len(coarse) == len(fine) == 5
    for c, f in zip(coarse, fine):
        assert 0.0 < c.residual <= 1e-3
        assert f.residual <= c.residual / 3.0


def cumulative_trapezoid_residuals(solutions, x, f, scale):
    """The residual as it was written before _green_sums owned the prefix/suffix
    rule: its own cumulative trapezoid helper, suffixes by a reversed cumsum."""
    u = solutions.u_at(x)[:, None]
    v = solutions.v_at(x)[:, None]
    half = (x[1] - x[0]) / 2.0

    def cumulative(y):
        out = np.zeros_like(y)
        np.cumsum(half * (y[1:] + y[:-1]), axis=0, out=out[1:])
        return out

    left = cumulative(v * f)
    right = cumulative((u * f)[::-1])[::-1]
    defect = f - scale * (u * left + v * right) / solutions.wronskian
    return np.linalg.norm(defect, axis=0) / np.linalg.norm(f, axis=0)


@pytest.mark.parametrize("name", sorted(SL_CASES))
def test_residual_through_green_sums_equals_cumulative_trapezoid(name):
    p = SL_CASES[name]
    mu, sols = integral_ops._shift_ladder(p, integral_ops.SHIFT_LADDER_DEPTH)
    modes = sl_eigensolve(p, n_nodes=400, k_wanted=5, check_refinement=False)
    grid = integral_ops._panel_grid(p.a, p.b, 400)
    assert np.array_equal(grid.nodes, modes[0].nodes)
    fine = np.linspace(p.a, p.b, 2001)
    u, v = sols.u_at(fine[:, None]), sols.v_at(fine[:, None])
    f_nodes = np.column_stack([m.samples for m in modes])
    ext = integral_ops._green_extension(sols.u_at(grid.nodes), sols.v_at(grid.nodes), sols.wronskian, grid, f_nodes, fine, u, v)
    scale = np.array([m.lam for m in modes]) - mu
    rough = np.random.default_rng(13).standard_normal((fine.size, 3))  # not eigenfunctions: large defects
    for f, s in ((ext, scale), (rough, scale[:3])):
        got = integral_ops._sl_residuals(u, v, sols.wronskian, fine, f, s)
        assert np.array_equal(got, cumulative_trapezoid_residuals(sols, fine, f, s))


def test_residual_of_stiff_problem_has_no_suffix_cancellation():
    # u f grows to ~1e17 across [0, pi]; a suffix integral taken as the total
    # minus a prefix loses its digits there and read residuals of 0.10-0.26
    modes = sl_eigensolve(SL_CASES["dirichlet-q200"], n_nodes=400, k_wanted=5, check_refinement=False)
    assert len(modes) == 5
    assert all(0.0 < m.residual < 5e-3 for m in modes)


@pytest.mark.parametrize("k_wanted", [0, -1])
def test_eigensolve_rejects_k_wanted_below_one(k_wanted):
    with pytest.raises(ValueError, match="k_wanted"):
        sl_eigensolve(dirichlet_problem(0.0, np.pi, zero_q), n_nodes=80, k_wanted=k_wanted)


@pytest.mark.parametrize("n_nodes", [0, -8])
def test_eigensolve_rejects_n_nodes_below_one(n_nodes):
    # n_nodes = 0 used to solve quietly on one 8-node panel
    with pytest.raises(ValueError, match="^n_nodes must be an integer >= 1, got "):
        sl_eigensolve(dirichlet_problem(0.0, np.pi, zero_q), n_nodes=n_nodes)


@pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf])
def test_homogeneous_solutions_reject_bad_step(h):
    # h = 0 raised ZeroDivisionError and h = -0.1 quietly took 16 steps
    with pytest.raises(ValueError, match="^h must be finite and > 0, got "):
        sl_homogeneous_solutions(dirichlet_problem(0.0, np.pi, const_q(1.0)), h=h)


def test_grid_doubling_warning_and_drift():
    p = dirichlet_problem(0.0, np.pi, zero_q)
    with pytest.warns(RuntimeWarning, match=re.escape("eigenvalue 1 unstable under grid doubling (drift 1.94%)")):
        modes = sl_eigensolve(p, n_nodes=8, k_wanted=5)
    assert abs(modes[0].refine_drift - 0.0194) < 5e-5
    assert sl_modes_to_json(modes)[0]["refine_drift"] == modes[0].refine_drift
    settled = sl_eigensolve(p, n_nodes=400, k_wanted=5)
    assert all(0.0 < m.refine_drift <= 1e-3 for m in settled)


def test_lanczos_near_invariant_krylov_space_and_breakdown():
    # eigenvalues 3, 2, 1 above 197 of order 1e-10: after three steps the Krylov
    # space is nearly invariant (beta ~ 1e-10 |alpha|), where a single
    # Gram-Schmidt pass leaves the next vector ~1e-6 out of orthogonality and
    # copies of 3, 2, 1 return as spurious Ritz values
    d = np.concatenate([[3.0, 2.0, 1.0], 1e-10 * np.linspace(1.0, 2.0, 197)])
    theta, ritz = integral_ops._lanczos(lambda y: d * y, d.size, 8)
    # each Ritz value is within its residual bound, 1e-14 max|theta|, of an eigenvalue
    assert np.all(np.abs(theta - np.sort(d)[::-1][:8]) <= 1e-14 * 3.0)
    assert np.max(np.abs(ritz.T @ ritz - np.eye(8))) <= 1e-13
    # rank 3: the Krylov space is invariant after four steps (3, 2, 1 and the
    # start vector's null-space part), and the iteration stops there; the Ritz
    # value 0 is under the 1e-13 max|theta| floor, so three pairs are returned
    d[3:] = 0.0
    products = []
    theta, ritz = integral_ops._lanczos(lambda y: products.append(1) or d * y, d.size, 8)
    assert len(products) == 4
    assert ritz.shape == (d.size, 3)
    assert np.all(np.abs(theta - [3.0, 2.0, 1.0]) <= 1e-14 * 3.0)


def test_eigensolve_reruns_are_bitwise_equal():
    # the Lanczos start vector is seeded, so a second call repeats every bit
    p = SL_CASES["dirichlet-cos"]
    first, second = (sl_eigensolve(p, n_nodes=240, k_wanted=5) for _ in range(2))
    for a, b in zip(first, second):
        assert (a.lam, a.residual, a.refine_drift, a.shift) == (b.lam, b.residual, b.refine_drift, b.shift)
        assert np.array_equal(a.samples, b.samples)


def test_lanczos_diagonalizes_the_tridiagonal_only_where_it_can_stop(monkeypatch):
    # the m x m eigh and the stop test run from step 2 k_wanted = 10 on, every
    # 4th step, and each solve stops at step 22; testing at each step takes 40
    # calls over the two solves
    calls = []
    real = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    modes = sl_eigensolve(dirichlet_problem(0.0, np.pi, zero_q), n_nodes=400, k_wanted=5, check_refinement=True)
    assert len(calls) <= 8
    assert all(m.refine_drift is not None for m in modes)
    for m in modes:
        assert abs(m.lam - m.k ** 2) <= 1e-3 * m.k ** 2  # the 400-node discretization error


def fixed_pool_lambdas(p, n_nodes, k_wanted):
    """The 4 k_wanted pool rule: Lanczos until the 4 k_wanted largest |mu| have
    converged, then the k_wanted smallest |1/mu + shift| among them above 1e-13 max|mu|."""
    mu, sols = integral_ops._shift_ladder(p, integral_ops.SHIFT_LADDER_DEPTH)
    grid = integral_ops._panel_grid(p.a, p.b, n_nodes)
    matvec = integral_ops._green_matvec(sols.u_at(grid.nodes), sols.v_at(grid.nodes), sols.wronskian, grid)
    theta = integral_ops._lanczos(matvec, grid.size, 4 * k_wanted)[0]
    floor = 1e-13 * np.max(np.abs(theta))
    return np.array(sorted((1.0 / t + mu for t in theta if abs(t) > floor), key=abs)[:k_wanted])


@pytest.mark.parametrize("n_nodes", [240, 480])
@pytest.mark.parametrize("name", sorted(SL_CASES))
def test_certified_modes_match_the_fixed_pool(name, n_nodes):
    # the certificate stops Lanczos once the returned modes are certified; it
    # must pick the modes of the dense route and of the 4 k_wanted pool
    p = SL_CASES[name]
    dense = dense_sl_oracle(p, n_nodes, 5)[0]
    pool = fixed_pool_lambdas(p, n_nodes, 5)
    lams = np.array([m.lam for m in sl_eigensolve(p, n_nodes=n_nodes, k_wanted=5, check_refinement=False)])
    assert lams.size == dense.size == pool.size == 5
    assert np.all(np.abs(lams - dense) <= 1e-12 * np.maximum(1.0, np.abs(dense)))
    assert np.all(np.abs(lams - pool) <= 1e-13 * np.maximum(1.0, np.abs(pool)))


def test_certified_stop_waits_for_modes_outside_the_largest_mu():
    # L = diag(j^2) with shift 15.5: mu = 1/(j^2 - 15.5) is largest in modulus at
    # j = 4, 3, 5, so the 3 smallest lambda = 1, 4, 9 sit at mu ranks 5, 4 and 2.
    # Certifying lambda = 9 needs the converged prefix to reach |mu| <= 1/24.5.
    lam = np.arange(1, 301) ** 2.0
    shift = 15.5
    d = 1.0 / (lam - shift)
    calls = []
    apply = lambda y: calls.append(1) or d * y
    top = integral_ops._lanczos(apply, d.size, 3)[0]
    top_steps = len(calls)
    theta, ritz = integral_ops._lanczos(apply, d.size, 3, shift)
    # the 3 largest |mu| give lambda = 16, 9, 25, and converge first
    assert np.all(np.abs(1.0 / top + shift - [16.0, 9.0, 25.0]) <= 1e-13 * 25.0)
    assert len(calls) - top_steps > top_steps
    assert np.all(np.abs(1.0 / theta + shift - [1.0, 4.0, 9.0]) <= 1e-13 * 9.0)
    assert np.array_equal(np.argmax(np.abs(ritz), axis=0), [0, 1, 2])
    assert np.max(np.abs(ritz.T @ ritz - np.eye(3))) <= 1e-13


def test_eigensolve_green_products_are_bounded(monkeypatch):
    # the 4 k_wanted pool took 104 products over the solve and its re-solve
    products = []
    real = integral_ops._green_matvec

    def counting(*args):
        matvec = real(*args)
        return lambda y: products.append(1) or matvec(y)

    monkeypatch.setattr(integral_ops, "_green_matvec", counting)
    modes = sl_eigensolve(dirichlet_problem(0.0, np.pi, zero_q), n_nodes=400, k_wanted=5, check_refinement=True)
    assert len(modes) == 5 and all(m.refine_drift is not None for m in modes)
    assert len(products) <= 60


@pytest.mark.parametrize("check_refinement, calls", [(True, 6), (False, 4)])
def test_eigensolve_samples_each_point_set_once(monkeypatch, check_refinement, calls):
    # one call for u and one for v per point set: each solve's nodes, shared by
    # its product and the extension, and the 2001 points, shared by the
    # extension and the residual (400 + 800 + 2001 points each with the re-solve)
    points = []
    real = integral_ops._hermite_eval

    def counting(a, h, f, fp, x):
        points.append(np.size(x))
        return real(a, h, f, fp, x)

    monkeypatch.setattr(integral_ops, "_hermite_eval", counting)
    modes = sl_eigensolve(dirichlet_problem(0.0, np.pi, zero_q), n_nodes=400, k_wanted=5, check_refinement=check_refinement)
    assert len(modes) == 5
    assert len(points) == calls
    assert sum(points) == (6402 if check_refinement else 4802)


@pytest.mark.parametrize("shape", [(37,), (37, 3)])
def test_green_sums_read_by_slice_equal_the_gather(shape):
    # _green_matvec reads the sums at k = 1..n and _sl_residuals at k = 0..n - 1
    # (n - 1 trapezoid cells): slices, with the bits of the index gather
    rng = np.random.default_rng(17)
    lower, upper = rng.standard_normal((2,) + shape)
    ux, vx = rng.standard_normal((2,) + shape)
    n = shape[0]
    got = integral_ops._green_sums(lower, upper, ux, vx, slice(1, None))
    assert got.tobytes() == integral_ops._green_sums(lower, upper, ux, vx, np.arange(1, n + 1)).tobytes()
    ux, vx = rng.standard_normal((2, n + 1) + shape[1:])
    got = integral_ops._green_sums(lower, upper, ux, vx, slice(None))
    assert got.tobytes() == integral_ops._green_sums(lower, upper, ux, vx, np.arange(n + 1)).tobytes()


def test_eigensolve_memory_is_linear_in_nodes(monkeypatch):
    # at n = 4000 a dense grid-doubling matrix would take 8000^2 doubles (512 MB)
    # and the 2001 x n extension table 64 MB; the Lanczos basis takes O(n steps)
    n = 4000
    dense = []
    for name in ("eigh", "eigvalsh"):
        def counting(a, *args, _real=getattr(np.linalg, name), **kwargs):
            if np.shape(a)[-1] >= n:
                dense.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    tracemalloc.start()
    try:
        modes = sl_eigensolve(dirichlet_problem(0.0, np.pi, zero_q), n_nodes=n, k_wanted=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dense == []
    assert peak < 50e6
    for m in modes:
        assert abs(m.lam - m.k ** 2) <= 1e-5 * m.k ** 2
        assert m.refine_drift <= 1e-5


def test_refinement_reuses_shift_and_solutions(monkeypatch):
    shots = []
    shoot = integral_ops.sl_homogeneous_solutions

    def counting(problem, *args, **kwargs):
        shots.append(problem)
        return shoot(problem, *args, **kwargs)

    monkeypatch.setattr(integral_ops, "sl_homogeneous_solutions", counting)
    modes = sl_eigensolve(dirichlet_problem(0.0, np.pi, neg_one_q), n_nodes=80, k_wanted=3)
    assert len(shots) == 2  # mu = 0 is rejected, mu = +1 accepted; none for the 2n check
    assert all(m.refine_drift is not None for m in modes)


# ---------------------------------------------------------------- rayleigh refinement

def test_rayleigh_diagonal_case():
    vals, vecs = rayleigh_refine(np.diag([1.0, 2.0, 3.0]), 3)
    np.testing.assert_allclose(vals, [1.0, 2.0, 3.0], atol=1e-10)
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1.0
        assert abs(abs(np.vdot(vecs[:, j], e)) - 1.0) < 1e-8


def test_rayleigh_matches_eigensolve():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    b = m @ m.conj().T + 0.5 * np.eye(8)
    vals, _ = rayleigh_refine(b, 5)
    want = np.linalg.eigvalsh(b)[:5]
    np.testing.assert_allclose(vals, want, atol=1e-8)
    assert np.all(np.diff(vals) >= 0.0)


def test_rayleigh_resolves_a_near_degenerate_cluster():
    # Courant-Fischer: the successive minima are eigenpairs, also 1e-9 apart
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    spectrum = np.array([1.0, 1.0 + 1e-9, 1.0 + 2e-9, 2.0, 3.0, 4.0, 5.0, 6.0])
    b = (q * spectrum) @ q.conj().T
    vals, vecs = rayleigh_refine(b, 5)
    want = np.linalg.eigvalsh(b)[:5]
    assert np.max(np.abs(vals - want) / want) <= 1e-12
    assert np.max(np.linalg.norm(b @ vecs - vecs * vals, axis=0)) <= 1e-12 * operator_norm(b)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(5))) <= 1e-12


def test_rayleigh_rejects_non_positive():
    with pytest.raises(ValueError, match="matrix is not positive within tolerance"):
        rayleigh_refine(np.diag([1.0, -1.0]), 2)
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))
    with pytest.raises(ValueError, match="matrix is not positive within tolerance"):
        rayleigh_refine((q * np.linspace(-1e-3, 1.0, 40)) @ q.conj().T, 3)


@pytest.mark.parametrize("n", [8, 40, 400])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("place", [-0.5, -0.75, -1.25, -2.0])
def test_rayleigh_verdict_matches_a_cholesky_of_the_shifted_hermitian_part(n, dtype, place):
    # the verdict is read off eigh's eigenvalues: lambda_min < -1e-10 (1 + max |lambda|).  It
    # agrees with a Cholesky factor of (B + B*) / 2 + 1e-10 (1 + ||B||) I when lambda_min sits
    # at -0.5 or -2 times that shift, and between them: a threshold halved flips -0.75, one
    # doubled flips -1.25
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, n))
    if dtype is np.complex128:
        x = x + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(x)
    spectrum = np.linspace(0.25, 3.0, n)
    spectrum[0] = place * 1e-10 * (1.0 + 3.0)
    b = (q * spectrum) @ q.conj().T
    b[0, -1] += 1e-14  # Hermitian to roundoff, not exactly
    shift = 1e-10 * (1.0 + operator_norm(b))
    try:
        np.linalg.cholesky((b + b.conj().T) / 2.0 + shift * np.eye(n))
        positive = True
    except np.linalg.LinAlgError:
        positive = False
    assert positive == (place > -1.0)
    if positive:
        vals, _ = rayleigh_refine(b, 3)
        assert vals[0] == pytest.approx(spectrum[0], abs=1e-12)
    else:
        with pytest.raises(ValueError, match="^matrix is not positive within tolerance$"):
            rayleigh_refine(b, 3)


def test_rayleigh_holds_two_matrices():
    # eigh gets one new Hermitian part (B + B*) / 2, and its eigenvalues give the positivity
    # verdict: at most that part and the eigenvectors are held, 2 * 16 n^2
    n = 400
    rng = np.random.default_rng(400)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = m @ m.conj().T / n + np.eye(n)
    rayleigh_refine(b, 5)  # first call: lazy set-up
    tracemalloc.start()
    try:
        vals, vecs = rayleigh_refine(b, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    w, v = np.linalg.eigh((b + b.conj().T) / 2.0)
    assert vals.tobytes() == w[:5].tobytes() and vecs.tobytes() == v[:, :5].tobytes()
    assert peak <= 2.05 * 16 * n * n


def test_rayleigh_and_hermitian_defect_keep_the_bits_of_the_written_out_expressions():
    # Hermitian to roundoff, not exactly: (B + B*) / 2 differs from B, and it is (B + B*) / 2
    # that is diagonalized
    rng = np.random.default_rng(11)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    b = m @ m.conj().T + 0.5 * np.eye(8)
    b[0, 1] += 1e-13
    vals, vecs = rayleigh_refine(b, 5)
    w, v = np.linalg.eigh((b + b.conj().T) / 2.0)
    assert vals.tobytes() == w[:5].tobytes() and vecs.tobytes() == v[:, :5].tobytes()
    g = gauss_legendre_grid(0.0, 1.0, panels=2, per_panel=4)
    op = nystrom(lambda x, y: np.exp(1j * (x - y)) + 1e-3 * x * y * (x - y), g)
    sym = op.symmetrized
    assert op.hermitian_defect() == float(np.max(np.abs(sym - sym.conj().T))) > 0.0


# ---------------------------------------------------------------- config and export

def test_problem_from_config(tmp_path):
    cfg = tmp_path / "problem.cfg"
    cfg.write_text("# harmonic well\ninterval = 0, 3.14159\nq = const:1.0\n"
                   "bc_left = 1, 0\nbc_right = 1, 0\n")
    p = sl_problem_from_config(str(cfg))
    assert p.a == 0.0 and abs(p.b - 3.14159) < 1e-12
    assert float(p.q(0.5)) == 1.0
    assert p.bc_left == (1.0, 0.0)
    cfg.write_text("interval = 0, 1  # unit interval\nq = zero  # free particle\n")
    p = sl_problem_from_config(str(cfg))
    assert (p.a, p.b) == (0.0, 1.0)
    # zero and one are const:0 and const:1, with the bits of +0.0 and 1.0
    x = np.linspace(-1.0, 1.0, 5)
    assert p.q(x).tobytes() == np.zeros(5).tobytes()
    cfg.write_text("interval = 0, 1\nq = one\n")
    assert sl_problem_from_config(str(cfg)).q(x).tobytes() == np.ones(5).tobytes()


def test_problem_from_config_reads_a_polynomial_potential(tmp_path):
    # q = poly:c0,c1 is c0 + c1 x, and the problem solves as the one built directly
    cfg = tmp_path / "poly.cfg"
    cfg.write_text("interval = 0, 2\nq = poly: 1.5, -0.25\nbc_left = 1, 0\nbc_right = 0, 1\n")
    p = sl_problem_from_config(str(cfg))
    x = np.linspace(0.0, 2.0, 9)
    assert p.q(x).tobytes() == (1.5 + x * -0.25).tobytes()
    direct = SturmLiouvilleProblem(0.0, 2.0, lambda t: 1.5 - 0.25 * np.asarray(t), (1.0, 0.0), (0.0, 1.0))
    got, want = sl_homogeneous_solutions(p), sl_homogeneous_solutions(direct)
    assert got.v.tobytes() == want.v.tobytes() and got.u.tobytes() == want.u.tobytes()


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("interval = 0,1\nwavelength = 3\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2: unknown key 'wavelength'"):
        sl_problem_from_config(str(cfg))


@pytest.mark.parametrize("line, key", [
    ("q = const:inf", "q"), ("q = poly:1,nan", "q"), ("q = poly:", "q"), ("q = const:", "q"),
    ("interval = 0", "interval"), ("interval = 0,1,2", "interval"), ("interval = 0,x", "interval"),
])
def test_config_rejects_a_bad_number_by_file_and_key(tmp_path, line, key):
    # non-finite potentials loaded, and a missing, extra or malformed number raised an unpack or float message
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(("" if line.startswith("interval") else "interval = 0, 1\n") + line + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(cfg))}: {key} must be .* finite number"):
        sl_problem_from_config(str(cfg))


def test_modes_export(tmp_path):
    modes = sl_eigensolve(dirichlet_problem(0.0, np.pi, zero_q), n_nodes=80,
                          k_wanted=2, check_refinement=False)
    path = tmp_path / "modes.csv"
    sl_modes_to_csv(modes, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,lambda,residual"
    assert len(lines) == 3
    blob = sl_modes_to_json(modes)
    assert blob[0]["k"] == 1
    assert blob[0]["refine_drift"] is None
    assert blob[0]["shift"] == 0.0
    assert len(blob[0]["samples"]) == len(modes[0].nodes)
