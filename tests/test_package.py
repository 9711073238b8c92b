"""The package namespace, and one site in the source for each shared rule."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import speclab


def test_namespace_is_the_union_of_module_all_lists():
    owner = {}
    library = [m.name for m in pkgutil.iter_modules(speclab.__path__) if m.name != "cli"]
    assert len(library) == 6  # an empty walk would pass vacuously
    for module_name in library:
        module = importlib.import_module(f"speclab.{module_name}")
        for name in module.__all__:
            assert name not in owner, f"{name} is in both {owner[name]}.__all__ and {module_name}.__all__"
            owner[name] = module_name
            assert getattr(speclab, name) is getattr(module, name), f"speclab.{name} is not {module_name}.{name}"


def _source_nodes():
    """(file name, innermost enclosing function or None, node) for every AST node in src/speclab."""
    for path in sorted(Path(speclab.__file__).parent.glob("*.py")):
        stack = [(ast.parse(path.read_text()), None)]
        while stack:
            node, owner = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
            yield path.name, owner, node
            stack.extend((child, owner) for child in ast.iter_child_nodes(node))


def _hermitian_rule_sites():
    """The functions that combine a matrix X with an adjoint Y*: {"+": sites of X + Y*, "-": sites of X - Y*}.

    Y* is written Y.conj().T, Y.conj().swapaxes(-2, -1) or np.conjugate(Y.T or Y.swapaxes(-2, -1)), inline,
    or as a name bound to it in the same function (assigned, or the out= of np.conjugate); X + Y* and X - Y*
    are written as operators or as np.add and np.subtract.  Y may be X itself, its mirrored block X[..., cols,
    rows] for a block X[..., rows, cols], or any other array, so a mirror passed in apart from X counts too.
    """
    def adjoint_of(text):
        match = re.fullmatch(r"(.+)\.conj\(\)\.(?:T|swapaxes\(-2, -1\))|np\.conjugate\((.+)\.(?:T|swapaxes\(-2, -1\))\)", text)
        return match and (match[1] or match[2])

    nodes = list(_source_nodes())
    bound = {}  # (module, owner, name) -> the Ys whose adjoints the name holds
    for module, owner, node in nodes:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and adjoint_of(ast.unparse(node.value)):
            bound.setdefault((module, owner, ast.unparse(node.targets[0])), set()).add(adjoint_of(ast.unparse(node.value)))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.conjugate" and node.args:
            for out in (k.value for k in node.keywords if k.arg == "out"):
                y = adjoint_of(f"np.conjugate({ast.unparse(node.args[0])})")
                bound.setdefault((module, owner, ast.unparse(out)), set()).add(y)
    sites = {"+": set(), "-": set()}
    for module, owner, node in nodes:
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            sign, y = "+" if isinstance(node.op, ast.Add) else "-", node.right
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.add", "np.subtract") and len(node.args) >= 2:
            sign, y = "+" if ast.unparse(node.func) == "np.add" else "-", node.args[1]
        else:
            continue
        y = ast.unparse(y)
        if {adjoint_of(y), *bound.get((module, owner, y), ())} - {None}:
            sites[sign].add((module, owner))
    return {sign: sorted(found) for sign, found in sites.items()}


def test_each_shared_rule_has_one_site():
    leggauss, two_norm, square, set_distance, cumsum, integral_op, float_view = [], [], [], [], [], [], []
    negative_tolerance, margin, integer_test, real_kinds, lanczos = [], [], [], [], []
    real_split, real_split_calls, adjoint_product, synthesize, hermitian_part, hermitian_defect = [], [], [], [], [], []
    eigenvalue_norm, hermitian_norm, disc_grid, disc_rule = [], [], [], []
    finite_scan, trapezoid, positivity = [], [], []
    rule_texts = {"must be an integer >=": [], "must be finite and > 0": [], "must be a finite interval": [],
                  "evaluator undefined at eigenvalue": [], "evaluator not finite at eigenvalue": []}
    for module, owner, node in _source_nodes():
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for text, sites in rule_texts.items():
                if text in node.value:
                    sites.append((module, owner))
        if isinstance(node, ast.Constant) and node.value == "biuf":
            real_kinds.append((module, owner))
        if isinstance(node, ast.Tuple) and re.fullmatch(r"\((.+)\.real, \1\.imag\)", ast.unparse(node)):
            real_split.append((module, owner))
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) and module in ("linalg_core.py", "spectral_fd.py")
                and re.fullmatch(r".+\.conj\(\)\.(T|swapaxes\(-2, -1\))", ast.unparse(node.right))):
            adjoint_product.append((module, owner))
        if isinstance(node, ast.BinOp) and ast.unparse(node) == "1.0 + 1e-08":
            margin.append((module, owner))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "must be >= 0, got" in node.value:
            negative_tolerance.append((module, owner))
        if isinstance(node, ast.Compare) and re.search(r"shape\[-?[02]\] != \S*shape\[-?1\]", ast.unparse(node)):
            square.append((module, owner))
        if not isinstance(node, ast.Call):
            continue
        func = ast.unparse(node.func)
        if re.match(r"np\.max\(np\.abs\(np\.linalg\.eigvalsh\(", ast.unparse(node)):  # max |lambda| of an eigvalsh
            eigenvalue_norm.append((module, owner))
        if func.split(".")[-1] == "_hermitian_norm":
            hermitian_norm.append((module, owner))
        if module == "rkhs.py" and func.split(".")[-1] == "gauss_legendre_grid":
            disc_grid.append((module, owner))
        if func.split(".")[-1] == "_disc_rule":
            disc_rule.append((module, owner))
        if func.split(".")[-1] == "isfinite" and func != "math.isfinite":
            finite_scan.append((module, owner))
        if func.split(".")[-1] == "trapezoid":
            trapezoid.append((module, owner))
        if func.split(".")[-1] == "_check_positive":
            positivity.append((module, owner))
        if func == "isinstance" and ast.unparse(node.args[1]) == "(int, np.integer)":
            integer_test.append((module, owner))
        if func.split(".")[-1] == "leggauss":
            leggauss.append((module, owner))
        if func.split(".")[-1] == "cumsum":
            cumsum.append((module, owner))
        if func.split(".")[-1] == "_real_parts":
            real_split_calls.append((module, owner))
        if func.split(".")[-1] == "_synthesize":
            synthesize.append((module, owner))
        if func.split(".")[-1] == "_hermitian_part":
            hermitian_part.append((module, owner))
        if func.split(".")[-1] == "_hermitian_defect":
            hermitian_defect.append((module, owner))
        if func.split(".")[-1] == "_lanczos":
            lanczos.append((module, owner))
        if func.split(".")[-1] == "IntegralOperator":
            integral_op.append((module, owner))
        if func.endswith(".view") and [ast.unparse(a) for a in node.args] == ["float"]:
            float_view.append((module, owner))
        order = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
        if func.endswith("linalg.norm") and any(isinstance(o, ast.Constant) and o.value == 2 for o in order):
            two_norm.append((module, owner))
        if re.fullmatch(r".*\.min\(axis=-?\d\)\.max", func):  # a directed set distance
            set_distance.append((module, owner))
    assert leggauss == [("integral_ops.py", "_gauss_legendre")]
    assert two_norm == [], "operator_norm owns the 2-norm"
    assert square == [("linalg_core.py", "_require_square")]
    assert sorted(set_distance) == [("spectral_fd.py", "_set_distance")] * 2
    # the Green kernel's prefix and suffix sums, for the product, the extension and the residual
    assert cumsum == [("integral_ops.py", "_green_sums")] * 2
    # every Green eigenproblem, Sturm-Liouville or V*V, is solved through one entry point
    assert lanczos == [("integral_ops.py", "_green_eigs")]
    # every operator is sampled, checked and symmetrized in one place
    assert integral_op == [("integral_ops.py", "nystrom")]
    assert float_view == [], "np.isfinite reads both parts of complex data"
    # every tolerance is checked finite and >= 0 by one helper, with one message
    assert negative_tolerance == [("linalg_core.py", "_require_tolerance")]
    # sampled values (kernels, potentials, densities, boundary samples) are real or complex by one rule
    assert real_kinds == [("linalg_core.py", "_real_or_complex")]
    # data is split into its real parts in one place, and both real-arithmetic transforms use it
    assert real_split == [("measures.py", "_real_parts")]
    assert sorted(real_split_calls) == [("measures.py", "_density_fourier")] * 2 + [("measures.py", "poisson_smooth")]
    # every V diag(d) V^* is formed by one helper, which reads V^T as a view and copies no V^*
    assert adjoint_product == []
    assert sorted(synthesize) == [("linalg_core.py", "combine"), ("linalg_core.py", "projections"), ("spectral_fd.py", "evolve")]
    # (X + X*) / 2 and max |X - X*| are each formed in one place, in one buffer that is never a view of X
    assert _hermitian_rule_sites() == {"+": [("linalg_core.py", "_hermitian_part")], "-": [("linalg_core.py", "_hermitian_defect")]}
    assert sorted(hermitian_part) == [
        ("cli.py", "_hermitian_with_spectrum"), ("cli.py", "_hermitians"), ("cli.py", "worst_lowest_eigenvalue"),
        ("integral_ops.py", "rayleigh_refine"), ("integral_ops.py", "trace"),
        ("measures.py", "positive_definite_test"), ("spectral_fd.py", "commuting_diagonalization"),
    ]
    assert sorted(hermitian_defect) == [
        ("integral_ops.py", "hermitian_defect"), ("integral_ops.py", "trace"),
        ("linalg_core.py", "require_hermitian"), ("measures.py", "positive_definite_test"),
    ]
    # the Neumann skip's certified norm bounds clear their thresholds by one relative margin
    assert margin == [("spectral_fd.py", "_neumann_skip")]
    # the 2-norm of an exactly Hermitian matrix, max |lambda| of one eigvalsh, is taken in one place
    assert eigenvalue_norm == [("linalg_core.py", "_hermitian_norm")]
    assert sorted(hermitian_norm) == [
        ("cli.py", "block"), ("cli.py", "block"), ("cli.py", "block"), ("spectral_fd.py", "commuting_diagonalization"),
    ]
    # the disc rule is built in one place, once per size, and read by both of its users
    assert disc_grid == [("rkhs.py", "_disc_rule")]
    assert sorted(disc_rule) == [("rkhs.py", "dirichlet_seminorm_quad"), ("rkhs.py", "disc_quadrature")]
    # arrays are scanned for NaN and infinity by _first_non_finite; a stack's whole-stack mask names its matrix,
    # an interval's ends are scalars, and a JSON number and Neumann's tail norm are one float each
    assert sorted(finite_scan) == [
        ("cli.py", "_json_number"), ("linalg_core.py", "_first_non_finite"), ("linalg_core.py", "_first_non_finite"),
        ("linalg_core.py", "_require_interval"), ("linalg_core.py", "_require_interval"),
        ("linalg_core.py", "_require_stack"), ("linalg_core.py", "_require_stack"), ("spectral_fd.py", "neumann_resolvent"),
    ]
    # a density's integrals are sums against _trapezoid_weights; extract_atoms' window integrals keep np.trapezoid's bits
    assert trapezoid == [("measures.py", "extract_atoms")]
    # rayleigh_refine reads positivity off its own eigenvalues: the blocked Cholesky check serves trace alone
    assert positivity == [("integral_ops.py", "trace")]
    # counts, scales and intervals are each checked by one helper, with one message;
    # cli._number_format's integer test picks a number format and checks no argument
    assert rule_texts == {
        "must be an integer >=": [("linalg_core.py", "_require_count")],
        "must be finite and > 0": [("linalg_core.py", "_require_scale")],
        "must be a finite interval": [("linalg_core.py", "_require_interval")],
        # a function is evaluated on a spectrum, and its failures named, in one place
        "evaluator undefined at eigenvalue": [("spectral_fd.py", "_values_on_spectrum")],
        "evaluator not finite at eigenvalue": [("spectral_fd.py", "_values_on_spectrum")],
    }
    assert sorted(integer_test) == [("cli.py", "_number_format"), ("linalg_core.py", "_require_count")]


def test_private_helpers_have_a_src_caller():
    # a helper whose last caller is deleted is dead code, even while a test still calls it
    helpers = {
        node.name
        for path in Path(speclab.__file__).parent.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")
    }
    assert len(helpers) > 50  # an empty scan would pass vacuously
    called = set()
    for _, owner, node in _source_nodes():
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name in helpers and name != owner:
            called.add(name)
    assert sorted(helpers - called) == []


def test_grid_passes_take_their_chunks_from_row_blocks():
    # a pass cut by hand, range(lo, hi, _CHUNK), repeats _row_blocks' boundary rule
    loops = [
        (module, owner)
        for module, owner, node in _source_nodes()
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "range" and len(node.args) == 3
        and "_CHUNK" in ast.unparse(node.args[2])
    ]
    assert loops == []
    assert any(ast.unparse(node) == "_CHUNK" for _, _, node in _source_nodes())  # the scan reads the name
    # a chunk's row count, _CHUNK // (entries per row), is worked out in _row_blocks alone
    divisions = [
        (module, owner)
        for module, owner, node in _source_nodes()
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv) and ast.unparse(node.left) == "_CHUNK"
    ]
    assert divisions == [("linalg_core.py", "_row_blocks")]
