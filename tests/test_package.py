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
    """The functions that combine a matrix X with its adjoint X*: {"+": sites of X + X*, "-": sites of X - X*}.

    X* is written X.conj().T, X.conj().swapaxes(-2, -1) or np.conjugate(X.T or X.swapaxes(-2, -1)), inline,
    or as a name bound to it in the same function (assigned, or the out= of np.conjugate); X + X* and X - X*
    are written as operators or as np.add and np.subtract.  X may be a block X[..., rows, cols] of a matrix,
    whose adjoint is then read from the block X[..., cols, rows].
    """
    def adjoint_of(text):
        match = re.fullmatch(r"(.+)\.conj\(\)\.(?:T|swapaxes\(-2, -1\))|np\.conjugate\((.+)\.(?:T|swapaxes\(-2, -1\))\)", text)
        return match and (match[1] or match[2])

    def mirrored(text):
        """The block with the last two indices swapped, for a block X[..., rows, cols]; else the text itself."""
        node = ast.parse(text, mode="eval").body
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple) and len(node.slice.elts) >= 2:
            node.slice.elts[-2:] = node.slice.elts[:-3:-1]
        return ast.unparse(node)

    nodes = list(_source_nodes())
    bound = {}  # (module, owner, name) -> the Xs whose adjoints the name holds
    for module, owner, node in nodes:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and adjoint_of(ast.unparse(node.value)):
            bound.setdefault((module, owner, ast.unparse(node.targets[0])), set()).add(adjoint_of(ast.unparse(node.value)))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.conjugate" and node.args:
            for out in (k.value for k in node.keywords if k.arg == "out"):
                x = adjoint_of(f"np.conjugate({ast.unparse(node.args[0])})")
                bound.setdefault((module, owner, ast.unparse(out)), set()).add(x)
    sites = {"+": set(), "-": set()}
    for module, owner, node in nodes:
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            sign, x, y = "+" if isinstance(node.op, ast.Add) else "-", node.left, node.right
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.add", "np.subtract") and len(node.args) >= 2:
            sign, (x, y) = "+" if ast.unparse(node.func) == "np.add" else "-", node.args[:2]
        else:
            continue
        x, y = ast.unparse(x), ast.unparse(y)
        adjoints = {adjoint_of(y), *bound.get((module, owner, y), ())}
        if {x, mirrored(x)} & adjoints:
            sites[sign].add((module, owner))
    return {sign: sorted(found) for sign, found in sites.items()}


def test_each_shared_rule_has_one_site():
    leggauss, two_norm, square, set_distance, cumsum, integral_op, float_view = [], [], [], [], [], [], []
    negative_tolerance, margin, integer_test, real_kinds, lanczos = [], [], [], [], []
    real_split, real_split_calls, adjoint_product, synthesize, hermitian_part, hermitian_defect = [], [], [], [], [], []
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
    # counts, scales and intervals are each checked by one helper, with one message;
    # cli._fmt's integer test picks a number format and checks no argument
    assert rule_texts == {
        "must be an integer >=": [("linalg_core.py", "_require_count")],
        "must be finite and > 0": [("linalg_core.py", "_require_scale")],
        "must be a finite interval": [("linalg_core.py", "_require_interval")],
        # a function is evaluated on a spectrum, and its failures named, in one place
        "evaluator undefined at eigenvalue": [("spectral_fd.py", "_values_on_spectrum")],
        "evaluator not finite at eigenvalue": [("spectral_fd.py", "_values_on_spectrum")],
    }
    assert sorted(integer_test) == [("cli.py", "_fmt"), ("linalg_core.py", "_require_count")]


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
