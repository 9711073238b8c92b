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


def test_each_shared_rule_has_one_site():
    leggauss, two_norm, square, set_distance, cumsum, integral_op, float_view = [], [], [], [], [], [], []
    for module, owner, node in _source_nodes():
        if isinstance(node, ast.Compare) and re.search(r"shape\[-?[02]\] != \S*shape\[-?1\]", ast.unparse(node)):
            square.append((module, owner))
        if not isinstance(node, ast.Call):
            continue
        func = ast.unparse(node.func)
        if func.split(".")[-1] == "leggauss":
            leggauss.append((module, owner))
        if func.split(".")[-1] == "cumsum":
            cumsum.append((module, owner))
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
    # every operator is sampled, checked and symmetrized in one place
    assert integral_op == [("integral_ops.py", "nystrom")]
    assert float_view == [], "np.isfinite reads both parts of complex data"
