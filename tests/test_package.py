"""The package namespace: the union of the library modules' __all__ lists."""

import importlib
import pkgutil

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
