"""Every public name a module lists resolves and is re-exported by the package."""

import importlib
import pkgutil

import pytest

import skewenergy

# __main__ runs the command line when imported, and exports nothing
MODULES = [
    name
    for _, name, _ in pkgutil.iter_modules(skewenergy.__path__, "skewenergy.")
    if name != "skewenergy.__main__" and hasattr(importlib.import_module(name), "__all__")
]


def test_modules_with_exports_found():
    assert "skewenergy.subgraphs" in MODULES and "skewenergy.energy" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_all_resolves_and_is_reexported(module):
    mod = importlib.import_module(module)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.__all__ lists missing {name}"
        assert getattr(skewenergy, name, None) is getattr(mod, name), (
            f"skewenergy does not re-export {module}.{name}"
        )
