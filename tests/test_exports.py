"""Every name that a latgate module exports resolves, and is exported once:
a deletion cannot leave a dangling export, in the package or in a module.
The package exports exactly its library modules' names.

`latgate.__main__` is left out: importing it runs the command line.
"""

import importlib
import pkgutil

import pytest

import latgate

MODULES = ["latgate"] + sorted(
    f"latgate.{info.name}" for info in pkgutil.iter_modules(latgate.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert [n for n in exported if exported.count(n) > 1] == []
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_module_is_checked():
    assert {"latgate", "latgate.core", "latgate.charvec", "latgate.enumeration",
            "latgate.cli", "latgate._pykernel"} <= set(MODULES)


def test_package_republishes_its_library_modules():
    # the package's public names are its library modules' own, declared
    # once there: the command line and the pure-Python kernel stay out
    library = ["catalog", "charvec", "core", "enumeration", "errors", "formats",
               "manifold", "selftest"]
    names = {"__version__"}.union(
        *(importlib.import_module(f"latgate.{m}").__all__ for m in library))
    assert set(latgate.__all__) == names
    assert "main" not in names
