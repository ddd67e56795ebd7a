"""Every name that a latgate module exports resolves, and is exported once:
a deletion cannot leave a dangling export, in the package or in a module.

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
