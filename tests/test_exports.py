"""Every name that a latgate module exports resolves, and is exported once:
a deletion cannot leave a dangling export, in the package or in a module.
The package exports exactly its library modules' names, and loads each on
first use.

`latgate.__main__` is left out: importing it runs the command line.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import latgate

LIBRARY = ["catalog", "charvec", "core", "enumeration", "errors", "formats", "manifold",
           "selftest"]

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
    names = {"__version__"}.union(
        *(importlib.import_module(f"latgate.{m}").__all__ for m in LIBRARY))
    assert set(latgate.__all__) == names
    assert "main" not in names


# each check runs after a bare `import latgate` in a fresh isolated
# interpreter, so that no import made by another test can hide a lazy name
LAZY_CHECKS = {
    "loads_nothing_until_asked": """
        assert [m for m in sys.modules if m.startswith("latgate.")] == []
        assert latgate.manifold is sys.modules["latgate.manifold"]
        assert latgate.manifold.ManifoldDescriptor is latgate.ManifoldDescriptor
    """,
    "names_are_their_modules_own": """
        import importlib
        got = {n: getattr(latgate, n) for n in latgate.__all__}
        home = {n: importlib.import_module(f"latgate.{m}")
                for m in LIBRARY for n in importlib.import_module(f"latgate.{m}").__all__}
        assert set(got) - set(home) == {"__version__"}
        assert [n for n in home if got[n] is not getattr(home[n], n)] == []
    """,
    "star_binds_all": """
        bound = {}
        exec("from latgate import *", bound)
        del bound["__builtins__"]
        assert sorted(bound) == sorted(latgate.__all__)
    """,
    "dir_lists_all": """
        assert set(latgate.__all__) <= set(dir(latgate))
    """,
    "from_import_cli_loads_only_what_cli_needs": """
        from latgate import cli
        assert cli is sys.modules["latgate.cli"]
        assert [m for m in ("latgate.manifold", "latgate.selftest") if m in sys.modules] == []
        from latgate import _pykernel
        assert _pykernel is sys.modules["latgate._pykernel"]
        assert not {"cli", "_pykernel"} & set(latgate.__all__)
    """,
    "main_module_does_not_resolve": """
        try:
            latgate.__main__
        except AttributeError:
            pass
        else:
            raise AssertionError("latgate.__main__ resolved")
        assert "latgate.__main__" not in sys.modules
    """,
    "unknown_name_raises": """
        try:
            latgate.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc), exc
        else:
            raise AssertionError("latgate.no_such_name resolved")
    """,
}


@pytest.mark.parametrize("check", LAZY_CHECKS)
def test_package_loads_names_lazily(check):
    src = os.path.dirname(os.path.dirname(latgate.__file__))
    script = (f"import sys\nsys.path.insert(0, {src!r})\nimport latgate\nLIBRARY = {LIBRARY!r}\n"
              + textwrap.dedent(LAZY_CHECKS[check]))
    proc = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
