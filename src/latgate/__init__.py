"""Exact-arithmetic toolkit for unimodular quadratic forms and the
four-manifold realizability pipeline built on them.

Everything is integer or Fraction arithmetic end to end: classification
(determinant, inertia, parity), shortest-vector style enumeration over
shifted lattices, the minimal characteristic vector and its dichotomy, and
the surgery/moduli bookkeeping that turns a negative definite intersection
form into a Realizable/Forbidden verdict.

The package's public names are those of its library modules, each declared
once, in its own module's `__all__`, and republished here; `cli` and the
pure-Python kernel stay out. A name is loaded on first use (PEP 562), so
importing the package, or one module of it, imports no module it does not
need. A submodule name resolves to the submodule before any module is
searched, so `from latgate import cli` loads what `import latgate.cli` does;
`__main__` is not resolved, because importing it runs the command line.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_MODULES = ("catalog", "charvec", "core", "enumeration", "errors", "formats", "manifold",
            "selftest")


def __getattr__(name: str):
    if name in _MODULES or name in ("cli", "_pykernel"):
        return _import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = ["__version__",
                 *(n for m in _MODULES for n in _import_module(f"{__name__}.{m}").__all__)]
    else:
        for m in _MODULES:
            module = _import_module(f"{__name__}.{m}")
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
