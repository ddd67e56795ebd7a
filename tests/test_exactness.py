"""No float decides anything: no module of latgate divides with `/`, writes
a float literal, uses a `math` name that works in floats, imports `cmath`
or names `pi`, `sqrt` and the like from anywhere.  The one `float` in the
package is the type test in `formats._key`, which writes a float dict key
as json does.  The modules are read as source, not imported.
"""

import ast
import math
from pathlib import Path

import pytest

import latgate

SOURCES = sorted(Path(latgate.__file__).parent.glob("*.py"))

# the math functions that take and return ints exactly; every other public
# name of math (sqrt, pi, exp, log, floor, ...) works in floats, and every
# name of cmath works in complex numbers
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}
FLOAT_MATH = {name for name in dir(math) if not name.startswith("_")} - INTEGER_MATH
# float names that other modules (cmath, numpy) publish too: found as a bare
# name or as an attribute of anything, wherever they were imported from
FLOAT_NAMES = {"pi", "tau", "sqrt", "inf", "nan"}


def float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each float use in `tree`, the `float` names aside."""
    math_names = {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.Import) for alias in node.names
                  if alias.name == "math"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "/"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "/="))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, "import cmath") for alias in node.names
                      if alias.name == "cmath"]
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"{node.module}.{alias.name}") for alias in node.names
                      # a star import hides the names it binds
                      if node.module == "cmath" or alias.name in FLOAT_NAMES or alias.name == "*"
                      or node.module == "math" and alias.name in FLOAT_MATH]
        elif isinstance(node, ast.Attribute) and (
                node.attr in FLOAT_NAMES or isinstance(node.value, ast.Name)
                and node.value.id in math_names and node.attr in FLOAT_MATH):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id in FLOAT_NAMES:
            found.append((node.lineno, node.id))
    return found


def float_names(tree: ast.AST) -> tuple[int, int]:
    """(all, allowed): the `float` names in `tree`, and those that are the
    type argument of an `isinstance` call."""
    allowed = sum(1 for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2
                  and isinstance(node.args[1], ast.Name) and node.args[1].id == "float")
    total = sum(1 for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "float")
    return total, allowed


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_float_arithmetic(path):
    assert float_uses(ast.parse(path.read_text(), filename=str(path))) == []


def test_one_float_type_test():
    # the only float name is the json type test of `formats._key`
    names = {p.stem: float_names(ast.parse(p.read_text())) for p in SOURCES}
    assert {stem: n for stem, n in names.items() if n != (0, 0)} == {"formats": (1, 1)}


def test_every_module_is_read():
    assert {"__init__", "_pykernel", "core", "enumeration", "charvec", "formats",
            "manifold", "cli"} <= {p.stem for p in SOURCES}


def test_the_scan_sees_floats():
    # each kind of float use the scan must report
    source = ("import math as m\nfrom math import sqrt, isqrt\n"
              "x = 1 / 2\nx /= 3\ny = 0.5\nz = m.pi\nw = isqrt(4)\n"
              "import cmath, numpy\nfrom cmath import phase\nfrom numpy import tau\n"
              "v = numpy.pi + cmath.sqrt(2) + sqrt(2) + pi + m.floor(v)\n"
              "from os import *\nu = m.gcd(4, 6)\n")
    assert sorted(float_uses(ast.parse(source))) == [
        (2, "math.sqrt"), (3, "/"), (4, "/="), (5, "0.5"), (6, "m.pi"), (8, "import cmath"),
        (9, "cmath.phase"), (10, "numpy.tau"), (11, "cmath.sqrt"), (11, "m.floor"),
        (11, "numpy.pi"), (11, "pi"), (11, "sqrt"), (12, "os.*")]
    assert float_names(ast.parse("float(1)\nisinstance(x, float)\n")) == (2, 1)
