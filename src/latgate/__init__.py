"""Exact-arithmetic toolkit for unimodular quadratic forms and the
four-manifold realizability pipeline built on them.

Everything is integer or Fraction arithmetic end to end: classification
(determinant, inertia, parity), shortest-vector style enumeration over
shifted lattices, the minimal characteristic vector and its dichotomy, and
the surgery/moduli bookkeeping that turns a negative definite intersection
form into a Realizable/Forbidden verdict.

The package's public names are those of its library modules, each declared
once, in its own module's `__all__`, and republished here; `cli` and the
pure-Python kernel stay out.
"""

from . import catalog, charvec, core, enumeration, errors, formats, manifold, selftest
from .catalog import *
from .charvec import *
from .core import *
from .enumeration import *
from .errors import *
from .formats import *
from .manifold import *
from .selftest import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *catalog.__all__,
    *charvec.__all__,
    *core.__all__,
    *enumeration.__all__,
    *errors.__all__,
    *formats.__all__,
    *manifold.__all__,
    *selftest.__all__,
]
