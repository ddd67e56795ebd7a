"""Built-in Gram matrices and the id grammar that names them.

Ids: `Zn:<n>` (or `Z<n>`) for the standard form, `E8` for the even rank-8
form, `D<n>` for the index-4 even sublattice of Z^n in its root basis, and
`D<n>plus` (n divisible by 4) for its glue extension.  Sums join atoms with
`+`, e.g. `E8+Z1`.  An id of rank above `CATALOG_RANK_LIMIT` (256) is
refused from the id alone, before anything is built.

The D<n>plus basis is fixed as (1-indexed ambient coordinates):

    (1/2, ..., 1/2),  e2-e3, ..., e_{n-1}-e_n,  e_{n-1}+e_n

which generates the glue extension and has an integral Gram matrix of
determinant 1; parity is even exactly when n is divisible by 8.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import GramMatrix, direct_sum
from .errors import InvalidParameterError, UnknownIdError

__all__ = ["CatalogEntry", "catalog_get", "builtin_ids"]


@dataclass(frozen=True)
class CatalogEntry:
    """A named form with its frozen expected invariants.

    `expected` always carries "det" and "parity"; unimodular entries also
    carry the minimal characteristic norm "m" and "k" = (rank - m) / 8.
    """

    id: str
    gram: GramMatrix
    expected: dict


_E8_ROWS = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)

# the largest rank an id may name: building and classifying a form costs
# O(n^2) memory and O(n^3) time whether or not it is then searched
CATALOG_RANK_LIMIT = 256

_ZN_RE = re.compile(r"^(?:Zn:|Z)(\d+)$")
_DN_PLUS_RE = re.compile(r"^D(\d+)plus$")
_DN_RE = re.compile(r"^D(\d+)$")


def _zn_gram(n: int) -> GramMatrix:
    return GramMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def _dn_gram(n: int, glue: bool) -> GramMatrix:
    """The Gram matrix of D_n's root basis e1-e2, ..., e_{n-1}-e_n,
    e_{n-1}+e_n, written down entry by entry: 2 on the diagonal, -1 between
    consecutive difference roots, and the last root meets the
    third-to-last root at -1 and its neighbour at 0.  With `glue`, the
    D<n>plus basis: the glue vector (1/2, ..., 1/2) in place of e1-e2 has
    norm n/4, pairs to 1 with e_{n-1}+e_n and to 0 with every difference.
    """
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
    for i in range(n - 2):
        rows[i][i + 1] = rows[i + 1][i] = -1
    if n > 2:
        rows[n - 3][n - 1] = rows[n - 1][n - 3] = -1
    if glue:
        for j in range(n):
            rows[0][j] = rows[j][0] = 0
        rows[0][0] = n // 4
        rows[0][n - 1] = rows[n - 1][0] = 1
    return GramMatrix(tuple(map(tuple, rows)))


def _parse_atom(token: str) -> tuple[str, int]:
    """(family, n) of one id atom, checked but not built: the family is
    "E8", "Z", "Dplus" or "D", and n is the atom's rank."""
    if token == "E8":
        return "E8", 8
    match = _ZN_RE.match(token)
    if match:
        n = int(match.group(1))
        if n < 1:
            raise InvalidParameterError(f"{token!r}: rank must be at least 1")
        return "Z", n
    match = _DN_PLUS_RE.match(token)
    if match:
        n = int(match.group(1))
        if n < 4 or n % 4 != 0:
            raise InvalidParameterError(
                f"{token!r}: the glue vector is integral only when 4 divides n"
            )
        return "Dplus", n
    match = _DN_RE.match(token)
    if match:
        n = int(match.group(1))
        if n < 2:
            raise InvalidParameterError(f"{token!r}: rank must be at least 2")
        return "D", n
    raise UnknownIdError(f"unrecognized catalog id component {token!r}")


def _atoms(form_id: str) -> list[tuple[str, int]]:
    """The checked atoms of an id, in order, nothing built."""
    tokens = form_id.split("+")
    if not all(tokens):
        raise UnknownIdError(f"malformed catalog id {form_id!r}")
    return [_parse_atom(token) for token in tokens]


def _parse_id(form_id: str) -> list[tuple[str, int]]:
    """The checked atoms of an id, in order, nothing built.  Every atom is
    checked first; then an id whose rank, D<n> atoms included, is above
    `CATALOG_RANK_LIMIT` is refused."""
    atoms = _atoms(form_id)
    rank = sum(n for _, n in atoms)
    if rank > CATALOG_RANK_LIMIT:
        raise InvalidParameterError(
            f"catalog id {form_id!r} has rank {rank}, above the limit of {CATALOG_RANK_LIMIT}"
        )
    return atoms


def _unimodular_rank(form_id: str) -> int | None:
    """The rank of the form an id names, read from the id alone, when every
    atom is unimodular; None when some atom is a D<n> (determinant 4).  The
    catalog's rank limit is not applied, so a caller can check a smaller cap
    of its own first."""
    atoms = _atoms(form_id)
    return None if any(family == "D" for family, _ in atoms) else sum(n for _, n in atoms)


def _atom(family: str, n: int) -> tuple[GramMatrix, dict]:
    """Build one parsed atom; returns (gram, invariants).

    The invariant dict has det, even (bool) and, for unimodular atoms, the
    minimal characteristic norm m.
    """
    if family == "E8":
        return GramMatrix(_E8_ROWS), {"det": 1, "even": True, "m": 0}
    if family == "Z":
        return _zn_gram(n), {"det": 1, "even": False, "m": n}
    if family == "D":
        return _dn_gram(n, glue=False), {"det": 4, "even": True, "m": None}
    even = n % 8 == 0
    return _dn_gram(n, glue=True), {"det": 1, "even": even, "m": 0 if even else 4}


def catalog_get(form_id: str) -> CatalogEntry:
    """Resolve an id to its Gram matrix and frozen invariants.  Every atom
    is checked before any is built."""
    parts = [_atom(family, n) for family, n in _parse_id(form_id)]
    gram = parts[0][0]
    for other, _ in parts[1:]:
        gram = direct_sum(gram, other)
    det = 1
    even = True
    m: int | None = 0
    for _, info in parts:
        det *= info["det"]
        even = even and info["even"]
        m = None if (m is None or info["m"] is None) else m + info["m"]
    expected = {"det": det, "parity": "Even" if even else "Odd"}
    if m is not None and det in (1, -1):
        expected["m"] = m
        expected["k"] = (gram.rank - m) // 8
    return CatalogEntry(id=form_id, gram=gram, expected=expected)


def builtin_ids() -> tuple[str, ...]:
    """The stock catalog: Z^n up to n = 16, E8 and its Z paddings, E8+E8,
    and the two glue extensions used as goldens."""
    ids = [f"Zn:{n}" for n in range(1, 17)]
    ids.append("E8")
    ids.extend(f"E8+Z{k}" for k in range(1, 5))
    ids.extend(["E8+E8", "D12plus", "D16plus"])
    return tuple(ids)
