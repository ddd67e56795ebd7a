"""Exact arithmetic on integral symmetric bilinear forms.

Everything runs over arbitrary-precision integers and `Fraction`; no code
path here (or anywhere downstream) touches floating point.  Gram matrices
are immutable values and safe to share across threads.

One fraction-free integer elimination (`_bareiss`, which says how) serves
every invariant of every symmetric form: it gives the determinant, the
leading principal minors whose signs give the inertia of every form,
degenerate ones included, and the integer pivot rows that the lattice
searches read (`_reversed_pivots`, the rows of the coordinate-reversed
form, checked as `_positive_pivots` checks).  Each `GramMatrix` computes
its determinant and inertia once, on first use, and keeps them;
classification builds no Fraction.  `cholesky`, a public convenience,
reads the same rows as Fractions; no search uses it.

`_times` is the package's one matrix product, on rows of ints or
Fractions: the basis changes go through it.  The characteristic search
maps its minimizers back one coordinate at a time, and the oracle's
arithmetic (`pairing`, `evaluate` and the box scan) does not use it either,
so that a fault in the product cannot also hide from the cross-check.

`lll_reduce` is the all-integer LLL reduction of a positive definite form;
`_lll` computes it and hands back the pivot rows of the reduced form with
it.  `latgate.charvec` says which forms it reduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

from .errors import (
    BadShapeError,
    DegenerateFormError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    NotUnimodularTransformError,
)

__all__ = [
    "IntVector",
    "IntMatrix",
    "Definiteness",
    "Parity",
    "GramMatrix",
    "RationalCholesky",
    "validate",
    "determinant",
    "is_unimodular",
    "inertia",
    "definiteness",
    "signature",
    "parity",
    "direct_sum",
    "negate",
    "basis_change",
    "cholesky",
    "lll_reduce",
    "evaluate",
    "pairing",
]

IntVector = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]


class Definiteness(Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    NEGATIVE_DEFINITE = "NegativeDefinite"
    INDEFINITE = "Indefinite"
    DEGENERATE = "Degenerate"


class Parity(Enum):
    EVEN = "Even"
    ODD = "Odd"


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric integer matrix of inner products of a lattice basis.

    Construct through `from_rows`, which validates; the raw constructor is
    for internal call sites that already hold validated tuples.
    """

    entries: IntMatrix

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]]) -> "GramMatrix":
        g = GramMatrix(tuple(tuple(row) for row in rows))
        validate(g)
        return g

    @property
    def rank(self) -> int:
        return len(self.entries)

    def diagonal(self) -> IntVector:
        return tuple(self.entries[i][i] for i in range(self.rank))

    @cached_property
    def _det_and_inertia(self) -> tuple[int, tuple[int, int, int]]:
        """(determinant, inertia) from one elimination, computed on first use.

        `_bareiss` returns the nonzero leading minors d_1 .. d_r of a form
        congruent to this one, r its rank, so the form is congruent over Q
        to diag(d_1/d_0, .., d_r/d_{r-1}, 0, .., 0): each sign change
        along 1, d_1, .., d_r is a negative entry.
        """
        det, minors, _ = _bareiss(self.entries)
        neg = sum((a > 0) != (b > 0) for a, b in zip([1] + minors, minors))
        return det, (len(minors) - neg, neg, self.rank - len(minors))


def _times(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple[tuple, ...]:
    """The matrix product a b, matrices given as rows of ints or Fractions.

    Each row of the product is the sum of b's rows weighted by the row of
    a, over a's nonzero entries only, so a sparse factor costs little.
    """
    zero = (0,) * (len(b[0]) if b else 0)
    out = []
    for row in a:
        acc = zero
        for c, b_row in zip(row, b):
            if c:
                acc = tuple(x + c * y for x, y in zip(acc, b_row))
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class RationalCholesky:
    """Completed-squares data for a positive definite form.

    Q(y) = sum_i diag[i] * (y_i + sum_{j>i} upper[i][j] * y_j)^2, with every
    diag[i] > 0.  `upper` is a full square of Fractions, zero on and below
    the diagonal.
    """

    diag: tuple[Fraction, ...]
    upper: tuple[tuple[Fraction, ...], ...]

    def form_value(self, y: Sequence[Fraction]) -> Fraction:
        """Evaluate Q at a rational point, straight from the decomposition."""
        n = len(self.diag)
        total = Fraction(0)
        for i in range(n):
            inner = Fraction(y[i])
            for j in range(i + 1, n):
                inner += self.upper[i][j] * Fraction(y[j])
            total += self.diag[i] * inner * inner
        return total


def _exact(x, name: str) -> Fraction:
    """x as a Fraction when it is an int or a Fraction; a float, a bool, a
    string or anything else is refused with BadShapeError, not coerced."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise BadShapeError(f"{name} is not an int or a Fraction: {x!r}")
    return Fraction(x)


def validate(g: GramMatrix) -> None:
    """Raise unless g is a square symmetric matrix of Python ints, rank >= 1."""
    rows = g.entries
    n = len(rows)
    if n < 1:
        raise BadShapeError("rank must be at least 1")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise BadShapeError(f"row {i} has length {len(row)}, expected {n}")
        if not set(map(type, row)) <= {int}:  # find the first bad entry, if any
            for j, x in enumerate(row):
                if isinstance(x, bool) or not isinstance(x, int):
                    raise BadShapeError(f"entry ({i},{j}) is not an integer: {x!r}")
    if tuple(zip(*rows)) != rows:  # find the first asymmetric pair, if any
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise NotSymmetricError(
                        f"entries ({i},{j})={rows[i][j]} and ({j},{i})={rows[j][i]} differ"
                    )


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, list[int], list[list[int]]]:
    """Fraction-free elimination (Bareiss 1968) of a symmetric matrix; every
    division is exact.

    Returns (det, minors, pivot_rows).  When the next pivot m[k][k] is 0, a
    determinant +-1 congruence of rows and columns k.. brings in a nonzero
    one: a later nonzero diagonal entry is swapped in; only when there is
    none (a fold could cancel against it) are row and column b added to a,
    for some a < b with m[a][b] != 0, making m[a][a] = 2*m[a][b], and a is
    swapped in.  When rows k.. are all 0, the rank is k and det is 0.  Every
    entry stays a bordered minor of the transformed matrix (Sylvester's
    identity), so `minors` are its leading principal minors d_1 .. d_r, all
    nonzero, r the rank; a congruence keeps the determinant and, by
    Sylvester's law of inertia, the inertia.  `pivot_rows` are the rows
    eliminated before the first congruence, which touches m[k:] only: pivot
    row k holds d_{k+1} on the diagonal (its entries left of the diagonal
    are stale).  A positive definite form needs no congruence, so all n of
    its rows come back.

    The working matrix stays symmetric, so each step updates only the
    entries on and right of the diagonal, row i taking its multiplier
    m[i][k] from pivot row k as m[k][i].  A congruence reads whole rows and
    columns, so it first mirrors the upper triangle of rows k.. into the
    lower one; entries left of the diagonal are otherwise never updated.
    """
    n = len(rows)
    m = [list(row) for row in rows]
    minors: list[int] = []
    pivot_rows: list[list[int]] = []
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                row = m[i]
                for j in range(k, i):
                    row[j] = m[j][i]
            a = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if a is None:
                a, b = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if m[i][j] != 0),
                            (None, None))
                if a is None:
                    return 0, minors, pivot_rows
                for row in m[k:]:
                    row[a] += row[b]
                m[a] = [x + y for x, y in zip(m[a], m[b])]
            m[k], m[a] = m[a], m[k]
            for row in m[k:]:
                row[k], row[a] = row[a], row[k]
        elif len(pivot_rows) == k:
            pivot_rows.append(m[k])
        pivot_row = m[k]
        pivot = pivot_row[k]
        minors.append(pivot)
        for i in range(k + 1, n):
            row, f = m[i], pivot_row[i]
            for j in range(i, n):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
        prev = pivot
    return prev, minors, pivot_rows


def determinant(g: GramMatrix) -> int:
    return g._det_and_inertia[0]


def is_unimodular(g: GramMatrix) -> bool:
    return determinant(g) in (1, -1)


def inertia(g: GramMatrix) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts, computed exactly."""
    return g._det_and_inertia[1]


def definiteness(g: GramMatrix) -> Definiteness:
    pos, neg, zero = inertia(g)
    if zero > 0:
        return Definiteness.DEGENERATE
    if neg == 0:
        return Definiteness.POSITIVE_DEFINITE
    if pos == 0:
        return Definiteness.NEGATIVE_DEFINITE
    return Definiteness.INDEFINITE


def signature(g: GramMatrix) -> int:
    pos, neg, zero = inertia(g)
    if zero > 0:
        raise DegenerateFormError("signature undefined: the form has a radical")
    return pos - neg


def parity(g: GramMatrix) -> Parity:
    """Even when every vector has even self-pairing, i.e. the diagonal is even."""
    if all(d % 2 == 0 for d in g.diagonal()):
        return Parity.EVEN
    return Parity.ODD


def direct_sum(a: GramMatrix, b: GramMatrix) -> GramMatrix:
    na, nb = a.rank, b.rank
    rows = []
    for i in range(na):
        rows.append(tuple(a.entries[i]) + (0,) * nb)
    for i in range(nb):
        rows.append((0,) * na + tuple(b.entries[i]))
    return GramMatrix(tuple(rows))


def negate(g: GramMatrix) -> GramMatrix:
    """-g; carries g's (det, inertia) when g has already computed them."""
    out = GramMatrix(tuple(tuple(-x for x in row) for row in g.entries))
    memo = g.__dict__.get("_det_and_inertia")
    if memo is not None:
        det, (pos, neg, zero) = memo
        out.__dict__["_det_and_inertia"] = (det * (-1) ** g.rank, (neg, pos, zero))
    return out


def basis_change(g: GramMatrix, u: Sequence[Sequence[int]]) -> GramMatrix:
    """Return u^T g u for a determinant +-1 integer matrix u.

    u need not be symmetric, so it is checked through the symmetric u^T u,
    whose determinant is det(u)^2.
    """
    n = g.rank
    urows = [list(row) for row in u]
    if len(urows) != n or any(len(row) != n for row in urows):
        raise BadShapeError(f"transform must be {n}x{n}")
    for row in urows:
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                raise BadShapeError(f"transform entry is not an integer: {x!r}")
    ut = tuple(zip(*urows))
    d = _bareiss(_times(ut, urows))[0]
    if d != 1:
        raise NotUnimodularTransformError(f"|transform determinant| is {isqrt(d)}, need 1")
    return GramMatrix(_times(_times(ut, g.entries), urows))


def _positive_pivots(g: GramMatrix) -> list[list[int]]:
    """The `_bareiss` pivot rows P_i of a positive definite form, for which
    Q(y) = sum_i (sum_{j>=i} P_i[j]*y_j)^2 / (d_i*d_{i+1}), d_{i+1} = P_i[i].

    Raises NotPositiveDefiniteError at the first pivot d_{i+1}/d_i <= 0.
    """
    pivot_rows = _bareiss(g.entries)[2]
    prev = 1
    for i in range(g.rank):
        minor = pivot_rows[i][i] if i < len(pivot_rows) else 0
        if minor <= 0:
            raise NotPositiveDefiniteError(
                f"pivot {i} is {Fraction(minor, prev)}, form is not positive definite"
            )
        prev = minor
    return pivot_rows


def _reversed_pivots(g: GramMatrix) -> list[list[int]]:
    """`_positive_pivots` of P*g*P, P the coordinate reversal: the pivot rows
    that the searches read, so that their outermost level is g's
    coordinate 0.

    A form that is not positive definite is refused by `_positive_pivots(g)`,
    so the message names g's own first non-positive pivot.
    """
    pivot_rows = _bareiss([row[::-1] for row in g.entries[::-1]])[2]
    if len(pivot_rows) < g.rank or any(row[i] <= 0 for i, row in enumerate(pivot_rows)):
        _positive_pivots(g)
    return pivot_rows


def cholesky(g: GramMatrix) -> RationalCholesky:
    """Exact completed-squares decomposition of a positive definite form.

    Read off `_positive_pivots`: diag[i] is the ratio d_{i+1}/d_i of
    consecutive leading principal minors (d_0 = 1), and upper[i][j] is
    entry j of pivot row i over d_{i+1}.
    """
    rows = _positive_pivots(g)
    minors = [1] + [row[i] for i, row in enumerate(rows)]
    diag = tuple(Fraction(b, a) for a, b in zip(minors, minors[1:]))
    upper = tuple((Fraction(0),) * (i + 1) + tuple(Fraction(x, row[i]) for x in row[i + 1:])
                  for i, row in enumerate(rows))
    return RationalCholesky(diag, upper)


def lll_reduce(g: GramMatrix) -> tuple[IntMatrix, GramMatrix]:
    """All-integer LLL reduction of a positive definite form, delta = 3/4.

    Returns (H, g') with det H = +-1 and g' = H g H^T: the rows of H are
    the reduced basis in the coordinates of g.  `_lll` computes it, with
    the pivot rows of g' besides.  Raises NotPositiveDefiniteError unless g
    is positive definite.
    """
    h, reduced, _ = _lll(g)
    return h, reduced


def _lll(g: GramMatrix) -> tuple[IntMatrix, GramMatrix, list[list[int]]]:
    """(H, g', rows): `lll_reduce`, with the fraction-free elimination of g'.

    The reduction of Lenstra, Lenstra and Lovasz (1982) in the Gram form of
    Cohen (Alg. 2.6.7).  The Gram-Schmidt data are kept as integers: d[i+1]
    is the Gram determinant of the first i+1 basis vectors (d[0] = 1) and
    lam[k][j] = d[j+1]*mu_kj, so size reduction rounds with
    q = (2*lam + d) // (2*d) and every other division is exact.  g' is
    updated in place by each step (a row and column for b_k -= q*b_l, two
    rows and columns for a swap), never recomputed from H.

    d[i+1] is the leading principal minor of g' of order i+1 and lam[j][i]
    the bordered minor of rows 0..i and columns 0..i-1, j: the entries of
    the `_bareiss` pivot rows of g'.  So row i of `rows` holds d[i+1] on
    the diagonal and lam[j][i] at column j > i, and equals
    `_bareiss(g'.entries)[2][i]` on and right of the diagonal; its entries
    left of the diagonal are 0 and are never read.  The searches of a
    reduced form run on these rows, so nothing eliminates g' again.
    """
    if definiteness(g) is not Definiteness.POSITIVE_DEFINITE:
        raise NotPositiveDefiniteError("LLL reduction needs a positive definite form")
    n = g.rank
    gram = [list(row) for row in g.entries]
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1, gram[0][0]] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]

    def reduce(k: int, l: int) -> None:
        dl = d[l + 1]
        if 2 * abs(lam[k][l]) <= dl:
            return
        q = (2 * lam[k][l] + dl) // (2 * dl)
        hk, hl, gk, gl = h[k], h[l], gram[k], gram[l]
        for j in range(n):
            hk[j] -= q * hl[j]
            gk[j] -= q * gl[j]
        gk[k] -= q * gk[l]
        for j in range(n):
            gram[j][k] = gk[j]
        lam[k][l] -= q * dl
        lk, ll = lam[k], lam[l]
        for i in range(l):
            lk[i] -= q * ll[i]

    def swap(k: int) -> None:
        h[k], h[k - 1] = h[k - 1], h[k]
        gram[k], gram[k - 1] = gram[k - 1], gram[k]
        for row in gram:
            row[k], row[k - 1] = row[k - 1], row[k]
        lk, lk1 = lam[k], lam[k - 1]
        for j in range(k - 1):
            lk[j], lk1[j] = lk1[j], lk[j]
        lm = lk[k - 1]
        b = (d[k - 1] * d[k + 1] + lm * lm) // d[k]
        for i in range(k + 1, kmax + 1):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lm * t) // d[k]
            li[k - 1] = (b * t + lm * li[k]) // d[k + 1]
        d[k] = b

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            lk = lam[k]
            for j in range(k + 1):
                u = gram[k][j]
                lj = lam[j]
                for i in range(j):
                    u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
                if j < k:
                    lk[j] = u
                else:
                    d[k + 1] = u
        reduce(k, k - 1)
        lm = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lm * lm:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    rows = [[0] * i + [d[i + 1]] + [lam[j][i] for j in range(i + 1, n)] for i in range(n)]
    return tuple(map(tuple, h)), GramMatrix(tuple(map(tuple, gram))), rows


def evaluate(g: GramMatrix, x: Sequence[int]) -> int:
    """x^T g x over the integers."""
    return pairing(g, x, x)


def pairing(g: GramMatrix, x: Sequence[int], y: Sequence[int]) -> int:
    """x^T g y over the integers."""
    n = g.rank
    if len(x) != n or len(y) != n:
        raise BadShapeError("vector length does not match the form's rank")
    total = 0
    for i in range(n):
        row = g.entries[i]
        total += x[i] * sum(row[j] * y[j] for j in range(n))
    return total
