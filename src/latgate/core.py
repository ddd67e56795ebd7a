"""Exact arithmetic on integral symmetric bilinear forms.

Everything runs over arbitrary-precision integers and `Fraction`; no code
path here (or anywhere downstream) touches floating point.  Gram matrices
are immutable values and safe to share across threads.

One fraction-free elimination (`_bareiss`) serves every invariant: it gives
the determinant, the leading principal minors whose signs give the inertia
(congruence diagonalization takes over when one of them vanishes), and the
integer pivot rows that every lattice search reads (`_positive_pivots`).
Each `GramMatrix` computes its determinant and inertia once, on first use,
and keeps them.  `cholesky` reads the same rows as Fractions; no search
uses it.

`lll_reduce` is the all-integer LLL reduction of a positive definite form
(Lenstra, Lenstra and Lovasz 1982, in the Gram form of Cohen, Alg. 2.6.7).
Each `GramMatrix` reduces itself once, on first use, and keeps the result
for the searches of `latgate.charvec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import Fraction
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

    def to_rows(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    @cached_property
    def _det_and_inertia(self) -> tuple[int, tuple[int, int, int]]:
        """(determinant, inertia) from one elimination, computed on first use.

        The inertia follows the signs of the leading principal minors when
        all of them are nonzero, and congruence diagonalization otherwise.
        """
        det, pivot_rows = _bareiss(self.entries)
        if det == 0 or len(pivot_rows) < self.rank:
            return det, _inertia_by_diagonalization(self)
        minors = [row[k] for k, row in enumerate(pivot_rows)]
        neg = sum((a > 0) != (b > 0) for a, b in zip([1] + minors, minors))
        return det, (self.rank - neg, neg, 0)

    @cached_property
    def _lll(self) -> tuple[IntMatrix | None, "GramMatrix"]:
        """`lll_reduce(self)`, computed on first use.  When the reduction
        leaves every entry unchanged this is (None, self): the form is
        searched as it is, and no transform is kept."""
        h, reduced = lll_reduce(self)
        if reduced.entries == self.entries:
            return None, self
        return h, reduced


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


def validate(g: GramMatrix) -> None:
    """Raise unless g is a square symmetric matrix of Python ints, rank >= 1."""
    rows = g.entries
    n = len(rows)
    if n < 1:
        raise BadShapeError("rank must be at least 1")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise BadShapeError(f"row {i} has length {len(row)}, expected {n}")
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, int):
                raise BadShapeError(f"entry ({i},{j}) is not an integer: {x!r}")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise NotSymmetricError(
                    f"entries ({i},{j})={rows[i][j]} and ({j},{i})={rows[j][i]} differ"
                )


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """Fraction-free elimination (Bareiss 1968); every division is exact.

    Returns (det, pivot_rows), the rows eliminated before the first row
    swap.  By Sylvester's identity pivot row k holds the leading principal
    minor d_{k+1} on the diagonal (its entries left of the diagonal are
    stale).  All n rows come back exactly when no leading minor of size < n
    vanishes; otherwise the next one is zero.
    """
    n = len(rows)
    m = [list(row) for row in rows]
    pivot_rows: list[list[int]] = []
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0, pivot_rows
        elif len(pivot_rows) == k:
            pivot_rows.append(m[k])
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    if len(pivot_rows) == n - 1:
        pivot_rows.append(m[n - 1])
    return sign * m[n - 1][n - 1], pivot_rows


def determinant(g: GramMatrix) -> int:
    return g._det_and_inertia[0]


def is_unimodular(g: GramMatrix) -> bool:
    return determinant(g) in (1, -1)


def _inertia_by_diagonalization(g: GramMatrix) -> tuple[int, int, int]:
    """Exact congruence diagonalization over Q; handles zero pivots."""
    n = g.rank
    a = [[Fraction(x) for x in row] for row in g.entries]
    pos = neg = zero = 0
    for i in range(n):
        if a[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[i], a[swap] = a[swap], a[i]
                for row in a:
                    row[i], row[swap] = row[swap], row[i]
            else:
                mate = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if mate is None:
                    zero += 1
                    continue
                # fold row/col `mate` into i: the new pivot is 2*a[i][mate] != 0
                for k in range(n):
                    a[i][k] += a[mate][k]
                for k in range(n):
                    a[k][i] += a[k][mate]
        d = a[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            f = a[j][i] / d
            if f:
                for k in range(n):
                    a[j][k] -= f * a[i][k]
                for k in range(n):
                    a[k][j] -= f * a[k][i]
    return pos, neg, zero


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
    """Return u^T g u for a determinant +-1 integer matrix u."""
    n = g.rank
    urows = [list(row) for row in u]
    if len(urows) != n or any(len(row) != n for row in urows):
        raise BadShapeError(f"transform must be {n}x{n}")
    for row in urows:
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                raise BadShapeError(f"transform entry is not an integer: {x!r}")
    d, _ = _bareiss(urows)
    if d not in (1, -1):
        raise NotUnimodularTransformError(f"transform determinant is {d}, need +-1")
    # t = g @ u, then result = u^T @ t
    t = [[sum(g.entries[i][k] * urows[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    out = tuple(
        tuple(sum(urows[k][i] * t[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    return GramMatrix(out)


def _positive_pivots(g: GramMatrix) -> list[list[int]]:
    """The `_bareiss` pivot rows P_i of a positive definite form, for which
    Q(y) = sum_i (sum_{j>=i} P_i[j]*y_j)^2 / (d_i*d_{i+1}), d_{i+1} = P_i[i].

    Raises NotPositiveDefiniteError at the first pivot d_{i+1}/d_i <= 0.
    """
    pivot_rows = _bareiss(g.entries)[1]
    prev = 1
    for i in range(g.rank):
        minor = pivot_rows[i][i] if i < len(pivot_rows) else 0
        if minor <= 0:
            raise NotPositiveDefiniteError(
                f"pivot {i} is {Fraction(minor, prev)}, form is not positive definite"
            )
        prev = minor
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
    the reduced basis in the coordinates of g.  The Gram-Schmidt data are
    kept as integers (Cohen, Alg. 2.6.7): d[i+1] is the Gram determinant of
    the first i+1 basis vectors (d[0] = 1) and lam[k][j] = d[j+1]*mu_kj, so
    size reduction rounds with q = (2*lam + d) // (2*d) and every other
    division is exact.  g' is updated in place by each step (a row and
    column for b_k -= q*b_l, two rows and columns for a swap), never
    recomputed from H.  Raises NotPositiveDefiniteError otherwise.
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
    return tuple(map(tuple, h)), GramMatrix(tuple(map(tuple, gram)))


def evaluate(g: GramMatrix, x: Sequence[int]) -> int:
    """x^T g x over the integers."""
    n = g.rank
    if len(x) != n:
        raise BadShapeError(f"vector has length {len(x)}, expected {n}")
    total = 0
    for i in range(n):
        row = g.entries[i]
        total += x[i] * sum(row[j] * x[j] for j in range(n))
    return total


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
