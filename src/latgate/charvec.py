"""Characteristic vectors of an integral form.

A vector w is characteristic when (v, v + w) is even for every lattice
vector v, which over the mod-2 reduction is the linear system
G w = diag(G).  The solution set is a coset of 2*Z^n; its minimal-norm
members drive the identity-or-short-vector dichotomy: a positive definite
unimodular form is the standard Z^n form exactly when the minimal
characteristic norm m equals the rank, and otherwise m <= rank - 8.

Both searches here (the minimal characteristic vector and the unit-vector
count) run on the form's exact LLL-reduced basis, which each `GramMatrix`
computes once and keeps: m, the number of minimizers and the unit-vector
count do not depend on the basis, and the minimizers are mapped back to
the caller's coordinates before the lex-least one is chosen.  A form that
LLL leaves unchanged is searched as given.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .core import (
    Definiteness,
    GramMatrix,
    IntMatrix,
    IntVector,
    definiteness,
    evaluate,
    inertia,
    is_unimodular,
    negate,
    signature,
)
from .enumeration import (
    DEFAULT_RANK_CAP,
    EnumQuery,
    EnumStats,
    _check_rank_cap,
    _search,
    enumerate_coset,
)
from .errors import (
    DegenerateFormError,
    NoSolutionError,
    NotPositiveDefiniteError,
    NotUnimodularError,
)

__all__ = [
    "CharCoset",
    "CharVecResult",
    "ElkiesVerdict",
    "solve_char_coset",
    "min_char_vector",
    "min_char_vector_with_stats",
    "elkies_verdict",
    "signature_mod8_check",
    "count_unit_vectors",
    "charvec_report",
    "charvec_report_with_stats",
]


@dataclass(frozen=True)
class CharCoset:
    """The characteristic vectors of `lattice`: base + 2*Z^n."""

    base: IntVector
    lattice: GramMatrix


@dataclass(frozen=True)
class CharVecResult:
    minimizer: IntVector
    norm_m: int
    k: int
    count_minimizers: int


@dataclass(frozen=True)
class ElkiesVerdict:
    """Dichotomy outcome: the standard form, or a short characteristic vector."""

    identity: bool
    result: CharVecResult

    @property
    def kind(self) -> str:
        return "Identity" if self.identity else "HasShortCharVector"


def _solve_gf2(g: GramMatrix) -> IntVector:
    """Lex-least 0/1 solution of G w = diag(G) mod 2.

    Internally coordinate j sits at bit (n-1-j) of a mask, so numeric order
    on masks equals lexicographic order on coordinate tuples.  Pivot order
    is fixed (columns left to right) to keep the result deterministic.
    """
    n = g.rank
    rows = []
    for i in range(n):
        mask = 0
        for j in range(n):
            if g.entries[i][j] & 1:
                mask |= 1 << (n - 1 - j)
        rows.append([mask, g.entries[i][i] & 1])

    used = [False] * n
    pivots: list[tuple[int, int]] = []  # (column, row)
    for j in range(n):
        bit = 1 << (n - 1 - j)
        pivot_row = next((r for r in range(n) if not used[r] and rows[r][0] & bit), None)
        if pivot_row is None:
            continue
        used[pivot_row] = True
        pivots.append((j, pivot_row))
        for r in range(n):
            if r != pivot_row and rows[r][0] & bit:
                rows[r][0] ^= rows[pivot_row][0]
                rows[r][1] ^= rows[pivot_row][1]

    for mask, rhs in rows:
        if mask == 0 and rhs:
            raise NoSolutionError("the mod-2 characteristic system has no solution")

    x = 0
    for j, r in pivots:
        if rows[r][1]:
            x |= 1 << (n - 1 - j)

    # nullspace basis, one vector per free column
    pivot_cols = {j for j, _ in pivots}
    top = [0] * (n + 1)  # xor basis keyed by highest set bit
    for f in range(n):
        if f in pivot_cols:
            continue
        vec = 1 << (n - 1 - f)
        for j, r in pivots:
            if rows[r][0] & (1 << (n - 1 - f)):
                vec |= 1 << (n - 1 - j)
        while vec:
            h = vec.bit_length() - 1
            if top[h]:
                vec ^= top[h]
            else:
                top[h] = vec
                break

    # greedy minimization of x over x + span(basis)
    for h in range(n - 1, -1, -1):
        if top[h] and (x >> h) & 1:
            x ^= top[h]
    return tuple((x >> (n - 1 - j)) & 1 for j in range(n))


def solve_char_coset(g: GramMatrix) -> CharCoset:
    """Characteristic coset of g with its lex-least 0/1 base vector.

    Unimodular forms always have exactly one base; otherwise the system can
    be unsolvable (NoSolutionError) or have several solutions, in which case
    the lex-least one is returned with a warning.
    """
    if not is_unimodular(g):
        warnings.warn(
            "form is not unimodular; characteristic coset may be empty or non-unique",
            stacklevel=2,
        )
    return CharCoset(base=_solve_gf2(g), lattice=g)


def _reduced(g: GramMatrix, rank_cap: int) -> tuple[IntMatrix | None, GramMatrix]:
    """(H, g') from g's memoized LLL reduction, with g' = H g H^T, or
    (None, g) when the reduction changes nothing.  A form above the rank
    cap is refused before it is reduced."""
    _check_rank_cap(g.rank, rank_cap)
    return g._lll


def min_char_vector_with_stats(
    g: GramMatrix, *, rank_cap: int = DEFAULT_RANK_CAP
) -> tuple[CharVecResult, EnumStats]:
    """Like `min_char_vector` but also returns the search counters, which
    count the search on the reduced form."""
    n = g.rank
    if definiteness(g) is not Definiteness.POSITIVE_DEFINITE:
        raise NotPositiveDefiniteError("minimal characteristic vectors need a positive definite form")
    if not is_unimodular(g):
        raise NotUnimodularError("minimal characteristic vectors need determinant +-1")
    h, form = _reduced(g, rank_cap)
    w0 = _solve_gf2(form)  # unique, as the form is unimodular
    # w = w0 + 2u, so (w, w) = 4 Q(u + w0/2); a characteristic vector of
    # norm <= n always exists, hence the initial radius min(Q(w0), n)/4
    radius = Fraction(min(evaluate(form, w0), n), 4)
    shift = tuple(Fraction(x, 2) for x in w0)
    pairs, scale, stats = _search(
        EnumQuery(form=form, shift=shift, radius=radius),
        shrink=True,
        rank_cap=rank_cap,
    )
    if not pairs:
        raise NoSolutionError("internal error: characteristic ball came back empty")
    best = min(p[1] for p in pairs)
    m_scaled = Fraction(4 * best, scale)
    if m_scaled.denominator != 1:
        raise NoSolutionError(f"internal error: non-integer characteristic norm {m_scaled}")
    m = int(m_scaled)
    if (n - m) % 8 != 0:
        raise NoSolutionError(f"internal error: rank {n} and norm {m} differ by {n - m} mod 8")
    mins = [p[0] for p in pairs if p[1] == best]
    if form is g:
        u_star = mins[0]  # pairs are lex sorted and w0 + 2u preserves lex order
        w_star = tuple(w0[i] + 2 * u_star[i] for i in range(n))
    else:
        # w' = w0 + 2u in the reduced basis is w = H^T w' in g's basis
        cols = tuple(zip(*h))
        base = [sum(map(mul, col, w0)) for col in cols]
        w_star = min(
            tuple(b + 2 * sum(map(mul, col, u)) for b, col in zip(base, cols)) for u in mins
        )
    result = CharVecResult(
        minimizer=w_star,
        norm_m=m,
        k=(n - m) // 8,
        count_minimizers=len(mins),
    )
    return result, stats


def min_char_vector(g: GramMatrix, *, rank_cap: int = DEFAULT_RANK_CAP) -> CharVecResult:
    """Minimal-norm characteristic vector data of a positive definite
    unimodular form: lex-least minimizer, its norm m, k = (n - m)/8, and the
    number of minimizers."""
    result, _ = min_char_vector_with_stats(g, rank_cap=rank_cap)
    return result


def elkies_verdict(g: GramMatrix) -> ElkiesVerdict:
    """Identity iff the minimal characteristic norm equals the rank."""
    result = min_char_vector(g)
    return ElkiesVerdict(identity=result.norm_m == g.rank, result=result)


def signature_mod8_check(g: GramMatrix) -> bool:
    """Check minimal characteristic norm == signature mod 8 (definite forms).

    For negative definite forms the minimal characteristic norm is the
    negated minimum of the reversed form.  Indefinite forms are out of
    scope here and raise ValueError.
    """
    pos, neg, zero = inertia(g)
    if zero > 0:
        raise DegenerateFormError("mod-8 check needs a nondegenerate form")
    if not is_unimodular(g):
        raise NotUnimodularError("mod-8 check needs determinant +-1")
    if neg == 0:
        m = min_char_vector(g).norm_m
    elif pos == 0:
        m = -min_char_vector(negate(g)).norm_m
    else:
        raise ValueError("mod-8 check is restricted to definite forms")
    return (m - signature(g)) % 8 == 0


def count_unit_vectors(g: GramMatrix) -> int:
    """Number of lattice vectors of norm exactly 1 (2n for the standard form),
    counted on the LLL-reduced form."""
    form = g
    # a form that is not positive definite goes to the search as given,
    # which refuses it naming its first non-positive pivot
    if definiteness(g) is Definiteness.POSITIVE_DEFINITE:
        form = _reduced(g, DEFAULT_RANK_CAP)[1]
    zero_shift = tuple(Fraction(0) for _ in range(g.rank))
    res = enumerate_coset(EnumQuery(form=form, shift=zero_shift, radius=Fraction(1)))
    return sum(1 for nu in res.norms if nu == 1)


def charvec_report_with_stats(
    g: GramMatrix, form_id: str
) -> tuple[dict, CharVecResult, EnumStats]:
    """`charvec_report` plus the min-char result and search counters it came from."""
    result, stats = min_char_vector_with_stats(g)
    m = result.norm_m
    report = {
        "form_id": form_id,
        "n": g.rank,
        "m": m,
        "k": result.k,
        "minimizer": list(result.minimizer),
        "verdict": ElkiesVerdict(identity=m == g.rank, result=result).kind,
        "unit_vector_count": count_unit_vectors(g),
        "mod8_ok": (m - signature(g)) % 8 == 0,
    }
    return report, result, stats


def charvec_report(g: GramMatrix, form_id: str) -> dict:
    """JSON-ready summary of the dichotomy data for a form."""
    return charvec_report_with_stats(g, form_id)[0]
