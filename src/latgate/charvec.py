"""Characteristic vectors of an integral form.

A vector w is characteristic when (v, v + w) is even for every lattice
vector v, which over the mod-2 reduction is the linear system
G w = diag(G).  The solution set is a coset of 2*Z^n; its minimal-norm
members drive the identity-or-short-vector dichotomy: a positive definite
unimodular form is the standard Z^n form exactly when the minimal
characteristic norm m equals the rank, and otherwise m <= rank - 8.

Both searches here run on the form's exact LLL-reduced basis, which each
`GramMatrix` computes once and keeps: m, the number of minimizers and the
unit-vector count do not depend on the basis, and the minimizers are mapped
back to the caller's coordinates before the lex-least one is chosen.  A
form that LLL leaves unchanged is searched as given.

The norm-1 vectors of a positive definite integral lattice are +-e_1, ...,
+-e_k, pairwise orthogonal, and they split off: L = Z^k (+) L' with L'
their orthogonal complement (Elkies, "A characterization of the Z^n
lattice", Math. Res. Lett. 2, 1995).  One radius-1 search on the reduced
basis finds them; the unit count reads it, and the min-char search reads it
and then searches L' alone, since m = k + m' and the number of minimizers
is 2^k times that of L'.  Z^n itself needs no characteristic search at all.
An even form has no norm-1 vectors and is not searched for them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .core import (
    Definiteness,
    GramMatrix,
    IntMatrix,
    IntVector,
    Parity,
    _positive_pivots,
    definiteness,
    evaluate,
    inertia,
    is_unimodular,
    negate,
    parity,
    signature,
)
from .enumeration import EnumQuery, EnumStats, _check_rank_cap, _search
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


def _times(a: IntMatrix | None, b: IntMatrix | None) -> IntMatrix | None:
    """The integer matrix product a b, matrices given as rows and None
    standing for the identity."""
    if a is None:
        return b
    if b is None:
        return a
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _unit_vectors(g: GramMatrix) -> tuple[IntMatrix, EnumStats]:
    """One vector from each +- pair of norm-1 vectors of a positive definite
    form, in the coordinates of its LLL-reduced basis g', with the counters
    of the radius-1 search on g' that found them.

    An even form has no such vectors and is not searched.  The search runs
    once per form: its result is kept on g', next to g's LLL memo, so the
    min-char search and the unit count of one form share it.
    """
    if parity(g) is Parity.EVEN:
        return (), EnumStats(nodes=0, prunes=0)
    form = g._lll[1]
    memo = form.__dict__.get("_unit_vectors")
    if memo is None:
        zero = (Fraction(0),) * form.rank
        pairs, scale, stats = _search(EnumQuery(form=form, shift=zero, radius=Fraction(1)))
        # of each pair +-e keep the member whose first nonzero entry is positive
        units = tuple(u for u, norm in pairs if norm == scale and next(filter(None, u)) > 0)
        memo = form.__dict__["_unit_vectors"] = (units, stats)
    return memo


def _orthogonal_complement(form: GramMatrix, units: IntMatrix) -> IntMatrix:
    """Rows: a basis of the vectors of `form` orthogonal to every unit.

    That is the integer kernel of the k x n matrix A = (e_i^T G).  Unimodular
    column operations, Euclid's algorithm on one row at a time, bring A to
    [L | 0] with L lower triangular; the same operations applied to the
    identity give U with A U = [L | 0], and the last n - k columns of U are
    a basis of the kernel.  Columns are stored as rows here.
    """
    n, k = form.rank, len(units)
    a = [[sum(map(mul, e, col)) for e in units] for col in form.entries]  # G is symmetric
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for r in range(k):
        while True:
            p = min((c for c in range(r, n) if a[c][r]), key=lambda c: abs(a[c][r]))
            a[r], a[p] = a[p], a[r]
            u[r], u[p] = u[p], u[r]
            pivot, done = a[r][r], True
            for c in range(r + 1, n):
                q = a[c][r] // pivot
                if q:
                    a[c] = [x - q * y for x, y in zip(a[c], a[r])]
                    u[c] = [x - q * y for x, y in zip(u[c], u[r])]
                done = done and not a[c][r]
            if done:
                break
    return tuple(map(tuple, u[k:]))


def _char_minimum(
    form: GramMatrix, basis: IntMatrix | None
) -> tuple[int, int, IntVector, EnumStats]:
    """(m, number of minimizers, lex-least minimizer, counters) for the
    characteristic vectors of a positive definite unimodular form.

    The rows of `basis` are form's basis vectors in the caller's
    coordinates (None: they are the caller's own), and the minimizer is
    given in the caller's coordinates.
    """
    n = form.rank
    w0 = _solve_gf2(form)  # unique, as the form is unimodular
    # w = w0 + 2u, so (w, w) = 4 Q(u + w0/2); a characteristic vector of
    # norm <= n always exists, hence the initial radius min(Q(w0), n)/4
    radius = Fraction(min(evaluate(form, w0), n), 4)
    shift = tuple(Fraction(x, 2) for x in w0)
    # the shrinking search returns the minimizers only
    pairs, scale, stats = _search(EnumQuery(form=form, shift=shift, radius=radius), shrink=True)
    if not pairs:
        raise NoSolutionError("internal error: characteristic ball came back empty")
    m_scaled = Fraction(4 * pairs[0][1], scale)
    if m_scaled.denominator != 1:
        raise NoSolutionError(f"internal error: non-integer characteristic norm {m_scaled}")
    mins = [p[0] for p in pairs]
    if basis is None:
        u_star = mins[0]  # pairs are lex sorted and w0 + 2u preserves lex order
        w_star = tuple(w0[i] + 2 * u_star[i] for i in range(n))
    else:
        # w' = w0 + 2u in form's basis is w = basis^T w' in the caller's
        cols = tuple(zip(*basis))
        base = [sum(map(mul, col, w0)) for col in cols]
        w_star = min(
            tuple(b + 2 * sum(map(mul, col, u)) for b, col in zip(base, cols)) for u in mins
        )
    return int(m_scaled), len(mins), w_star, stats


def min_char_vector_with_stats(g: GramMatrix) -> tuple[CharVecResult, EnumStats]:
    """Like `min_char_vector` but also returns the search counters: those of
    the unit-vector search plus those of the search of the complement."""
    n = g.rank
    if definiteness(g) is not Definiteness.POSITIVE_DEFINITE:
        raise NotPositiveDefiniteError("minimal characteristic vectors need a positive definite form")
    if not is_unimodular(g):
        raise NotUnimodularError("minimal characteristic vectors need determinant +-1")
    _check_rank_cap(n)
    h, form = g._lll
    units, stats = _unit_vectors(g)
    # L = Z^k (+) L' with L' the complement of the k units, so the
    # characteristic vectors of L are the sums sum_i +-e_i + w' with w'
    # characteristic in L'.  Lex order is translation invariant, so the
    # least of them adds the lex-least of each +-e_i to the least w'.
    m, count, minimizer = len(units), 2 ** len(units), (0,) * n
    basis = h
    if units:
        for e in _times(units, h):
            sign = -1 if next(filter(None, e)) > 0 else 1
            minimizer = tuple(x + sign * y for x, y in zip(minimizer, e))
        kernel = _orthogonal_complement(form, units)
        if kernel:
            rest = GramMatrix(_times(_times(kernel, form.entries), tuple(zip(*kernel))))
            h_rest, form = rest._lll
            basis = _times(h_rest, _times(kernel, h))
    if len(units) < n:
        m_rest, count_rest, w_rest, rest_stats = _char_minimum(form, basis)
        m += m_rest
        count *= count_rest
        minimizer = tuple(map(add, minimizer, w_rest))
        stats = EnumStats(nodes=stats.nodes + rest_stats.nodes,
                          prunes=stats.prunes + rest_stats.prunes)
    if (n - m) % 8 != 0:
        raise NoSolutionError(f"internal error: rank {n} and norm {m} differ by {n - m} mod 8")
    result = CharVecResult(
        minimizer=minimizer,
        norm_m=m,
        k=(n - m) // 8,
        count_minimizers=count,
    )
    return result, stats


def min_char_vector(g: GramMatrix) -> CharVecResult:
    """Minimal-norm characteristic vector data of a positive definite
    unimodular form: lex-least minimizer, its norm m, k = (n - m)/8, and the
    number of minimizers."""
    result, _ = min_char_vector_with_stats(g)
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
    counted on the LLL-reduced form.  An even form has none and is not
    searched."""
    _check_rank_cap(g.rank)
    if definiteness(g) is not Definiteness.POSITIVE_DEFINITE:
        _positive_pivots(g)  # refuses the form, naming its first non-positive pivot
    return 2 * len(_unit_vectors(g)[0])


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
