"""Characteristic vectors of an integral form.

A vector w is characteristic when (v, v + w) is even for every lattice
vector v, which over the mod-2 reduction is the linear system
G w = diag(G).  The solution set is a coset of 2*Z^n; its minimal-norm
members drive the identity-or-short-vector dichotomy: a positive definite
unimodular form is the standard Z^n form exactly when the minimal
characteristic norm m equals the rank, and otherwise m <= rank - 8.

Every odd form's searches run on its exact LLL-reduced basis, computed per
call, no state kept on the form: m, the number of minimizers and the
unit-vector count do not depend on the basis, and the minimizers are mapped
back to the caller's coordinates before the lex-least one is chosen.  A
form that LLL leaves unchanged is searched as given, and so is an even
form, whose one search (the radius-0 ball around 0) is one path of n
nodes in any basis.

The norm-1 vectors of a positive definite integral lattice are +-e_1, ...,
+-e_k, pairwise orthogonal, and they split off: L = Z^k (+) L' with L'
their orthogonal complement (Elkies, "A characterization of the Z^n
lattice", Math. Res. Lett. 2, 1995).  One radius-1 search on the reduced
basis finds them; the min-char search counts them (`unit_vector_count`) and
then searches L' alone, since m = k + m' and the number of minimizers
is 2^k times that of L'.  Z^n itself needs no characteristic search at all.
The search of L' climbs the mod-8 ladder of norms c = n' mod 8, ..., n'
(van der Blij 1959) and stops at the first that holds a point.
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
    inertia,
    is_unimodular,
    lll_reduce,
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
    """Min-char data of a form; unit_vector_count is its number of norm-1 vectors."""

    minimizer: IntVector
    norm_m: int
    k: int
    count_minimizers: int
    unit_vector_count: int


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

    Coordinate j sits at bit j of a row mask.  The Gauss-Jordan elimination
    takes its pivot columns from n-1 down to 0, so each pivot row is left
    holding its pivot and free coordinates before it only.  Two solutions
    therefore first differ at a free coordinate, and the one with every
    free coordinate 0 is the lex-least.
    """
    n = g.rank
    rows = []
    for i in range(n):
        mask = 0
        for j in range(n):
            if g.entries[i][j] & 1:
                mask |= 1 << j
        rows.append([mask, g.entries[i][i] & 1])

    used = [False] * n
    pivots: list[tuple[int, int]] = []  # (column, row)
    for j in range(n - 1, -1, -1):
        bit = 1 << j
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
            raise NoSolutionError("internal error: the mod-2 characteristic system has no solution")

    w = [0] * n
    for j, r in pivots:
        w[j] = rows[r][1]
    return tuple(w)


def solve_char_coset(g: GramMatrix) -> CharCoset:
    """Characteristic coset of g with its lex-least 0/1 base vector.

    The system always has a solution, since G is symmetric: for every x
    with G x = 0 mod 2, diag(G) . x = x^T G x = 0 mod 2, so diag(G) lies in
    the mod-2 column space of G (NoSolutionError guards only against an
    internal error).  A unimodular form has exactly one 0/1 solution; any
    other form may have several, and the lex-least one is returned with a
    warning.
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


def _search_basis(g: GramMatrix) -> tuple[IntMatrix | None, GramMatrix]:
    """(H, form): the basis the searches of the positive definite g run on,
    computed per call, no state kept on the form; H is None when that is g.

    An odd form is LLL-reduced, in reversed basis order (H's rows reversed
    and P*g'*P, P the coordinate reversal), so that the searches, which
    eliminate the reversed form, run the LLL tree; a form that LLL leaves
    unchanged is returned as it is.  An even form is searched as it stands:
    its characteristic search is the radius-0 ball around 0, one path of n
    nodes and no prunes in any basis (every centre 0, every interval
    [0, 0]), so the result and the counters are those of the reduced search.
    """
    if parity(g) is Parity.EVEN:
        return None, g
    h, reduced = lll_reduce(g)
    if reduced.entries == g.entries:
        return None, g
    return h[::-1], GramMatrix(tuple(row[::-1] for row in reduced.entries[::-1]))


def _unit_vectors(form: GramMatrix) -> tuple[IntMatrix, EnumStats]:
    """One vector from each +- pair of norm-1 vectors of the search form
    `form` (as `_search_basis` gives it), in its coordinates, with the
    counters of the radius-1 search that found them.  Computed per call,
    no state kept on the form.

    An even form has no such vectors and is not searched.
    """
    if parity(form) is Parity.EVEN:
        return (), EnumStats(nodes=0, prunes=0)
    zero = (Fraction(0),) * form.rank
    pairs, scale, stats = _search(EnumQuery(form=form, shift=zero, radius=Fraction(1)))
    # of each pair +-e keep the member whose first nonzero entry is positive
    units = tuple(u for u, norm in pairs if norm == scale and next(filter(None, u)) > 0)
    return units, stats


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
    """(m, number of minimizers, lex-least minimizer, counters summed over
    the rungs searched) for the characteristic vectors of a positive
    definite unimodular form.

    The rows of `basis` are form's basis vectors in the caller's
    coordinates (None: they are the caller's own), and the minimizer is
    given in the caller's coordinates.
    """
    n = form.rank
    w0 = _solve_gf2(form)  # unique, as the form is unimodular
    # w = w0 + 2u, so (w, w) = 4 Q(u + w0/2).  Every characteristic norm is
    # congruent to n mod 8 (van der Blij) and some characteristic vector has
    # norm <= n, so the ball of radius c/4 is searched for c = n mod 8,
    # n mod 8 + 8, ..., n: the first rung that is not empty holds exactly the
    # minimizers
    shift = tuple(Fraction(x, 2) for x in w0)
    nodes = prunes = 0
    for c in range(n % 8, n + 1, 8):
        pairs, scale, stats = _search(EnumQuery(form=form, shift=shift, radius=Fraction(c, 4)))
        nodes += stats.nodes
        prunes += stats.prunes
        if pairs:
            break
    else:
        raise NoSolutionError(f"internal error: no characteristic vector of norm <= {n}")
    if any(4 * norm != c * scale for _, norm in pairs):
        raise NoSolutionError(f"internal error: a characteristic norm in rung {c} is not {c}")
    mins = [p[0] for p in pairs]
    if basis is None:
        u_star = mins[0]  # pairs come in lex order and w0 + 2u preserves lex order
        w_star = tuple(w0[i] + 2 * u_star[i] for i in range(n))
    else:
        # w' = w0 + 2u in form's basis is w = basis^T w' in the caller's
        cols = tuple(zip(*basis))
        base = [sum(map(mul, col, w0)) for col in cols]
        w_star = min(
            tuple(b + 2 * sum(map(mul, col, u)) for b, col in zip(base, cols)) for u in mins
        )
    return c, len(mins), w_star, EnumStats(nodes=nodes, prunes=prunes)


def min_char_vector_with_stats(g: GramMatrix) -> tuple[CharVecResult, EnumStats]:
    """Like `min_char_vector` but also returns the search counters: those of
    the unit-vector search plus those of the search of the complement."""
    n = g.rank
    if definiteness(g) is not Definiteness.POSITIVE_DEFINITE:
        raise NotPositiveDefiniteError("minimal characteristic vectors need a positive definite form")
    if not is_unimodular(g):
        raise NotUnimodularError("minimal characteristic vectors need determinant +-1")
    _check_rank_cap(n)
    h, form = _search_basis(g)
    units, stats = _unit_vectors(form)
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
            # L' is positive definite and unimodular, so its LLL reduction
            # (when it is odd) needs no elimination to classify it
            rest.__dict__["_det_and_inertia"] = (1, (rest.rank, 0, 0))
            h_rest, form = _search_basis(rest)
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
        unit_vector_count=2 * len(units),
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
    counted on the LLL-reduced form by a search of its own: a second route
    to `CharVecResult.unit_vector_count`.  An even form has none and is not
    searched."""
    _check_rank_cap(g.rank)
    if definiteness(g) is not Definiteness.POSITIVE_DEFINITE:
        _positive_pivots(g)  # refuses the form, naming its first non-positive pivot
    return 2 * len(_unit_vectors(_search_basis(g)[1])[0])


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
        "unit_vector_count": result.unit_vector_count,
        "mod8_ok": (m - signature(g)) % 8 == 0,
    }
    return report, result, stats


def charvec_report(g: GramMatrix, form_id: str) -> dict:
    """JSON-ready summary of the dichotomy data for a form."""
    return charvec_report_with_stats(g, form_id)[0]
