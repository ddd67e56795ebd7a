"""Characteristic vectors of an integral form.

A vector w is characteristic when (v, v + w) is even for every lattice
vector v, which over the mod-2 reduction is the linear system
G w = diag(G).  The solution set is a coset of 2*Z^n whose base is the
lex-least 0/1 solution (`_solve_gf2`); its minimal-norm members drive the
identity-or-short-vector dichotomy: a positive definite unimodular form is
the standard Z^n form exactly when the minimal characteristic norm m
equals the rank, and otherwise m <= rank - 8.

The plan.  Every odd form's searches run on its exact LLL-reduced basis
(`core._lll`), computed once and reversed, so that the search of the
reversed form runs the tree of the LLL basis itself (`_search_basis`).
m, the number of minimizers and the unit-vector count do not depend on
the basis, and the lex-least minimizer is chosen in the caller's
coordinates, one coordinate at a time among the minimizers still tied, so
every answer is that of a search in the input basis.  The searches run
on the pivot rows that LLL computed, or on principal blocks of the reduced
form, so the `--stats` counters of an odd form depend only on its LLL
reduction: a form and its reduction report the same ones.  Every search
passes `enumeration._search` the pivot rows, the shift 0 as (0, 1) or
w0/2 as (w0, 2), and the radius: no query and no shift Fraction.

Even forms.  An even form is not searched at all: w = 0 is characteristic
and the only vector of norm 0, so m = 0, k = n/8 and there is one
minimizer (van der Blij 1959).  Its counters are those of the search it
skips, the radius-0 ball around 0: one path of n nodes and no prunes, in
any basis.

Units.  The norm-1 vectors of a positive definite integral lattice are
+-e_1, ..., +-e_k, pairwise orthogonal, and they split off: L = Z^k (+) L'
(Elkies, "A characterization of the Z^n lattice", Math. Res. Lett. 2,
1995).  One radius-1 search on the pivot rows of the reduced basis counts
them (`_unit_count`); the result carries their number as
`unit_vector_count`, 2n exactly when m = n, which `analyze` prints.

Components.  The characteristic search does not build L': the reduced
basis already shows the summands, as the connected components of its Gram
graph (`_components`).  A block-diagonal unimodular form has unimodular
blocks, each positive definite, so each is answered on its own: m is the
sum of the blocks' minima, the number of minimizers their product, and,
lex order being a group order, the lex-least minimizer the sum of theirs,
all in the caller's coordinates.  A rank-1 block is a unit, answered in
closed form: m = 1, two minimizers, +-its basis vector.  So Z^n itself
needs no characteristic search, and Z^24, at the rank cap, takes
milliseconds.  A form of one component is searched on its plan's rows,
and each block of several, a principal block of the reduced form that is
not reduced again, on the pivot rows of its own reversal.  A unit that
LLL leaves off the basis stays inside a larger block, whose ladder finds
it.

The mod-8 ladder.  Every other block, an even one too, climbs a ladder of
fixed radii (`_char_minimum`).  Every characteristic norm of a unimodular
lattice is congruent to its rank mod 8 (van der Blij 1959), so with n_b
the block's rank the candidates for its minimum are c = n_b mod 8,
n_b mod 8 + 8, ..., n_b.  The characteristic ball of norm c is searched
for each in turn, and the first that is not empty holds exactly the
minimizers, all of norm c.  The last rung always holds a point, since
some characteristic vector has norm at most n_b.  The `--stats` counters
add the unit search and every rung searched on every block.
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
    _lll,
    _positive_pivots,
    _reversed_pivots,
    definiteness,
    inertia,
    is_unimodular,
    negate,
    parity,
    signature,
)
from .enumeration import EnumStats, _check_rank_cap, _search
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
    over GF(2) takes its pivot columns from n-1 down to 0, so each pivot row
    is left holding its pivot and free coordinates before it only.  Two
    solutions therefore first differ at a free coordinate, and the one with
    every free coordinate 0 is the lex-least: no second pass is needed.
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
            "form is not unimodular; its 0/1 characteristic base may not be unique",
            stacklevel=2,
        )
    return CharCoset(base=_solve_gf2(g), lattice=g)


def _search_basis(g: GramMatrix) -> tuple[IntMatrix, GramMatrix, list[list[int]]]:
    """(H, form, rows): the plan of the searches of the odd positive
    definite g (see the module docstring).  form is g LLL-reduced, in
    reversed basis order: P*g'*P, P the coordinate reversal, with H the
    reduced basis in g's coordinates, its rows reversed.  rows are the pivot
    rows the kernel reads, `_reversed_pivots(form)` on and right of the
    diagonal: the elimination of g' itself, which `_lll` has just computed,
    so nothing eliminates form again.
    """
    h, reduced, rows = _lll(g)
    return h[::-1], GramMatrix(tuple(row[::-1] for row in reduced.entries[::-1])), rows


def _unit_count(rows: list[list[int]]) -> tuple[int, EnumStats]:
    """The number of norm-1 vectors of the odd form whose `_search_basis`
    plan has the pivot rows `rows`, with the counters of the radius-1 search
    that counts them: an integral lattice has no norm strictly between 0 and
    1, so that ball holds 0 and both members of each pair +-e, and no more.
    """
    vectors, _, _, stats = _search(rows, (0,) * len(rows), 1, 1)
    return len(vectors) - 1, stats


def _components(form: GramMatrix) -> list[list[int]]:
    """The connected components of form's Gram graph (i ~ j when
    form[i][j] != 0), each as its ascending indices, ordered by their least
    index: form is the orthogonal sum of its principal blocks on them."""
    parts, seen = [], set()
    for start in range(form.rank):
        if start not in seen:
            part, todo = {start}, [start]
            while todo:
                new = {j for j, x in enumerate(form.entries[todo.pop()]) if x} - part
                part |= new
                todo.extend(new)
            seen |= part
            parts.append(sorted(part))
    return parts


def _char_minimum(
    form: GramMatrix, rows: list[list[int]], basis: IntMatrix
) -> tuple[int, int, IntVector, EnumStats]:
    """(m, number of minimizers, lex-least minimizer, counters summed over
    the rungs searched) for the characteristic vectors of a positive
    definite unimodular form.

    Every rung is searched on the pivot rows `rows` of form.  The rows of
    `basis` are form's basis vectors in the caller's coordinates, and the
    minimizer is given in the caller's coordinates.
    """
    n = form.rank
    w0 = _solve_gf2(form)  # unique, as the form is unimodular
    # w = w0 + 2u, so (w, w) = 4 Q(u + w0/2): rung c of the mod-8 ladder is
    # the ball of radius c/4
    stats = EnumStats(nodes=0, prunes=0)
    for c in range(n % 8, n + 1, 8):
        vectors, tots, scale, rung = _search(rows, w0, 2, Fraction(c, 4))
        stats += rung
        if vectors:
            break
    else:
        raise NoSolutionError(f"internal error: no characteristic vector of norm <= {n}")
    if any(4 * tot != c * scale for tot in tots):
        raise NoSolutionError(f"internal error: a characteristic norm in rung {c} is not {c}")
    # w' = w0 + 2u in form's basis is w = basis^T w' in the caller's; the
    # lex-least w is built one coordinate at a time, each computed only for
    # the minimizers that tie on every coordinate before it
    mins = [tuple(x + 2 * y for x, y in zip(w0, u)) for u in vectors]
    least = []
    for column in zip(*basis):
        values = [sum(map(mul, w, column)) for w in mins]
        x = min(values)
        mins = [w for w, v in zip(mins, values) if v == x]
        least.append(x)
    return c, len(vectors), tuple(least), stats


def min_char_vector_with_stats(g: GramMatrix) -> tuple[CharVecResult, EnumStats]:
    """Like `min_char_vector` but also returns the search counters, summed as
    the module docstring says."""
    n = g.rank
    if definiteness(g) is not Definiteness.POSITIVE_DEFINITE:
        raise NotPositiveDefiniteError("minimal characteristic vectors need a positive definite form")
    if not is_unimodular(g):
        raise NotUnimodularError("minimal characteristic vectors need determinant +-1")
    _check_rank_cap(n)
    m, count, minimizer = 0, 1, (0,) * n
    if parity(g) is Parity.EVEN:
        # every centre 0, every interval [0, 0]: one path of n nodes
        units, stats = 0, EnumStats(nodes=n, prunes=0)
    else:
        h, form, rows = _search_basis(g)
        units, stats = _unit_count(rows)
        parts = _components(form)
        for part in parts:
            if len(part) == 1:
                # a unimodular block of rank 1 is (1): its minimizers are
                # +-its basis vector e, and the lex-least starts negative
                e = h[part[0]]
                m, count = m + 1, 2 * count
                w = tuple(-x for x in e) if next(filter(None, e)) > 0 else e
            else:
                if len(parts) == 1:
                    block, block_rows, basis = form, rows, h
                else:
                    block = GramMatrix(tuple(tuple(form.entries[i][j] for j in part)
                                             for i in part))
                    block_rows, basis = _reversed_pivots(block), tuple(h[i] for i in part)
                m_part, count_part, w, part_stats = _char_minimum(block, block_rows, basis)
                m, count, stats = m + m_part, count * count_part, stats + part_stats
            minimizer = tuple(map(add, minimizer, w))
    if (n - m) % 8 != 0:
        raise NoSolutionError(f"internal error: rank {n} and norm {m} differ by {n - m} mod 8")
    result = CharVecResult(
        minimizer=minimizer,
        norm_m=m,
        k=(n - m) // 8,
        count_minimizers=count,
        unit_vector_count=units,
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
    counted on the LLL-reduced form.  It runs the same `_search_basis` and
    `_unit_count` search as `min_char_vector`, so it can show leaked state
    or nondeterminism but not a wrong reduction or search: it is not an
    independent route to `CharVecResult.unit_vector_count`, and the
    self-test's searches in the unreduced basis are.  An even form has none
    and is not searched."""
    _check_rank_cap(g.rank)
    if definiteness(g) is not Definiteness.POSITIVE_DEFINITE:
        _positive_pivots(g)  # refuses the form, naming its first non-positive pivot
    if parity(g) is Parity.EVEN:
        return 0
    return _unit_count(_search_basis(g)[2])[0]


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
