"""Bounded-norm enumeration of shifted lattice points.

Finds every integer vector u with Q(u + t) <= R for a positive definite
form Q, exact rational shift t and radius R.  `_scaled_problem` turns the
ball into an all-integer problem on the pivot rows of a fraction-free
elimination, and `latgate._pykernel` searches one such problem: lex order,
the centre partial sums, the half tree and the offset are its.  `_search`
takes no query: the pivot rows, the shift as T/D with T an integer vector
and D a positive integer, and the radius.  `enumerate_coset` eliminates
the query's form (`core._reversed_pivots`) and clears its shift's
denominators; the characteristic searches pass their own rows and shifts
(`latgate.charvec`).

Splits.  A search whose ball is big enough splits it at a level k of its
pivot rows where the levels below k depend on those above through few of
them.  The separator at k is the set of levels at or above k that some row
below k reads (`_separators`, one pass over the rows from the top, finds
them all).  Every part is split by one rule (`_split`): of the levels k
whose separator has fewer levels than either side, take the narrowest,
ties to the middle.  A cut, where the form is an orthogonal sum A (+) B,
is a separator of width 0, so it always wins.

- The size gate.  Before it splits, `_search` estimates the ball's search
  tree by the Gaussian heuristic (`_small_tree`): the top k levels hold
  about V_k * sqrt(R^k * d_{n-k} / d_n) nodes, V_k the volume of the unit
  k-ball, R the radius and d_i the leading minors of the pivot rows, in
  integer arithmetic only.  A ball estimated under `_SPLIT_NODES` = 300
  nodes is one kernel call: on so small a tree the separator scan, the
  block keys and the joins cost more than the searches they share.  The
  unit search and the characteristic rungs of a conjugate of E8 (+) Z^k
  are typically that small; the rank-16 balls of radius 2 and more are
  far above it.  Only the whole ball is gated, not the parts of a split.
  The gate picks a route only: both return the same points, order and
  counters.
- The recursion.  The upper levels k .. n-1 read no level below k, so they
  are a problem of their own, split again by the same rule.  Under an
  upper point a, each lower level's centre moves by a constant that a's
  separator coordinates fix, so the lower levels are searched once per
  distinct state (leftover radius, separator coordinates).  Under a cut
  the state is the leftover alone and the lower levels read nothing above
  k, so they are split again too; under a separator each state is one
  kernel call of the lower levels, with that constant as its offset, or
  the mirror of another state's call.
- The sharing rule.  A split at a non-empty separator is taken only when
  the upper points share their lower searches, at most one distinct state
  per two points.  Otherwise, and for a part with no narrow separator,
  the part is one kernel call.
- The mirror.  When the shift lies in half the lattice (2*T_i a multiple of
  D at every level, the kernel's half test), w -> -w maps the ball onto
  itself, so under a separator the upper points pair up: a and its mirror
  a', with the same leftover and separator coordinates x' = -x - 2*T/D
  there, so a' has offset -o and its lower search is the mirror of a's.
  Only the first state of each pair that the join meets is searched, the
  lex-negative one; the other's points are -b - 2*T/D over the lower
  levels in reverse order, its norms the same list reversed, and its
  counters the same, the mirrored tree having the same shape.  A state
  that is its own mirror has offset 0, and the kernel searches it as a
  half.  A part split again applies the rule to its own separator.
- The block memo.  `_split` keeps each part's result per bound, keyed by
  its weights, rows and shift, so a block under a cut is searched once
  per distinct leftover, and equal blocks (those of Z^n, or of E8 (+) E8)
  share their searches.
- The join.  The points are the sums a + b in a-major order, which is
  lexicographic, with norm tot_a + tot_b in the one joint scale, so nothing
  sorts them.  The join extends two lists, the points and their scaled
  norms, so a ball keeps one tuple per point and no (point, norm) pair.
- The summed counters.  The counters reported (`EnumStats`) are those of
  the ball's whole search tree in every case.  The joint tree holds the
  upper part's tree and, under each upper point a, the lower part's tree at
  a's leftover, so nodes = nodes_A + sum_a nodes_B(a), and likewise prunes,
  each part's counters being its whole tree's (`_pykernel`).

So E8 at radius 4 splits at a separator of one level: its 191 upper points
share 35 states, 16 mirror pairs and 3 states that are their own mirrors,
so 1 + 19 calls of rank 4 visit 985 nodes.  At radius 2, estimated at
about 367 nodes, its 14 states take 1 + 8; at radius 1, estimated at 64,
it is one call of rank 8, as is the radius-1 unit search of Z^16, one
call of rank 16.  E8 (+) E8 at radius 4 is cut into two equal E8 blocks,
so one E8 search at each leftover 4, 2 and 0 serves both: 20 and 9 calls
of rank 4 as above, and at leftover 0 one upper call whose single point
does not pay, then one of rank 8.  Its 31 calls visit 1,237 nodes of the
204,388 it reports.  Z^16 at radius 3 takes four calls of rank 1.  D16plus
at radius 4 has no cut, but the rows below level 8 read, of the levels
above, only level 8 and the glue level 15: its 4,017 upper points share
89 states, 43 mirror pairs and 3 states that are their own mirrors.  The
upper eight levels split again at a separator, in 33 calls of rank 4, and
the lower take 46 calls of rank 8; the 79 calls visit 12,008 nodes of the
207,570 it reports.

The oracle (`brute_force_coset`, `sufficient_box`) is a second, independent
route: it evaluates the Gram form on every cell of a box, and takes the
box and its per-axis clip from one Cauchy-Schwarz bound built from
determinants of principal minors (`_axis_reach`, `_scan_problem`), never
from the pivot rows that the search reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import factorial, isqrt, lcm, prod
from operator import itemgetter, mul, sub
from typing import Sequence

from . import _pykernel as _kernel
from .core import (
    Definiteness,
    GramMatrix,
    _exact,
    _reversed_pivots,
    definiteness,
)
from .errors import BadShapeError, NotPositiveDefiniteError, RankCapExceededError

__all__ = [
    "DEFAULT_RANK_CAP",
    "EnumQuery",
    "EnumStats",
    "EnumResult",
    "kernel_name",
    "enumerate_coset",
    "brute_force_coset",
    "sufficient_box",
]

DEFAULT_RANK_CAP = 24


def kernel_name() -> str:
    """The search kernel's name, reported by `--stats`: always 'python'."""
    return "python"


@dataclass(frozen=True)
class EnumQuery:
    """A coset ball: all u in Z^n with (u+shift)^T form (u+shift) <= radius.

    The shift's entries and the radius are ints or Fractions, kept as
    Fractions; a float, a bool or a string is refused with BadShapeError,
    not coerced.
    """

    form: GramMatrix
    shift: tuple[Fraction, ...]
    radius: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "shift", tuple(
            _exact(s, f"shift entry {i}") for i, s in enumerate(self.shift)))
        object.__setattr__(self, "radius", _exact(self.radius, "radius"))
        if len(self.shift) != self.form.rank:
            raise BadShapeError(
                f"shift has length {len(self.shift)}, expected {self.form.rank}"
            )
        if self.radius < 0:
            raise BadShapeError("radius must be nonnegative")


@dataclass(frozen=True)
class EnumStats:
    """The counters of a ball's whole search tree: nodes, its prefixes of
    partial norm within the radius, and prunes, the levels entered with an
    empty interval.  They describe the whole tree, whatever route was
    searched to find the points (a half and its mirror, or the parts of a
    split), so they depend on the pivot rows and the query only."""

    nodes: int
    prunes: int

    def __add__(self, other: "EnumStats") -> "EnumStats":
        """The counters of two searches together."""
        return EnumStats(nodes=self.nodes + other.nodes, prunes=self.prunes + other.prunes)


@dataclass(frozen=True)
class EnumResult:
    """Vectors in lexicographic order, with exact norms Q(u + shift).

    `stats` holds the search's counters (None from the oracle's scan); they
    describe the route, not the result, so equality ignores them.
    """

    vectors: tuple[tuple[int, ...], ...]
    norms: tuple[Fraction, ...]
    exhaustive: bool = True
    stats: EnumStats | None = field(default=None, compare=False)


def _scaled_problem(M: Sequence[Sequence[int]], T: Sequence[int], D: int, radius: Fraction | int):
    """The kernel's integer problem for the ball Q(u + T/D) <= radius:
    returns (W, T', C, scale).

    The problem is the coordinate-reversed one, P*G*P with P the reversal,
    so that the kernel's outermost level is the caller's coordinate 0.  M
    is `_reversed_pivots(form)`, or rows equal to it on and right of the
    diagonal: the pivot rows of P*G*P, with d_{i+1} = M[i][i] its leading
    minors, all positive.  Completing the squares (Fincke and Pohst 1985)
    gives Q(y) = sum_i (M_i . y)^2 / (d_i*d_{i+1}).  T' = P*T, L is the lcm
    of the products d_i*d_{i+1} and W[i] = L / (d_i*d_{i+1}), so that
    scale*Q(u + T/D) is sum_i W[i]*(M_i . w)^2 with w = D*P*u + T' and
    scale = L*D^2.  C is floor(scale*radius).  The search builds no
    Fraction: the exact norms, Fraction(scaled_norm, scale), are made only
    when a ball is reported (`_exact_norms`).
    """
    minors = [1] + [row[i] for i, row in enumerate(M)]
    products = [a * b for a, b in zip(minors, minors[1:])]
    L = lcm(*products)
    W = [L // p for p in products]
    scale = L * D * D
    return W, T[::-1], radius.numerator * scale // radius.denominator, scale


def _check_rank_cap(n: int) -> None:
    """Refuse a search above the rank cap before any work is spent on it."""
    if n > DEFAULT_RANK_CAP:
        raise RankCapExceededError(f"rank {n} exceeds the cap of {DEFAULT_RANK_CAP}")


def _separators(M: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """(widths, first) of the pivot rows M: first[j] is the first row that
    reads level j (the least i with M[i][j] nonzero, j itself when no row
    above reads it), and widths[k], for 0 < k < n, is the number of levels
    j >= k with first[j] < k (widths[0] is 0): the separator at k of the
    module docstring, and a cut where the width is 0.  One pass over the
    rows from the top, reading in each row only the columns right of its
    diagonal that no row above reads; it stops once every column is read.
    """
    n = len(M)
    first = list(range(n))
    unread = range(1, n)
    for i, row in enumerate(M):
        rest = []
        for j in unread:
            if row[j]:
                first[j] = i
            elif j > i + 1:  # no row below i reads column i+1 above its diagonal
                rest.append(j)
        if not rest:
            break
        unread = rest
    change = [0] * (n + 1)
    for j, i in enumerate(first):  # level j lies in the separators at i+1 .. j
        change[i + 1] += 1
        change[j + 1] -= 1
    return list(accumulate(change[:n])), first


# The size gate of the module docstring: a ball whose estimated tree has
# fewer than _SPLIT_NODES nodes is one kernel call.  _BALL_VOLUME_SQ[k] is
# V_k**2 * 4**_GATE_BITS, rounded down, V_k = pi**(k/2) / Gamma(k/2 + 1) the
# volume of the unit k-ball with pi taken as 355/113: V_k**2 is
# pi**k / (k/2)!**2 for even k and 4**((k+1)/2) * pi**(k-1) / k!!**2 for odd k.
_SPLIT_NODES = 300
_GATE_BITS = 12


def _ball_volume_sq(k: int) -> int:
    m, odd = divmod(k, 2)
    num, den = 355 ** (2 * m), 113 ** (2 * m)
    if odd:
        num, den = num * 4 ** (m + 1), den * prod(range(1, k + 1, 2)) ** 2
    else:
        den *= factorial(m) ** 2
    return (num << 2 * _GATE_BITS) // den


_BALL_VOLUME_SQ = [_ball_volume_sq(k) for k in range(DEFAULT_RANK_CAP + 1)]


def _small_tree(minors: Sequence[int], radius: Fraction | int) -> bool:
    """Whether the ball of `radius` on pivot rows with leading minors
    `minors` (minors[0] = 1, minors[i+1] = M[i][i]) has an estimated search
    tree of fewer than _SPLIT_NODES nodes.

    The estimate is the Gaussian heuristic: the top k levels hold about
    V_k * sqrt(R**k * d_{n-k} / d_n) nodes, since level i's coordinate
    reaches sqrt(C / (W[i]*(M[i][i]*D)**2)) = sqrt(R*d_i/d_{i+1}) in the
    scaled problem and the product over the top k levels telescopes.  Each term is
    taken by `isqrt` of its square in units of 2**-_GATE_BITS, and the sum
    stops once it reaches the constant: integers only, at any radius.
    """
    n = len(minors) - 1
    p, q = radius.numerator, radius.denominator
    limit = _SPLIT_NODES << _GATE_BITS
    total = 0
    top, bottom = 1, minors[n]
    for k in range(1, n + 1):
        top *= p
        bottom *= q
        total += isqrt(_BALL_VOLUME_SQ[k] * top * minors[n - k] // bottom)
        if total >= limit:
            return False
    return True


def _dfs_columns(*problem, **kwargs):
    """One kernel call, its points split into two lists once: (vectors,
    scaled norms, nodes, prunes), the kernel's pairs taken apart."""
    pairs, nodes, prunes = _kernel.dfs_enumerate(*problem, **kwargs)
    return list(map(itemgetter(0), pairs)), list(map(itemgetter(1), pairs)), nodes, prunes


def _split(W, M, T, D, C, memo):
    """(vectors, scaled norms, nodes, prunes) of the problem (W, M, T, D) at
    bound C, given as tuples, whose rows read no level outside it.

    The split of the module docstring: at the narrowest separator, ties to
    the middle, the upper levels split again by `_split`, and the lower ones
    split again under a cut or searched once per state under a separator,
    once per mirror pair of states when the shift lies in half the lattice;
    one kernel call when no separator is narrow or the split does not pay.
    `memo` is the block memo; the lists it returns may be shared through
    it, so nothing appends to them.
    """
    key = W, M, T, C
    if key in memo:
        return memo[key]
    n = len(M)
    widths, first = _separators(M)
    narrow = [(w, abs(2 * k - n), k) for k, w in enumerate(widths) if w < k and w < n - k]
    out = None
    if narrow:
        k = min(narrow)[2]
        sep = [j for j in range(k, n) if first[j] < k]
        ups, up_tots, nodes, prunes = _split(
            W[k:], tuple(row[k:] for row in M[k:]), T[k:], D, C, memo)
        states = up_tots  # under a cut, the lower levels see only the leftover
        if sep:
            at = itemgetter(*[n - 1 - j for j in sep])  # the separator's coordinates of a
            states = list(zip(up_tots, map(at, ups)))
        if not sep or 2 * len(set(states)) <= len(states):
            low = W[:k], tuple(row[:k] for row in M[:k]), T[:k]
            cols = [[row[j] for j in sep] for row in M[:k]]  # the separator's part of each row
            half = sep and all(2 * t % D == 0 for t in T)  # the kernel's half test
            flip = [-2 * t // D for t in T[::-1]]  # the mirror w -> -w, in coordinate order
            low_flip = flip[n - k:]
            vecs, tots = [], []
            summed = {}  # state -> the lower levels' points and their joint norms
            for a, tot_a, state in zip(ups, up_tots, states):
                if state not in summed:
                    if sep:
                        w = [D * a[n - 1 - j] + T[j] for j in sep]
                        part = _dfs_columns(k, *low, D, C - tot_a,
                                            offset=[sum(map(mul, col, w)) for col in cols])
                    else:
                        part = _split(*low, D, C - tot_a, memo)
                    bs, low_tots, n_low, p_low = part
                    norms = [tot_a + t for t in low_tots]
                    summed[state] = bs, norms, n_low, p_low
                    if half:  # a's mirror a' is at offset -o: the mirror of this search
                        mirror = tot_a, at(tuple(map(sub, flip, a)))
                        if mirror != state:
                            summed[mirror] = ([tuple(map(sub, low_flip, b)) for b in reversed(bs)],
                                              norms[::-1], n_low, p_low)
                bs, norms, n_low, p_low = summed[state]
                nodes += n_low
                prunes += p_low
                vecs += [a + b for b in bs]
                tots += norms
            out = vecs, tots, nodes, prunes
    memo[key] = out = out or _dfs_columns(n, W, M, T, D, C)
    return out


def _search(rows: Sequence[Sequence[int]], T: Sequence[int], D: int, radius: Fraction | int):
    """Search the ball Q(u + T/D) <= radius of the form whose pivot rows are
    `rows` (see `_scaled_problem`), T an integer vector and D > 0; returns
    (vectors, scaled norms, scale, stats), the vectors and their scaled
    norms as two lists of equal length, index by index.

    The vectors are every point of the ball, in strictly increasing
    lexicographic order.  A ball whose tree the size gate (`_small_tree`)
    estimates under `_SPLIT_NODES` nodes is one kernel call; a bigger one
    goes to `_split`.  The stats are those of one search of the whole
    form.  The rows come from `_reversed_pivots`, which refuses a form that
    is not positive definite, or from LLL, which reduces positive definite
    forms only.
    """
    W, T, C, scale = _scaled_problem(rows, T, D, radius)
    n = len(rows)
    if _small_tree([1] + [row[i] for i, row in enumerate(rows)], radius):
        out = _dfs_columns(n, W, rows, T, D, C)
    else:
        out = _split(tuple(W), tuple(map(tuple, rows)), tuple(T), D, C, {})
    vectors, tots, nodes, prunes = out
    return vectors, tots, scale, EnumStats(nodes=nodes, prunes=prunes)


def _exact_norms(tots, scale: int) -> tuple[Fraction, ...]:
    """Fraction(t, scale) for each scaled norm t of the list `tots`, one
    Fraction per distinct norm: a ball holds many vectors but few distinct
    norms, so its norms share those few objects."""
    norms = {t: Fraction(t, scale) for t in set(tots)}
    return tuple(map(norms.__getitem__, tots))


def enumerate_coset(query: EnumQuery) -> EnumResult:
    """All u with Q(u + shift) <= radius, in lexicographic order, with their
    exact norms and the counters of the ball's whole search tree
    (`EnumStats`), searched by `_search` on the form's reversed pivot rows.

    Raises on rank above `DEFAULT_RANK_CAP` and on non-positive-definite
    forms, naming the first non-positive pivot.
    """
    _check_rank_cap(query.form.rank)
    # cleared here and again in `_scan_problem`: the oracle keeps its own
    # arithmetic, so a fault in this step cannot hide from the cross-check
    D = lcm(*[s.denominator for s in query.shift])
    T = [s.numerator * (D // s.denominator) for s in query.shift]
    vectors, tots, scale, stats = _search(_reversed_pivots(query.form), T, D, query.radius)
    return EnumResult(
        vectors=tuple(vectors),
        norms=_exact_norms(tots, scale),
        exhaustive=True,
        stats=stats,
    )


def _axis_reach(form: GramMatrix, C2: int) -> list[int]:
    """reach[i] >= |v_i| for every integer v with v^T G v <= C2.

    Cauchy-Schwarz in the inner product of G gives
    v_i^2 <= (G^-1)_ii * v^T G v, and (G^-1)_ii = adj_ii / det with adj_ii
    the principal minor of G without row and column i.  At C2 = 0 every
    reach is 0 and nothing is eliminated.  Otherwise all n of them come
    from one fraction-free Gauss-Jordan elimination of [G | I] (Bareiss
    1968), which ends at [det*I | adj G]: every division is exact, and G
    is positive definite, so no pivot vanishes.  Built from determinants
    only, so the scan shares no pivot rows with the search it checks.
    """
    n = form.rank
    if not C2:
        return [0] * n
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(form.entries)]
    prev = 1
    for k in range(n):
        pivot_row, pivot = a[k], a[k][k]
        for i, row in enumerate(a):
            if i != k:
                f = row[k]
                for j in range(k + 1, 2 * n):
                    row[j] = (pivot * row[j] - f * pivot_row[j]) // prev
        prev = pivot
    return [isqrt(C2 * a[i][n + i] // prev) for i in range(n)]


def _scan_problem(query: EnumQuery) -> tuple[int, list[int], int, list[int], int, int]:
    """(D, T, C2, reach, box, cells): the plan of the oracle's box scan.

    D clears the shift's denominators and T = D*shift, so u is a hit iff
    v = D*u + T has v^T G v <= C2 = floor(D^2 * radius); reach is
    `_axis_reach` at C2, so every hit has |D*u_i + T_i| <= reach_i.  box is
    the largest per-axis extent (reach_i + |T_i|) // D: the cube of that
    size holds every hit, and it never binds the per-axis clip.  cells is
    the number of cells the scan at box visits: the product over axes of
    the count of u_i with |D*u_i + T_i| <= reach_i, an interval of length
    2*reach_i/D >= 0, so no count is negative.  The clip drops only cells
    that cannot be hits, so the scan returns what a scan of the whole cube
    would.  The plan takes no Cholesky factor and builds no inverse.  At
    C2 = 0 (the characteristic ball of an even form, radius 0 around 0)
    every reach is 0 and `_axis_reach` eliminates nothing: the scan is the
    one cell u = -T/D when the shift is integral, and none otherwise.  The
    form's definiteness is checked first, so an indefinite or degenerate
    form is refused at any radius.
    """
    if definiteness(query.form) is not Definiteness.POSITIVE_DEFINITE:
        raise NotPositiveDefiniteError("brute-force scan requires a positive definite form")
    D = lcm(*[s.denominator for s in query.shift])
    T = [s.numerator * (D // s.denominator) for s in query.shift]
    scaled = query.radius * D * D
    C2 = scaled.numerator // scaled.denominator
    reach = _axis_reach(query.form, C2)
    box = max((r + abs(t)) // D for t, r in zip(T, reach))
    cells = prod((r - t) // D + (r + t) // D + 1 for t, r in zip(T, reach))
    return D, T, C2, reach, box, cells


def _box_scan(query: EnumQuery, problem: tuple, box: int) -> EnumResult:
    """The scan of `brute_force_coset` at `box` >= 0, on the plan `problem`
    that `_scan_problem(query)` returned."""
    D, T, C2, reach, sufficient, _ = problem
    pairs = _kernel.brute_scan(query.form.rank, query.form.entries, T, D, C2, box, reach=reach)
    return EnumResult(
        vectors=tuple(map(itemgetter(0), pairs)),
        norms=_exact_norms(list(map(itemgetter(1), pairs)), D * D),
        exhaustive=box >= sufficient,
    )


def brute_force_coset(query: EnumQuery, box: int) -> EnumResult:
    """Oracle twin of `enumerate_coset`: every hit in the cube |u_i| <= box,
    in lexicographic order, by the scan that `_scan_problem` plans.  The
    result is marked `exhaustive` when box >= `sufficient_box(query)`,
    which makes it complete.  A box that is not an int (a bool, a float or
    a string) or is negative is refused with BadShapeError.
    """
    if isinstance(box, bool) or not isinstance(box, int):
        raise BadShapeError(f"box is not an int: {box!r}")
    if box < 0:
        raise BadShapeError("box must be nonnegative")
    return _box_scan(query, _scan_problem(query), box)


def sufficient_box(query: EnumQuery) -> int:
    """A box size that provably contains every vector of the coset ball
    (see `_scan_problem`).  Raises NotPositiveDefiniteError unless the form
    is positive definite.
    """
    *_, box, _ = _scan_problem(query)
    return box
