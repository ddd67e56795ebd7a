"""Bounded-norm enumeration of shifted lattice points.

Finds every integer vector u with Q(u + t) <= R for a positive definite
form Q, exact rational shift t and radius R.  The recursion is the classic
completed-squares interval search (Fincke and Pohst 1985), run on a rescaled
all-integer problem read straight off the integer pivot rows of one
fraction-free elimination (Bareiss 1968), so that the kernel
(`latgate._pykernel`) decides membership with integer square roots only and
no Fraction is built before the norms are reported.  The elimination is of
the coordinate-reversed form, so the search fixes coordinate 0 outermost
and emits the points in lexicographic order: nothing sorts them.

The oracle (`brute_force_coset`, `sufficient_box`) is a second, independent
route: it evaluates the Gram form on every cell of a box, and takes the
box and its per-axis clip from one Cauchy-Schwarz bound built from
determinants of principal minors (`_axis_reach`, the adjugate's diagonal),
never from the pivot rows that the search reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, lcm, prod
from typing import Sequence

from . import _pykernel as _kernel
from .core import (
    Definiteness,
    GramMatrix,
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
    """A coset ball: all u in Z^n with (u+shift)^T form (u+shift) <= radius."""

    form: GramMatrix
    shift: tuple[Fraction, ...]
    radius: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "shift", tuple(Fraction(s) for s in self.shift))
        object.__setattr__(self, "radius", Fraction(self.radius))
        if len(self.shift) != self.form.rank:
            raise BadShapeError(
                f"shift has length {len(self.shift)}, expected {self.form.rank}"
            )
        if self.radius < 0:
            raise BadShapeError("radius must be nonnegative")


@dataclass(frozen=True)
class EnumStats:
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


def _scaled_problem(form: GramMatrix, shift: Sequence[Fraction], radius: Fraction):
    """The kernel's integer problem: returns (W, M, T, D, C, scale).

    The problem is the coordinate-reversed one, P*G*P with P the reversal,
    so that the kernel's outermost level is the caller's coordinate 0.  M is
    `_reversed_pivots(form)`, the pivot rows of P*G*P, and d_{i+1} = M[i][i]
    its leading minors.  D clears the shift's denominators, T = D*P*shift,
    L is the lcm of the products d_i*d_{i+1} and W[i] = L / (d_i*d_{i+1}),
    so that scale*Q(u + shift) is sum_i W[i]*(M_i . w)^2 with w = D*P*u + T
    and scale = L*D^2.  C is floor(scale*radius); exact norms are
    Fraction(scaled_norm, scale).
    """
    M = _reversed_pivots(form)
    minors = [1] + [row[i] for i, row in enumerate(M)]
    products = [a * b for a, b in zip(minors, minors[1:])]
    L = lcm(*products)
    W = [L // p for p in products]
    D = lcm(*[s.denominator for s in shift])
    T = [s.numerator * (D // s.denominator) for s in reversed(shift)]
    scale = L * D * D
    return W, M, T, D, radius.numerator * scale // radius.denominator, scale


def _check_rank_cap(n: int) -> None:
    """Refuse a search above the rank cap before any work is spent on it."""
    if n > DEFAULT_RANK_CAP:
        raise RankCapExceededError(f"rank {n} exceeds the cap of {DEFAULT_RANK_CAP}")


def _search(query: EnumQuery):
    """Run the kernel; returns ((coords, scaled_norm) pairs, scale, stats).

    The pairs are every point of the ball, in strictly increasing
    lexicographic order of the coordinates, as the kernel visits them:
    nothing sorts them.  Raises NotPositiveDefiniteError, naming the first
    non-positive pivot, unless the form is positive definite.
    """
    W, M, T, D, C, scale = _scaled_problem(query.form, query.shift, query.radius)
    pairs, nodes, prunes = _kernel.dfs_enumerate(query.form.rank, W, M, T, D, C)
    return pairs, scale, EnumStats(nodes=nodes, prunes=prunes)


def _exact_norms(pairs, scale: int) -> tuple[Fraction, ...]:
    """Fraction(scaled_norm, scale) for each pair, one Fraction per distinct
    norm: a ball holds many vectors but few distinct norms."""
    norms = {s: Fraction(s, scale) for s in {p[1] for p in pairs}}
    return tuple(norms[p[1]] for p in pairs)


def enumerate_coset(query: EnumQuery) -> EnumResult:
    """All u with Q(u + shift) <= radius, in lexicographic order: the search
    emits them in that order, so nothing sorts them.  The result carries the
    search's counters.

    Raises on rank above `DEFAULT_RANK_CAP` and on non-positive-definite forms.
    """
    _check_rank_cap(query.form.rank)
    pairs, scale, stats = _search(query)
    return EnumResult(
        vectors=tuple(p[0] for p in pairs),
        norms=_exact_norms(pairs, scale),
        exhaustive=True,
        stats=stats,
    )


def _axis_reach(form: GramMatrix, C2: int) -> list[int]:
    """reach[i] >= |v_i| for every integer v with v^T G v <= C2.

    Cauchy-Schwarz in the inner product of G gives
    v_i^2 <= (G^-1)_ii * v^T G v, and (G^-1)_ii = adj_ii / det with adj_ii
    the principal minor of G without row and column i.  All n of them come
    from one fraction-free Gauss-Jordan elimination of [G | I], which ends
    at [det*I | adj G]: every division is exact, and G is positive definite,
    so no pivot vanishes.  Built from determinants only, so the scan shares
    no pivot rows with the search it checks.
    """
    n = form.rank
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
    2*reach_i/D >= 0, so no count is negative.
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
        vectors=tuple(p[0] for p in pairs),
        norms=_exact_norms(pairs, D * D),
        exhaustive=box >= sufficient,
    )


def brute_force_coset(query: EnumQuery, box: int) -> EnumResult:
    """Oracle twin of `enumerate_coset`: every hit in the cube |u_i| <= box.

    Evaluates the Gram form directly and bounds the scan by determinants
    only (`_axis_reach`), so the two routes share no pivot rows.  The
    scan covers the cube clipped per axis to the proven Cauchy-Schwarz
    extents, which drops only cells that cannot be hits, so the result is
    exactly that of the full cube, in lexicographic order.  The result is
    marked `exhaustive` when box >= `sufficient_box(query)`, which makes
    it complete.
    """
    if box < 0:
        raise BadShapeError("box must be nonnegative")
    return _box_scan(query, _scan_problem(query), box)


def sufficient_box(query: EnumQuery) -> int:
    """A box size that provably contains every vector of the coset ball.

    Built from determinants only (`_axis_reach`, see `_scan_problem`), with
    no Cholesky factor and no inverse.  Raises NotPositiveDefiniteError
    unless the form is positive definite.
    """
    *_, box, _ = _scan_problem(query)
    return box
