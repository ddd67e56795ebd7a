"""Bounded-norm enumeration of shifted lattice points.

Finds every integer vector u with Q(u + t) <= R for a positive definite
form Q, exact rational shift t and radius R.  The recursion is the classic
completed-squares interval search, but run on a rescaled all-integer
problem so that the kernel (`latgate._pykernel`) decides membership with
integer square roots only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Sequence

from . import _pykernel as _kernel
from .core import (
    Definiteness,
    GramMatrix,
    RationalCholesky,
    _bareiss,
    cholesky,
    definiteness,
    determinant,
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


@dataclass(frozen=True)
class EnumResult:
    """Lexicographically sorted vectors with exact norms Q(u + shift)."""

    vectors: tuple[tuple[int, ...], ...]
    norms: tuple[Fraction, ...]
    exhaustive: bool = True
    stats: EnumStats | None = None


def _scaled_problem(chol: RationalCholesky, shift: Sequence[Fraction], radius: Fraction):
    """Clear denominators: returns (W, M, T, D, C, scale) with scale = L*D^4.

    Exact norms are recovered as Fraction(scaled_norm, scale).
    """
    n = len(chol.diag)
    dens = [f.denominator for f in shift]
    for i in range(n):
        for j in range(i + 1, n):
            dens.append(chol.upper[i][j].denominator)
    D = lcm(*dens) if dens else 1
    L = lcm(*[d.denominator for d in chol.diag])
    W = [d.numerator * (L // d.denominator) for d in chol.diag]
    T = [s.numerator * (D // s.denominator) for s in shift]
    M = [
        [
            chol.upper[i][j].numerator * (D // chol.upper[i][j].denominator)
            if j > i
            else 0
            for j in range(n)
        ]
        for i in range(n)
    ]
    scale = L * D**4
    scaled = radius * scale
    C = scaled.numerator // scaled.denominator
    return W, M, T, D, C, scale


def _ceil_sqrt_bound(r: Fraction) -> Fraction:
    """A rational s with s >= sqrt(r), tight to within 1/denominator."""
    a, b = r.numerator, r.denominator
    s = isqrt(a * b)
    if s * s < a * b:
        s += 1
    return Fraction(s, b)


def _coordinate_bound(chol: RationalCholesky, shift: Sequence[Fraction], radius: Fraction) -> int:
    """Integer B with |u_i| <= B for every coordinate the search can visit.

    Every visited candidate satisfies the per-level constraint
    d_i * (y_i + sum_{j>i} mu_ij y_j)^2 <= R with y = u + shift, so writing
    the unit triangular change of variables back gives
    |y_i| <= sum_j |inv[i][j]| * sqrt(R/d_j).
    """
    n = len(chol.diag)
    mu = chol.upper
    inv = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        inv[i][i] = Fraction(1)
        for j in range(i + 1, n):
            s = Fraction(0)
            for k in range(i + 1, j + 1):
                if mu[i][k]:
                    s += mu[i][k] * inv[k][j]
            inv[i][j] = -s
    sq = [_ceil_sqrt_bound(radius / d) for d in chol.diag]
    worst = Fraction(0)
    for i in range(n):
        b = abs(Fraction(shift[i]))
        for j in range(i, n):
            if inv[i][j]:
                b += abs(inv[i][j]) * sq[j]
        if b > worst:
            worst = b
    bound = -((-worst.numerator) // worst.denominator)
    return max(int(bound), 1)


def _check_rank_cap(n: int, rank_cap: int) -> None:
    """Refuse a search above the rank cap before any work is spent on it."""
    if n > rank_cap:
        raise RankCapExceededError(f"rank {n} exceeds the cap of {rank_cap}")


def _search(query: EnumQuery, *, shrink: bool = False, rank_cap: int = DEFAULT_RANK_CAP):
    """Run the kernel; returns (sorted (coords, scaled_norm) pairs, scale, stats)."""
    n = query.form.rank
    _check_rank_cap(n, rank_cap)
    chol = cholesky(query.form)
    W, M, T, D, C, scale = _scaled_problem(chol, query.shift, query.radius)
    pairs, nodes, prunes = _kernel.dfs_enumerate(n, W, M, T, D, C, shrink=shrink)
    pairs.sort()
    return pairs, scale, EnumStats(nodes=nodes, prunes=prunes)


def enumerate_coset(query: EnumQuery, *, with_stats: bool = False,
                    rank_cap: int = DEFAULT_RANK_CAP) -> EnumResult:
    """All u with Q(u + shift) <= radius, sorted lexicographically.

    Raises on non-positive-definite forms and on rank above `rank_cap`.
    """
    pairs, scale, stats = _search(query, shrink=False, rank_cap=rank_cap)
    return EnumResult(
        vectors=tuple(p[0] for p in pairs),
        norms=tuple(Fraction(p[1], scale) for p in pairs),
        exhaustive=True,
        stats=stats if with_stats else None,
    )


def _axis_reach(form: GramMatrix, C2: int) -> list[int]:
    """reach[i] >= |v_i| for every integer v with v^T G v <= C2.

    Cauchy-Schwarz in the inner product of G gives
    v_i^2 <= (G^-1)_ii * v^T G v, and (G^-1)_ii = adj_ii / det with adj_ii
    the principal minor of G without row and column i (1 at rank 1).  Built
    from determinants only, so the scan shares no Cholesky data with the
    search it checks.
    """
    det = determinant(form)
    rows = form.entries
    reach = []
    for i in range(form.rank):
        minor = [row[:i] + row[i + 1:] for k, row in enumerate(rows) if k != i]
        adj = _bareiss(minor)[0] if minor else 1
        reach.append(isqrt(C2 * adj // det))
    return reach


def brute_force_coset(query: EnumQuery, box: int) -> EnumResult:
    """Oracle twin of `enumerate_coset`: every hit in the cube |u_i| <= box.

    Evaluates the Gram form directly (no Cholesky anywhere on this path) so
    the two routes stay independent.  The scan covers the cube clipped per
    axis to the proven Cauchy-Schwarz extents of `_axis_reach`, which drops
    only cells that cannot be hits, so the result is exactly that of the
    full cube.  Complete whenever box >= `sufficient_box(query)`.
    """
    if box < 0:
        raise BadShapeError("box must be nonnegative")
    if definiteness(query.form) is not Definiteness.POSITIVE_DEFINITE:
        raise NotPositiveDefiniteError("brute-force scan requires a positive definite form")
    n = query.form.rank
    D = lcm(*[s.denominator for s in query.shift])
    T = [s.numerator * (D // s.denominator) for s in query.shift]
    scaled = query.radius * D * D
    C2 = scaled.numerator // scaled.denominator
    pairs = _kernel.brute_scan(n, [list(r) for r in query.form.entries], T, D, C2, box,
                               reach=_axis_reach(query.form, C2))
    pairs.sort()
    return EnumResult(
        vectors=tuple(p[0] for p in pairs),
        norms=tuple(Fraction(p[1], D * D) for p in pairs),
        exhaustive=True,
        stats=None,
    )


def sufficient_box(query: EnumQuery) -> int:
    """A box size that provably contains every vector of the coset ball."""
    chol = cholesky(query.form)
    return _coordinate_bound(chol, query.shift, query.radius)
