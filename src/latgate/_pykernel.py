"""The search kernels: the DFS behind every coset search and the oracle's box scan.

The enumeration runs on a rescaled integer problem prepared by
`latgate.enumeration` from the pivot rows M of a fraction-free elimination
of the coordinate-reversed form, whose level i is the caller's coordinate
n-1-i:

    w_i = D*u[n-1-i] + T_i            (scaled coordinate, integer)
    S_i = M[i][i]*w_i + sum_{j>i} M[i][j]*w_j
    accept u  iff  sum_i W[i]*S_i**2 <= C

Every M[i][i] is positive, so S_i moves by M[i][i]*D per unit step.  The
search fixes level n-1 (the caller's coordinate 0) outermost and level 0
(coordinate n-1) innermost, each over an ascending interval, so leaves come
out in lexicographic order of the caller's coordinates.

The centre M[i][i]*T_i + sum_{j>i} M[i][j]*w_j of level i is not rebuilt
on every descent.  Each level keeps a row of partial sums over the levels
above it and a staleness index: the highest level whose w may have moved
since that row was refreshed.  A descent refreshes only the stale part of
the row, the centre sums of Schnorr and Euchner (Math. Programming 66,
1994), here on the integer Fincke-Pohst search.  The tree is the one that
recomputing every centre would give.

When 2*T_i is a multiple of D at every level (the shift lies in half the
lattice: every zero-shift ball, every unit search and every rung of the
characteristic ladder), w -> -w maps the ball onto itself and keeps each
norm; in the caller's coordinates that is u -> -u - 2*shift.  The search
then visits only the lex-negative half of the tree (w whose first nonzero
entry from the top level down is negative, plus w = 0), the symmetry of
Fincke and Pohst (Math. Comp. 44, 1985) and of Schnorr and Euchner: at a
level whose partial norm is 0, which holds exactly when every w above it
is 0, the interval's upper end is cut to w_i <= 0.  The mirror reverses
lexicographic order, so the whole ball in order is the half, then the
mirror of the half walked backwards without the centre w = 0.  The
counters returned are those of the whole tree, got from the half's in
closed form, so every caller sees the same points, the same order and
the same counts as from a search of both halves.

All interval endpoints come from `math.isqrt` and integer floor division,
so every accept/reject decision is exact.  No floats anywhere.  The bound C
is fixed for the whole search.
"""

from __future__ import annotations

from itertools import islice
from math import isqrt
from operator import neg, sub

__all__ = ["dfs_enumerate", "brute_scan"]


def dfs_enumerate(n, W, M, T, D, C):
    """Depth-first search over levels n-1 .. 0, ascending coordinate order.

    C is nonnegative, as every radius is.  Level i's coordinate is stored
    at u[n-1-i].  Returns (results, nodes, prunes) where results is a list
    of (coordinates, scaled_norm) pairs, one for every point with scaled
    norm <= C, in strictly increasing lexicographic order of the
    coordinates.  Every interval is cut at the bound C, so each node of the
    tree has partial norm <= C.  Only the entries M[i][j] with j >= i are
    read.

    nodes and prunes describe the ball's whole search tree: nodes counts
    its prefixes (u[0], ..., u[n-1-i]) of partial norm <= C, prunes the
    levels entered whose interval is empty.  When every 2*T[i] is a
    multiple of D the loop visits about half of that tree (the lex-negative
    half, see the module docstring) and `_unfold` adds the mirror of the
    points and of the counts; any other input is searched whole.

    One block enters every level, the top one included: it enters level i
    at partial norm tot, with row i of the partial sums stale from level r
    down, refreshes sig[i][j] = M[i][i]*T[i] + sum_{j' >= j} M[i][j']*w[j']
    for j = r .. i+1 only (sig[i][n] = M[i][i]*T[i]) and cuts the level's
    interval around its centre sig[i][i+1].  Under the symmetry, a level
    entered at tot = 0 (every w above it is 0) is cut further to
    w[i] <= 0, that is u[n-1-i] <= (-T[i]) // D.  The top level is entered
    with i = r = n-1 and tot = 0, which refreshes nothing.  The level's
    nodes are then visited in ascending order: a leaf is emitted, an
    exhausted level returns to its parent's next coordinate, and any other
    node descends, which enters level i-1.

    State per level i: the row sig[i]; stale[i], the highest level whose w
    may have moved since row i was refreshed (a descent into level i passes
    it down to row i-1, whose staleness is the larger of the two, and resets
    it to i+1, the level that moves next); the interval's upper end
    hi_arr[i]; the partial norm acc[i] above the level; the coordinate
    u[n-1-i] and its scaled value w[i] = D*u[n-1-i] + T[i].
    """
    results: list[tuple[tuple[int, ...], int]] = []
    inner = 0  # nodes that descend, once each; the others are the leaves
    prunes = 0
    half = all(2 * t % D == 0 for t in T)
    cap = [(-t) // D for t in T]  # the largest u with w <= 0, per level
    step = [M[i][i] * D for i in range(n)]
    sig = [[0] * n + [M[i][i] * T[i]] for i in range(n)]
    stale = [n - 1] * n
    hi_arr = [0] * n
    acc = [0] * n
    w = [0] * n
    u = [0] * n

    i = r = n - 1
    tot = 0
    while True:
        # enter level i at partial norm tot, row i stale from level r down
        Mi = M[i]
        sg = sig[i]
        ei = sg[r + 1]
        for j in range(r, i, -1):
            ei += Mi[j] * w[j]
            sg[j] = ei
        acc[i] = tot
        s = isqrt((C - tot) // W[i])
        si = step[i]
        ui = -((s + ei) // si)
        hi = (s - ei) // si
        if not tot and half and hi > cap[i]:
            hi = cap[i]  # every w above is 0: keep the lex-negative half
        hi_arr[i] = hi
        if ui > hi:
            prunes += 1
        while True:
            if ui > hi_arr[i]:
                i += 1
                if i == n:
                    nodes = inner + len(results)
                    if half:
                        return _unfold(results, nodes, prunes, n, W, M, T, D, C)
                    return results, nodes, prunes
                ui = u[~i] + 1  # u[n-1-i]
                continue
            S = step[i] * ui + sig[i][i + 1]
            tot = acc[i] + W[i] * S * S
            u[~i] = ui
            if i == 0:
                results.append((tuple(u), tot))
                ui += 1
            else:
                inner += 1
                w[i] = D * ui + T[i]
                i -= 1
                r = stale[i]
                # at i = 0 this writes stale[-1], the top row's, never read
                if stale[i - 1] < r:
                    stale[i - 1] = r
                stale[i] = i + 1
                break


def _unfold(results, nodes, prunes, n, W, M, T, D, C):
    """The whole ball and its whole tree's counters from the lex-negative half.

    `results` holds the half in lexicographic order, ending with the centre
    w = 0 when that is a lattice point; it is extended in place with the
    mirror u -> -u - 2*shift of every other pair, walked backwards, so the
    whole list stays in lexicographic order.  Every node and every prune of
    the half has its mirror in the tree except those on the zero path w = 0
    from the top: z nodes, one per top level with T[i] % D == 0, and the
    prune at the level below them (found at partial norm 0, where the
    nearest w to 0 is +-D/2) when its interval is empty.
    """
    z = 0
    while z < n and T[~z] % D == 0:  # T[n-1-z]
        z += 1
    z_prune = 0
    if z < n:
        i = n - 1 - z
        z_prune = int(W[i] * (M[i][i] * (D // 2)) ** 2 > C)
    # reversed() walks down from the list's current end, and extending it
    # never moves the pairs below that
    mirror = islice(reversed(results), int(z == n), None)
    neg2t = tuple(-2 * t // D for t in reversed(T))
    if any(neg2t):
        results.extend((tuple(map(sub, neg2t, v)), norm) for v, norm in mirror)
    else:
        results.extend((tuple(map(neg, v)), norm) for v, norm in mirror)
    return results, 2 * nodes - z, 2 * prunes - z_prune


def brute_scan(n, gram, T, D, C2, box, *, reach):
    """Exhaustive scan of the box |u_i| <= box, evaluating the Gram form directly.

    Independent of the search's pivot rows on purpose: accepts u with
    v^T gram v <= C2 where v = D*u + T.  Each axis is clipped to
    |v_i| <= reach[i], which the caller proves holds for every accepted v,
    so the clip drops only cells that cannot be hits.  The odometer keeps
    gram*v and v^T gram v up to date, so each cell costs O(n).  Returns
    (coordinates, scaled_norm) pairs in lexicographic product order.
    """
    out: list[tuple[tuple[int, ...], int]] = []
    lo = [max(-box, -((reach[i] + T[i]) // D)) for i in range(n)]
    hi = [min(box, (reach[i] - T[i]) // D) for i in range(n)]
    if any(a > b for a, b in zip(lo, hi)):
        return out
    cur = lo[:]
    v = [D * lo[i] + T[i] for i in range(n)]
    gv = [sum(gram[i][j] * v[j] for j in range(n)) for i in range(n)]
    tot = sum(v[i] * gv[i] for i in range(n))
    while True:
        if tot <= C2:
            out.append((tuple(cur), tot))
        # odometer, last coordinate fastest; moving axis i by d adds
        # d*D*gram[i] to gram*v (gram is symmetric)
        i = n - 1
        while i >= 0:
            d = 1 if cur[i] < hi[i] else lo[i] - cur[i]
            if d:
                cur[i] += d
                dD = d * D
                gi = gram[i]
                tot += dD * (2 * gv[i] + dD * gi[i])
                for j in range(n):
                    gv[j] += dD * gi[j]
            if d == 1:
                break
            i -= 1
        if i < 0:
            return out
