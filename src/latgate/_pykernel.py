"""The search kernels: the DFS behind every coset search and the oracle's box scan.

The enumeration runs on a rescaled integer problem prepared by
`latgate.enumeration` from the pivot rows M of a fraction-free elimination:

    w_j = D*u_j + T_j                 (scaled coordinate, integer)
    S_i = M[i][i]*w_i + sum_{j>i} M[i][j]*w_j
    accept u  iff  sum_i W[i]*S_i**2 <= C

Every M[i][i] is positive, so S_i moves by M[i][i]*D per unit step of u_i.

All interval endpoints come from `math.isqrt` and integer floor division,
so every accept/reject decision is exact.  No floats anywhere.
"""

from __future__ import annotations

from math import isqrt

__all__ = ["dfs_enumerate", "brute_scan"]


def dfs_enumerate(n, W, M, T, D, C, shrink=False):
    """Depth-first search over levels n-1 .. 0, ascending coordinate order.

    Returns (results, nodes, prunes) where results is a list of
    (coordinates, scaled_norm) pairs in visit order.  With shrink=True the
    acceptance bound drops to each new best norm and the leaves above it are
    dropped, so only the leaves at the final minimum come back.  Only the
    entries M[i][j] with j >= i are read.
    """
    results: list[tuple[tuple[int, ...], int]] = []
    nodes = 0
    prunes = 0
    if C < 0:
        return results, nodes, prunes
    step = [M[i][i] * D for i in range(n)]
    bound = C
    e = [0] * n
    hi_arr = [0] * n
    cur = [0] * n
    acc = [0] * n
    w = [0] * n
    u = [0] * n

    i = n - 1
    # enter level n-1
    ei = M[i][i] * T[i]
    e[i] = ei
    acc[i] = 0
    s = isqrt(bound // W[i])
    lo = -((s + ei) // step[i])
    hi = (s - ei) // step[i]
    if lo > hi:
        prunes += 1
    cur[i] = lo
    hi_arr[i] = hi

    while True:
        if cur[i] > hi_arr[i]:
            i += 1
            if i == n:
                break
            cur[i] += 1
            continue
        ui = cur[i]
        S = step[i] * ui + e[i]
        tot = acc[i] + W[i] * S * S
        if tot > bound:  # stale interval after a shrink
            cur[i] += 1
            continue
        nodes += 1
        u[i] = ui
        w[i] = D * ui + T[i]
        if i == 0:
            if shrink and tot < bound:
                results.clear()
                bound = tot
            results.append((tuple(u), tot))
            cur[i] += 1
        else:
            i -= 1
            Mi = M[i]
            ei = Mi[i] * T[i]
            for j in range(i + 1, n):
                ei += Mi[j] * w[j]
            e[i] = ei
            acc[i] = tot
            b = bound - tot
            q = b // W[i]
            if q < 0:
                cur[i] = 0
                hi_arr[i] = -1
                prunes += 1
                continue
            s = isqrt(q)
            si = step[i]
            lo = -((s + ei) // si)
            hi = (s - ei) // si
            if lo > hi:
                prunes += 1
            cur[i] = lo
            hi_arr[i] = hi
    return results, nodes, prunes


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
