# cython: language_level=3
# cython: boundscheck=False
# cython: wraparound=False
# cython: cdivision=True
"""Compiled search kernels.

Same contract as latgate._pykernel (see its docstring for the rescaled
integer problem).  The DFS has two paths: a machine-word path used when the
caller's preflight proves every intermediate fits comfortably in 64 bits,
and an object path on Python ints otherwise.  Both are exact; the parity
tests check them against the pure kernel result for result-level equality.
The box scan is the pure kernel's: clipped to proven per-axis extents it
visits few enough cells that compiling it buys nothing.
"""

from math import isqrt

from latgate import _pykernel

from libc.math cimport sqrtl

__all__ = ["dfs_enumerate", "brute_scan"]

cdef enum:
    MAXN = 64


cdef inline long long _llsqrt(long long q):
    # exact floor sqrt; float seed, integer correction
    cdef long long s
    if q <= 0:
        return 0
    s = <long long> sqrtl(<long double> q)
    while s > 0 and s * s > q:
        s -= 1
    while (s + 1) * (s + 1) <= q:
        s += 1
    return s


cdef inline long long _fdiv(long long a, long long b):
    # floor division, b > 0
    cdef long long q = a / b
    if a % b != 0 and a < 0:
        q -= 1
    return q


def dfs_enumerate(n, W, M, T, D, C, shrink=False, small=False):
    if small and n <= MAXN:
        return _dfs_small(n, W, M, T, D, C, bool(shrink))
    return _dfs_object(n, W, M, T, D, C, bool(shrink))


def brute_scan(n, gram, T, D, C2, box, *, reach):
    return _pykernel.brute_scan(n, gram, T, D, C2, box, reach=reach)


cdef _dfs_small(int n, W, M, T, long long D, long long C, bint shrink):
    cdef long long Wc[MAXN]
    cdef long long Tc[MAXN]
    cdef long long Mc[MAXN * MAXN]
    cdef long long e[MAXN]
    cdef long long hi_arr[MAXN]
    cdef long long cur[MAXN]
    cdef long long acc[MAXN]
    cdef long long w[MAXN]
    cdef long long u[MAXN]
    cdef long long D2, bound, ei, s, lo, hi, ui, S, tot, b, q
    cdef long long nodes = 0, prunes = 0
    cdef int i, j

    results = []
    if C < 0:
        return results, 0, 0
    for i in range(n):
        Wc[i] = W[i]
        Tc[i] = T[i]
        Mi = M[i]
        for j in range(n):
            Mc[i * MAXN + j] = Mi[j]
    D2 = D * D
    bound = C

    i = n - 1
    ei = D * Tc[i]
    e[i] = ei
    acc[i] = 0
    s = _llsqrt(bound / Wc[i])
    lo = -_fdiv(s + ei, D2)
    hi = _fdiv(s - ei, D2)
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
        S = D2 * ui + e[i]
        tot = acc[i] + Wc[i] * S * S
        if tot > bound:
            cur[i] += 1
            continue
        nodes += 1
        u[i] = ui
        w[i] = D * ui + Tc[i]
        if i == 0:
            results.append((tuple([u[j] for j in range(n)]), tot))
            if shrink and tot < bound:
                bound = tot
            cur[i] += 1
        else:
            i -= 1
            ei = D * Tc[i]
            for j in range(i + 1, n):
                ei += Mc[i * MAXN + j] * w[j]
            e[i] = ei
            acc[i] = tot
            b = bound - tot
            if b < 0:
                cur[i] = 0
                hi_arr[i] = -1
                prunes += 1
                continue
            q = b / Wc[i]
            s = _llsqrt(q)
            lo = -_fdiv(s + ei, D2)
            hi = _fdiv(s - ei, D2)
            if lo > hi:
                prunes += 1
            cur[i] = lo
            hi_arr[i] = hi
    return results, nodes, prunes


cdef _dfs_object(int n, W, M, T, object D, object C, bint shrink):
    cdef int i, j
    cdef long long nodes = 0, prunes = 0

    results = []
    if C < 0:
        return results, 0, 0
    D2 = D * D
    bound = C
    e = [0] * n
    hi_arr = [0] * n
    cur = [0] * n
    acc = [0] * n
    w = [0] * n
    u = [0] * n

    i = n - 1
    ei = D * T[i]
    e[i] = ei
    acc[i] = 0
    s = isqrt(bound // W[i])
    lo = -((s + ei) // D2)
    hi = (s - ei) // D2
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
        S = D2 * ui + e[i]
        tot = acc[i] + W[i] * S * S
        if tot > bound:
            cur[i] = ui + 1
            continue
        nodes += 1
        u[i] = ui
        w[i] = D * ui + T[i]
        if i == 0:
            results.append((tuple(u), tot))
            if shrink and tot < bound:
                bound = tot
            cur[i] = ui + 1
        else:
            i -= 1
            ei = D * T[i]
            Mi = M[i]
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
            lo = -((s + ei) // D2)
            hi = (s - ei) // D2
            if lo > hi:
                prunes += 1
            cur[i] = lo
            hi_arr[i] = hi
    return results, nodes, prunes
