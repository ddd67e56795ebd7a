"""Independent cross-check routes used by the tests.

Nothing here calls the library's determinant, enumeration, or GF(2) code:
determinants go through plain rational Gaussian elimination, characteristic
conditions are checked straight from their definition, and the glued
lattices are rebuilt in ambient coordinates where membership and norms are
elementary.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd


def det_gauss(rows) -> int:
    """Determinant by rational Gaussian elimination with row pivoting."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = Fraction(1) / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    assert det.denominator == 1
    return int(det)


def pair(gram_rows, x, y) -> int:
    n = len(gram_rows)
    return sum(x[i] * gram_rows[i][j] * y[j] for i in range(n) for j in range(n))


def is_characteristic(gram_rows, w) -> bool:
    """(v, w) = (v, v) mod 2 checked on every basis vector, by definition."""
    n = len(gram_rows)
    for i in range(n):
        paired = sum(gram_rows[i][j] * w[j] for j in range(n))
        if (paired - gram_rows[i][i]) % 2 != 0:
            return False
    return True


def char_01_vectors(gram_rows) -> list[tuple[int, ...]]:
    """Every characteristic vector in {0,1}^n, in lexicographic order: an
    exhaustive scan of the cube, each vector checked by definition."""
    n = len(gram_rows)
    return [w for w in product((0, 1), repeat=n) if is_characteristic(gram_rows, w)]


def char_holds_on_01_cube(gram_rows, w) -> bool:
    """(v, v + w) even for every v in {0,1}^n; exhaustive definition check."""
    n = len(gram_rows)
    for bits in product((0, 1), repeat=n):
        if (pair(gram_rows, bits, bits) + pair(gram_rows, bits, w)) % 2 != 0:
            return False
    return True


def zn_char_minimum(n: int):
    """Characteristic vectors of the standard form are exactly the all-odd
    vectors, so scan odd coordinates in [-3, 3]; complete because any
    coordinate at +-3 already exceeds the norm of the all-(+-1) vector."""
    best = None
    count = 0
    witnesses = []
    for w in product((-3, -1, 1, 3), repeat=n):
        norm = sum(x * x for x in w)
        if best is None or norm < best:
            best = norm
            count = 1
            witnesses = [w]
        elif norm == best:
            count += 1
            witnesses.append(w)
    return best, count, min(witnesses)


def e8_ambient_count_norm_le2() -> int:
    """Vectors of norm <= 2 in the ambient model: even-coordinate-sum
    integer vectors plus the all-halves coset."""
    count = 0
    for x in product((-1, 0, 1), repeat=8):
        if sum(x) % 2 == 0 and sum(v * v for v in x) <= 2:
            count += 1
    for signs in product((Fraction(1, 2), Fraction(-1, 2)), repeat=8):
        minus = sum(1 for s in signs if s < 0)
        if minus % 2 == 0 and sum(s * s for s in signs) <= 2:
            count += 1
    return count


def dn_plus_basis(n: int):
    """The documented glue basis in ambient coordinates: the all-halves
    vector, the middle difference roots, and the final sum root."""
    basis = [[Fraction(1, 2)] * n]
    for i in range(1, n - 1):
        v = [Fraction(0)] * n
        v[i], v[i + 1] = Fraction(1), Fraction(-1)
        basis.append(v)
    v = [Fraction(0)] * n
    v[n - 2] = v[n - 1] = Fraction(1)
    basis.append(v)
    return basis


def _dn_plus_members_norm_le4(n: int):
    """Ambient members of the glued lattice with norm <= 4: integer vectors
    with even coordinate sum (at most four nonzero entries, each in
    {+-1, +-2}), plus all-halves-coset vectors (entries +-1/2 with an even
    number of minus signs; for n >= 12 any half-entry of magnitude >= 3/2
    already forces norm above 4, so this list is complete)."""
    members = []
    for support_size in range(0, 5):
        for support in combinations(range(n), support_size):
            for values in product((-2, -1, 1, 2), repeat=support_size):
                v = [0] * n
                for idx, val in zip(support, values):
                    v[idx] = val
                if sum(x * x for x in v) <= 4 and sum(v) % 2 == 0:
                    members.append(tuple(Fraction(x) for x in v))
    for signs in product((Fraction(1, 2), Fraction(-1, 2)), repeat=n):
        minus = sum(1 for s in signs if s < 0)
        if minus % 2 == 0 and sum(s * s for s in signs) <= 4:
            members.append(signs)
    return members


def dn_plus_char_minimum(n: int):
    """Minimal-norm characteristic vectors of the glued lattice, straight
    from the definition checked on a generating set (valid because both
    sides of the characteristic condition are additive mod 2).

    Only sound when the true minimum is <= 4, which the caller asserts via
    the returned norm.  Returns (m, count, set of ambient minimizers).
    """
    generators = dn_plus_basis(n)
    best = None
    minimizers = []
    for w in _dn_plus_members_norm_le4(n):
        ok = True
        for v in generators:
            paired = sum(a * b for a, b in zip(w, v))
            norm_v = sum(a * a for a in v)
            diff = paired - norm_v
            assert diff.denominator == 1
            if diff.numerator % 2 != 0:
                ok = False
                break
        if not ok:
            continue
        norm = sum(a * a for a in w)
        assert norm.denominator == 1
        norm = int(norm)
        if best is None or norm < best:
            best = norm
            minimizers = [w]
        elif norm == best:
            minimizers.append(w)
    return best, len(minimizers), set(minimizers)


def cube_scan(gram_rows, shift, radius, box):
    """Every u with |u_i| <= box and Q(u + shift) <= radius, as (u, norm)
    pairs in lexicographic order: the whole cube, each cell evaluated on
    the Gram matrix.  Norms are computed on D*(u + shift), D the common
    denominator of the shift, so the loop runs on integers."""
    n = len(gram_rows)
    d = 1
    for s in shift:
        d = d * s.denominator // gcd(d, s.denominator)
    t = [int(s * d) for s in shift]
    bound = radius * d * d
    out = []
    for u in product(range(-box, box + 1), repeat=n):
        v = [d * a + b for a, b in zip(u, t)]
        scaled = pair(gram_rows, v, v)
        if scaled <= bound:
            out.append((u, Fraction(scaled, d * d)))
    return out
