"""Independent cross-check routes used by the tests.

Nothing here calls the library's determinant, inertia, enumeration, or GF(2)
code: determinants go through plain rational Gaussian elimination, inertia
through congruence diagonalization over Q, characteristic conditions are
checked straight from their definition, and the glued lattices are rebuilt
in ambient coordinates where membership and norms are elementary.
Two references keep the library's older, plainer forms of a computation:
`bareiss_full_update` updates the whole working matrix at every step, and
`gram_from_vectors` builds a Gram matrix as the product V V^T.
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


def inertia_by_diagonalization(rows) -> tuple[int, int, int]:
    """(positive, negative, zero) by exact congruence diagonalization over Q:
    a zero pivot takes a later nonzero diagonal entry, or else folds in the
    row and column of a nonzero entry of its own row (the new pivot is twice
    that entry), or else counts as a zero."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    pos = neg = zero = 0
    for i in range(n):
        if a[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[i], a[swap] = a[swap], a[i]
                for row in a:
                    row[i], row[swap] = row[swap], row[i]
            else:
                mate = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if mate is None:
                    zero += 1
                    continue
                for k in range(n):
                    a[i][k] += a[mate][k]
                for k in range(n):
                    a[k][i] += a[k][mate]
        d = a[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            f = a[j][i] / d
            if f:
                for k in range(n):
                    a[j][k] -= f * a[i][k]
                for k in range(n):
                    a[k][j] -= f * a[k][i]
    return pos, neg, zero


def bareiss_full_update(rows):
    """(det, minors, pivot_rows) as `latgate.core._bareiss` returns them,
    from the same symmetric pivoting but with every entry of the trailing
    block updated at every step, so that no step relies on symmetry."""
    n = len(rows)
    m = [list(row) for row in rows]
    minors = []
    pivot_rows = []
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            a = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if a is None:
                a, b = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if m[i][j] != 0),
                            (None, None))
                if a is None:
                    return 0, minors, pivot_rows
                for row in m[k:]:
                    row[a] += row[b]
                m[a] = [x + y for x, y in zip(m[a], m[b])]
            m[k], m[a] = m[a], m[k]
            for row in m[k:]:
                row[k], row[a] = row[a], row[k]
        elif len(pivot_rows) == k:
            pivot_rows.append(m[k])
        pivot = m[k][k]
        minors.append(pivot)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return prev, minors, pivot_rows


def gram_from_vectors(vectors):
    """V V^T for rows V of Fractions, as integers; every entry must be
    integral.  Each inner product runs over the nonzero entries of v."""
    rows = []
    for v in vectors:
        support = [(i, a) for i, a in enumerate(v) if a]
        row = []
        for w in vectors:
            x = sum(a * w[i] for i, a in support)
            assert x.denominator == 1
            row.append(int(x))
        rows.append(tuple(row))
    return tuple(rows)


def dn_basis(n: int):
    """The root basis e1-e2, ..., e_{n-1}-e_n, e_{n-1}+e_n of D_n in ambient
    coordinates."""
    basis = []
    for i in range(n - 1):
        v = [Fraction(0)] * n
        v[i], v[i + 1] = Fraction(1), Fraction(-1)
        basis.append(v)
    v = [Fraction(0)] * n
    v[n - 2] = v[n - 1] = Fraction(1)
    basis.append(v)
    return basis


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
