import random
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgate import _pykernel, enumeration
from latgate import (
    BadShapeError,
    EnumQuery,
    GramMatrix,
    NotPositiveDefiniteError,
    RankCapExceededError,
    basis_change,
    brute_force_coset,
    catalog_get,
    cholesky,
    enumerate_coset,
    kernel_name,
    negate,
    random_unimodular,
    sufficient_box,
)
from oracle_helpers import cube_scan, det_gauss, e8_ambient_count_norm_le2


def query(fid, shift=None, radius=1):
    gram = catalog_get(fid).gram
    if shift is None:
        shift = (Fraction(0),) * gram.rank
    return EnumQuery(form=gram, shift=shift, radius=Fraction(radius))


def exact_norm(q, u):
    chol = cholesky(q.form)
    return chol.form_value([Fraction(x) + s for x, s in zip(u, q.shift)])


class TestFrozenResults:
    def test_unit_ball_z2(self):
        res = enumerate_coset(query("Zn:2"))
        assert res.vectors == ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0))
        assert res.norms == (Fraction(1), Fraction(1), Fraction(0), Fraction(1), Fraction(1))
        assert res.exhaustive

    def test_half_shifted_z2(self):
        res = enumerate_coset(
            query("Zn:2", shift=(Fraction(1, 2), Fraction(1, 2)), radius=Fraction(1, 2))
        )
        assert res.vectors == ((-1, -1), (-1, 0), (0, -1), (0, 0))
        assert set(res.norms) == {Fraction(1, 2)}

    def test_e8_root_ball_matches_ambient_count(self):
        res = enumerate_coset(query("E8", radius=2))
        assert len(res.vectors) == 241
        assert len(res.vectors) == e8_ambient_count_norm_le2()
        assert set(res.norms) == {Fraction(0), Fraction(2)}

    def test_radius_zero(self):
        res = enumerate_coset(query("E8", radius=0))
        assert res.vectors == ((0,) * 8,)

    def test_brute_zero_radius_box_one(self):
        res = brute_force_coset(query("E8", radius=0), 1)
        assert res.vectors == ((0,) * 8,)

    @pytest.mark.parametrize("fid, radius, vectors, nodes, prunes", (
        ("E8", 4, 2401, 5474, 0),
        ("E8+E8", 4, 62401, 204388, 0),
        ("D16plus", 4, 62401, 207570, 2048),
        ("Zn:16", 3, 4993, 22048, 0),
    ))
    def test_zero_shift_ball_counters(self, fid, radius, vectors, nodes, prunes):
        # the search tree of a zero-shift ball, pinned so that any change
        # to it shows up here
        res = enumerate_coset(query(fid, radius=radius))
        assert len(res.vectors) == vectors
        assert (res.stats.nodes, res.stats.prunes) == (nodes, prunes)


class TestProperties:
    def test_monotone_in_radius(self):
        small = set(enumerate_coset(query("D4", radius=2)).vectors)
        large = set(enumerate_coset(query("D4", radius=4)).vectors)
        assert small <= large

    def test_symmetry_at_zero_shift(self):
        res = enumerate_coset(query("D5", radius=4))
        have = set(res.vectors)
        assert all(tuple(-x for x in u) in have for u in have)

    def test_every_norm_exact_and_within_radius(self):
        q = query("D4", shift=(Fraction(1, 3),) * 4, radius=Fraction(5, 2))
        res = enumerate_coset(q)
        assert res.vectors
        for u, norm in zip(res.vectors, res.norms):
            assert norm == exact_norm(q, u)
            assert norm <= q.radius

    def test_sorted_and_duplicate_free(self):
        res = enumerate_coset(query("D4", radius=4))
        assert list(res.vectors) == sorted(set(res.vectors))


class TestOracleEquivalence:
    def test_unit_ball_brute_match(self):
        q = query("Zn:2")
        fast = enumerate_coset(q)
        slow = brute_force_coset(q, 2)
        assert fast.vectors == slow.vectors
        assert fast.norms == slow.norms

    def test_randomized_queries_match(self):
        rng = random.Random(97)
        for fid in ("Zn:1", "Zn:3", "D4", "D5"):
            gram = catalog_get(fid).gram
            for _ in range(5):
                conj = basis_change(gram, random_unimodular(gram.rank, rng))
                shift = tuple(
                    Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                    for _ in range(gram.rank)
                )
                q = EnumQuery(form=conj, shift=shift, radius=Fraction(rng.randint(0, 4)))
                fast = enumerate_coset(q)
                slow = brute_force_coset(q, sufficient_box(q))
                assert fast.vectors == slow.vectors
                assert fast.norms == slow.norms


# the reference scans every cell, so each conjugate takes radii in
# increasing order while its cube at sufficient_box stays this small
CUBE_CELLS = 40_000
CLIP_FORMS = ("Zn:1", "Zn:2", "Zn:3", "Zn:4", "D4", "D5")


def visited_cells(plan):
    """The cells the scan of `plan` visits, counted one coordinate at a time
    over the plan's cube: the u_i with |D*u_i + T_i| <= reach_i per axis."""
    D, T, _, reach, box, _ = plan
    return prod(sum(1 for u in range(-box, box + 1) if abs(D * u + t) <= r)
                for t, r in zip(T, reach))


class TestClippedScan:
    """brute_force_coset clips the cube per axis; the result must be that of
    the whole cube, for boxes below, at and above what the hits need, and
    is marked exhaustive exactly when the box reaches `sufficient_box`."""

    @pytest.mark.parametrize("fid", CLIP_FORMS)
    def test_matches_full_cube(self, fid):
        gram = catalog_get(fid).gram
        n = gram.rank
        rng = random.Random(41)
        checked = empty = 0
        for _ in range(3):
            conj = basis_change(gram, random_unimodular(n, rng))
            whole = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            frac = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n))
            for shift, radii in ((whole, (0,)), (frac, (0, Fraction(1, 4), Fraction(1, 2), 1, 2))):
                for radius in radii:
                    q = EnumQuery(form=conj, shift=shift, radius=radius)
                    box = sufficient_box(q)
                    plan = enumeration._scan_problem(q)
                    assert plan[-1] == visited_cells(plan)
                    if (2 * box + 1) ** n > CUBE_CELLS:
                        break
                    for b in (0, 1, box // 2, box):
                        ref = cube_scan(conj.entries, shift, radius, b)
                        res = brute_force_coset(q, b)
                        assert res.vectors == tuple(u for u, _ in ref)
                        assert res.norms == tuple(nu for _, nu in ref)
                        assert res.exhaustive == (b >= box)
                    checked += 1
                    empty += plan[-1] == 0
        # a radius-0 ball about a shift with a non-integer coordinate has an
        # axis with no admissible u_i: the scan visits no cell of a nonempty
        # cube, and its empty result is still exhaustive at box
        assert checked >= 6 and empty >= 1

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        fid=st.sampled_from(CLIP_FORMS),
        seed=st.integers(0, 2**32 - 1),
        shift=st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                       min_size=5, max_size=5),
        radius=st.fractions(min_value=0, max_value=5, max_denominator=4),
    )
    def test_enumerate_equals_oracle(self, fid, seed, shift, radius):
        gram = catalog_get(fid).gram
        conj = basis_change(gram, random_unimodular(gram.rank, random.Random(seed)))
        q = EnumQuery(form=conj, shift=shift[:gram.rank], radius=radius)
        fast = enumerate_coset(q)
        slow = brute_force_coset(q, sufficient_box(q))
        assert fast.vectors == slow.vectors
        assert fast.norms == slow.norms


class TestLexOrder:
    """The search emits its points in lexicographic order of the caller's
    coordinates, and `_search` returns them as emitted: nothing sorts them."""

    @pytest.mark.parametrize("fid", ("Zn:1", "Zn:2", "Zn:3", "D4", "D5", "Zn:6", "Zn:7", "Zn:8"))
    def test_search_emits_lex_order(self, fid, monkeypatch):
        emitted = []
        dfs = enumeration._kernel.dfs_enumerate

        def recording(*args):
            out = dfs(*args)
            emitted.append(list(out[0]))
            return out

        monkeypatch.setattr(enumeration._kernel, "dfs_enumerate", recording)
        gram = catalog_get(fid).gram
        n = gram.rank
        rng = random.Random(11)
        checked = hits = 0
        while checked < 4:
            conj = basis_change(gram, random_unimodular(n, rng, bound=1))
            shift = tuple(Fraction(rng.randint(-3, 3), rng.choice((2, 3, 4))) for _ in range(n))
            q = EnumQuery(form=conj, shift=shift, radius=Fraction(rng.randint(1, 5), 2))
            if enumeration._scan_problem(q)[-1] > CUBE_CELLS:
                continue  # the oracle's scan would be slow
            checked += 1
            pairs, scale, _ = enumeration._search(q)
            assert pairs == emitted.pop()
            vectors = [u for u, _ in pairs]
            assert all(a < b for a, b in zip(vectors, vectors[1:]))
            slow = brute_force_coset(q, sufficient_box(q))
            assert tuple(u for u, _ in pairs) == slow.vectors
            assert tuple(Fraction(norm, scale) for _, norm in pairs) == slow.norms
            hits += len(pairs)
        assert hits > 0


def _plain_dfs(n, W, M, T, D, C):
    """The kernel's search with every centre rebuilt from scratch on each
    descent: the same tree, reached without the partial-sum rows."""
    results, nodes, prunes = [], 0, 0
    if C < 0:
        return results, nodes, prunes
    step = [M[i][i] * D for i in range(n)]
    e, hi_arr, cur, acc, w, u = ([0] * n for _ in range(6))
    i = n - 1
    e[i] = M[i][i] * T[i]
    s = isqrt(C // W[i])
    cur[i] = -((s + e[i]) // step[i])
    hi_arr[i] = (s - e[i]) // step[i]
    prunes += cur[i] > hi_arr[i]
    while True:
        if cur[i] > hi_arr[i]:
            i += 1
            if i == n:
                return results, nodes, prunes
            cur[i] += 1
            continue
        ui = cur[i]
        S = step[i] * ui + e[i]
        tot = acc[i] + W[i] * S * S
        nodes += 1
        u[n - 1 - i] = ui
        w[i] = D * ui + T[i]
        if i == 0:
            results.append((tuple(u), tot))
            cur[i] += 1
            continue
        i -= 1
        e[i] = M[i][i] * T[i] + sum(M[i][j] * w[j] for j in range(i + 1, n))
        acc[i] = tot
        s = isqrt((C - tot) // W[i])
        cur[i] = -((s + e[i]) // step[i])
        hi_arr[i] = (s - e[i]) // step[i]
        prunes += cur[i] > hi_arr[i]


class TestIncrementalCentres:
    """The kernel refreshes only the stale part of each level's centre sums;
    its tree must be the one that rebuilding every centre gives."""

    @pytest.mark.parametrize("fid, radii", (
        ("Zn:1", (0, Fraction(1, 2), 3)),
        ("Zn:2", (0, Fraction(3, 4), 2)),
        ("E8", (0, 1, 2)),
        ("D12plus", (0, 1, Fraction(3, 2))),
        ("E8+E8", (0, 1, Fraction(3, 2))),
        ("D12plus+D12plus", (0, Fraction(1, 2), 1)),
    ))
    def test_same_tree_as_plain_search(self, fid, radii):
        gram = catalog_get(fid).gram
        n = gram.rank
        rng = random.Random(13)
        leaves = 0
        for denominator in (1, 2, 3, 4):
            conj = basis_change(gram, random_unimodular(n, rng))
            shift = [Fraction(rng.randint(-3, 3), denominator) for _ in range(n)]
            for radius in radii:
                W, M, T, D, C, _ = enumeration._scaled_problem(conj, shift, Fraction(radius))
                out = _pykernel.dfs_enumerate(n, W, M, T, D, C)
                assert out == _plain_dfs(n, W, M, T, D, C)
                leaves += len(out[0])
        assert leaves > 0

    def test_empty_top_interval(self):
        # radius 0 and a half-integral coordinate 0: the outermost level
        # has no integer point, so the search prunes once and stops
        gram = catalog_get("E8").gram
        conj = basis_change(gram, random_unimodular(8, random.Random(3)))
        shift = [Fraction(1, 2)] + [Fraction(0)] * 7
        problem = enumeration._scaled_problem(conj, shift, Fraction(0))
        assert _pykernel.dfs_enumerate(8, *problem[:5]) == _plain_dfs(8, *problem[:5]) == ([], 0, 1)


class TestAxisReach:
    @pytest.mark.parametrize("fid", ("D4", "D5", "E8", "E8+Z4", "D12plus", "Zn:16", "D16plus",
                                     "E8+E8", "D20plus+Z4", "D12plus+D12plus", "Zn:24"))
    def test_matches_principal_minors(self, fid):
        # reach_i = isqrt(C2 * adj_ii // det), with adj_ii the determinant
        # of the principal minor without row and column i
        gram = catalog_get(fid).gram
        n = gram.rank
        conj = basis_change(gram, random_unimodular(n, random.Random(5)))
        rows = conj.entries
        det = det_gauss(rows)
        adj = [det_gauss([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != i]) if n > 1 else 1
               for i in range(n)]
        for C2 in (0, 1, 7, 4 * n, 10**12 + 39):
            assert enumeration._axis_reach(conj, C2) == [isqrt(C2 * a // det) for a in adj]


class TestSufficientBox:
    def test_unit_ball_bound(self):
        assert sufficient_box(query("Zn:2")) >= 1

    def test_shifted_hand_bound(self):
        q = query("Zn:3", shift=(Fraction(1, 2),) * 3, radius=Fraction(3, 4))
        assert sufficient_box(q) >= 1

    @pytest.mark.parametrize(
        "fid,shift,radius",
        [
            ("Zn:3", None, 1),
            ("Zn:3", (Fraction(1, 3),) * 3, 2),
            ("D4", None, 2),
            ("D4", (Fraction(1, 2),) * 4, 3),
            ("D5", (Fraction(1, 2),) * 5, Fraction(7, 2)),
        ],
    )
    def test_containment_exact(self, fid, shift, radius):
        q = query(fid, shift=shift, radius=radius)
        box = sufficient_box(q)
        assert set(brute_force_coset(q, box).vectors) == set(enumerate_coset(q).vectors)

    def test_containment_bound_e8(self):
        # Box scan at sufficient_box(q) is exhaustive over the box, so it
        # contains the enumerate result iff every enumerated vector fits
        # coordinate-wise.  The literal scan is infeasible at rank 8.
        q = query("E8", radius=2)
        box = sufficient_box(q)
        res = enumerate_coset(q)
        assert len(res.vectors) == e8_ambient_count_norm_le2()
        for u in res.vectors:
            assert max(abs(x) for x in u) <= box
        # off the catalog basis, with fractional shifts
        rng = random.Random(8)
        e8 = catalog_get("E8").gram
        for _ in range(6):
            conj = basis_change(e8, random_unimodular(8, rng))
            shift = tuple(Fraction(rng.randint(-3, 3), rng.choice((2, 3, 4))) for _ in range(8))
            q = EnumQuery(form=conj, shift=shift, radius=Fraction(2))
            box = sufficient_box(q)
            res = enumerate_coset(q)
            assert res.vectors
            for u in res.vectors:
                assert max(abs(x) for x in u) <= box

    @pytest.mark.parametrize(
        "rows", [[[1, 0], [0, -1]], [[0, 1], [1, 0]], [[1, 0], [0, 0]], [[-1]]],
        ids=["indefinite", "hyperbolic", "degenerate", "negative"],
    )
    def test_not_positive_definite_rejected(self, rows):
        gram = GramMatrix.from_rows(rows)
        q = EnumQuery(form=gram, shift=(Fraction(0),) * gram.rank, radius=Fraction(1))
        with pytest.raises(NotPositiveDefiniteError):
            sufficient_box(q)


class TestWorkersAndStats:
    def test_stats_toggle(self):
        # every search result carries its counters; the oracle's scan has none
        q = query("Zn:2")
        stats = enumerate_coset(q).stats
        assert stats is not None and stats.nodes > 0
        assert brute_force_coset(q, sufficient_box(q)).stats is None

    def test_kernel_name_reports(self):
        assert kernel_name() == "python"


class TestValidationAndCaps:
    def test_shift_length_mismatch(self):
        gram = catalog_get("Zn:2").gram
        with pytest.raises(BadShapeError):
            EnumQuery(form=gram, shift=(Fraction(0),), radius=Fraction(1))

    def test_negative_radius(self):
        gram = catalog_get("Zn:2").gram
        with pytest.raises(BadShapeError):
            EnumQuery(form=gram, shift=(Fraction(0), Fraction(0)), radius=Fraction(-1))

    def test_rank_cap(self):
        with pytest.raises(RankCapExceededError, match="rank 25 exceeds the cap of 24"):
            enumerate_coset(query("Zn:25"))

    def test_non_positive_definite_rejected(self):
        gram = negate(catalog_get("Zn:3").gram)
        q = EnumQuery(form=gram, shift=(Fraction(0),) * 3, radius=Fraction(1))
        with pytest.raises(NotPositiveDefiniteError):
            enumerate_coset(q)
        with pytest.raises(NotPositiveDefiniteError):
            brute_force_coset(q, 1)

    def test_negative_box_rejected(self):
        with pytest.raises(BadShapeError):
            brute_force_coset(query("Zn:2"), -1)
