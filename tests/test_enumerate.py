import ast
import inspect
import random
from fractions import Fraction
from math import comb, isqrt, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgate import _pykernel, enumeration
from latgate.core import _reversed_pivots
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
    direct_sum,
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


def cleared(shift):
    """(T, D): the shift as T/D, T integral and D the lcm of its denominators."""
    D = lcm(*[s.denominator for s in shift])
    return [s.numerator * (D // s.denominator) for s in shift], D


def kernel_problem(rows, shift, radius):
    """The kernel's (W, M, T, D, C) for the ball Q(u + shift) <= radius of
    the form whose reversed pivot rows are `rows`."""
    T, D = cleared(shift)
    W, T, C, _ = enumeration._scaled_problem(rows, T, D, Fraction(radius))
    return W, rows, T, D, C


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
    coordinates, and `_search` returns them as emitted, or joins its blocks'
    in that order: nothing sorts them.  The balls are small, so the size
    gate is set to 0 to split every one that can be split."""

    FORMS = ("Zn:1", "Zn:2", "Zn:3", "D4", "D5", "Zn:6", "Zn:7", "Zn:8")

    @staticmethod
    def check_lex_order(fid, denominators, monkeypatch):
        """Four seeded balls of `fid` whose shift denominators are drawn from
        `denominators`, each checked against the oracle's scan; returns how
        many of them the kernel searched as a half and its mirror in every
        one of its calls with no offset, and in none of the others."""
        emitted = []
        halved = []  # per kernel call: (searched as a half, had no offset)
        unfolded = []
        dfs = enumeration._kernel.dfs_enumerate
        unfold = _pykernel._unfold

        def recording(*args, **kwargs):
            before = len(unfolded)
            out = dfs(*args, **kwargs)
            emitted.append(list(out[0]))
            halved.append((len(unfolded) > before, not any(kwargs.get("offset") or ())))
            return out

        def spy(*args):
            unfolded.append(args[3])
            return unfold(*args)

        monkeypatch.setattr(enumeration._kernel, "dfs_enumerate", recording)
        monkeypatch.setattr(_pykernel, "_unfold", spy)
        split_always(monkeypatch)
        gram = catalog_get(fid).gram
        n = gram.rank
        rng = random.Random(11)
        checked = hits = halves = 0
        while checked < 4:
            conj = basis_change(gram, random_unimodular(n, rng, bound=1))
            shift = tuple(Fraction(rng.randint(-3, 3), rng.choice(denominators)) for _ in range(n))
            q = EnumQuery(form=conj, shift=shift, radius=Fraction(rng.randint(1, 5), 2))
            if enumeration._scan_problem(q)[-1] > CUBE_CELLS:
                continue  # the oracle's scan would be slow
            checked += 1
            rows = _reversed_pivots(q.form)
            emitted.clear()
            halved.clear()
            vectors, tots, scale, _ = enumeration._search(rows, *cleared(q.shift), q.radius)
            assert len(vectors) == len(tots)
            pairs = list(zip(vectors, tots))
            # a ball is one kernel call per block searched; one call is
            # returned as emitted, and blocks are joined into what one
            # call on the whole problem emits
            if len(emitted) == 1:
                assert pairs == emitted[0]
            else:
                assert pairs == _plain_dfs(n, *kernel_problem(rows, q.shift, q.radius))[0]
            # a nonzero offset moves the centre, so that call is searched whole
            halves += all(half == plain for half, plain in halved)
            vectors = [u for u, _ in pairs]
            assert all(a < b for a, b in zip(vectors, vectors[1:]))
            slow = brute_force_coset(q, sufficient_box(q))
            assert tuple(u for u, _ in pairs) == slow.vectors
            assert tuple(Fraction(norm, scale) for _, norm in pairs) == slow.norms
            hits += len(pairs)
        assert hits > 0
        return halves

    @pytest.mark.parametrize("fid", FORMS)
    def test_search_emits_lex_order(self, fid, monkeypatch):
        self.check_lex_order(fid, (2, 3, 4), monkeypatch)

    @pytest.mark.parametrize("fid", FORMS)
    def test_half_search_emits_lex_order(self, fid, monkeypatch):
        # a shift in (1/2)Z^n makes every ball point-symmetric: every kernel
        # call with no offset searches half of its levels' ball and mirrors
        # the rest, and the oracle's scan, which shares no code with it,
        # must still see the same ball in order
        assert self.check_lex_order(fid, (1, 2), monkeypatch) == 4


def _plain_dfs(n, W, M, T, D, C, offset=None):
    """The kernel's search with every centre rebuilt from scratch on each
    descent, `offset[i]` added to level i's: the same tree, reached
    without the partial-sum rows and without the half search."""
    results, nodes, prunes = [], 0, 0
    if C < 0:
        return results, nodes, prunes
    offset = offset or [0] * n
    step = [M[i][i] * D for i in range(n)]
    e, hi_arr, cur, acc, w, u = ([0] * n for _ in range(6))
    i = n - 1
    e[i] = M[i][i] * T[i] + offset[i]
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
        e[i] = M[i][i] * T[i] + sum(M[i][j] * w[j] for j in range(i + 1, n)) + offset[i]
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
                W, M, T, D, C = kernel_problem(_reversed_pivots(conj), shift, radius)
                out = _pykernel.dfs_enumerate(n, W, M, T, D, C)
                assert out == _plain_dfs(n, W, M, T, D, C)
                leaves += len(out[0])
        assert leaves > 0

    @pytest.mark.parametrize("fid", ("Zn:3", "D4", "D5", "E8"))
    def test_offset_same_tree_as_plain_search(self, fid, monkeypatch):
        # an offset adds one constant to each level's centre; the plain
        # search adds the same constant to every centre it rebuilds.  At a
        # half-integral shift a nonzero offset must turn the half search off
        unfolded = []
        unfold = _pykernel._unfold

        def spy(*args):
            unfolded.append(args[3])  # n
            return unfold(*args)

        monkeypatch.setattr(_pykernel, "_unfold", spy)
        gram = catalog_get(fid).gram
        n = gram.rank
        rng = random.Random(31)
        leaves = halves = 0
        for denominator in (1, 2, 3):
            conj = basis_change(gram, random_unimodular(n, rng, bound=1))
            shift = [Fraction(rng.randint(-3, 3), denominator) for _ in range(n)]
            for radius in (0, 1, Fraction(5, 2)):
                W, M, T, D, C = kernel_problem(_reversed_pivots(conj), shift, radius)
                moved = [rng.randint(-3 * D, 3 * D) for _ in range(n)]
                moved[rng.randrange(n)] = rng.choice((-1, 1)) * rng.randint(1, 3 * D)
                for offset in ([0] * n, moved):
                    before = len(unfolded)
                    out = _pykernel.dfs_enumerate(n, W, M, T, D, C, offset=offset)
                    assert out == _plain_dfs(n, W, M, T, D, C, offset)
                    half = denominator < 3 and not any(offset)
                    assert len(unfolded) - before == half
                    halves += half
                    leaves += len(out[0])
        assert leaves > 0 and halves > 0

    # (form, shift, radius, the catalog basis's (vectors, nodes, prunes) or
    # None): half-integral shifts, searched as a half and its mirror
    SYMMETRIC_CASES = (
        # an integral nonzero shift: the centre u = -t is a lattice point
        ("Zn:2", (1, -2), 1, ([(-2, 2), (-1, 1), (-1, 2), (-1, 3), (0, 2)], 8, 0)),
        ("D12plus", (2, -1, 0, 3, 0, 0, -1, 1, 0, 0, 2, 0), 1, None),
        # integral leading coordinates, then a half-integral one: the zero
        # path stops at coordinate 2, with the prune there at radius 0 and
        # without it at 1/4
        ("Zn:3", (1, 0, Fraction(1, 2)), 0, ([], 2, 1)),
        ("Zn:3", (1, 0, Fraction(1, 2)), Fraction(1, 4), ([(-1, 0, -1), (-1, 0, 0)], 4, 0)),
        ("E8", (0, 0, 0, Fraction(1, 2), 0, Fraction(-1, 2), 0, 0), 0, ([], 3, 1)),
        ("E8", (0, 0, 0, Fraction(1, 2), 0, Fraction(-1, 2), 0, 0), 2, None),
        # radius 0 at shift 0: the zero path alone
        ("E8", (0,) * 8, 0, ([(0,) * 8], 8, 0)),
        ("Zn:1", (0,), 0, ([(0,)], 1, 0)),
        ("Zn:1", (0,), 3, ([(-1,), (0,), (1,)], 3, 0)),
        ("Zn:1", (Fraction(1, 2),), Fraction(1, 4), ([(-1,), (0,)], 2, 0)),
        ("Zn:1", (Fraction(-3, 2),), Fraction(1, 5), ([], 0, 1)),
        ("Zn:1", (2,), 1, ([(-3,), (-2,), (-1,)], 3, 0)),
    )

    def test_symmetric_edge_cases(self, monkeypatch):
        # the half search runs on every case below but the last, which has a
        # third of a unit in its shift and is searched whole
        unfolded = []
        unfold = _pykernel._unfold

        def spy(*args):
            unfolded.append(args[3])  # n
            return unfold(*args)

        monkeypatch.setattr(_pykernel, "_unfold", spy)
        rng = random.Random(17)
        whole = 0
        cases = self.SYMMETRIC_CASES + (("Zn:2", (Fraction(1, 3), 0), 1, None),)
        for fid, shift, radius, pinned in cases:
            gram = catalog_get(fid).gram
            n = gram.rank
            shift = [Fraction(x) for x in shift]
            for form in [gram] + [basis_change(gram, random_unimodular(n, rng))
                                  for _ in range(3)]:
                W, M, T, D, C = kernel_problem(_reversed_pivots(form), shift, radius)
                before = len(unfolded)
                out = _pykernel.dfs_enumerate(n, W, M, T, D, C)
                assert out == _plain_dfs(n, W, M, T, D, C)
                whole += len(unfolded) == before
                if form is gram and pinned is not None:
                    vectors, nodes, prunes = pinned
                    assert ([u for u, _ in out[0]], out[1], out[2]) == (vectors, nodes, prunes)
        assert len(unfolded) == 4 * len(self.SYMMETRIC_CASES) and whole == 4

    def test_empty_top_interval(self):
        # radius 0 and a half-integral coordinate 0: the outermost level
        # has no integer point, so the search prunes once and stops
        gram = catalog_get("E8").gram
        conj = basis_change(gram, random_unimodular(8, random.Random(3)))
        shift = [Fraction(1, 2)] + [Fraction(0)] * 7
        problem = kernel_problem(_reversed_pivots(conj), shift, 0)
        assert _pykernel.dfs_enumerate(8, *problem) == _plain_dfs(8, *problem) == ([], 0, 1)


def sign_flipped(gram, rng):
    """The same lattice with seeded basis signs, which keeps every block."""
    signs = [rng.choice((-1, 1)) for _ in range(gram.rank)]
    return GramMatrix.from_rows([[signs[i] * signs[j] * x for j, x in enumerate(row)]
                                 for i, row in enumerate(gram.entries)])


def joint_search(q):
    """(pairs, nodes, prunes) of one kernel call on the whole of q's
    problem: the search unsplit."""
    rows = _reversed_pivots(q.form)
    return _pykernel.dfs_enumerate(len(rows), *kernel_problem(rows, q.shift, q.radius))


def kernel_calls(monkeypatch):
    """A list that records (n, nodes) of every kernel call from now on."""
    calls = []
    dfs = enumeration._kernel.dfs_enumerate

    def recording(*args, **kwargs):
        out = dfs(*args, **kwargs)
        calls.append((args[0], out[1]))
        return out

    monkeypatch.setattr(enumeration._kernel, "dfs_enumerate", recording)
    return calls


def split_always(monkeypatch):
    """Set the size gate to 0 nodes, so that `_search` splits every ball
    that has a cut or a narrow separator, however small its tree: the route
    that the tests of the split machinery drive."""
    monkeypatch.setattr(enumeration, "_SPLIT_NODES", 0)


def cut_levels(rows):
    """The levels at which the pivot rows `rows` split into orthogonal
    blocks: those whose separator is empty."""
    widths, _ = enumeration._separators(rows)
    return [k for k in range(1, len(rows)) if not widths[k]]


def split_search(q):
    """(pairs, nodes, prunes) of `enumeration._search`, which splits q's
    ball at its blocks when it is above the size gate: the route of
    `enumerate_coset` and of the characteristic searches alike.  The pairs zip the vectors and scaled
    norms that it returns as two lists of equal length."""
    vectors, tots, _, stats = enumeration._search(
        _reversed_pivots(q.form), *cleared(q.shift), q.radius)
    assert len(vectors) == len(tots)
    return list(zip(vectors, tots)), stats.nodes, stats.prunes


class TestBlockSplit:
    """A search above the size gate splits its ball at its orthogonal blocks
    and searches each once per leftover radius; its points, scaled norms,
    order and counters must be those of one search of the whole problem.
    The tests on small balls set the gate to 0 (`split_always`)."""

    @pytest.mark.parametrize("fid, radii, blocks", (
        ("E8+Z1", (0, 1, Fraction(5, 2), 3), 2),
        ("Z1+E8", (0, 1, 2, Fraction(7, 3)), 2),
        ("Z2+D4+Z1", (0, 1, Fraction(5, 2), 4), 4),
        ("E8+E8+E8", (0, 1, Fraction(3, 2)), 3),
        ("Zn:9", (0, 1, Fraction(7, 3), 3), 9),
    ))
    def test_matches_joint_search(self, fid, radii, blocks, monkeypatch):
        calls = kernel_calls(monkeypatch)
        split_always(monkeypatch)
        gram = catalog_get(fid).gram
        n = gram.rank
        rng = random.Random(19)
        hits = 0
        for denominator in (1, 2, 3):
            form = sign_flipped(gram, rng)
            assert len(cut_levels(_reversed_pivots(form))) == blocks - 1
            shift = tuple(Fraction(rng.randint(-3, 3), denominator) for _ in range(n))
            for radius in radii:
                q = EnumQuery(form=form, shift=shift, radius=Fraction(radius))
                calls.clear()
                got = split_search(q)
                assert calls and max(calls)[0] < n  # every kernel call is on part of the form
                assert got == joint_search(q)
                hits += len(got[0])
        assert hits > 0

    def test_empty_upper_block(self, monkeypatch):
        # coordinate 0 is a Z1 block at shift 1/2: below radius 1/4 it has
        # no point, so the ball is empty and the lower block never searched
        split_always(monkeypatch)
        form = catalog_get("Z1+E8").gram
        shift = (Fraction(1, 2),) + (Fraction(0),) * 8
        for radius in (0, Fraction(1, 5)):
            q = EnumQuery(form=form, shift=shift, radius=radius)
            assert split_search(q) == joint_search(q) == ([], 0, 1)

    BRUTE_BLOCKS = (("D4", "Zn:2"), ("Zn:2", "D4"), ("Zn:1", "D4", "Zn:1"), ("D5", "Zn:1"),
                    ("Zn:3", "Zn:3"))

    @pytest.mark.parametrize("parts", BRUTE_BLOCKS, ids="+".join)
    def test_matches_oracle(self, parts, monkeypatch):
        # each block conjugated on its own keeps the cuts and moves the rows
        split_always(monkeypatch)
        rng = random.Random(23)
        checked = 0
        for _ in range(3):
            blocks = [catalog_get(fid).gram for fid in parts]
            blocks = [basis_change(b, random_unimodular(b.rank, rng, bound=1)) for b in blocks]
            form = blocks[0]
            for b in blocks[1:]:
                form = direct_sum(form, b)
            assert cut_levels(_reversed_pivots(form))
            for denominator in (1, 2, 3):
                shift = tuple(Fraction(rng.randint(-2, 2), denominator) for _ in range(form.rank))
                for radius in (0, Fraction(1, 2), Fraction(5, 3), 2):
                    q = EnumQuery(form=form, shift=shift, radius=radius)
                    slow = brute_force_coset(q, sufficient_box(q))
                    fast = enumerate_coset(q)
                    assert (fast.vectors, fast.norms) == (slow.vectors, slow.norms)
                    assert split_search(q) == joint_search(q)
                    checked += len(fast.vectors)
        assert checked > 0

    def test_interleaved_summands_split_at_a_separator(self, monkeypatch):
        # E8+Z1 with the Z1 coordinate moved to the middle: no contiguous
        # cut separates the summands, but the levels below the middle read
        # only one level above it, so the ball is split there.  The upper
        # five levels are four of E8 over the Z1 level, split again at their
        # cut: one search of the four, then Z1 once per leftover; then the
        # lower four levels once per state of the upper points that share
        # them.  It is the E8+Z1 ball with its coordinates permuted
        calls = kernel_calls(monkeypatch)
        split_always(monkeypatch)
        gram = catalog_get("E8+Z1").gram
        perm = (0, 1, 2, 3, 8, 4, 5, 6, 7)  # position p holds E8+Z1's coordinate perm[p]
        mixed = GramMatrix.from_rows([[gram.entries[i][j] for j in perm] for i in perm])
        rows = _reversed_pivots(mixed)
        assert cut_levels(rows) == []
        assert enumeration._separators(rows)[0] == [0, 1, 1, 1, 1, 1, 2, 2, 1]
        shift = (Fraction(1, 2), 0, 0, Fraction(-1, 3), 1, 0, 0, 0, Fraction(1, 2))
        # (radius, the rank of each kernel call): at radius 0 the upper
        # four levels hold no point; at radius 1 the upper five hold 11
        # points (5 leftovers under the cut) of 10 states, too many to pay,
        # so the form is searched whole after them; at radius 5/2 their 120
        # points (19 leftovers) share 59 states
        for radius, ranks in ((0, [4]), (1, [4] + [1] * 5 + [9]),
                              (Fraction(5, 2), [4] + [1] * 19 + [4] * 59)):
            q = EnumQuery(form=mixed, shift=shift, radius=radius)
            calls.clear()
            got = split_search(q)
            assert [n for n, _ in calls] == ranks
            assert got == joint_search(q)
            unmixed = [0] * 9
            for p, i in enumerate(perm):
                unmixed[i] = shift[p]
            ref = enumerate_coset(EnumQuery(form=gram, shift=tuple(unmixed), radius=radius))
            moved = sorted((tuple(u[i] for i in perm), nu) for u, nu in zip(ref.vectors, ref.norms))
            res = enumerate_coset(q)
            assert list(zip(res.vectors, res.norms)) == moved

    def test_e8_plus_e8_searches_each_block_once_per_leftover(self, monkeypatch):
        # E8+E8 at radius 4: the two E8 blocks are equal, so one E8 search
        # at each leftover 4, 2 and 0 serves both.  Each is split again at
        # its separator, 1 + 35 and 1 + 14 calls of rank 4, except at
        # leftover 0, where one point is one state and the split does not
        # pay: one call of rank 4, then one of rank 8.  They visit 1,862
        # nodes for the 204,388 the whole tree holds (pinned in
        # TestFrozenResults)
        calls = kernel_calls(monkeypatch)
        res = enumerate_coset(query("E8+E8", radius=4))
        assert (len(res.vectors), res.stats.nodes) == (62401, 204388)
        assert sorted(n for n, _ in calls) == [4] * 52 + [8]
        assert sum(nodes for _, nodes in calls) < 12_000

    def test_equal_blocks_share_their_searches(self, monkeypatch):
        # Z^16 at radius 3 is sixteen equal Z1 blocks: one search of Z1 at
        # each leftover 3, 2, 1 and 0 serves them all
        calls = kernel_calls(monkeypatch)
        res = enumerate_coset(query("Zn:16", radius=3))
        # u of norm <= 3 has at most three entries, each +-1
        assert len(res.vectors) == sum(2 ** k * comb(16, k) for k in range(4)) == 4993
        assert sorted(calls) == [(1, 1), (1, 3), (1, 3), (1, 3)]


class TestSeparatorSplit:
    """A form with no cut is split at its narrowest separator, the levels
    above the split that the rows below it read, when its ball is above the
    size gate and the upper points share their lower searches: the lower
    levels are searched once per (leftover radius, separator coordinates).
    Its points, scaled norms, order and counters must be those of one
    search of the whole problem.  The tests on small balls set the gate to
    0 (`split_always`)."""

    RADII = {"D4": (0, 1, Fraction(5, 2), 4), "D5": (0, 1, Fraction(5, 2), 4),
             "E8": (1, 2, 4), "D12plus": (1, 2, 3), "D16plus": (1, 2)}

    @staticmethod
    def forms(fid, rng):
        """The catalog basis, a sign flip of it and three conjugates near it,
        which keep a narrow separator more often than far ones."""
        gram = catalog_get(fid).gram
        near = [basis_change(gram, random_unimodular(gram.rank, rng, bound=1, steps=10))
                for _ in range(3)]
        return [gram, sign_flipped(gram, rng)] + near

    @pytest.mark.parametrize("fid", tuple(RADII))
    def test_matches_joint_search(self, fid, monkeypatch):
        calls = kernel_calls(monkeypatch)
        split_always(monkeypatch)
        rng = random.Random(37)
        split = hits = 0
        for form in self.forms(fid, rng):
            n = form.rank
            assert cut_levels(_reversed_pivots(form)) == []
            for denominator in (1, 2, 3):
                shift = tuple(Fraction(rng.randint(-3, 3), denominator) for _ in range(n))
                for radius in self.RADII[fid]:
                    q = EnumQuery(form=form, shift=shift, radius=Fraction(radius))
                    calls.clear()
                    got = split_search(q)
                    split += max(calls)[0] < n  # no call searched the whole form
                    assert got == joint_search(q)
                    hits += len(got[0])
        assert split > 0 and hits > 0

    @pytest.mark.parametrize("fid", ("D5", "D6"))
    def test_matches_oracle(self, fid, monkeypatch):
        calls = kernel_calls(monkeypatch)
        split_always(monkeypatch)
        rng = random.Random(41)
        split = checked = 0
        for form in self.forms(fid, rng):
            n = form.rank
            for denominator in (1, 2, 3):
                shift = tuple(Fraction(rng.randint(-2, 2), denominator) for _ in range(n))
                for radius in (1, 2, 3):
                    q = EnumQuery(form=form, shift=shift, radius=Fraction(radius))
                    if enumeration._scan_problem(q)[-1] > CUBE_CELLS:
                        continue  # the oracle's scan would be slow
                    calls.clear()
                    fast = enumerate_coset(q)
                    split += max(calls)[0] < n
                    slow = brute_force_coset(q, sufficient_box(q))
                    assert (fast.vectors, fast.norms) == (slow.vectors, slow.norms)
                    checked += len(fast.vectors)
        assert split > 0 and checked > 0

    def test_d16plus_searches_lower_levels_once_per_state(self, monkeypatch):
        # D16plus at radius 4: the rows below level 8 read, of the levels
        # above, only level 8 and the glue level 15, so its 4,017 upper
        # points share 89 states: the 8 upper levels, split again at their
        # own separator in 63 calls of rank 4, and one 8-level lower search
        # per state, for the whole tree's counters
        calls = kernel_calls(monkeypatch)
        q = query("D16plus", radius=4)
        res = enumerate_coset(q)
        assert (len(res.vectors), res.stats.nodes, res.stats.prunes) == (62401, 207570, 2048)
        assert [n for n, _ in calls] == [4] * 63 + [8] * 89
        assert sum(nodes for _, nodes in calls) < 207570 // 4
        assert split_search(q) == joint_search(q)

    def test_e8_searches_lower_levels_once_per_state(self, monkeypatch):
        # E8 at radius 4 splits at level 4, whose separator is one level:
        # 191 upper points share 35 states
        calls = kernel_calls(monkeypatch)
        res = enumerate_coset(query("E8", radius=4))
        assert (len(res.vectors), res.stats.nodes, res.stats.prunes) == (2401, 5474, 0)
        assert [n for n, _ in calls] == [4] * 36


def moved_coordinate(gram, src, dst):
    """gram with its coordinate `src` moved to position `dst`."""
    perm = [i for i in range(gram.rank) if i != src]
    perm.insert(dst, src)
    return GramMatrix.from_rows([[gram.entries[i][j] for j in perm] for i in perm])


class TestNestedSplits:
    """Every part of a split is split again by the one rule: a block of a
    cut at its own separator, and the upper part of a separator split at
    its own cut.  Some kernel call is then narrower than the part of the
    first split that it searches, and the points, scaled norms, order and
    counters must still be those of one search of the whole problem, and
    the points and norms those of the oracle, at radii on both sides of
    the size gate.  The gate is set to 0 (`split_always`)."""

    # (form, the ranks that only a nested split calls): E8+Z1 and Z1+D5
    # have a cut whose wide block splits at a separator; E8+Z1 and D5+Z1
    # with Z1 moved up split at a separator whose upper part has a cut
    JOINT = (
        (catalog_get("E8+Z1").gram, {2, 3, 4, 5, 6, 7}),
        (moved_coordinate(catalog_get("E8+Z1").gram, 8, 4), {1, 2, 3}),
    )
    ORACLE = (
        (catalog_get("Z1+D5").gram, {2, 3, 4}),
        (moved_coordinate(catalog_get("D5+Z1").gram, 5, 2), {1, 2}),
    )

    def check(self, form, nested, radii, oracle, monkeypatch):
        gate = {enumeration._small_tree(leading_minors(_reversed_pivots(form)), r) for r in radii}
        assert gate == {True, False}  # radii below and above the size gate
        calls = kernel_calls(monkeypatch)
        split_always(monkeypatch)
        rng = random.Random(47)
        hits = 0
        for denominator in (1, 2, 3):
            flipped = sign_flipped(form, rng)
            shift = tuple(Fraction(rng.randint(-1, 1), denominator) for _ in range(form.rank))
            for radius in radii:
                q = EnumQuery(form=flipped, shift=shift, radius=Fraction(radius))
                calls.clear()
                got = split_search(q)
                assert nested & {n for n, _ in calls}  # some call is on a nested part
                assert got == joint_search(q)
                if oracle:
                    fast = enumerate_coset(q)
                    slow = brute_force_coset(q, sufficient_box(q))
                    assert (fast.vectors, fast.norms) == (slow.vectors, slow.norms)
                hits += len(got[0])
        assert hits > 0

    @pytest.mark.parametrize("form, nested", JOINT, ids=("E8+Z1", "E8+Z1-moved"))
    def test_matches_joint_search(self, form, nested, monkeypatch):
        self.check(form, nested, (1, Fraction(3, 2), 2, Fraction(5, 2)), False, monkeypatch)

    @pytest.mark.parametrize("form, nested", ORACLE, ids=("Z1+D5", "D5+Z1-moved"))
    def test_matches_oracle(self, form, nested, monkeypatch):
        self.check(form, nested, (2, 3, 4, 5), True, monkeypatch)


class TestColumns:
    """`_search` returns a ball's vectors and scaled norms as two lists of
    equal length on every route; zipped, they are the pairs that one kernel
    call on the whole problem emits.  The gate is set to 0, so each ball
    takes the route named in its id."""

    A2 = GramMatrix.from_rows([[2, 1], [1, 2]])  # its one separator is as wide as a side

    @pytest.mark.parametrize("form, shift, radius, ranks", (
        ("E8+Z1", None, 2, [4] * 15 + [1, 1]),  # a cut, its E8 block split at a separator
        ("E8", None, 2, [4] * 15),  # a separator
        ("D4", None, 2, [2, 4]),  # a separator that does not pay, then one call
        (A2, None, 3, [2]),  # one call
        ("Z1+E8", (Fraction(1, 2),) + (0,) * 8, 0, [1]),  # an empty ball
    ), ids=("cut", "separator", "unshared", "unsplit", "empty"))
    def test_columns_zip_to_joint_search(self, form, shift, radius, ranks, monkeypatch):
        calls = kernel_calls(monkeypatch)
        split_always(monkeypatch)
        q = query(form, shift, radius) if isinstance(form, str) else EnumQuery(
            form=form, shift=(0,) * form.rank, radius=radius)
        vectors, tots, _, stats = enumeration._search(
            _reversed_pivots(q.form), *cleared(q.shift), q.radius)
        assert [n for n, _ in calls] == ranks
        assert type(vectors) is list and type(tots) is list and len(vectors) == len(tots)
        pairs, nodes, prunes = joint_search(q)
        assert list(zip(vectors, tots)) == pairs
        assert (stats.nodes, stats.prunes) == (nodes, prunes)
        assert bool(pairs) == (shift is None)

    def test_d16plus_norms_share_one_fraction_each(self):
        # 62,401 vectors of three norms, 0, 2 and 4: the result holds one
        # Fraction object per distinct norm, not one per vector
        res = enumerate_coset(query("D16plus", radius=4))
        assert (len(res.vectors), res.stats.nodes, res.stats.prunes) == (62401, 207570, 2048)
        assert set(res.norms) == {0, 2, 4}
        assert len({id(norm) for norm in res.norms}) == 3
        assert all(type(norm) is Fraction for norm in res.norms)


def leading_minors(rows):
    """[1, d_1, ..., d_n]: the leading minors on the diagonal of the pivot
    rows `rows`."""
    return [1] + [row[i] for i, row in enumerate(rows)]


class TestSizeGate:
    """A ball whose estimated tree is under `_SPLIT_NODES` nodes is one
    kernel call, and a larger one is split as before; both routes return the
    same points, scaled norms and counters."""

    @pytest.mark.parametrize("fid, split_ranks", (
        ("E8", [4] * 15),  # radius 2 splits at a separator: 1 + 14 calls
        ("E8+Z1", [4] * 15 + [1, 1]),  # and E8+Z1 at its cut, then E8 at its separator
    ))
    def test_one_call_below_split_above(self, fid, split_ranks, monkeypatch):
        calls = kernel_calls(monkeypatch)
        q = query(fid)
        rows = _reversed_pivots(q.form)
        n = len(rows)
        for radius, small in ((1, True), (2, False)):
            assert enumeration._small_tree(leading_minors(rows), radius) is small
            routes = []
            for gate in (enumeration._SPLIT_NODES, 0):
                with monkeypatch.context() as m:
                    m.setattr(enumeration, "_SPLIT_NODES", gate)
                    calls.clear()
                    vectors, tots, scale, stats = enumeration._search(rows, [0] * n, 1, radius)
                routes.append(([n for n, _ in calls], vectors, tots, scale, stats))
            (gated, *answer), (forced, *forced_answer) = routes
            assert answer == forced_answer  # EnumStats compares nodes and prunes
            assert answer[0]  # the ball holds points
            assert max(forced) < n  # the forced route split the ball
            assert gated == ([n] if small else forced)
        assert forced == split_ranks  # at radius 2, the route the parameter names

    def test_z1_splits_from_radius_22500(self):
        # the estimate of Z1 at radius R is V_1*sqrt(R) = 2*sqrt(R), which
        # reaches 300 exactly at R = 150**2
        assert enumeration._small_tree([1, 1], 22_499) is True
        assert enumeration._small_tree([1, 1], 22_500) is False
        assert enumeration._small_tree([1, 1], Fraction(89_999, 4)) is True
        assert enumeration._small_tree([1, 1], Fraction(90_000, 4)) is False
        # a leading minor of 4 halves the reach: 2*sqrt(R/4) reaches 300 at R = 90,000
        assert enumeration._small_tree([1, 4], 89_999) is True
        assert enumeration._small_tree([1, 4], 90_000) is False

    def test_decides_beyond_float_range(self):
        big = 10 ** 400
        with pytest.raises(OverflowError):
            float(big)
        # two levels of minors 1, 10**400, 10**800: the terms are
        # 2*sqrt(R/10**400) and pi*R/10**400
        assert enumeration._small_tree([1, big, big * big], big) is True
        assert enumeration._small_tree([1, big, big * big], Fraction(90 * big, 1)) is False
        assert enumeration._small_tree([1, 1, 1], big) is False
        assert enumeration._small_tree([1] * 25, Fraction(1, big)) is True

    def test_estimate_is_integer_only(self):
        for fn in (enumeration._small_tree, enumeration._ball_volume_sq):
            tree = ast.parse(inspect.getsource(fn))
            for node in ast.walk(tree):
                assert not (isinstance(node, ast.Constant) and isinstance(node.value, float))
                assert not isinstance(node, ast.Div)
                assert not (isinstance(node, ast.Attribute) and node.attr == "pi")
                assert not (isinstance(node, ast.Name) and node.id in ("pi", "float", "sqrt"))
        assert all(type(v) is int and v > 0 for v in enumeration._BALL_VOLUME_SQ)


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

    @pytest.mark.parametrize("shift, radius, message", [
        ((0.1, 0), 1, "shift entry 0 is not an int or a Fraction: 0.1"),
        ((0, True), 1, "shift entry 1 is not an int or a Fraction: True"),
        (("1/3", 0), 1, "shift entry 0 is not an int or a Fraction: '1/3'"),
        ((float("nan"), 0), 1, "shift entry 0 is not an int or a Fraction: nan"),
        ((0, 0), float("inf"), "radius is not an int or a Fraction: inf"),
        ((0, 0), 0.5, "radius is not an int or a Fraction: 0.5"),
        ((0, 0), False, "radius is not an int or a Fraction: False"),
        ((0, 0), "1", "radius is not an int or a Fraction: '1'"),
    ])
    def test_inexact_values_refused(self, shift, radius, message):
        # a float, bool or string is refused, not coerced into a Fraction
        gram = catalog_get("Zn:2").gram
        with pytest.raises(BadShapeError) as info:
            EnumQuery(form=gram, shift=shift, radius=radius)
        assert str(info.value) == message

    def test_ints_and_fractions_accepted(self):
        q = EnumQuery(form=catalog_get("Zn:2").gram, shift=(1, Fraction(-1, 2)), radius=2)
        assert q.shift == (Fraction(1), Fraction(-1, 2)) and q.radius == Fraction(2)
        assert all(type(x) is Fraction for x in q.shift + (q.radius,))

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

    @pytest.mark.parametrize("box, message", [
        (-1, "box must be nonnegative"),
        (0.5, "box is not an int: 0.5"),
        (1.0, "box is not an int: 1.0"),
        (True, "box is not an int: True"),
        ("1", "box is not an int: '1'"),
    ], ids=("negative", "half", "float", "bool", "string"))
    def test_bad_box_rejected(self, box, message):
        # a negative box, and a float, bool or string, which is not coerced
        with pytest.raises(BadShapeError) as info:
            brute_force_coset(query("Zn:2"), box)
        assert str(info.value) == message
