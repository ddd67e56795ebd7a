import json
import os
import random
import signal
import subprocess
import sys
import warnings
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgate import (
    DegenerateFormError,
    EnumQuery,
    GramMatrix,
    ManifoldDescriptor,
    NoSolutionError,
    NotPositiveDefiniteError,
    NotUnimodularError,
    Parity,
    RankCapExceededError,
    Verdict,
    basis_change,
    brute_force_coset,
    builtin_ids,
    catalog_get,
    charvec_report,
    count_unit_vectors,
    donaldson_verdict,
    elkies_verdict,
    enumerate_coset,
    min_char_vector,
    min_char_vector_with_stats,
    negate,
    random_unimodular,
    signature_mod8_check,
    solve_char_coset,
    sufficient_box,
)
from latgate import charvec, enumeration
from latgate.core import _lll, _reversed_pivots, _times, evaluate, lll_reduce, parity
from oracle_helpers import (
    char_01_vectors,
    char_holds_on_01_cube,
    dn_plus_basis,
    dn_plus_char_minimum,
    is_characteristic,
    pair,
    zn_char_minimum,
)

HYPERBOLIC = GramMatrix.from_rows([[0, 1], [1, 0]])


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def all_minimizers(g, result, scan=enumerate_coset):
    """Every characteristic minimizer, via the quarter-norm ball around w0/2
    searched in g's own basis (by default without any basis reduction)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w0 = solve_char_coset(g).base
    assert is_characteristic(g.entries, w0)
    q = EnumQuery(
        form=g,
        shift=tuple(Fraction(x, 2) for x in w0),
        radius=Fraction(result.norm_m, 4),
    )
    ball = scan(q)
    target = Fraction(result.norm_m, 4)
    return [
        tuple(w0[i] + 2 * u[i] for i in range(g.rank))
        for u, nu in zip(ball.vectors, ball.norms)
        if nu == target
    ]


def brute_scan(q):
    return brute_force_coset(q, sufficient_box(q))


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class TestCharCoset:
    def test_identity_base_all_ones(self):
        for n in (1, 3, 5):
            coset = solve_char_coset(catalog_get(f"Zn:{n}").gram)
            assert coset.base == (1,) * n

    def test_even_form_base_zero(self):
        assert solve_char_coset(catalog_get("E8").gram).base == (0,) * 8

    def test_glued_base(self):
        g = catalog_get("D12plus").gram
        coset = solve_char_coset(g)
        assert coset.base == (0,) * 10 + (1, 1)
        rng = random.Random(5)
        for _ in range(200):
            v = tuple(rng.randrange(-3, 4) for _ in range(12))
            vw = tuple(v[i] + coset.base[i] for i in range(12))
            assert pair(g.entries, v, vw) % 2 == 0

    def test_non_unimodular_warns_but_solves(self):
        g = catalog_get("D4").gram
        with pytest.warns(UserWarning):
            coset = solve_char_coset(g)
        assert coset.base == (0, 0, 0, 0)
        assert is_characteristic(g.entries, coset.base)

    def test_symmetric_always_solvable(self):
        # diag(G) lies in the mod-2 row space of any symmetric G, so the
        # system is never inconsistent, unimodular or not
        rng = random.Random(11)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(40):
                n = rng.randrange(1, 7)
                rows = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        rows[i][j] = rows[j][i] = rng.randrange(-4, 5)
                g = GramMatrix.from_rows(rows)
                coset = solve_char_coset(g)
                assert all(x in (0, 1) for x in coset.base)
                assert is_characteristic(g.entries, coset.base)

    def test_lex_least_base_among_several(self):
        # forms singular mod 2 have several 0/1 characteristic vectors; the
        # base must be the first that a scan of {0,1}^n in lex order meets
        rng = random.Random(16)
        several = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(400):
                n = rng.randrange(1, 8)
                rows = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        rows[i][j] = rows[j][i] = rng.randrange(-3, 4)
                solutions = char_01_vectors(rows)
                assert solve_char_coset(GramMatrix.from_rows(rows)).base == solutions[0]
                several += len(solutions) > 1
        assert several >= 100


class TestMinCharVector:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_standard_forms_match_scan(self, n):
        res = min_char_vector(catalog_get(f"Zn:{n}").gram)
        m, count, witness = zn_char_minimum(n)
        assert (res.norm_m, res.count_minimizers, res.minimizer) == (m, count, witness)
        assert res.k == 0

    @pytest.mark.parametrize(
        "fid,m,k,count",
        [
            ("E8", 0, 1, 1),
            ("E8+Z1", 1, 1, 2),
            ("E8+Z4", 4, 1, 16),
            ("E8+E8", 0, 2, 1),
            ("D12plus", 4, 1, 24),
            ("D16plus", 0, 2, 1),
            ("Zn:16", 16, 0, 65536),
        ],
    )
    def test_catalog_frozen(self, fid, m, k, count):
        g = catalog_get(fid).gram
        res = min_char_vector(g)
        assert (res.norm_m, res.k, res.count_minimizers) == (m, k, count)
        assert (g.rank - res.norm_m) % 8 == 0

    def test_even_form_minimizer_is_zero(self):
        assert min_char_vector(catalog_get("E8").gram).minimizer == (0,) * 8

    def test_glued_rank12_full_story(self):
        g = catalog_get("D12plus").gram
        res = min_char_vector(g)
        assert res.minimizer == (-4, 2, 4, 6, 8, 10, 12, 14, 16, 18, 9, 11)
        mins = all_minimizers(g, res)
        assert len(mins) == res.count_minimizers == 24
        assert res.minimizer == min(mins)

        # map basis coordinates to ambient and compare with the direct scan
        basis = dn_plus_basis(12)
        ambient = set()
        for w in mins:
            amb = [Fraction(0)] * 12
            for c, b in zip(w, basis):
                for i in range(12):
                    amb[i] += c * b[i]
            ambient.add(tuple(amb))
        m, count, oracle_set = dn_plus_char_minimum(12)
        assert (res.norm_m, res.count_minimizers) == (m, count)
        assert ambient == oracle_set
        doubled_units = {
            tuple(Fraction(2 * s if i == j else 0) for i in range(12))
            for j in range(12)
            for s in (1, -1)
        }
        assert ambient == doubled_units

    @pytest.mark.parametrize("fid", ["Zn:2", "Zn:5", "E8", "E8+Z1", "D12plus"])
    def test_minimizer_is_characteristic(self, fid):
        g = catalog_get(fid).gram
        res = min_char_vector(g)
        assert is_characteristic(g.entries, res.minimizer)
        assert char_holds_on_01_cube(g.entries, res.minimizer)

    @pytest.mark.parametrize("fid", ["Zn:3", "E8", "E8+Z4", "D12plus", "D16plus"])
    def test_minimizer_in_coset(self, fid):
        g = catalog_get(fid).gram
        res = min_char_vector(g)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w0 = solve_char_coset(g).base
        assert all((a - b) % 2 == 0 for a, b in zip(res.minimizer, w0))

    def test_lex_least_among_minimizers(self):
        for fid in ("Zn:4", "E8+Z1", "D12plus"):
            g = catalog_get(fid).gram
            res = min_char_vector(g)
            assert res.minimizer == min(all_minimizers(g, res))
        # conjugates that LLL changes, so the minimizers found in the
        # reduced basis are mapped back before the lex-least is taken
        for fid, seed in (("E8+Z2", 7), ("E8+Z4", 8), ("D12plus", 9)):
            g = catalog_get(fid).gram
            conj = basis_change(g, random_unimodular(g.rank, random.Random(seed)))
            h, reduced = lll_reduce(conj)
            assert h != tuple(tuple(int(i == j) for j in range(g.rank)) for i in range(g.rank))
            assert reduced.entries != conj.entries
            res = min_char_vector(conj)
            mins = all_minimizers(conj, res)
            assert len(mins) == res.count_minimizers == min_char_vector(g).count_minimizers
            assert res.minimizer == min(mins)
        # forms that LLL leaves unchanged: their plan is their reversal,
        # and several minimizers are mapped back through it
        for fid, count in (("D12plus", 24), ("D12plus+Z1", 48)):
            r = lll_reduce(catalog_get(fid).gram)[1]
            h, form, _ = charvec._search_basis(r)
            assert h == identity(r.rank)[::-1]
            assert form.entries == tuple(row[::-1] for row in r.entries[::-1])
            res = min_char_vector(r)
            assert res.count_minimizers == count
            assert res.minimizer == min(all_minimizers(r, res))

    @pytest.mark.parametrize("fid, seed", [("E8+Z4", 8), ("D12plus", 9)])
    def test_rung_contract(self, fid, seed):
        # on the conjugate's own characteristic ball (no reduction, no
        # split) every rung of the mod-8 ladder below m is empty, and the
        # rung at m holds every minimizer and nothing else; the integer
        # search (w0, 2) of each rung returns the ball of the query with
        # shift w0/2, in the same order
        g = catalog_get(fid).gram
        conj = basis_change(g, random_unimodular(g.rank, random.Random(seed)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w0 = solve_char_coset(conj).base
        shift = tuple(Fraction(x, 2) for x in w0)
        res = min_char_vector(conj)
        for c in range(g.rank % 8, res.norm_m + 1, 8):
            vectors, tots, scale, _ = enumeration._search(
                _reversed_pivots(conj), w0, 2, Fraction(c, 4))
            assert len(vectors) == len(tots)
            pairs = list(zip(vectors, tots))
            ball = enumerate_coset(EnumQuery(form=conj, shift=shift, radius=Fraction(c, 4)))
            assert tuple(u for u, _ in pairs) == ball.vectors
            assert tuple(Fraction(norm, scale) for _, norm in pairs) == ball.norms
            if c < res.norm_m:
                assert pairs == []
        assert {Fraction(4 * norm, scale) for _, norm in pairs} == {c}
        assert len(pairs) == res.count_minimizers

    def test_ladder_climbs_to_rank(self, monkeypatch):
        # Z^9 unsplit has no characteristic vector of norm 1, so the search
        # climbs to the last rung, c = n = 9, and finds all 2^9 minimizers
        radii = []
        search = enumeration._search

        def recording(rows, T, D, radius):
            radii.append(radius)
            return search(rows, T, D, radius)

        monkeypatch.setattr(charvec, "_search", recording)
        conj = basis_change(catalog_get("Zn:9").gram, random_unimodular(9, random.Random(3)))
        m, count, minimizer, _ = charvec._char_minimum(conj, _reversed_pivots(conj), identity(9))
        assert radii == [Fraction(1, 4), Fraction(9, 4)]
        assert (m, count) == (9, 512)
        assert is_characteristic(conj.entries, minimizer)
        assert evaluate(conj, minimizer) == 9

    def test_off_ladder_norm_is_internal_error(self, monkeypatch):
        # a leaf whose norm is not that of its rung is refused, not reported
        search = enumeration._search

        def off_ladder(rows, T, D, radius):
            vectors, tots, scale, stats = search(rows, T, D, radius)
            if any(T):  # the characteristic search, not the unit one
                tots = [tot - 1 for tot in tots]
            return vectors, tots, scale, stats

        monkeypatch.setattr(charvec, "_search", off_ladder)
        with pytest.raises(NoSolutionError, match="internal error: a characteristic norm"):
            min_char_vector(catalog_get("D12plus").gram)

    def test_empty_ladder_is_verification_failure(self, monkeypatch, capsys):
        # a ladder whose every rung is empty is an internal error, which the
        # command line reports as a verification failure
        from latgate.cli import main

        monkeypatch.setattr(charvec, "_search", lambda rows, T, D, radius: (
            [], [], 1, enumeration.EnumStats(nodes=0, prunes=0)))
        assert main(["analyze", "--catalog", "D12plus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("latgate: verification failure: internal error: "
                                "no characteristic vector of norm <= 12\n")

    def test_norm_off_rank_mod8_is_internal_error(self, monkeypatch):
        # a minimum m with n - m not divisible by 8 is refused, not reported
        char_minimum = charvec._char_minimum

        def off_by_one(form, rows, basis):
            m, count, minimizer, stats = char_minimum(form, rows, basis)
            return m + 1, count, minimizer, stats

        monkeypatch.setattr(charvec, "_char_minimum", off_by_one)
        with pytest.raises(NoSolutionError, match="internal error: rank 12 and norm 5 differ by 7"):
            min_char_vector(catalog_get("D12plus").gram)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(fid=st.sampled_from(("Zn:1", "Zn:2", "Zn:3", "Zn:4", "Zn:5", "Zn:6", "E8",
                                "E8+Z1", "E8+Z2", "E8+Z3", "E8+Z4", "D12plus")),
           seed=st.integers(0, 2**32 - 1))
    def test_conjugate_matches_oracle(self, fid, seed):
        g = catalog_get(fid).gram
        conj = basis_change(g, random_unimodular(g.rank, random.Random(seed)))
        res, base = min_char_vector(conj), min_char_vector(g)
        assert (res.norm_m, res.count_minimizers) == (base.norm_m, base.count_minimizers)
        # the exhaustive scan in the conjugate's own coordinates wherever it
        # is affordable; above rank 6 the scan's clipped box can pass 10^6
        # cells, and the unreduced search of the conjugate stands in for it
        scan = brute_scan if g.rank <= 6 or res.norm_m == 0 else enumerate_coset
        mins = all_minimizers(conj, res, scan)
        assert len(mins) == res.count_minimizers
        assert res.minimizer == min(mins)

    def test_rejects_negative_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            min_char_vector(negate(catalog_get("Zn:2").gram))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            min_char_vector(HYPERBOLIC)

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodularError):
            min_char_vector(catalog_get("D4").gram)

    def test_rank_cap(self):
        with pytest.raises(RankCapExceededError):
            min_char_vector(catalog_get("Zn:25").gram)

    @pytest.mark.parametrize("rows, pivot", [
        ([[1, 0], [0, -1]], "pivot 1 is -1"),
        ([[0, 1], [1, 0]], "pivot 0 is 0"),
        ([[1, 0], [0, 0]], "pivot 1 is 0"),
        ([[-1]], "pivot 0 is -1"),
        ([[2, 1], [1, -3]], "pivot 1 is -7/2"),
    ])
    def test_refusals_terminate(self, rows, pivot):
        # neither search reaches the basis reduction with a form that is not
        # positive definite; each refuses it with the message of the check
        g = GramMatrix.from_rows(rows)
        with time_limit(10):
            with pytest.raises(NotPositiveDefiniteError) as info:
                count_unit_vectors(g)
            assert str(info.value) == f"{pivot}, form is not positive definite"
            with pytest.raises(NotPositiveDefiniteError) as info:
                min_char_vector(g)
            assert str(info.value) == "minimal characteristic vectors need a positive definite form"


def unit_count_by_scan(g, scan):
    zero = tuple(Fraction(0) for _ in range(g.rank))
    return sum(1 for nu in scan(EnumQuery(form=g, shift=zero, radius=Fraction(1))).norms if nu == 1)


class TestUnitSplit:
    """The reduced basis splits into the components of its Gram graph: the
    units, answered in closed form, and blocks searched each on its own;
    every answer must equal a search that does not split."""

    # (form, seed, k, m, count): Z^k (+) E8 and Z^k (+) D12plus up to rank
    # 14, and Z^n itself, all units
    CASES = [
        ("E8+Z1", 0, 1, 1, 2),
        ("E8+Z2", 1, 2, 2, 4),
        ("E8+Z3", 2, 3, 3, 8),
        ("E8+Z4", 3, 4, 4, 16),
        ("E8+Z5", 4, 5, 5, 32),
        ("E8+Z6", 5, 6, 6, 64),
        ("Z1+D12plus", 6, 1, 5, 48),
        ("Z2+D12plus", 7, 2, 6, 96),
        ("Zn:3", 8, 3, 3, 8),
        ("Zn:6", 9, 6, 6, 64),
    ]
    # conjugates whose reduced basis holds two or more blocks of rank > 1,
    # some not contiguous, so no cut of the pivot rows can see them
    BLOCKS = [
        ("D12plus+D12plus", 100, 0, 8, 576),
        ("Z1+D12plus+E8", 100, 1, 5, 48),
        ("E8+E8+Z1", 100, 1, 1, 2),
    ]
    # conjugates on which some unit is not a vector of the LLL-reduced basis,
    # so it lies inside a block of rank > 1, whose ladder must still find it
    OFF_BASIS = [
        ("E8+Z3", 131, 3, 3, 8),
        ("E8+Z4", 15, 4, 4, 16),
        ("E8+Z6", 43, 6, 6, 64),
        ("Z2+D12plus", 48, 2, 6, 96),
    ]

    @pytest.mark.parametrize("fid, seed, k, m, count", CASES + BLOCKS + OFF_BASIS)
    def test_matches_unsplit_search(self, fid, seed, k, m, count):
        g = catalog_get(fid).gram
        conj = basis_change(g, random_unimodular(g.rank, random.Random(seed)))
        res = min_char_vector(conj)
        assert (res.norm_m, res.k, res.count_minimizers) == (m, (g.rank - m) // 8, count)
        # the conjugate's own basis, unreduced and unsplit; the exhaustive
        # scan where it is affordable
        scan = brute_scan if g.rank <= 6 else enumerate_coset
        mins = all_minimizers(conj, res, scan)
        assert len(mins) == count
        assert res.minimizer == min(mins)
        assert count_unit_vectors(conj) == unit_count_by_scan(conj, scan) == 2 * k

    @pytest.mark.parametrize("fid, seed, k, m, count", OFF_BASIS)
    def test_unit_off_the_reduced_basis(self, fid, seed, k, m, count):
        g = catalog_get(fid).gram
        conj = basis_change(g, random_unimodular(g.rank, random.Random(seed)))
        reduced = lll_reduce(conj)[1]
        zero = tuple(Fraction(0) for _ in range(g.rank))
        ball = enumerate_coset(EnumQuery(form=reduced, shift=zero, radius=Fraction(1)))
        units = [u for u, nu in zip(ball.vectors, ball.norms) if nu == 1]
        assert len(units) == 2 * k
        assert any(sum(map(abs, u)) > 1 for u in units)

    @pytest.mark.parametrize("fid, seed, k, m, count", BLOCKS)
    def test_blocks_off_the_cuts(self, fid, seed, k, m, count):
        g = catalog_get(fid).gram
        conj = basis_change(g, random_unimodular(g.rank, random.Random(seed)))
        form = charvec._search_basis(conj)[1]
        parts = charvec._components(form)
        assert sorted(i for part in parts for i in part) == list(range(g.rank))
        assert all(form.entries[i][j] == 0 for a in parts for b in parts if a != b
                   for i in a for j in b)
        blocks = [part for part in parts if len(part) > 1]
        assert len(parts) - len(blocks) == k and len(blocks) >= 2
        assert any(part != list(range(part[0], part[-1] + 1)) for part in blocks)

    @pytest.mark.parametrize("fid, seed, k, m, count", BLOCKS + OFF_BASIS)
    def test_one_block_route_agrees(self, fid, seed, k, m, count, monkeypatch):
        # the whole reduced form searched as one block, on its plan's rows,
        # gives the same answer as the split
        g = catalog_get(fid).gram
        conj = basis_change(g, random_unimodular(g.rank, random.Random(seed)))
        res = min_char_vector(conj)
        monkeypatch.setattr(charvec, "_components", lambda form: [list(range(form.rank))])
        assert min_char_vector(conj) == res
        assert (res.norm_m, res.count_minimizers, res.unit_vector_count) == (m, count, 2 * k)

    def test_unit_count_two_routes(self):
        # the count the min-char search reads off its own unit search
        # equals `count_unit_vectors`, which runs the same reduction and
        # search again: this catches leaked state or nondeterminism, not a
        # wrong search (`test_matches_unsplit_search` scans the conjugate's
        # own basis, as the self-test's `_unreduced_search_problems` does);
        # neither leaves state on the form
        ids = builtin_ids() + tuple(f"Zn:{n}" for n in range(17, 25))
        forms = [e.gram for e in map(catalog_get, ids) if "m" in e.expected]
        for fid, seed in (("E8+Z1", 21), ("E8+Z2", 22), ("E8+Z3", 23), ("E8+Z4", 24),
                          ("D12plus+Z4", 25), ("Zn:5", 26)):
            g = catalog_get(fid).gram
            forms.append(basis_change(g, random_unimodular(g.rank, random.Random(seed))))
        for g in forms:
            res = min_char_vector(g)
            units = count_unit_vectors(g)
            assert res.unit_vector_count == units
            assert (units == 2 * g.rank) is (res.norm_m == g.rank)
            assert set(vars(g)) <= {"entries", "_det_and_inertia"}

    def test_one_unit_search_per_form(self, monkeypatch):
        # a report reads the unit count off the min-char search's one
        # radius-1 search; `count_unit_vectors` runs that same search
        # again; an even form is not searched at all
        calls = []
        search = enumeration._search

        def recording(rows, T, D, radius):
            calls.append(radius)
            return search(rows, T, D, radius)

        monkeypatch.setattr(charvec, "_search", recording)
        odd = basis_change(catalog_get("E8+Z2").gram, random_unimodular(10, random.Random(4)))
        even = basis_change(catalog_get("E8").gram, random_unimodular(8, random.Random(4)))
        assert charvec_report(odd, "odd")["unit_vector_count"] == 4
        # the unit search, then the rung c = 0 of the E8 block; the two
        # units are answered without a search
        assert calls == [1, 0]
        calls.clear()
        assert min_char_vector(odd).norm_m == 2 and count_unit_vectors(odd) == 4
        assert calls == [1, 0, 1]
        calls.clear()
        assert count_unit_vectors(even) == 0 and min_char_vector(even).norm_m == 0
        assert calls == []
        # D12plus+D12plus has no units; its reduced basis splits into the
        # two D12plus blocks, each answered at its first rung c = 4, with 24
        # minimizers: not the ladder of the whole form, c = 0 (empty), then
        # c = 8
        calls.clear()
        g = catalog_get("D12plus+D12plus").gram
        conj = basis_change(g, random_unimodular(24, random.Random(1)))
        res = min_char_vector(conj)
        assert calls == [1, 1, 1]
        assert (res.norm_m, res.count_minimizers) == (8, 576)

    def test_stats_add_both_searches(self):
        # Z^n needs no characteristic search: its counters are the unit
        # search's alone, and they are never zero
        for fid in ("Zn:1", "Zn:9"):
            g = catalog_get(fid).gram
            _, stats = min_char_vector_with_stats(g)
            zero = tuple(Fraction(0) for _ in range(g.rank))
            ball = enumerate_coset(EnumQuery(form=g, shift=zero, radius=Fraction(1)))
            assert stats == ball.stats and stats.nodes > 0

    def test_rank_cap_standard_form_in_bounded_memory(self):
        # Z^24 has 2^24 characteristic minimizers; listing them would take
        # gigabytes, so a regression fails here on the address-space limit
        # instead of exhausting the machine
        script = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from latgate import catalog_get, min_char_vector\n"
            "r = min_char_vector(catalog_get('Zn:24').gram)\n"
            "print(r.norm_m, r.count_minimizers, list(r.minimizer))\n"
        )
        src = os.path.dirname(os.path.dirname(charvec.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split(" ", 2) == ["24", str(2**24), f"{[-1] * 24}\n"]


class TestEvenFormsUnreduced:
    """An even unimodular form is answered without a search: w = 0 is its
    one minimizer, and its search would be the radius-0 ball around 0, one
    path of n nodes and no prunes in any basis, so neither the answer nor
    the counters change.  An even block of an odd form's reduced basis is
    still searched, from rung 0; an odd form is reduced once, and none of
    its blocks again."""

    EVEN = [("E8", 11), ("E8+E8", 12), ("D16plus", 13), ("D24plus", 14), ("E8+E8+E8", 15)]

    @staticmethod
    def conjugate(fid, seed):
        g = catalog_get(fid).gram
        return basis_change(g, random_unimodular(g.rank, random.Random(seed)))

    @staticmethod
    def counting_lll(monkeypatch):
        calls = []

        def counting(g):
            calls.append(g.entries)
            return _lll(g)

        monkeypatch.setattr(charvec, "_lll", counting)
        return calls

    @staticmethod
    def reduced(g):
        """(H, form, rows): g's LLL reduction in the reversed order the
        searches use, with pivot rows from a fresh elimination of it."""
        h, form, _ = charvec._lll(g)
        form = GramMatrix(tuple(row[::-1] for row in form.entries[::-1]))
        return h[::-1], form, _reversed_pivots(form)

    @classmethod
    def reduced_route(cls, g):
        """The search as it ran when every form was LLL-reduced first."""
        h, form, rows = cls.reduced(g)
        assert form.entries != g.entries  # the conjugate is not LLL-reduced as given
        return charvec._char_minimum(form, rows, h)

    def test_even_forms_never_reduced(self, monkeypatch):
        def refuse(g):
            raise AssertionError("an even form was LLL-reduced")

        monkeypatch.setattr(charvec, "_lll", refuse)
        found = []
        for fid, seed in self.EVEN:
            conj = self.conjugate(fid, seed)
            n = conj.rank
            res, stats = min_char_vector_with_stats(conj)
            assert (res.norm_m, res.k, res.count_minimizers) == (0, n // 8, 1)
            assert res.minimizer == (0,) * n
            assert (stats.nodes, stats.prunes) == (n, 0)
            assert set(vars(conj)) <= {"entries", "_det_and_inertia"}
            report = donaldson_verdict(ManifoldDescriptor(b1=0, form=negate(conj)))
            assert (report.verdict, report.k) == (Verdict.FORBIDDEN, n // 8)
            found.append((conj, res, stats))
        monkeypatch.undo()
        for conj, res, stats in found:
            m, count, minimizer, old_stats = self.reduced_route(conj)
            assert (m, count, minimizer) == (res.norm_m, res.count_minimizers, res.minimizer)
            assert old_stats == stats

    def test_shortcut_matches_search_route(self, monkeypatch):
        # the search the shortcut replaces, run on the conjugate's own basis,
        # finds the same minimum, minimizer and counters; so does the
        # negated form's line bundle
        calls = []
        search = enumeration._search
        monkeypatch.setattr(charvec, "_search",
                            lambda rows, T, D, r: calls.append(r) or search(rows, T, D, r))
        for fid, seed in self.EVEN:
            conj = self.conjugate(fid, seed)
            n = conj.rank
            res, stats = min_char_vector_with_stats(conj)
            report = donaldson_verdict(ManifoldDescriptor(b1=0, form=negate(conj)))
            assert calls == []
            m, count, minimizer, route_stats = charvec._char_minimum(
                conj, _reversed_pivots(conj), identity(n))
            assert calls == [0]
            calls.clear()
            assert (res.norm_m, res.count_minimizers, res.minimizer) == (m, count, minimizer)
            assert (stats.nodes, stats.prunes) == (route_stats.nodes, route_stats.prunes) == (n, 0)
            assert (res.k, res.unit_vector_count) == (n // 8, 0)
            assert report.line_bundle.source == res
            assert (report.verdict, report.k, report.line_bundle.c1_squared) == (
                Verdict.FORBIDDEN, n // 8, 0)

    def test_oracle_still_scans_even_conjugate(self, capsys):
        from latgate.cli import main

        conj = self.conjugate("E8", 11)
        doc = json.dumps({"rank": 8, "gram": [list(row) for row in conj.entries]})
        assert main(["analyze", "--json", "--stats", "--oracle", doc]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["charvec"]["m"], report["charvec"]["minimizer"]) == (0, [0] * 8)
        assert (report["stats"]["nodes"], report["stats"]["prunes"]) == (8, 0)
        assert (report["oracle"]["mode"], report["oracle"]["ok"]) == ("brute", True)

    def test_even_complement_not_reduced(self, monkeypatch):
        # E8+Z2 splits on its reduced basis into two units and an even E8
        # block: only the input is reduced, and the E8 block is searched at
        # rung 0 on the pivot rows of its own reversal
        conj = self.conjugate("E8+Z2", 16)
        m, count, minimizer, _ = self.reduced_route(conj)
        form = charvec._search_basis(conj)[1]
        [e8] = [part for part in charvec._components(form) if len(part) > 1]
        block = GramMatrix(tuple(tuple(form.entries[i][j] for j in e8) for i in e8))
        assert parity(block) is Parity.EVEN
        calls = self.counting_lll(monkeypatch)
        searched = []
        search = enumeration._search
        monkeypatch.setattr(charvec, "_search", lambda rows, T, D, r: searched.append(
            (rows, r)) or search(rows, T, D, r))
        res, stats = min_char_vector_with_stats(conj)
        assert calls == [conj.entries]
        assert (res.norm_m, res.count_minimizers) == (2, 4)
        assert (m, count, minimizer) == (res.norm_m, res.count_minimizers, res.minimizer)
        assert [r for _, r in searched] == [1, 0]
        assert searched[1][0] == _reversed_pivots(block)
        # no block's parity is asked: planning every form as odd changes
        # nothing and reduces no block
        monkeypatch.setattr(charvec, "parity", lambda g: Parity.ODD)
        assert min_char_vector_with_stats(GramMatrix(conj.entries)) == (res, stats)
        assert calls == [conj.entries] * 2

    def test_odd_forms_still_reduced(self, monkeypatch):
        # D12plus+Z4 has rank 16 = 0 mod 8 but is odd: it is reduced once,
        # and its odd D12plus block is searched on the reduced basis, not
        # reduced again
        conj = self.conjugate("D12plus+Z4", 17)
        calls = self.counting_lll(monkeypatch)
        res = min_char_vector(conj)
        assert (res.norm_m, res.k, res.count_minimizers) == (8, 1, 384)
        assert calls == [conj.entries]


class TestSearchPlan:
    """Every odd form is searched on the pivot rows LLL kept (`core._lll`),
    with no elimination of its own.  Each plan's rows must equal, on and
    right of the diagonal, a fresh elimination of the plan's search form,
    so a fault in LLL's bookkeeping cannot hide behind it."""

    # (form, ranks of the plans whose rows come from LLL): the input's
    # alone, as no block of its reduced basis is reduced again
    CASES = [("E8+Z1", [9]), ("E8+Z4", [12]), ("D12plus", [12]), ("D12plus+Z1", [13]),
             ("Zn:12", [12])]

    @pytest.mark.parametrize("fid, from_lll", CASES)
    def test_rows_match_fresh_elimination(self, fid, from_lll, monkeypatch):
        plans = []
        search_basis = charvec._search_basis

        def recording(g):
            plans.append(search_basis(g))
            return plans[-1]

        monkeypatch.setattr(charvec, "_search_basis", recording)
        g = catalog_get(fid).gram
        for seed in range(5):
            plans.clear()
            conj = basis_change(g, random_unimodular(g.rank, random.Random(seed)))
            res = min_char_vector(conj)
            assert res.norm_m == catalog_get(fid).expected["m"]
            assert [form.rank for _, form, _ in plans] == from_lll
            for _, form, rows in plans:
                fresh = _reversed_pivots(form)
                assert [row[i:] for i, row in enumerate(rows)] == [
                    row[i:] for i, row in enumerate(fresh)]


class TestMapBack:
    """`_char_minimum` builds the lex-least minimizer in the caller's
    coordinates one coordinate at a time, for the minimizers still tied;
    it must equal the least of all of them mapped back by a full product."""

    @pytest.mark.parametrize("fid, count", [("E8+Z4", 16), ("D12plus+Z1", 48), ("Zn:9", 512),
                                            ("Z1+D12plus+E8", 48)])
    def test_matches_full_product(self, fid, count):
        g = catalog_get(fid).gram
        tied = 0
        for seed in range(3):
            conj = basis_change(g, random_unimodular(g.rank, random.Random(seed)))
            h, form, rows = charvec._search_basis(conj)
            m, found, minimizer, _ = charvec._char_minimum(form, rows, h)
            w0 = charvec._solve_gf2(form)
            vectors = enumeration._search(rows, w0, 2, Fraction(m, 4))[0]
            mapped = _times([tuple(x + 2 * y for x, y in zip(w0, u)) for u in vectors], h)
            assert found == len(mapped) == count
            assert minimizer == min(mapped)
            tied += sum(w[0] == minimizer[0] for w in mapped) > 1
        # on some seed several minimizers tie at coordinate 0, so later
        # coordinates narrow the survivors
        assert tied


class TestReductionSearchedAlike:
    """Every odd form is searched on the plan of its LLL reduction, so a
    form and its reduction run the same searches: the same m, count and
    counters, and minimizers that the reduction's basis maps one to one."""

    @pytest.mark.parametrize("fid", ["E8+Z1", "E8+Z2", "D12plus", "D12plus+Z1", "D20plus+Z4",
                                     "Z1+D12plus+E8", "Zn:9"])
    def test_same_answer_and_counters(self, fid):
        g = catalog_get(fid).gram
        n = g.rank
        for seed in range(10):
            conj = basis_change(g, random_unimodular(n, random.Random(seed)))
            h, reduced = lll_reduce(conj)
            res, stats = min_char_vector_with_stats(conj)
            res_r, stats_r = min_char_vector_with_stats(reduced)
            assert stats == stats_r
            assert (res.norm_m, res.count_minimizers, res.unit_vector_count) == (
                res_r.norm_m, res_r.count_minimizers, res_r.unit_vector_count)
            # w in the reduced basis is sum_i w_i h_i in the conjugate's
            mins = all_minimizers(reduced, res_r)
            assert len(mins) == res.count_minimizers and res_r.minimizer == min(mins)
            assert res.minimizer == min(
                tuple(sum(x * row[j] for x, row in zip(w, h)) for j in range(n)) for w in mins)


class TestVerdictAndChecks:
    def test_identity_kind(self):
        v = elkies_verdict(catalog_get("Zn:6").gram)
        assert v.identity and v.kind == "Identity"
        assert v.result.norm_m == 6

    @pytest.mark.parametrize("fid", ["E8", "E8+Z1", "D12plus", "D16plus"])
    def test_short_vector_kind(self, fid):
        v = elkies_verdict(catalog_get(fid).gram)
        assert not v.identity and v.kind == "HasShortCharVector"
        assert v.result.k >= 1

    def test_identity_survives_basis_change(self):
        rng = random.Random(23)
        g = catalog_get("Zn:5").gram
        for _ in range(3):
            h = basis_change(g, random_unimodular(5, rng))
            assert elkies_verdict(h).identity

    @pytest.mark.parametrize("fid", ["Zn:1", "Zn:7", "E8", "D12plus", "E8+Z2"])
    def test_mod8_positive_definite(self, fid):
        assert signature_mod8_check(catalog_get(fid).gram)

    @pytest.mark.parametrize("fid", ["Zn:3", "E8", "D16plus"])
    def test_mod8_negative_definite(self, fid):
        assert signature_mod8_check(negate(catalog_get(fid).gram))

    def test_mod8_rejects_indefinite(self):
        with pytest.raises(ValueError):
            signature_mod8_check(HYPERBOLIC)

    def test_mod8_rejects_degenerate(self):
        with pytest.raises(DegenerateFormError):
            signature_mod8_check(GramMatrix.from_rows([[1, 0], [0, 0]]))

    def test_mod8_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodularError):
            signature_mod8_check(catalog_get("D4").gram)

    def test_unit_vector_counts(self):
        assert count_unit_vectors(catalog_get("Zn:4").gram) == 8
        assert count_unit_vectors(catalog_get("E8").gram) == 0
        assert count_unit_vectors(catalog_get("D12plus").gram) == 0

    def test_unit_count_survives_basis_change(self):
        rng = random.Random(31)
        g = catalog_get("Zn:3").gram
        h = basis_change(g, random_unimodular(3, rng))
        assert count_unit_vectors(h) == 6


class TestWorkersAndReport:
    def test_report_shape(self):
        rep = charvec_report(catalog_get("D12plus").gram, "D12plus")
        assert rep == {
            "form_id": "D12plus",
            "n": 12,
            "m": 4,
            "k": 1,
            "minimizer": [-4, 2, 4, 6, 8, 10, 12, 14, 16, 18, 9, 11],
            "verdict": "HasShortCharVector",
            "unit_vector_count": 0,
            "mod8_ok": True,
        }

    def test_report_identity_case(self):
        rep = charvec_report(catalog_get("Zn:2").gram, "Zn:2")
        assert rep["verdict"] == "Identity"
        assert rep["m"] == 2 and rep["k"] == 0
        assert rep["unit_vector_count"] == 4
