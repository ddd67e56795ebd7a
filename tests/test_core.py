import json
import random
import re
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgate import charvec, core, enumeration
from latgate import (
    BadShapeError,
    Definiteness,
    DegenerateFormError,
    EnumQuery,
    GramMatrix,
    NotPositiveDefiniteError,
    NotSymmetricError,
    NotUnimodularTransformError,
    Parity,
    basis_change,
    brute_force_coset,
    builtin_ids,
    catalog_get,
    cholesky,
    count_unit_vectors,
    definiteness,
    determinant,
    direct_sum,
    dumps_canonical,
    enumerate_coset,
    evaluate,
    gram_to_obj,
    inertia,
    is_unimodular,
    min_char_vector,
    negate,
    pairing,
    parity,
    random_unimodular,
    signature,
    sufficient_box,
    validate,
)
from latgate.cli import main
from oracle_helpers import det_gauss


def _rev(rows):
    """The rows of P*G*P, P the coordinate reversal."""
    return tuple(row[::-1] for row in rows[::-1])


def identity(n):
    return GramMatrix.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def diag(*values):
    n = len(values)
    return GramMatrix.from_rows(
        [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )


class TestValidation:
    def test_identity_ok(self):
        validate(identity(3))

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetricError):
            GramMatrix.from_rows([[1, 2], [3, 1]])

    def test_ragged_rejected(self):
        with pytest.raises(BadShapeError):
            GramMatrix.from_rows([[1, 0], [0]])

    def test_empty_rejected(self):
        with pytest.raises(BadShapeError):
            GramMatrix.from_rows([])

    def test_bool_entry_rejected(self):
        with pytest.raises(BadShapeError):
            GramMatrix.from_rows([[True]])

    def test_float_entry_rejected(self):
        with pytest.raises(BadShapeError):
            GramMatrix.from_rows([[1.0]])

    def test_catalog_forms_valid(self):
        for fid in ("E8", "D4", "D12plus"):
            validate(catalog_get(fid).gram)


class TestDeterminant:
    def test_identity(self):
        for n in (1, 2, 5):
            assert determinant(identity(n)) == 1

    def test_frozen_catalog_values(self):
        assert determinant(catalog_get("E8").gram) == 1
        assert determinant(catalog_get("D4").gram) == 4
        assert determinant(catalog_get("D12plus").gram) == 1

    def test_matches_gaussian_oracle_on_catalog(self):
        for fid in ("Zn:5", "E8", "D4", "D7", "D12plus", "E8+Z2", "D16plus"):
            gram = catalog_get(fid).gram
            assert determinant(gram) == det_gauss(gram.entries)

    def test_matches_gaussian_oracle_on_random_symmetric(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 6)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-4, 4)
            gram = GramMatrix.from_rows(rows)
            assert determinant(gram) == det_gauss(rows)

    def test_unimodular_predicate(self):
        assert is_unimodular(identity(4))
        assert not is_unimodular(catalog_get("D4").gram)
        assert is_unimodular(catalog_get("D12plus").gram)
        assert is_unimodular(negate(identity(3)))


class TestDefiniteness:
    def test_identity_positive(self):
        assert definiteness(identity(3)) is Definiteness.POSITIVE_DEFINITE

    def test_negated_identity_negative(self):
        assert definiteness(negate(identity(3))) is Definiteness.NEGATIVE_DEFINITE

    def test_mixed_diagonal_indefinite(self):
        assert definiteness(diag(1, -1)) is Definiteness.INDEFINITE

    def test_zero_row_degenerate(self):
        assert definiteness(diag(1, 0)) is Definiteness.DEGENERATE

    def test_hyperbolic_indefinite(self):
        gram = GramMatrix.from_rows([[0, 1], [1, 0]])
        assert definiteness(gram) is Definiteness.INDEFINITE

    def test_zero_leading_minor_still_classified(self):
        gram = GramMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert definiteness(gram) is Definiteness.INDEFINITE
        assert inertia(gram) == (2, 1, 0)

    def test_inertia_of_degenerate(self):
        assert inertia(diag(2, 0, -3)) == (1, 1, 1)


class TestParitySignature:
    def test_parity(self):
        assert parity(catalog_get("E8").gram) is Parity.EVEN
        assert parity(identity(2)) is Parity.ODD
        assert parity(catalog_get("D12plus").gram) is Parity.ODD
        assert parity(catalog_get("D16plus").gram) is Parity.EVEN

    def test_signature(self):
        assert signature(identity(6)) == 6
        assert signature(negate(catalog_get("E8").gram)) == -8
        assert signature(diag(1, -1)) == 0

    def test_signature_of_degenerate_raises(self):
        with pytest.raises(DegenerateFormError):
            signature(diag(1, 0))


class TestCompositionAndBasisChange:
    def test_direct_sum_identities(self):
        assert direct_sum(identity(1), identity(2)) == identity(3)

    def test_direct_sum_e8_padding(self):
        gram = direct_sum(catalog_get("E8").gram, identity(1))
        assert gram.rank == 9
        assert determinant(gram) == 1
        assert parity(gram) is Parity.ODD

    def test_direct_sum_determinant_multiplicative(self):
        a = catalog_get("D4").gram
        b = catalog_get("D5").gram
        assert determinant(direct_sum(a, b)) == determinant(a) * determinant(b)

    def test_basis_change_identity_fixed_point(self):
        gram = catalog_get("E8").gram
        u = tuple(tuple(1 if i == j else 0 for j in range(8)) for i in range(8))
        assert basis_change(gram, u) == gram

    def test_basis_change_shear(self):
        assert basis_change(identity(2), ((1, 1), (0, 1))).entries == ((1, 1), (1, 2))

    def test_basis_change_rejects_det2(self):
        with pytest.raises(NotUnimodularTransformError):
            basis_change(identity(2), ((2, 0), (0, 1)))

    @pytest.mark.parametrize("u, message", (
        (((1, 0),), "transform must be 2x2"),
        (((1, 0), (0, 1, 0)), "transform must be 2x2"),
        (((1, 0), (0, 1), (0, 0)), "transform must be 2x2"),
        (((1, 0), (0, 1.0)), "transform entry is not an integer: 1.0"),
        (((True, 0), (0, 1)), "transform entry is not an integer: True"),
        (((1, 0), (Fraction(0), 1)), "transform entry is not an integer: Fraction(0, 1)"),
    ))
    def test_basis_change_refuses_bad_transforms(self, u, message):
        with pytest.raises(BadShapeError, match=re.escape(message)):
            basis_change(identity(2), u)

    def test_invariants_under_random_conjugation(self):
        rng = random.Random(23)
        for fid in ("Zn:4", "E8", "D4", "D12plus"):
            gram = catalog_get(fid).gram
            for _ in range(5):
                u = random_unimodular(gram.rank, rng)
                conj = basis_change(gram, u)
                assert determinant(conj) == determinant(gram)
                assert definiteness(conj) is definiteness(gram)
                assert parity(conj) is parity(gram)
                assert signature(conj) == signature(gram)


class TestCholesky:
    def test_identity(self):
        chol = cholesky(identity(3))
        assert chol.diag == (Fraction(1),) * 3
        assert all(x == 0 for row in chol.upper for x in row)

    def test_hand_worked_2x2(self):
        chol = cholesky(GramMatrix.from_rows([[2, 1], [1, 2]]))
        assert chol.diag == (Fraction(2), Fraction(3, 2))
        assert chol.upper[0][1] == Fraction(1, 2)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(diag(1, -1))

    def test_rejects_degenerate(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(diag(1, 0))

    @pytest.mark.parametrize(
        "gram, message",
        [
            (diag(1, -1), "pivot 1 is -1"),
            (GramMatrix.from_rows([[0, 1], [1, 0]]), "pivot 0 is 0"),
            (GramMatrix.from_rows([[2, 3], [3, 2]]), "pivot 1 is -5/2"),
            (diag(1, 0), "pivot 1 is 0"),
        ],
    )
    def test_rejection_message_names_first_bad_pivot(self, gram, message):
        with pytest.raises(NotPositiveDefiniteError) as info:
            cholesky(gram)
        assert str(info.value) == f"{message}, form is not positive definite"

    def test_rebuilds_gram_and_determinant(self):
        # G = U^T diag U with U unit upper triangular, and prod(diag) = det G
        rng = random.Random(41)
        forms = [catalog_get(fid).gram for fid in builtin_ids()]  # ranks 1..16
        forms += [basis_change(g, random_unimodular(g.rank, rng)) for g in forms[::3]]
        for gram in forms:
            chol = cholesky(gram)
            n = gram.rank
            unit = [[Fraction(1) if i == j else chol.upper[i][j] for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(n):
                    entry = sum(unit[k][i] * chol.diag[k] * unit[k][j] for k in range(n))
                    assert entry == gram.entries[i][j]
            product = Fraction(1)
            for d in chol.diag:
                product *= d
            assert product == determinant(gram)

    def test_reconstruction_identity_on_random_vectors(self):
        rng = random.Random(31)
        gram = basis_change(catalog_get("Zn:5").gram, random_unimodular(5, rng))
        chol = cholesky(gram)
        for _ in range(1000):
            x = [rng.randint(-5, 5) for _ in range(5)]
            assert chol.form_value([Fraction(v) for v in x]) == evaluate(gram, x)


def gram_schmidt(rows):
    """(mu, B): Gram-Schmidt coefficients and squared lengths over Q."""
    n = len(rows)
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = []
    for i in range(n):
        for j in range(i):
            dot = Fraction(rows[i][j]) - sum(mu[j][k] * mu[i][k] * b[k] for k in range(j))
            mu[i][j] = dot / b[j]
        b.append(Fraction(rows[i][i]) - sum(mu[i][k] ** 2 * b[k] for k in range(i)))
    return mu, b


# positive definite catalog forms up to rank 12, unimodular or not
LLL_FORMS = ("Zn:1", "Zn:2", "Zn:3", "Zn:5", "Zn:8", "Zn:12", "D4", "D5", "E8",
             "E8+Z1", "E8+Z2", "E8+Z3", "E8+Z4", "D12plus")


class TestLLL:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(fid=st.sampled_from(LLL_FORMS), seed=st.integers(0, 2**32 - 1))
    def test_reduced_exactly(self, fid, seed):
        gram = catalog_get(fid).gram
        n = gram.rank
        conj = basis_change(gram, random_unimodular(n, random.Random(seed)))
        h, reduced = core.lll_reduce(conj)
        g = conj.entries
        assert reduced.entries == tuple(
            tuple(sum(h[i][k] * g[k][l] * h[j][l] for k in range(n) for l in range(n))
                  for j in range(n))
            for i in range(n)
        )
        assert abs(det_gauss(h)) == 1
        mu, b = gram_schmidt(reduced.entries)
        for i in range(n):
            for j in range(i):
                assert abs(mu[i][j]) <= Fraction(1, 2)
        for k in range(1, n):
            assert b[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * b[k - 1]

    def test_catalog_forms_it_changes(self):
        # every Z^n is left as it is
        forms = {fid: catalog_get(fid).gram for fid in builtin_ids(24)}
        changed = [fid for fid, g in forms.items() if core.lll_reduce(g)[1].entries != g.entries]
        assert changed == ["E8", "E8+Z1", "E8+Z2", "E8+Z3", "E8+Z4", "E8+E8", "D12plus", "D16plus"]

    def test_search_basis(self, monkeypatch):
        # Z^n is reduced as given; an odd conjugate comes back as (H, form)
        # with form = H G H^T the reversal of its LLL reduction; an even
        # form is never reduced
        zn = catalog_get("Zn:6").gram
        h, form = charvec._search_basis(zn)
        assert h is None and form is zn
        g = basis_change(catalog_get("E8+Z2").gram, random_unimodular(10, random.Random(3)))
        h, form = charvec._search_basis(g)
        assert abs(det_gauss(h)) == 1
        rows = g.entries
        assert form.entries == tuple(
            tuple(sum(a * rows[k][l] * b for k, a in enumerate(hi) for l, b in enumerate(hj))
                  for hj in h)
            for hi in h
        ) == _rev(core.lll_reduce(g)[1].entries)

        def refuse(g):
            raise AssertionError("an even form was LLL-reduced")

        monkeypatch.setattr(charvec, "lll_reduce", refuse)
        e8 = basis_change(catalog_get("E8").gram, random_unimodular(8, random.Random(3)))
        h, form = charvec._search_basis(e8)
        assert h is None and form is e8

    @pytest.mark.parametrize("gram", [
        diag(1, -1),
        GramMatrix.from_rows([[0, 1], [1, 0]]),
        diag(1, 0),
        diag(-1),
        GramMatrix.from_rows([[2, 1], [1, -3]]),
    ])
    def test_refuses_non_positive_definite(self, gram):
        with pytest.raises(NotPositiveDefiniteError) as info:
            core.lll_reduce(gram)
        assert str(info.value) == "LLL reduction needs a positive definite form"


class TestEvaluatePairing:
    def test_evaluate_matches_pairing(self):
        gram = catalog_get("E8").gram
        rng = random.Random(7)
        for _ in range(50):
            x = [rng.randint(-3, 3) for _ in range(8)]
            y = [rng.randint(-3, 3) for _ in range(8)]
            assert evaluate(gram, x) == pairing(gram, x, x)
            assert pairing(gram, x, y) == pairing(gram, y, x)

    @pytest.mark.parametrize("x, y", (((1, 0), (1, 0, 0)), ((1, 0, 0, 0), (1, 0, 0)), ((), ())))
    def test_pairing_refuses_wrong_lengths(self, x, y):
        with pytest.raises(BadShapeError, match="vector length does not match the form's rank"):
            pairing(identity(3), x, y)

    def test_bilinearity(self):
        gram = catalog_get("D4").gram
        x, y, z = (1, 0, -2, 1), (0, 3, 1, -1), (2, -1, 0, 1)
        left = pairing(gram, x, tuple(a + b for a, b in zip(y, z)))
        assert left == pairing(gram, x, y) + pairing(gram, x, z)


class TestClassifiedOnce:
    """Each command eliminates its input form once, for the determinant and
    inertia; each search eliminates the form it searches once more, for its
    pivot rows.  The searches of an odd form run on its LLL-reduced form;
    an even form, whose characteristic search is one path in any basis, is
    searched as it stands and never reduced.  Every elimination goes
    through `core._bareiss`."""

    def _count(self, monkeypatch, argv):
        eliminated = Counter()  # rows -> fraction-free eliminations of them
        reductions = []
        bareiss = core._bareiss
        lll = core.lll_reduce

        def counting_bareiss(rows):
            eliminated[tuple(map(tuple, rows))] += 1
            return bareiss(rows)

        def counting_lll(g):
            out = lll(g)
            reductions.append((g.entries, out[1].entries))
            return out

        monkeypatch.setattr(core, "_bareiss", counting_bareiss)
        monkeypatch.setattr(charvec, "lll_reduce", counting_lll)
        assert main(argv) == 0
        return eliminated, reductions

    def test_analyze_conjugate(self, monkeypatch, capsys):
        # the input is eliminated once (det and inertia) and reduced once;
        # the reduced form is eliminated once per search (unit search,
        # min-char search): it is returned in reversed order, and each search
        # eliminates the reversal of what it searches
        form = basis_change(catalog_get("D12plus").gram, random_unimodular(12, random.Random(2)))
        argv = ["analyze", "--json", dumps_canonical(gram_to_obj(form))]
        eliminated, reductions = self._count(monkeypatch, argv)
        assert json.loads(capsys.readouterr().out)["charvec"]["m"] == 4
        [(source, reduced)] = reductions
        assert source == form.entries and reduced != form.entries
        assert eliminated == {form.entries: 1, reduced: 2}

    def test_oracle_adds_no_cholesky(self, monkeypatch, capsys):
        # the oracle bounds its scan by the adjugate's diagonal, from one
        # Gauss-Jordan elimination of [G | I] in `_axis_reach`, run once for
        # the plan that the gate and the scan share: it adds no `_bareiss` run, on
        # the input, on the searched form or on a principal minor (E8 is
        # even, so the min-char search is the only search, and it runs on
        # the input itself: nothing is reduced)
        form = basis_change(catalog_get("E8").gram, random_unimodular(8, random.Random(3)))
        reached = []
        axis_reach = enumeration._axis_reach
        monkeypatch.setattr(enumeration, "_axis_reach",
                            lambda g, C2: reached.append(g.entries) or axis_reach(g, C2))
        argv = ["analyze", "--json", "--oracle", dumps_canonical(gram_to_obj(form))]
        eliminated, reductions = self._count(monkeypatch, argv)
        oracle = json.loads(capsys.readouterr().out)["oracle"]
        assert oracle["mode"] == "brute" and oracle["ok"]
        assert reductions == []
        assert eliminated == {form.entries: 1, _rev(form.entries): 1}
        assert reached == [form.entries]

    def test_split_complement_not_classified(self, monkeypatch, capsys):
        # after the Z^4 split the complement g'' (an E8) is built with its
        # det and inertia known: nothing eliminates it to classify it, and
        # being even it is not reduced; the min-char search eliminates its
        # reversal once
        form = basis_change(catalog_get("E8+Z4").gram, random_unimodular(12, random.Random(8)))
        searched = []
        search = charvec._search
        monkeypatch.setattr(charvec, "_search",
                            lambda q: searched.append(q.form.entries) or search(q))
        argv = ["analyze", "--json", dumps_canonical(gram_to_obj(form))]
        eliminated, reductions = self._count(monkeypatch, argv)
        report = json.loads(capsys.readouterr().out)["charvec"]
        assert (report["m"], report["unit_vector_count"]) == (4, 8)
        [(source, reduced)] = reductions
        # the unit search ran on the reversed reduced form, the min-char
        # search on the complement as built
        assert searched[0] == _rev(reduced) and source == form.entries
        [rest] = searched[1:]
        assert len(rest) == 8 and eliminated[rest] == 0
        assert eliminated == {form.entries: 1, reduced: 1, _rev(rest): 1}

    def test_donaldson_negated_e8(self, monkeypatch, capsys):
        # E8 = -(-E8) carries the input's classification; E8 is even, so
        # it is not reduced, and the one search eliminates its reversal
        form = negate(catalog_get("E8").gram)
        doc = json.dumps({"b1": 0, "form": gram_to_obj(form)})
        eliminated, reductions = self._count(monkeypatch, ["donaldson", "--json", doc])
        assert json.loads(capsys.readouterr().out)["verdict"] == "Forbidden"
        assert reductions == []
        assert eliminated == {form.entries: 1, _rev(catalog_get("E8").gram.entries): 1}

    def test_searches_make_no_cholesky(self, monkeypatch):
        # every search reads the integer pivot rows; the public Cholesky
        # decomposition is never called, and the refusals keep their texts
        def refuse(g):
            raise AssertionError("a search called cholesky")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "latgate" and hasattr(module, "cholesky"):
                monkeypatch.setattr(module, "cholesky", refuse)
        for fid, seed, m, count, units in (("D12plus", 2, 4, 24, 0), ("E8+Z4", 8, 4, 16, 8),
                                           ("E8", 3, 0, 1, 0), ("Zn:5", 1, 5, 32, 10)):
            g = catalog_get(fid).gram
            conj = basis_change(g, random_unimodular(g.rank, random.Random(seed)))
            res = min_char_vector(conj)
            assert (res.norm_m, res.count_minimizers) == (m, count)
            assert evaluate(conj, res.minimizer) == m
            assert count_unit_vectors(conj) == units
        conj = basis_change(catalog_get("D5").gram, random_unimodular(5, random.Random(4)))
        q = EnumQuery(form=conj, shift=(Fraction(1, 2), Fraction(-1, 3), 0, 0, Fraction(1, 2)),
                      radius=Fraction(5, 2))
        ball = enumerate_coset(q)
        assert ball.vectors and ball == brute_force_coset(q, sufficient_box(q))
        # the searches eliminate the reversed form, which fails at another
        # pivot for diag(-1, 1) and diag(1, -1); the texts name the caller's
        for rows, pivot in (([[1, 0], [0, -1]], "pivot 1 is -1"), ([[-1, 0], [0, 1]], "pivot 0 is -1"),
                            ([[0, 1], [1, 0]], "pivot 0 is 0")):
            g = GramMatrix.from_rows(rows)
            for search in (count_unit_vectors,
                           lambda g: enumerate_coset(EnumQuery(g, (0, 0), Fraction(1)))):
                with pytest.raises(NotPositiveDefiniteError) as info:
                    search(g)
                assert str(info.value) == f"{pivot}, form is not positive definite"
            with pytest.raises(NotPositiveDefiniteError) as info:
                min_char_vector(g)
            assert str(info.value) == "minimal characteristic vectors need a positive definite form"

    def test_negation_reuses_classification(self, monkeypatch, capsys):
        # choose_line_bundle negates the classified input: -(-E8) takes its
        # (det, inertia) from -E8, so only -E8 and E8's Cholesky eliminate
        rows_seen = []
        bareiss = core._bareiss

        def counting_bareiss(rows):
            rows_seen.append(rows)
            return bareiss(rows)

        monkeypatch.setattr(core, "_bareiss", counting_bareiss)
        doc = json.dumps({"b1": 0, "form": gram_to_obj(negate(catalog_get("E8").gram))})
        assert main(["donaldson", "--json", doc]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "Forbidden"
        assert len(rows_seen) == 2

    @pytest.mark.parametrize("rows", [
        diag(1, 2, 3).entries,
        diag(-1, 1).entries,
        diag(0, 1, -1).entries,
        [[0, 1], [1, 0]],
        [[1, 2, 0], [2, 1, 0], [0, 0, 0]],
        catalog_get("E8").gram.entries,
        catalog_get("D5").gram.entries,
    ])
    def test_negate_memo_matches_fresh(self, rows):
        g = GramMatrix.from_rows(rows)
        assert "_det_and_inertia" not in negate(g).__dict__
        determinant(g)
        carried = negate(g)
        fresh = GramMatrix(carried.entries)
        assert carried.__dict__["_det_and_inertia"] == fresh._det_and_inertia

    def test_memo_shared_across_threads(self):
        # a form shared by threads reads one (det, inertia), however the
        # first computations interleave
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            forms = [basis_change(catalog_get("E8+Z4").gram, random_unimodular(12, random.Random(s)))
                     for s in range(20)]
            seen = [[] for _ in forms]

            def read():
                for form, out in zip(forms, seen):
                    out.append((determinant(form), inertia(form), signature(form)))

            threads = [threading.Thread(target=read) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        for out in seen:
            assert out == [(1, (12, 0, 0), 12)] * len(threads)
