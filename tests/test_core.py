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
    load_gram,
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
from oracle_helpers import bareiss_full_update, det_gauss, inertia_by_diagonalization


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

    @pytest.mark.parametrize("rows, error, message", (
        ([], BadShapeError, "rank must be at least 1"),
        ([[1, 0], [0]], BadShapeError, "row 1 has length 1, expected 2"),
        # rows are checked in order, each for its length and then its entries
        ([[1, 1.0], [0]], BadShapeError, "entry (0,1) is not an integer: 1.0"),
        ([[1, 0], [0, True]], BadShapeError, "entry (1,1) is not an integer: True"),
        ([[1, 0, 0], [0, 1, "1"], [0, 0, 1]], BadShapeError,
         "entry (1,2) is not an integer: '1'"),
        ([[1, 2], [3, 1]], NotSymmetricError, "entries (0,1)=2 and (1,0)=3 differ"),
        # the first asymmetric pair, in row-major order of the upper triangle
        ([[1, 0, 0], [0, 1, 5], [0, 6, 1]], NotSymmetricError,
         "entries (1,2)=5 and (2,1)=6 differ"),
        ([[1, 0, 7], [0, 1, 5], [0, 6, 1]], NotSymmetricError,
         "entries (0,2)=7 and (2,0)=0 differ"),
    ))
    def test_messages(self, rows, error, message):
        with pytest.raises(error) as info:
            GramMatrix.from_rows(rows)
        assert type(info.value) is error and str(info.value) == message

    def test_asymmetric_document_message(self):
        with pytest.raises(NotSymmetricError) as info:
            load_gram('{"rank": 2, "gram": [[1, 4], [0, 1]]}')
        assert str(info.value) == "entries (0,1)=4 and (1,0)=0 differ"

    def test_int_subclass_accepted(self):
        class Small(int):
            pass

        g = GramMatrix.from_rows([[Small(2), Small(1)], [1, 2]])
        assert g.entries == ((2, 1), (1, 2))
        validate(GramMatrix(([1, 0], [0, 1])))  # rows held as lists


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


# (rows, det, inertia) of forms on which the elimination needs a congruence:
# a diagonal swap that a fold would spoil (the fold pivot 0 + 2 - 2 is 0), a
# fold whose partner lies outside the zero row k, the zero form, and a
# degenerate form whose leading minors vanish only at the last
_CONGRUENCE_CASES = [
    ([[0, 1], [1, -2]], -1, (1, 1, 0)),
    ([[0, 0, 0], [0, 0, 1], [0, 1, 0]], 0, (1, 1, 1)),
    ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 0, (0, 0, 3)),
    ([[1, 2, 0], [2, 1, 0], [0, 0, 0]], 0, (1, 1, 1)),
]


def _random_symmetric(count, seed):
    """Seeded symmetric forms of rank 1-10 with small entries; about half of
    them have forced zero diagonal entries, and some a duplicated row and
    column, so that many have a vanishing leading minor."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 10)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.choice((0, 0, 1, -1, 2, -2, 3))
        if rng.random() < 0.5:
            for i in rng.sample(range(n), rng.randint(1, n)):
                rows[i][i] = 0
        if n > 1 and rng.random() < 0.3:
            i, j = rng.sample(range(n), 2)
            rows[j] = list(rows[i])
            for row in rows:
                row[j] = row[i]
        yield rows


def _has_vanishing_leading_minor(rows):
    return any(det_gauss([row[:k] for row in rows[:k]]) == 0 for k in range(1, len(rows) + 1))


class TestInertia:
    """One integer elimination classifies every symmetric form, checked
    against rational Gaussian elimination (det) and congruence
    diagonalization over Q (inertia)."""

    @pytest.mark.parametrize("rows, det, signs", _CONGRUENCE_CASES)
    def test_congruence_cases(self, rows, det, signs):
        g = GramMatrix.from_rows(rows)
        assert (determinant(g), inertia(g)) == (det, signs)
        assert (det_gauss(rows), inertia_by_diagonalization(rows)) == (det, signs)
        # the elimination returns the rank's worth of leading minors, none 0
        minors = core._bareiss(rows)[1]
        assert len(minors) == len(rows) - signs[2] and 0 not in minors

    def test_matches_diagonalization_on_random_forms(self):
        forms = list(_random_symmetric(2000, 20))
        for rows in forms:
            g = GramMatrix.from_rows(rows)
            assert determinant(g) == det_gauss(rows), rows
            assert inertia(g) == inertia_by_diagonalization(rows), rows
        vanishing = sum(map(_has_vanishing_leading_minor, forms))
        assert vanishing >= 0.3 * len(forms)

    @staticmethod
    def check_against_full_update(rows):
        """`_bareiss` updates the upper triangle only; its det, minors and
        pivot rows on and right of the diagonal are those of the plain
        elimination that updates every entry."""
        det, minors, pivot_rows = core._bareiss(rows)
        want_det, want_minors, want_rows = bareiss_full_update(rows)
        assert (det, minors) == (want_det, want_minors), rows
        assert [row[i:] for i, row in enumerate(pivot_rows)] == [
            row[i:] for i, row in enumerate(want_rows)], rows
        return len(pivot_rows) < len(minors)

    HYPERBOLIC = GramMatrix(((0, 1), (1, 0)))

    def test_half_update_matches_full_update(self):
        # the random forms include zero diagonals and duplicated rows, so
        # many need a congruence, which reads the mirrored lower triangle
        congruences = sum(map(self.check_against_full_update, _random_symmetric(2000, 20)))
        assert congruences >= 1000
        for rows, _, _ in _CONGRUENCE_CASES:
            self.check_against_full_update(rows)
        for fid in ("Zn:16", "E8+E8", "D16plus", "E8+Z8", "Zn:24", "E8+E8+E8", "D12plus+D12plus",
                    "D20plus+Z4"):
            gram = catalog_get(fid).gram
            for seed in range(3):
                conj = basis_change(gram, random_unimodular(gram.rank, random.Random(seed)))
                self.check_against_full_update(conj.entries)
                self.check_against_full_update(negate(conj).entries)
                # a hyperbolic plane in front: a congruence at the first step
                assert self.check_against_full_update(direct_sum(self.HYPERBOLIC, conj).entries)

    def test_classification_builds_no_fraction(self, monkeypatch):
        forms = [rows for rows, _, _ in _CONGRUENCE_CASES]
        forms += filter(_has_vanishing_leading_minor, _random_symmetric(300, 21))
        want = [(det_gauss(rows), inertia_by_diagonalization(rows)) for rows in forms]
        assert len(forms) >= 100

        def refuse(*args):
            raise AssertionError("classification built a Fraction")

        monkeypatch.setattr(core, "Fraction", refuse)
        got = [(determinant(g), inertia(g)) for g in map(GramMatrix.from_rows, forms)]
        assert got == want


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

    @pytest.mark.parametrize("u, entries", (
        (((0, 1), (1, 0)), ((3, 1), (1, 2))),
        (((0, 1), (-1, 0)), ((3, -1), (-1, 2))),
    ))
    def test_basis_change_accepts_swap_and_rotation(self, u, entries):
        # det -1, and an antisymmetric transform on which a symmetric fold
        # of u itself would cancel: u is checked through u^T u
        assert basis_change(GramMatrix.from_rows([[2, 1], [1, 3]]), u).entries == entries

    @pytest.mark.parametrize("u, det", (
        (((1, 1), (1, 1)), 0),
        (((2, 0), (0, 1)), 2),
        (((1, 1), (1, -1)), 2),
    ))
    def test_basis_change_refusal_names_abs_det(self, u, det):
        with pytest.raises(NotUnimodularTransformError) as info:
            basis_change(identity(2), u)
        assert str(info.value) == f"|transform determinant| is {det}, need 1"

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
        ids = builtin_ids() + tuple(f"Zn:{n}" for n in range(17, 25))
        forms = {fid: catalog_get(fid).gram for fid in ids}
        changed = [fid for fid, g in forms.items() if core.lll_reduce(g)[1].entries != g.entries]
        assert changed == ["E8", "E8+Z1", "E8+Z2", "E8+Z3", "E8+Z4", "E8+E8", "D12plus", "D16plus"]

    def test_search_basis(self, monkeypatch):
        # Z^n is left as it is by LLL, and planned as its reversal with the
        # pivot rows LLL kept; an odd conjugate comes back as (H, form,
        # rows) with form = H G H^T the reversal of its LLL reduction and
        # rows the pivot rows LLL kept; an even block of the reduced form is
        # planned on the rows of its reversal, and never reduced
        zn = catalog_get("Zn:6").gram
        h, form, rows = charvec._search_basis(zn)
        assert h == identity(6).entries[::-1]
        assert form.entries == zn.entries and rows == core._lll(zn)[2]
        g = basis_change(catalog_get("E8+Z2").gram, random_unimodular(10, random.Random(3)))
        h, form, lll_rows = charvec._search_basis(g)
        assert lll_rows == core._lll(g)[2]
        assert abs(det_gauss(h)) == 1
        rows = g.entries
        assert form.entries == tuple(
            tuple(sum(a * rows[k][l] * b for k, a in enumerate(hi) for l, b in enumerate(hj))
                  for hj in h)
            for hi in h
        ) == _rev(core.lll_reduce(g)[1].entries)

        lll = core._lll

        def odd_only(g):
            assert parity(g) is Parity.ODD, "an even form was LLL-reduced"
            return lll(g)

        planned, searched = [], []
        reversed_pivots, search = core._reversed_pivots, charvec._search

        def planning(g):
            planned.append((g, reversed_pivots(g)))
            return planned[-1][1]

        monkeypatch.setattr(charvec, "_lll", odd_only)
        monkeypatch.setattr(charvec, "_reversed_pivots", planning)
        monkeypatch.setattr(charvec, "_search",
                            lambda rows, *args: searched.append(rows) or search(rows, *args))
        e8z2 = basis_change(catalog_get("E8+Z2").gram, random_unimodular(10, random.Random(3)))
        assert min_char_vector(e8z2).norm_m == 2
        [(rest, rows)] = planned
        assert rest.rank == 8 and parity(rest) is Parity.EVEN
        assert searched[-1] is rows

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
    inertia.  The searches of an odd form share one plan, whose pivot rows
    LLL computed; an even input, whose characteristic search would be one
    path in any basis, is answered without a search, so nothing but its
    classification eliminates it, and each block of rank > 1 of a reduced
    basis that splits is searched, never classified or reduced, on the rows
    of one elimination of its reversal.  Every elimination goes through
    `core._bareiss`."""

    def _count(self, monkeypatch, argv):
        eliminated = Counter()  # rows -> fraction-free eliminations of them
        reductions = []
        bareiss = core._bareiss
        lll = core._lll

        def counting_bareiss(rows):
            eliminated[tuple(map(tuple, rows))] += 1
            return bareiss(rows)

        def counting_lll(g):
            out = lll(g)
            reductions.append((g.entries, out[1].entries))
            return out

        monkeypatch.setattr(core, "_bareiss", counting_bareiss)
        monkeypatch.setattr(charvec, "_lll", counting_lll)
        assert main(argv) == 0
        return eliminated, reductions

    def test_analyze_conjugate(self, monkeypatch, capsys):
        # the input is eliminated once (det and inertia) and reduced once;
        # the unit search and the min-char search share one plan, whose
        # pivot rows LLL computed, so nothing eliminates the reduced form
        form = basis_change(catalog_get("D12plus").gram, random_unimodular(12, random.Random(2)))
        argv = ["analyze", "--json", dumps_canonical(gram_to_obj(form))]
        eliminated, reductions = self._count(monkeypatch, argv)
        assert json.loads(capsys.readouterr().out)["charvec"]["m"] == 4
        [(source, reduced)] = reductions
        assert source == form.entries and reduced != form.entries
        assert eliminated == {form.entries: 1}

    def test_oracle_adds_no_cholesky(self, monkeypatch, capsys):
        # the oracle bounds its scan by the adjugate's diagonal, from one
        # Gauss-Jordan elimination of [G | I] in `_axis_reach`, run once for
        # the plan that the gate and the scan share: it adds no `_bareiss` run, on
        # the input or on a principal minor (E8 is even, so its minimum is
        # answered without a search: nothing is reduced or searched)
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
        assert eliminated == {form.entries: 1}
        assert reached == [form.entries]

    def test_split_complement_not_classified(self, monkeypatch, capsys):
        # E8+Z4 splits on its reduced basis into four units and an E8
        # block, read off the reduced form: nothing eliminates the block to
        # classify it, and nothing reduces it; its plan eliminates its
        # reversal once, and the reduced input's plan takes its rows from LLL
        form = basis_change(catalog_get("E8+Z4").gram, random_unimodular(12, random.Random(8)))
        searched = []
        search = charvec._search
        monkeypatch.setattr(charvec, "_search",
                            lambda rows, *args: searched.append(rows) or search(rows, *args))
        argv = ["analyze", "--json", dumps_canonical(gram_to_obj(form))]
        eliminated, reductions = self._count(monkeypatch, argv)
        report = json.loads(capsys.readouterr().out)["charvec"]
        assert (report["m"], report["unit_vector_count"]) == (4, 8)
        [(source, reduced)] = reductions
        plan_form = _rev(reduced)
        parts = charvec._components(GramMatrix(plan_form))
        [e8] = [part for part in parts if len(part) > 1]
        assert len(parts) == 5 and len(e8) == 8
        rest = tuple(tuple(plan_form[i][j] for j in e8) for i in e8)
        assert rest != _rev(rest) and eliminated[rest] == 0
        assert eliminated == {form.entries: 1, _rev(rest): 1}
        # the unit search ran on the rows LLL kept for the reduced input,
        # the min-char search on those of the block's reversal
        assert source == form.entries and searched[0] == core._lll(form)[2]
        assert searched[1:] == [core._reversed_pivots(GramMatrix(rest))]

    def test_donaldson_negated_e8(self, monkeypatch, capsys):
        # E8 = -(-E8) carries the input's classification; E8 is even, so
        # its minimum is answered without a search: nothing is reduced and
        # only the input is eliminated
        form = negate(catalog_get("E8").gram)
        doc = json.dumps({"b1": 0, "form": gram_to_obj(form)})
        eliminated, reductions = self._count(monkeypatch, ["donaldson", "--json", doc])
        assert json.loads(capsys.readouterr().out)["verdict"] == "Forbidden"
        assert reductions == []
        assert eliminated == {form.entries: 1}

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
        # (det, inertia) from -E8, and E8, being even, is not searched, so
        # only -E8 is eliminated
        rows_seen = []
        bareiss = core._bareiss

        def counting_bareiss(rows):
            rows_seen.append(rows)
            return bareiss(rows)

        monkeypatch.setattr(core, "_bareiss", counting_bareiss)
        doc = json.dumps({"b1": 0, "form": gram_to_obj(negate(catalog_get("E8").gram))})
        assert main(["donaldson", "--json", doc]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "Forbidden"
        assert len(rows_seen) == 1

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
