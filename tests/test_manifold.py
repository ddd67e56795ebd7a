import random
from fractions import Fraction

import pytest

from latgate import (
    BadShapeError,
    GramMatrix,
    InconsistentDimensionError,
    InvalidKError,
    LineBundleClass,
    ManifoldDescriptor,
    ModuliReport,
    NegativePerturbationNormError,
    NoLoopToSurgerError,
    NotNegativeDefiniteError,
    NotUnimodularError,
    SurgeryCertificate,
    Verdict,
    basis_change,
    catalog_get,
    choose_line_bundle,
    direct_sum,
    donaldson_verdict,
    negate,
    random_unimodular,
    reduce_to_b1_zero,
    surgery_reduce_b1,
    sw_boundary_number,
    virtual_dimension,
    weitzenbock_bound,
)

HYPERBOLIC = GramMatrix.from_rows([[0, 1], [1, 0]])
DEGENERATE = GramMatrix.from_rows([[1, 0], [0, 0]])


def neg(fid):
    return negate(catalog_get(fid).gram)


class TestDescriptor:
    def test_derived_numbers(self):
        m = ManifoldDescriptor(b1=2, form=neg("E8"))
        assert m.b2 == 8
        assert m.sigma == -8
        assert m.chi == 2 - 4 + 8

    @pytest.mark.parametrize("b1", range(4))
    @pytest.mark.parametrize("fid", ["Zn:1", "Zn:8", "E8", "D12plus"])
    def test_negative_definite_identity(self, b1, fid):
        # 2*chi + 3*sigma collapses to 4 - 4*b1 - b2 when sigma = -b2
        m = ManifoldDescriptor(b1=b1, form=neg(fid))
        assert 2 * m.chi + 3 * m.sigma == 4 - 4 * b1 - m.b2

    def test_rejects_negative_b1(self):
        with pytest.raises(BadShapeError):
            ManifoldDescriptor(b1=-1, form=neg("Zn:1"))

    def test_rejects_bool_b1(self):
        with pytest.raises(BadShapeError):
            ManifoldDescriptor(b1=True, form=neg("Zn:1"))


class TestSurgery:
    def test_single_step(self):
        m = ManifoldDescriptor(b1=2, form=neg("E8"))
        step = surgery_reduce_b1(m)
        assert step.descriptor.b1 == 1
        assert step.descriptor.form == m.form
        assert step.descriptor.chi == m.chi + 2
        cert = step.certificate
        assert (cert.b1_before, cert.b1_after, cert.b2) == (2, 1, 8)
        assert cert.rank_preserved
        assert all(seq.alternating_sum == 0 for seq in cert.sequences)

    def test_no_loop_left(self):
        with pytest.raises(NoLoopToSurgerError):
            surgery_reduce_b1(ManifoldDescriptor(b1=0, form=neg("Zn:2")))

    def test_reduce_to_zero(self):
        m = ManifoldDescriptor(b1=3, form=neg("D12plus"))
        out = reduce_to_b1_zero(m)
        assert out.b1 == 0
        assert out.form == m.form
        assert out.chi == m.chi + 6

    def test_euler_walk(self):
        m = ManifoldDescriptor(b1=1, form=neg("Zn:1"))
        assert m.chi == 1
        assert reduce_to_b1_zero(m).chi == 3

    def test_unbalanced_ledger_is_verification_failure(self, monkeypatch, capsys):
        # a surgery whose rank ledger does not balance is an internal error,
        # which the command line reports as a verification failure
        from latgate.cli import main

        monkeypatch.setattr(SurgeryCertificate, "rank_preserved",
                            property(lambda self: False))
        assert main(["donaldson", "--catalog", "Zn:3", "--negate", "--b1", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "latgate: verification failure: surgery rank ledger does not balance\n")

    def test_euler_step_off_by_wrong_amount(self, monkeypatch):
        monkeypatch.setattr(ManifoldDescriptor, "chi", property(lambda self: 5))
        with pytest.raises(InconsistentDimensionError,
                           match=r"Euler characteristic moved by 0, expected \+2"):
            surgery_reduce_b1(ManifoldDescriptor(b1=1, form=neg("Zn:1")))


class TestLineBundle:
    def test_minus_identity(self):
        bundle = choose_line_bundle(ManifoldDescriptor(b1=0, form=neg("Zn:8")))
        assert (bundle.c1_squared, bundle.k) == (-8, 0)

    def test_minus_even_rank8(self):
        bundle = choose_line_bundle(ManifoldDescriptor(b1=0, form=neg("E8")))
        assert (bundle.c1_squared, bundle.k) == (0, 1)

    def test_minus_mixed_sum(self):
        bundle = choose_line_bundle(ManifoldDescriptor(b1=0, form=neg("E8+Z1")))
        assert (bundle.c1_squared, bundle.k) == (-1, 1)
        assert bundle.source.count_minimizers == 2

    def test_rejects_positive_definite(self):
        with pytest.raises(NotNegativeDefiniteError):
            choose_line_bundle(ManifoldDescriptor(b1=0, form=catalog_get("E8").gram))

    def test_rejects_indefinite(self):
        with pytest.raises(NotNegativeDefiniteError):
            choose_line_bundle(ManifoldDescriptor(b1=0, form=HYPERBOLIC))

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodularError):
            choose_line_bundle(ManifoldDescriptor(b1=0, form=neg("D4")))


class TestVirtualDimension:
    @pytest.mark.parametrize(
        "b1,fid,expected",
        [
            (0, "E8", 1),
            (0, "Zn:8", -1),
            (2, "E8", 3),
            (1, "D12plus", 2),
            (0, "E8+E8", 3),
        ],
    )
    def test_both_paths_agree(self, b1, fid, expected):
        m = ManifoldDescriptor(b1=b1, form=neg(fid))
        bundle = choose_line_bundle(m)
        assert virtual_dimension(m, bundle) == expected

    def test_detects_mismatched_bundle(self):
        m = ManifoldDescriptor(b1=0, form=neg("E8"))
        good = choose_line_bundle(m)
        forged = LineBundleClass(c1_squared=good.c1_squared, k=0, source=good.source)
        with pytest.raises(InconsistentDimensionError):
            virtual_dimension(m, forged)

    def test_detects_bad_index_parity(self):
        m = ManifoldDescriptor(b1=0, form=neg("E8"))
        good = choose_line_bundle(m)
        forged = LineBundleClass(c1_squared=1, k=good.k, source=good.source)
        with pytest.raises(InconsistentDimensionError):
            virtual_dimension(m, forged)


class TestBoundaryNumber:
    def test_small_values(self):
        for k in range(1, 7):
            number = sw_boundary_number(k)
            assert number.value == 1 and number.nonzero

    def test_exhaustive_nonzero(self):
        # x^(k-1) has coefficient 1 in F2[x]/(x^k) for every k
        assert all(sw_boundary_number(k).nonzero for k in range(1, 65))

    @pytest.mark.parametrize("bad", [0, -1, True, "2", 1.5])
    def test_rejects_bad_k(self, bad):
        with pytest.raises(InvalidKError):
            sw_boundary_number(bad)


class TestVerdictPipeline:
    def test_forbidden_even_rank8(self):
        report = donaldson_verdict(ManifoldDescriptor(b1=0, form=neg("E8")))
        assert report.verdict is Verdict.FORBIDDEN
        assert report.k == 1
        assert report.virtual_dim == 1
        assert report.based_dim == 2
        assert report.boundary == "CP^0"
        assert report.sw_number_nonzero is True
        assert report.line_bundle.c1_squared == 0
        assert report.surgery_certificates == ()

    def test_realizable_minus_identity(self):
        report = donaldson_verdict(ManifoldDescriptor(b1=0, form=neg("Zn:12")))
        assert report.verdict is Verdict.REALIZABLE
        assert report.k == 0
        assert report.virtual_dim == -1
        assert report.based_dim == 0
        assert report.boundary is None
        assert report.sw_number_nonzero is None

    def test_forbidden_glued_rank12(self):
        report = donaldson_verdict(ManifoldDescriptor(b1=0, form=neg("D12plus")))
        assert report.verdict is Verdict.FORBIDDEN
        assert report.k == 1 and report.boundary == "CP^0"

    def test_forbidden_rank16(self):
        report = donaldson_verdict(ManifoldDescriptor(b1=0, form=neg("D16plus")))
        assert report.k == 2
        assert report.virtual_dim == 3
        assert report.boundary == "CP^1"

    def test_not_applicable_positive_definite(self):
        report = donaldson_verdict(ManifoldDescriptor(b1=0, form=catalog_get("E8").gram))
        assert report.verdict is Verdict.NOT_APPLICABLE
        assert "positive definite" in report.reason
        assert report.k is None and report.line_bundle is None

    def test_not_applicable_indefinite(self):
        report = donaldson_verdict(ManifoldDescriptor(b1=0, form=HYPERBOLIC))
        assert report.verdict is Verdict.NOT_APPLICABLE
        assert "indefinite" in report.reason

    def test_not_applicable_degenerate(self):
        report = donaldson_verdict(ManifoldDescriptor(b1=1, form=DEGENERATE))
        assert report.verdict is Verdict.NOT_APPLICABLE
        assert "degenerate" in report.reason
        assert len(report.surgery_certificates) == 1

    def test_not_applicable_report_names_only_its_verdict(self):
        reason = "degenerate intersection form"
        report = ModuliReport(Verdict.NOT_APPLICABLE, reason)
        assert (report.k, report.virtual_dim, report.based_dim, report.boundary,
                report.sw_number_nonzero, report.line_bundle) == (None,) * 6
        assert report.surgery_certificates == ()
        made = donaldson_verdict(ManifoldDescriptor(b1=0, form=DEGENERATE))
        assert made == report

    def test_non_unimodular_raises(self):
        with pytest.raises(NotUnimodularError):
            donaldson_verdict(ManifoldDescriptor(b1=0, form=neg("D4")))

    def test_b1_above_cap_refused_before_surgery(self, monkeypatch):
        import latgate.manifold as manifold_mod

        assert manifold_mod.B1_CAP == 10_000
        monkeypatch.setattr(manifold_mod, "surgery_reduce_b1", None)  # must not run
        with pytest.raises(BadShapeError, match="b1 10001 exceeds the cap of 10000"):
            donaldson_verdict(ManifoldDescriptor(b1=10_001, form=neg("E8")))

    def test_surgery_invariance(self):
        flat = donaldson_verdict(ManifoldDescriptor(b1=0, form=neg("E8")))
        tall = donaldson_verdict(ManifoldDescriptor(b1=3, form=neg("E8")))
        assert tall.verdict is flat.verdict
        assert tall.k == flat.k
        assert tall.virtual_dim == flat.virtual_dim  # reported after reduction
        assert len(tall.surgery_certificates) == 3
        assert [c.b1_before for c in tall.surgery_certificates] == [3, 2, 1]
        assert all(c.rank_preserved for c in tall.surgery_certificates)

    def test_unreduced_dimension_identity(self):
        m = ManifoldDescriptor(b1=3, form=neg("E8"))
        bundle = choose_line_bundle(m)
        assert virtual_dimension(m, bundle) == 2 * bundle.k - 1 + 3

    def test_basis_change_invariance(self):
        rng = random.Random(47)
        base = donaldson_verdict(ManifoldDescriptor(b1=0, form=neg("E8+Z1")))
        for _ in range(3):
            u = random_unimodular(9, rng)
            twisted = ManifoldDescriptor(b1=0, form=basis_change(neg("E8+Z1"), u))
            report = donaldson_verdict(twisted)
            assert report.verdict is base.verdict
            assert report.k == base.k
            assert report.virtual_dim == base.virtual_dim

    def test_direct_sum_realizable(self):
        form = negate(direct_sum(catalog_get("Zn:3").gram, catalog_get("Zn:4").gram))
        report = donaldson_verdict(ManifoldDescriptor(b1=0, form=form))
        assert report.verdict is Verdict.REALIZABLE


class TestWeitzenbock:
    @pytest.mark.parametrize(
        "s_min,p,expected",
        [
            (0, 0, 0),
            (2, 1, 0),
            (-1, 1, 6),
            (Fraction(1, 2), Fraction(3, 4), 2),
            (2, 0, 0),
            (-4, 1, 12),
        ],
    )
    def test_values(self, s_min, p, expected):
        out = weitzenbock_bound(s_min, p)
        assert isinstance(out, Fraction)
        assert out == expected

    @pytest.mark.parametrize("s_min, p", ((-0.1, 0), (True, 0), ("1", 0), (0, 0.25)))
    def test_rejects_inexact_values(self, s_min, p):
        # a float would be taken at its binary value and a bool as 0 or 1
        with pytest.raises(BadShapeError, match="is not an int or a Fraction"):
            weitzenbock_bound(s_min, p)

    def test_rejects_negative_perturbation(self):
        with pytest.raises(NegativePerturbationNormError):
            weitzenbock_bound(1, -1)

    def test_monotone_in_perturbation(self):
        prev = weitzenbock_bound(1, 0)
        for num in range(1, 12):
            cur = weitzenbock_bound(1, Fraction(num, 3))
            assert cur >= prev
            prev = cur

    def test_zero_iff_curvature_dominates(self):
        for s_min, p in [(3, 1), (2, 1), (1, Fraction(1, 2)), (Fraction(5, 2), Fraction(5, 4))]:
            assert weitzenbock_bound(s_min, p) == 0
        for s_min, p in [(1, 1), (0, Fraction(1, 8)), (-1, 0)]:
            assert weitzenbock_bound(s_min, p) > 0
