"""End-to-end acceptance checks, one test per criterion.

Each test prints a single CRITERION line (also echoed in the terminal
summary) so a log scan shows the full scoreboard.  Budgets are asserted
with generous desk-scale limits; all value checks are exact.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from _acceptance_log import record

import latgate as lg


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        record(num, False, desc)
        raise
    record(num, True, desc)


def catalog():
    return [(fid, lg.catalog_get(fid).gram) for fid in lg.builtin_ids()]


def pd_unimodular_pool(max_rank):
    pool = []
    for fid, g in catalog():
        if (
            g.rank <= max_rank
            and lg.definiteness(g) is lg.Definiteness.POSITIVE_DEFINITE
            and lg.is_unimodular(g)
        ):
            pool.append((fid, g))
    return pool


def test_criterion_1_dichotomy_sweep():
    desc = "dichotomy over the 24-form catalog: Identity exactly on the standard forms, else m = n - 8k with k >= 1"
    with criterion(1, desc):
        start = time.perf_counter()
        for fid, g in catalog():
            verdict = lg.elkies_verdict(g)
            res = verdict.result
            n = g.rank
            if fid.startswith("Zn:"):
                assert verdict.identity, fid
                assert res.norm_m == n and res.k == 0, fid
            else:
                assert not verdict.identity, fid
                assert res.k >= 1, fid
                assert res.norm_m == n - 8 * res.k, fid
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"catalog sweep took {elapsed:.1f}s"


def test_criterion_2_oracle_equivalence():
    desc = "enumerate equals exhaustive box scan on 25 randomized queries per rank <= 6 form"
    with criterion(2, desc):
        rng = random.Random(14)
        start = time.perf_counter()
        for fid, g in catalog():
            n = g.rank
            if n > 6:
                continue
            for _ in range(25):
                shift = tuple(Fraction(rng.randrange(-4, 5), 4) for _ in range(n))
                radius = Fraction(rng.randrange(1, 9), 2)
                q = lg.EnumQuery(form=g, shift=shift, radius=radius)
                fast = lg.enumerate_coset(q)
                slow = lg.brute_force_coset(q, lg.sufficient_box(q))
                assert fast.vectors == slow.vectors, (fid, shift, radius)
                assert fast.norms == slow.norms, (fid, shift, radius)
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_3_mod8_congruence():
    desc = "m == n mod 8 on 50 small-entry unimodular conjugates of each positive definite unimodular form of rank <= 10"
    with criterion(3, desc):
        rng = random.Random(3)
        start = time.perf_counter()
        for fid, g in pd_unimodular_pool(10):
            n = g.rank
            for _ in range(50):
                u = lg.random_unimodular(n, rng, bound=2)
                assert all(abs(x) <= 2 for row in u for x in row)
                h = lg.basis_change(g, u)
                m = lg.min_char_vector(h).norm_m
                assert (m - n) % 8 == 0, (fid, m)
        elapsed = time.perf_counter() - start
        assert elapsed < 120, f"conjugate sweep took {elapsed:.1f}s"


def test_criterion_4_dimension_identity():
    desc = "index quarter-formula equals 2k - 1 + b1 for every negated catalog form and b1 in 0..3; -E8 at b1=0 gives 1"
    with criterion(4, desc):
        for fid, g in catalog():
            neg = lg.negate(g)
            for b1 in range(4):
                m = lg.ManifoldDescriptor(b1=b1, form=neg)
                bundle = lg.choose_line_bundle(m)
                direct = Fraction(bundle.c1_squared - (2 * m.chi + 3 * m.sigma), 4)
                assert direct == 2 * bundle.k - 1 + b1, (fid, b1)
                assert lg.virtual_dimension(m, bundle) == direct, (fid, b1)
        e8 = lg.ManifoldDescriptor(b1=0, form=lg.negate(lg.catalog_get("E8").gram))
        assert lg.virtual_dimension(e8, lg.choose_line_bundle(e8)) == 1


def test_criterion_5_verdict_dichotomy():
    desc = "negated catalog: Realizable exactly when the positive form has 2n unit vectors; -E8 Forbidden with CP^0 and boundary number 1"
    with criterion(5, desc):
        for fid, g in catalog():
            report = lg.donaldson_verdict(lg.ManifoldDescriptor(b1=0, form=lg.negate(g)))
            is_standard = lg.count_unit_vectors(g) == 2 * g.rank
            if is_standard:
                assert report.verdict is lg.Verdict.REALIZABLE, fid
            else:
                assert report.verdict is lg.Verdict.FORBIDDEN, fid
            assert fid.startswith("Zn:") == is_standard, fid
        e8 = lg.donaldson_verdict(
            lg.ManifoldDescriptor(b1=0, form=lg.negate(lg.catalog_get("E8").gram))
        )
        assert e8.verdict is lg.Verdict.FORBIDDEN
        assert e8.boundary == "CP^0"
        assert lg.sw_boundary_number(e8.k).value == 1
        assert e8.sw_number_nonzero is True


def test_criterion_6_unit_count_cross_validation():
    desc = "2n unit vectors iff Identity verdict, on the catalog plus 50 random conjugates"
    with criterion(6, desc):
        rng = random.Random(21)
        cases = [(fid, g) for fid, g in catalog()]
        pool = pd_unimodular_pool(10)
        for _ in range(50):
            fid, g = pool[rng.randrange(len(pool))]
            h = lg.basis_change(g, lg.random_unimodular(g.rank, rng))
            cases.append((f"{fid}~", h))
        for fid, g in cases:
            if lg.definiteness(g) is not lg.Definiteness.POSITIVE_DEFINITE:
                continue
            units = lg.count_unit_vectors(g)
            identity = lg.elkies_verdict(g).identity
            assert (units == 2 * g.rank) == identity, fid


def test_criterion_7_surgery_bookkeeping():
    desc = "surgery to b1 = 0 keeps the Gram matrix bit-exact and every exact-sequence ledger sums to zero"
    with criterion(7, desc):
        for fid, g in catalog()[:6] + [("E8", lg.catalog_get("E8").gram)]:
            neg = lg.negate(g)
            for b1 in (1, 2, 3):
                m = lg.ManifoldDescriptor(b1=b1, form=neg)
                certificates = []
                current = m
                while current.b1 > 0:
                    step = lg.surgery_reduce_b1(current)
                    certificates.append(step.certificate)
                    current = step.descriptor
                assert current.b1 == 0
                assert current.form is neg or current.form == neg
                assert current.form.entries == neg.entries, fid
                assert len(certificates) == b1
                for cert in certificates:
                    for seq in cert.sequences:
                        assert seq.alternating_sum == 0, (fid, seq.name)
                flat = lg.reduce_to_b1_zero(m)
                assert flat.b1 == 0 and flat.form.entries == neg.entries


def test_criterion_8_curvature_bound_sweep():
    desc = "10^4 rational pairs: bound nonnegative, monotone both ways, zero iff curvature dominates; spots (2,0)->0, (-4,1)->12"
    with criterion(8, desc):
        rng = random.Random(55)
        delta = Fraction(1, 7)
        for _ in range(10_000):
            s_min = Fraction(rng.randrange(-60, 61), rng.randrange(1, 13))
            p = Fraction(rng.randrange(0, 61), rng.randrange(1, 13))
            bound = lg.weitzenbock_bound(s_min, p)
            assert bound >= 0
            assert (bound == 0) == (s_min >= 2 * p)
            assert lg.weitzenbock_bound(s_min, p + delta) >= bound
            assert lg.weitzenbock_bound(s_min + delta, p) <= bound
        assert lg.weitzenbock_bound(2, 0) == 0
        assert lg.weitzenbock_bound(-4, 1) == 12


def test_criterion_9_cli_determinism():
    desc = "analyze --catalog D12plus --json is byte-identical over 5 runs and workers 1 and 4"
    with criterion(9, desc):
        def run(extra=()):
            proc = subprocess.run(
                [sys.executable, "-m", "latgate", "analyze", "--catalog", "D12plus", "--json", *extra],
                capture_output=True,
                check=True,
                timeout=60,  # a hung child is killed, not left behind by the hang guard
            )
            return proc.stdout

        outputs = [run() for _ in range(5)]
        outputs.append(run(("--workers", "1")))
        outputs.append(run(("--workers", "4")))
        assert all(out == outputs[0] for out in outputs[1:])
        parsed = json.loads(outputs[0])
        assert parsed["form_id"] == "D12plus" and parsed["format"] == 1
