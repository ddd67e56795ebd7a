"""Tests of the benchmark harness itself: seeded inputs, output checkers,
the per-layer tracer and the runner's refusal to run without a source tree.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from latgate import EnumQuery, GramMatrix, enumerate_coset  # noqa: E402


def run_and_check(op):
    out = op.run()
    op.check(out)
    return out


def fresh(op_factory):
    """The same operation twice: one to produce an answer, one to judge a
    tampered copy of it on first sight."""
    return op_factory(), op_factory()


# ------------------------------------------------------------------ inputs


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_same_inputs(name):
    build = W.WORKLOADS[name].build
    first = [(op.name, op.input) for op in build(7)]
    assert first == [(op.name, op.input) for op in build(7)]
    assert first != [(op.name, op.input) for op in build(8)]


def test_conjugates_are_unimodular_conjugates():
    rng = random.Random(1)
    rows = W.random_conjugate(W.base_rows("D12plus"), rng)
    assert rows == [list(r) for r in zip(*rows)]
    assert W.leading_minors(rows)[-1] == 1


def test_sums_of_squares_ball_matches_direct_count():
    for n, r in ((3, 5), (4, 4), (5, 3)):
        direct = sum(1 for x in product(range(-3, 4), repeat=n) if sum(v * v for v in x) <= r)
        assert W.sums_of_squares_ball(n, r) == direct


def test_cholesky_box_contains_the_ball():
    rng = random.Random(3)
    for fid in ("D4", "Zn:4"):
        conj, shift, radius = W._shifted_ball(W.base_rows(fid), 5, rng)
        res = enumerate_coset(EnumQuery(form=GramMatrix.from_rows(conj), shift=shift,
                                        radius=radius))
        assert all(max(abs(x) for x in u) <= 5 for u in res.vectors)


def test_closed_forms():
    assert W.char_closed_form("E8+Z3") == (3, 8, 6)
    assert W.char_closed_form("D12plus+Z1") == (5, 48, 2)
    assert W.char_closed_form("Zn:5") == (5, 32, 10)


# ---------------------------------------------------------------- checkers


def _conj(fid, seed=5):
    return W.random_conjugate(W.base_rows(fid), random.Random(seed))


def test_charvec_checker_rejects_m_off_by_8():
    rows = _conj("E8+Z2")
    good, judge = fresh(lambda: W.analyze_op("t", rows, "E8+Z2"))
    out = run_and_check(good)
    report = json.loads(out)
    report["charvec"]["m"] += 8
    report["charvec"]["k"] -= 1
    with pytest.raises(W.CheckError):
        judge.check(json.dumps(report))


def test_charvec_checker_rejects_non_characteristic_minimizer():
    rows = _conj("D12plus")
    good, judge = fresh(lambda: W.analyze_op("t", rows, "D12plus"))
    report = json.loads(run_and_check(good))
    report["charvec"]["minimizer"][0] += 1
    with pytest.raises(W.CheckError):
        judge.check(json.dumps(report))


def test_charvec_checker_rejects_changed_repeat():
    rows = _conj("E8+Z1")
    op = W.analyze_op("t", rows, "E8+Z1")
    out = run_and_check(op)
    op.check(out)  # the identical output passes again
    with pytest.raises(W.CheckError):
        op.check(out.replace('"kernel"', '"kernel" ', 1))


def test_dense_checker_rejects_dropped_vector():
    rows = W.sign_flip(W.base_rows("E8"), random.Random(2))
    make = lambda: W.ball_op("t", rows, 4, sum(W.THETA_SHELLS[8]), W.THETA_SHELLS[8])  # noqa: E731
    good, judge = fresh(make)
    res = run_and_check(good)
    drop = len(res.vectors) // 2
    tampered = replace(res, vectors=res.vectors[:drop] + res.vectors[drop + 1:],
                       norms=res.norms[:drop] + res.norms[drop + 1:])
    with pytest.raises(W.CheckError):
        judge.check(tampered)


def test_dense_checker_rejects_zn_count():
    rows = W.base_rows("Zn:6")
    good, judge = fresh(lambda: W.ball_op("t", rows, 3, W.sums_of_squares_ball(6, 3)))
    res = run_and_check(good)
    with pytest.raises(W.CheckError):
        judge.check(replace(res, vectors=res.vectors[1:], norms=res.norms[1:]))


def test_oracle_checker_rejects_mismatch():
    conj, shift, radius = W._shifted_ball(W.base_rows("Zn:4"), 5, random.Random(4))
    good, judge = fresh(lambda: W.crosscheck_op("t", conj, shift, radius))
    fast, slow = run_and_check(good)
    assert fast.vectors
    tampered = replace(slow, vectors=slow.vectors[1:], norms=slow.norms[1:])
    with pytest.raises(W.CheckError):
        judge.check((fast, tampered))


def test_oracle_checker_rejects_failed_oracle():
    rows = W.base_rows("Zn:4")
    good, judge = fresh(lambda: W.analyze_op("t", rows, "Zn:4", oracle=True))
    report = json.loads(run_and_check(good))
    assert report["oracle"]["mode"] == "brute"
    report["oracle"]["ok"] = False
    with pytest.raises(W.CheckError):
        judge.check(json.dumps(report))


@pytest.mark.parametrize("fid,verdict,flipped", [
    ("E8", "Forbidden", "Realizable"),
    ("Zn:5", "Realizable", "Forbidden"),
])
def test_donaldson_checker_rejects_flipped_verdict(fid, verdict, flipped):
    rows = W.negated(_conj(fid))
    n = len(rows)
    k, m, count = (n // 8, 0, 1) if verdict == "Forbidden" else (0, n, 2 ** n)
    good, judge = fresh(lambda: W.donaldson_op("t", 2, rows, verdict, k=k, m=m, count=count))
    report = json.loads(run_and_check(good))
    assert len(report["surgery_certificates"]) == 2
    report["verdict"] = flipped
    with pytest.raises(W.CheckError):
        judge.check(json.dumps(report))


def test_donaldson_checker_rejects_wrong_k():
    rows = W.negated(_conj("E8"))
    good, judge = fresh(lambda: W.donaldson_op("t", 0, rows, "Forbidden", k=1, m=0, count=1))
    report = json.loads(run_and_check(good))
    report["k"] = 2
    with pytest.raises(W.CheckError):
        judge.check(json.dumps(report))


def test_not_applicable_inputs():
    e8 = _conj("E8")
    for rows in (e8, W.block_sum(W.negated(e8), [[1]]), W.block_sum(W.negated(e8), [[0]])):
        run_and_check(W.donaldson_op("t", 1, rows, "NotApplicable"))


# ------------------------------------------------------------------ tracer


def test_tracer_counts_repeat_and_uninstall_restores():
    from latgate import cli

    original = cli.main
    rows = _conj("E8+Z2")
    counts = []
    for _ in range(2):
        tracer = layers.Tracer()
        tracer.install()
        op = W.analyze_op("t", rows, "E8+Z2")
        try:
            assert cli.main is not original
            out = op.run()
            tracer.active = False  # the check's own library call is not traced
            op.check(out)
        finally:
            tracer.uninstall()
        counts.append(dict(tracer.counts))
        assert tracer.take_op()["cli"] > 0
    assert cli.main is original
    assert counts[0] == counts[1]
    assert counts[0]["enumeration.search_calls"] == 2  # char search + unit vectors
    assert counts[0]["kernel.nodes"] > 0


def test_kernel_comparison_needs_compiled_kernel():
    result = layers.compare_kernels([])
    try:
        import latgate._speedups  # noqa: F401
    except ImportError:
        assert result == {"compiled": False}
    else:
        assert result["compiled"] is True


# ------------------------------------------------------------------ runner


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 95) == 95
    assert run.percentile([3.0], 95) == 3.0


def test_runner_fails_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_output", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from collections import Counter

    layer = layers.layer_metrics({}, Counter(), ops=1, rounds=1, scale_bits_max=0,
                                 out_bytes=0, import_ms=1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: run.layer_unit(k) for k in layer}
    workload = W.WORKLOADS["dense_output"]
    e2e = run.end_to_end(workload, {"calibrated": [0.01, 0.02]}, 0.1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()}
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
