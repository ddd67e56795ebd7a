"""Closed-loop benchmark of latgate, one client in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
`src/`, never from an installed copy, and the run fails if `src/latgate`
is missing.  The workload's operations are built from the seed and executed
in whole rounds until `--seconds` have passed and the workload's minimum
sample count is reached.  Each operation is timed on the wall clock between
two runs of a fixed pure-Python reference loop, and reported in calibrated
seconds (measured time x REF_NOMINAL_S / measured reference time), which
removes most of the CPU speed drift of a shared machine.

`--trace 0` prints the end-to-end metrics; `--trace 1` wraps the package's
layer functions (see layers.py) and prints the per-layer metrics instead.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record of the run
(raw wall-clock figures, environment, trace spans) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Median time of one `reference_loop()` on the reference machine (2-core
# shared VM, CPython 3.11.7); see README.md.  Calibrated times are expressed
# in seconds of that machine at that speed.
REF_NOMINAL_S = 0.00127
REF_ITERS = 1500

SETUP_LAUNCHES = 15


def reference_loop() -> int:
    """Fixed interpreter work of the kinds latgate does: big-int products and
    integer square roots (the search kernels), building and sorting tuples
    (result lists) and Fraction arithmetic (Cholesky, exact norms)."""
    x = 0x9E3779B97F4A7C15
    acc = 0
    for _ in range(REF_ITERS):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        s = isqrt(x)
        acc += s * s - x // 7
    rows = []
    for i in range(REF_ITERS // 3):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        rows.append((x >> 16, i, x & 255))
    rows.sort()
    q = Fraction(1)
    for i in range(1, REF_ITERS // 33):
        q = q * Fraction(i + 1, i + 2) + Fraction(1, i)
    return acc + len(rows) + q.denominator % 7


def reference_time() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def timed(fn):
    """Run fn between two reference loops; returns (result, raw s, (ref before, ref after))."""
    before = reference_time()
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    return result, raw, (before, reference_time())


def calibrate(raw: list[float], refs: list[tuple[float, float]]) -> list[float]:
    """Calibrated seconds: raw time x REF_NOMINAL_S / mean of the two adjacent
    reference times.  (Medians over wider windows of neighbours tracked the
    drift no better on the reference machine.)"""
    return [t * 2 * REF_NOMINAL_S / (a + b) for t, (a, b) in zip(raw, refs)]


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def launch_import() -> list[str]:
    """A fresh isolated interpreter that imports latgate.cli from this checkout,
    then prints when the import finished and how long the reference loop takes
    on the core it ran on (outside the measured interval)."""
    code = (
        "import time, sys; t0 = time.perf_counter(); "
        f"sys.path.insert(0, {str(SRC)!r}); import latgate.cli; t1 = time.perf_counter(); "
        f"sys.path.insert(0, {str(HERE)!r}); from run import reference_time; "
        "print(t0, t1, sorted(reference_time() for _ in range(5))[2])"
    )
    return [sys.executable, "-I", "-c", code]


def measure_setup() -> tuple[float, float, float]:
    """Median over fresh interpreters of (calibrated s to finish importing
    latgate.cli, raw s of the same, calibrated ms of the import statement alone).

    Both processes read the same monotonic clock, so the interval runs from
    just before the launch to the end of the import inside the child; it is
    calibrated by the reference loop the child runs on its own core.
    """
    cmd = launch_import()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)  # writes bytecode caches
    setup, raw, imports = [], [], []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        t0, t1, ref = (float(x) for x in out.split())
        factor = REF_NOMINAL_S / ref
        raw.append(t1 - start)
        setup.append((t1 - start) * factor)
        imports.append(1e3 * (t1 - t0) * factor)
    return statistics.median(setup), statistics.median(raw), statistics.median(imports)


def run_workload(workload, ops: list, seconds: float, tracer=None) -> dict:
    """Closed loop over whole rounds of `ops`; returns the raw tallies."""
    from workloads import CheckError

    raw: list[float] = []
    refs: list[tuple[float, float]] = []
    op_layers: list[dict[str, float]] = []
    errors: list[str] = []
    wrong: list[str] = []
    out_bytes = 0
    rounds = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            gc.collect()  # each operation starts from the same heap state
            try:
                result, raw_s, ref = timed(op.run)
            except Exception as exc:  # a failed operation is counted, not fatal
                errors.append(f"{op.name}: {exc!r}")
                if tracer is not None:
                    tracer.take_op()
                continue
            raw.append(raw_s)
            refs.append(ref)
            if tracer is not None:
                op_layers.append(tracer.take_op())
                tracer.active = False
            if isinstance(result, str):
                out_bytes += len(result.encode())
            try:
                op.check(result)
            except CheckError as exc:
                wrong.append(f"{op.name}: {exc}")
            finally:
                if tracer is not None:
                    tracer.active = True
        rounds += 1
        if tracer is not None:
            tracer.keep_spans = False
        if time.perf_counter() - start >= seconds and len(raw) >= workload.min_ops:
            break
    calibrated = calibrate(raw, refs)
    layer_s: dict[str, float] = {}
    for layer_times, cal_s, raw_s in zip(op_layers, calibrated, raw):
        for key, value in layer_times.items():
            layer_s[key] = layer_s.get(key, 0.0) + value * cal_s / raw_s
    return {
        "calibrated": calibrated,
        "raw": raw,
        "refs": refs,
        "rounds": rounds,
        "attempted": rounds * len(ops),
        "failed": len(errors),
        "errors": errors,
        "wrong": wrong,
        "layer_s": layer_s,
        "out_bytes": out_bytes,
        "wall_s": time.perf_counter() - start,
    }


def end_to_end(workload, tally: dict, setup_s: float) -> dict:
    cal = tally["calibrated"]
    ms = [1e3 * x for x in cal]
    return {
        "ops_per_s": {"value": len(cal) / sum(cal), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "op_tail_ms": {"value": percentile(ms, workload.tail_pct), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


LAYER_UNITS = {"_ms": "ms", "_ratio": "ratio", "_bits_max": "bits", "_bytes": "bytes"}


def layer_unit(name: str) -> str:
    return next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")


def environment() -> dict:
    from latgate.enumeration import kernel_name

    return {
        "kernel": kernel_name(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "latgate" / "__init__.py").is_file():
        print(f"perfbench: no latgate source tree at {SRC / 'latgate'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import latgate

    if Path(latgate.__file__).resolve().parent != (SRC / "latgate").resolve():
        print(f"perfbench: latgate imported from {latgate.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from layers import Tracer, compare_kernels, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment()
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "ref_nominal_s": REF_NOMINAL_S}
    tracer = None
    setup_s, record["setup_raw_s"], import_ms = measure_setup()

    ops = workload.build(args.seed)
    gc.collect()
    gc.freeze()  # the harness's own objects stay out of the timed collections
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        tally = run_workload(workload, ops, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    record.update(
        rounds=tally["rounds"], ops_per_round=len(ops), wall_s=tally["wall_s"],
        errors=tally["errors"][:20],
        wrong=tally["wrong"][:20],
        latencies_ms=sorted(round(1e3 * x, 3) for x in tally["calibrated"]),
        timings=[[t, a, b] for t, (a, b) in zip(tally["raw"], tally["refs"])],
    )
    if not tally["calibrated"]:
        for line in record["errors"]:
            print(f"perfbench: failed: {line}", file=sys.stderr)
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    correct = not tally["wrong"]
    record.update(raw_ops_per_s=len(tally["raw"]) / sum(tally["raw"]),
                  raw_op_p50_ms=1e3 * statistics.median(tally["raw"]),
                  calibrated_ops_per_s=len(tally["calibrated"]) / sum(tally["calibrated"]))
    if args.trace:
        metrics = layer_metrics(
            tally["layer_s"], tracer.counts, ops=len(tally["calibrated"]), rounds=tally["rounds"],
            scale_bits_max=tracer.scale_bits_max, out_bytes=tally["out_bytes"],
            import_ms=import_ms)
        comparison = compare_kernels(tracer.kernel_calls)
        record["kernel_comparison"] = comparison
        if comparison.get("identical") is False:
            correct = False
            record["wrong"].append("pure and compiled kernels disagree")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
        record["trace_spans_first_round"] = len(tracer.spans)
        dump = {"fields": ["id", "parent", "op", "layer", "function", "start_s", "end_s"],
                "spans": tracer.spans}
    else:
        metrics = end_to_end(workload, tally, setup_s)
    record["metrics"] = metrics

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(dump) + "\n")
    for line in record["errors"]:
        print(f"perfbench: failed: {line}", file=sys.stderr)
    for line in record["wrong"]:
        print(f"perfbench: wrong answer: {line}", file=sys.stderr)
    print(f"perfbench: workload={workload.name} seed={args.seed} kernel={env['kernel']} "
          f"python={env['python']} nproc={env['nproc']} rounds={tally['rounds']} "
          f"ops/round={len(ops)} wall={tally['wall_s']:.1f}s")
    if record.get("kernel_comparison", {}).get("compiled"):
        print(f"perfbench: pure vs compiled DFS kernel: {record['kernel_comparison']}")
    print(json.dumps({"correct": correct, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
