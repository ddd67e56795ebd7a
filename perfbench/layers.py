"""Per-layer trace: spans around the public functions of each latgate module.

`Tracer.install` replaces each traced function, in every latgate module
that holds a reference to it, with a wrapper that records a span (layer
key, start, end, parent) and the counters read from its arguments and
result.  Nothing in the package itself changes; `uninstall` puts the
originals back.  A layer's self time is its span's duration minus the time
covered by its traced children.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Any

# (module, function) -> layer key; the kernel entries are patched on
# whichever kernel module `latgate.enumeration` selected at import
TRACED = {
    ("cli", "main"): "cli",
    ("formats", "load_gram"): "formats.load",
    ("formats", "load_manifold"): "formats.load",
    ("formats", "dumps_canonical"): "formats.dump",
    ("formats", "moduli_report_to_obj"): "formats.dump",
    ("formats", "gram_to_obj"): "formats.dump",
    ("core", "determinant"): "core.det",
    ("core", "inertia"): "core.inertia",
    ("core", "cholesky"): "core.cholesky",
    ("charvec", "solve_char_coset"): "charvec.gf2",
    ("charvec", "min_char_vector_with_stats"): "charvec.reduce",
    ("enumeration", "_search"): "enumeration",
    ("enumeration", "enumerate_coset"): "enumeration",
    ("enumeration", "brute_force_coset"): "enumeration",
    ("enumeration", "sufficient_box"): "enumeration",
    ("kernel", "dfs_enumerate"): "kernel.dfs",
    ("kernel", "brute_scan"): "kernel.brute",
    ("manifold", "donaldson_verdict"): "manifold",
    ("manifold", "surgery_reduce_b1"): "manifold",
}

# spans kept for the trace dump (first round only, so the file stays small)
SPAN_LIMIT = 20000


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [span id, child time] per open span
        self.next_id = 0
        self.active = True
        self.op_self: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.scale_bits_max = 0
        self.spans: list[tuple] = []
        self.keep_spans = True
        self.op_index = 0
        self.kernel_calls: list[tuple] = []  # dfs arguments, for the kernel comparison
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        from latgate import enumeration

        modules = {name: importlib.import_module(f"latgate.{name}")
                   for name in ("cli", "formats", "core", "charvec", "enumeration", "manifold")}
        modules["kernel"] = enumeration._kernel
        originals = {}
        for (mod, fn), key in TRACED.items():
            orig = getattr(modules[mod], fn)
            originals[id(orig)] = (orig, self._wrap(orig, key, fn))
        holders = [m for name, m in sys.modules.items()
                   if name == "latgate" or name.startswith("latgate.")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((holder, attr, value))
                    setattr(holder, attr, hit[1])

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._patched):
            setattr(holder, attr, value)
        self._patched.clear()

    # --------------------------------------------------------------- spans

    def _wrap(self, fn, key: str, fname: str):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else None
            tracer.stack.append([span_id, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                children = tracer.stack.pop()[1]
                duration = end - start
                if tracer.stack:
                    tracer.stack[-1][1] += duration
                tracer.op_self[key] += duration - children
                if tracer.keep_spans and len(tracer.spans) < SPAN_LIMIT:
                    tracer.spans.append((span_id, parent, tracer.op_index, key, fname, start, end))
            tracer._count(fname, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, fname: str, args, kwargs, result) -> None:
        c = self.counts
        if fname == "determinant":
            c["core.det_calls"] += 1
        elif fname == "inertia":
            c["core.inertia_calls"] += 1
        elif fname == "cholesky":
            c["core.cholesky_calls"] += 1
        elif fname == "_search":
            c["enumeration.search_calls"] += 1
        elif fname == "min_char_vector_with_stats":
            c["charvec.minimizers"] += result[0].count_minimizers
        elif fname == "surgery_reduce_b1":
            c["manifold.surgery_steps"] += 1
        elif fname == "dfs_enumerate":
            pairs, nodes, prunes = result
            shrink = _arg(args, kwargs, 6, "shrink", False)
            if shrink and pairs:
                best = min(p[1] for p in pairs)
                useful = sum(1 for p in pairs if p[1] == best)
            else:
                useful = len(pairs)
            c["kernel.dfs_calls"] += 1
            c["kernel.nodes"] += nodes
            c["kernel.prunes"] += prunes
            c["kernel.leaves"] += len(pairs)
            c["kernel.useful_leaves"] += useful
            c["kernel.small_calls"] += bool(_arg(args, kwargs, 9, "small", False))
            self.scale_bits_max = max(self.scale_bits_max, int(args[5]).bit_length())
            if self.keep_spans:
                self.kernel_calls.append((args, kwargs))
        elif fname == "brute_scan":
            n, box = args[0], _arg(args, kwargs, 5, "box")
            c["kernel.brute_calls"] += 1
            c["kernel.brute_cells"] += (2 * box + 1) ** n
            c["kernel.brute_hits"] += len(result)
            c["kernel.small_calls"] += bool(_arg(args, kwargs, 6, "small", False))

    def take_op(self) -> dict[str, float]:
        """Self times (seconds) recorded since the last call, by layer key."""
        out = dict(self.op_self)
        self.op_self.clear()
        self.op_index += 1
        return out


def layer_metrics(layer_s: dict[str, float], counts: Counter, *, ops: int, rounds: int,
                  scale_bits_max: int, out_bytes: int, import_ms: float) -> dict[str, float]:
    """Per-operation mean times (ms) and per-pass counts, by metric name."""

    def ms(key: str) -> float:
        return 1e3 * layer_s.get(key, 0.0) / ops

    def per_pass(key: str) -> float:
        return counts.get(key, 0) / rounds

    leaves = counts.get("kernel.leaves", 0)
    cells = counts.get("kernel.brute_cells", 0)
    return {
        "cli.self_ms": ms("cli"),
        "formats.load_ms": ms("formats.load"),
        "formats.dump_ms": ms("formats.dump"),
        "formats.out_bytes": out_bytes / rounds,
        "core.det_calls": per_pass("core.det_calls"),
        "core.det_ms": ms("core.det"),
        "core.inertia_calls": per_pass("core.inertia_calls"),
        "core.inertia_ms": ms("core.inertia"),
        "core.cholesky_calls": per_pass("core.cholesky_calls"),
        "core.cholesky_ms": ms("core.cholesky"),
        "charvec.gf2_ms": ms("charvec.gf2"),
        "charvec.reduce_ms": ms("charvec.reduce"),
        "charvec.minimizers": per_pass("charvec.minimizers"),
        "enumeration.search_calls": per_pass("enumeration.search_calls"),
        "enumeration.self_ms": ms("enumeration"),
        "enumeration.scale_bits_max": scale_bits_max,
        "kernel.dfs_ms": ms("kernel.dfs"),
        "kernel.nodes": per_pass("kernel.nodes"),
        "kernel.prunes": per_pass("kernel.prunes"),
        "kernel.leaves": per_pass("kernel.leaves"),
        "kernel.useful_leaf_ratio": counts.get("kernel.useful_leaves", 0) / leaves if leaves else 0.0,
        "kernel.small_calls": per_pass("kernel.small_calls"),
        "kernel.brute_ms": ms("kernel.brute"),
        "kernel.brute_cells": per_pass("kernel.brute_cells"),
        "kernel.brute_hits": per_pass("kernel.brute_hits"),
        "kernel.brute_hit_ratio": counts.get("kernel.brute_hits", 0) / cells if cells else 0.0,
        "manifold.self_ms": ms("manifold"),
        "manifold.surgery_steps": per_pass("manifold.surgery_steps"),
        "import.latgate_ms": import_ms,
    }


def compare_kernels(calls: list[tuple], limit: int = 8) -> dict:
    """Time the pure and compiled DFS kernels on identical recorded calls.

    Runs only when the compiled module imports; outputs must agree exactly.
    """
    try:
        compiled = importlib.import_module("latgate._speedups")
    except ImportError:
        return {"compiled": False}
    pure = importlib.import_module("latgate._pykernel")
    chosen = sorted(calls, key=lambda c: -c[0][0])[:limit]  # highest rank first
    ratios = []
    identical = True
    for args, kwargs in chosen:
        times = []
        outs = []
        for kernel in (pure, compiled):
            start = time.perf_counter()
            out = kernel.dfs_enumerate(*args, **kwargs)
            times.append(time.perf_counter() - start)
            outs.append((sorted(out[0]), out[1], out[2]))
        identical = identical and outs[0] == outs[1]
        ratios.append(times[0] / times[1] if times[1] > 0 else float("inf"))
    ratios.sort()
    return {
        "compiled": True,
        "calls": len(chosen),
        "identical": identical,
        "speedup_median": ratios[len(ratios) // 2] if ratios else None,
    }
