"""Seeded inputs, operations and output checkers for the four workloads.

Every workload is a list of `Op`s that the runner executes in whole rounds.
Inputs are built here from the seed, the catalog and `random_unimodular`;
the program only ever sees the resulting Gram or manifold documents (CLI
operations) or the Gram matrices and queries built from them (library
operations).  Checkers compare each output with values derived
independently of the code under test: closed-form invariants of the base
forms, theta-series coefficients, sums-of-squares counts, and norms and
parities recomputed here from the Gram matrix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Any, Callable

from latgate import EnumQuery, catalog_get
from latgate import cli as cli_mod
from latgate import enumeration as enum_mod
from latgate.charvec import min_char_vector
from latgate.core import GramMatrix
from latgate.selftest import random_unimodular

# operations call through the module attributes (`cli_mod.main`,
# `enum_mod.enumerate_coset`) so that the per-layer trace can wrap them


class CheckError(Exception):
    """An operation returned an answer that contradicts the expected one."""


class OpFailed(Exception):
    """An operation did not return an answer (nonzero exit or exception)."""


@dataclass
class Op:
    """One timed operation: `run` is timed, `check` is not."""

    name: str
    input: str  # the generated input, as text
    run: Callable[[], Any]
    check: Callable[[Any], None] = lambda out: None
    seen: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list]
    tail_pct: int  # reported tail percentile
    min_ops: int  # samples per run, so >= 10 lie beyond tail_pct


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------- inputs


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def base_rows(fid: str) -> list[list[int]]:
    return [list(row) for row in catalog_get(fid).gram.entries]


def conjugate(rows, u) -> list[list[int]]:
    """u^T G u, computed here so inputs do not depend on the code under test."""
    n = len(rows)
    gu = [[sum(rows[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(u[k][i] * gu[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def random_conjugate(rows, rng: random.Random, steps: int = 60) -> list[list[int]]:
    return conjugate(rows, random_unimodular(len(rows), rng, steps=steps))


def block_sum(*blocks) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return out


def negated(rows) -> list[list[int]]:
    return [[-x for x in row] for row in rows]


def gram_doc(rows) -> str:
    return json.dumps({"rank": len(rows), "gram": rows}, separators=(",", ":"))


def manifold_doc(b1: int, rows) -> str:
    return json.dumps({"b1": b1, "form": {"rank": len(rows), "gram": rows}},
                      separators=(",", ":"))


def cholesky_box(rows, shift, radius: Fraction) -> int:
    """Coordinate bound from the rational Cholesky factors: the exhaustive
    scan box this workload targets.  Computed here, not by the code under
    test, so that a change to `sufficient_box` cannot change the inputs."""
    n = len(rows)
    q = [[Fraction(x) for x in row] for row in rows]
    diag = []
    up = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d = q[i][i]
        diag.append(d)
        for j in range(i + 1, n):
            up[i][j] = q[i][j] / d
        for k in range(i + 1, n):
            for m in range(k, n):
                q[k][m] -= q[i][k] * q[i][m] / d
    inv = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        inv[i][i] = Fraction(1)
        for j in range(i + 1, n):
            inv[i][j] = -sum((up[i][k] * inv[k][j] for k in range(i + 1, j + 1)), Fraction(0))
    sq = []
    for d in diag:
        r = radius / d
        s = isqrt(r.numerator * r.denominator)
        if s * s < r.numerator * r.denominator:
            s += 1
        sq.append(Fraction(s, r.denominator))
    worst = max(abs(shift[i]) + sum(abs(inv[i][j]) * sq[j] for j in range(i, n))
                for i in range(n))
    return max(-((-worst.numerator) // worst.denominator), 1)


# ---------------------------------------------------------- independent math


def gram_norm(rows, v) -> Any:
    n = len(rows)
    return sum(v[i] * sum(rows[i][j] * v[j] for j in range(n)) for i in range(n))


def is_characteristic(rows, w) -> bool:
    """G w = diag(G) mod 2, straight from the definition."""
    n = len(rows)
    return all((sum(rows[i][j] * w[j] for j in range(n)) - rows[i][i]) % 2 == 0
               for i in range(n))


def sums_of_squares_ball(n: int, radius: int) -> int:
    """Number of x in Z^n with sum x_i^2 <= radius."""
    ways = [1] + [0] * radius
    for _ in range(n):
        nxt = [0] * (radius + 1)
        for total, count in enumerate(ways):
            if count:
                x = 0
                while total + x * x <= radius:
                    nxt[total + x * x] += count * (1 if x == 0 else 2)
                    x += 1
        ways = nxt
    return sum(ways)


# theta series of the even unimodular lattices: shells of norm 0, 2, 4
THETA_SHELLS = {8: (1, 240, 2160), 16: (1, 480, 61920)}

# closed-form characteristic data of the atoms used below: (m, minimizers, unit vectors)
# E8 is even (m = 0); Z^k has the all-odd vectors (+-1, ..., +-1); D12plus
# has the 24 vectors +-2e_i of norm 4 and no vectors of norm 1.
ATOM_CHAR = {"E8": (0, 1, 0), "D12plus": (4, 24, 0), "D16plus": (0, 1, 0), "D24plus": (0, 1, 0)}


def char_closed_form(fid: str) -> tuple[int, int, int]:
    """(m, minimizer count, unit vector count) of a catalog sum, from its atoms."""
    m, count, units = 0, 1, 0
    for atom in fid.split("+"):
        if atom.startswith("Z"):
            k = int(atom.lstrip("Zn:"))
            am, ac, au = k, 2 ** k, 2 * k
        else:
            am, ac, au = ATOM_CHAR[atom]
        m, count, units = m + am, count * ac, units + au
    return m, count, units


# -------------------------------------------------------------- operations


def run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli_mod.main(argv)
    if code != 0:
        raise OpFailed(f"latgate {argv[0]} exited with {code}")
    return buf.getvalue()


def _digest(text: str) -> bytes:
    return hashlib.sha256(text.encode()).digest()


def _stable(op: Op, key: Any, full_check: Callable[[], None]) -> None:
    """Check fully on first sight; afterwards require the identical output
    (`key` is a digest of it, so the harness keeps no outputs alive)."""
    if "key" in op.seen:
        _require(op.seen["key"] == key, f"{op.name}: output differs from the first pass")
        return
    full_check()
    op.seen["key"] = key


def _check_charvec_block(rows, block: dict, m: int, units: int) -> None:
    n = len(rows)
    w = block["minimizer"]
    _require(block["n"] == n, "rank")
    _require(block["m"] == m, f"m = {block['m']}, expected {m}")
    _require((n - block["m"]) % 8 == 0, "n - m is not divisible by 8")
    _require(block["k"] == (n - m) // 8, "k")
    _require(len(w) == n and is_characteristic(rows, w), "minimizer is not characteristic")
    _require(gram_norm(rows, w) == m, "minimizer norm differs from m")
    _require(block["verdict"] == ("Identity" if m == n else "HasShortCharVector"), "verdict")
    _require(block["unit_vector_count"] == units, "unit vector count")
    _require(block["mod8_ok"] is True, "mod 8 flag")


def analyze_op(name: str, rows, fid: str, *, oracle: bool = False) -> Op:
    m, count, units = char_closed_form(fid)
    argv = ["analyze", gram_doc(rows), "--json", "--stats"] + (["--oracle"] if oracle else [])
    gram = GramMatrix.from_rows(rows)
    op = Op(name=name, input=" ".join(argv), run=lambda: run_cli(argv))

    def full(out: str) -> None:
        report = json.loads(out)
        n = len(rows)
        _require(report["rank"] == n and report["determinant"] == 1, "rank/determinant")
        _require(report["definiteness"] == "PositiveDefinite", "definiteness")
        _require(report["signature"] == n, "signature")
        _require(report["parity"] == ("Even" if all(r[i] % 2 == 0 for i, r in enumerate(rows))
                                      else "Odd"), "parity")
        _check_charvec_block(rows, report["charvec"], m, units)
        stats = report["stats"]
        _require(stats["kernel"] == enum_mod.kernel_name() and stats["nodes"] > 0, "stats")
        if oracle:
            _require(report["oracle"]["ok"] is True, "oracle reported a mismatch")
        # the JSON report carries no minimizer count; take it from the library
        _require(min_char_vector(gram).count_minimizers == count, "minimizer count")

    op.check = lambda out: _stable(op, _digest(out), lambda: full(out))
    return op


def ball_op(name: str, rows, radius: int, expected_total: int, shells=None) -> Op:
    """Zero-shift ball; `shells` gives the expected count at each even norm."""
    n = len(rows)
    query = EnumQuery(form=GramMatrix.from_rows(rows), shift=(Fraction(0),) * n,
                      radius=Fraction(radius))
    op = Op(name=name, input=f"{gram_doc(rows)} radius {radius}",
            run=lambda: enum_mod.enumerate_coset(query))

    def full(res) -> None:
        _require(len(res.vectors) == expected_total,
                 f"{len(res.vectors)} vectors, expected {expected_total}")
        _require(all(a < b for a, b in zip(res.vectors, res.vectors[1:])),
                 "vectors are not strictly sorted")
        if shells is not None:
            for k, want in enumerate(shells):
                got = sum(1 for nu in res.norms if nu == 2 * k)
                _require(got == want, f"{got} vectors of norm {2 * k}, expected {want}")
        step = max(1, len(res.vectors) // 200)
        for v, nu in zip(res.vectors[::step], res.norms[::step]):
            _require(gram_norm(rows, v) == nu <= radius, "norm")

    op.check = lambda res: _stable(op, hash((res.vectors, res.norms)), lambda: full(res))
    return op


def crosscheck_op(name: str, rows, shift, radius: Fraction) -> Op:
    """enumerate_coset against the exhaustive scan over sufficient_box."""
    query = EnumQuery(form=GramMatrix.from_rows(rows), shift=shift, radius=radius)

    def run():
        return (enum_mod.enumerate_coset(query),
                enum_mod.brute_force_coset(query, enum_mod.sufficient_box(query)))

    op = Op(name=name, input=f"{gram_doc(rows)} shift {[str(x) for x in shift]} radius {radius}",
            run=run)

    def full(out) -> None:
        fast, slow = out
        _require(fast.vectors == slow.vectors and fast.norms == slow.norms,
                 "enumerate and brute results differ")
        for u, nu in zip(fast.vectors, fast.norms):
            y = [Fraction(a) + s for a, s in zip(u, shift)]
            _require(gram_norm(rows, y) == nu <= radius, "norm")

    op.check = lambda out: _stable(op, hash((out[0].vectors, out[0].norms, out[1].vectors)),
                                   lambda: full(out))
    return op


def donaldson_op(name: str, b1: int, rows, expect: str, k=None, m=None, count=None) -> Op:
    """`expect` is the verdict; k, m, count describe -form when it applies."""
    argv = ["donaldson", manifold_doc(b1, rows), "--json"]
    op = Op(name=name, input=" ".join(argv), run=lambda: run_cli(argv))

    def full(out: str) -> None:
        report = json.loads(out)
        _require(report["verdict"] == expect, f"verdict {report['verdict']}, expected {expect}")
        _require(report["manifold"]["b1"] == b1, "b1")
        certs = report["surgery_certificates"]
        _require(len(certs) == b1 and all(c["rank_preserved"] for c in certs),
                 "surgery certificates")
        if expect == "NotApplicable":
            _require(report["k"] is None and report["virtual_dim"] is None, "k / dimension")
            return
        _require(report["k"] == k and report["virtual_dim"] == 2 * k - 1, "k / dimension")
        bundle = report["line_bundle"]
        pos = negated(rows)
        _require(bundle["char_norm"] == m and bundle["c1_squared"] == -m, "c1^2")
        _require(bundle["count_minimizers"] == count, "minimizer count")
        w = bundle["char_minimizer"]
        _require(is_characteristic(pos, w) and gram_norm(pos, w) == m, "line bundle class")
        _require((report["boundary"] is not None) == (expect == "Forbidden"), "boundary")

    op.check = lambda out: _stable(op, _digest(out), lambda: full(out))
    return op


# ---------------------------------------------------------------- workloads
#
# Input cost decides how far a run's metrics move with the seed, so each
# build function fixes the cost structure and lets the seed pick the instances:
# conjugates are stratified by a search-cost estimate, dense balls differ
# only by basis signs, and the exhaustive scans are drawn at fixed box sizes.

_BALL_VOLUME = [1.0, 2.0]
for _k in range(2, 33):
    _BALL_VOLUME.append(_BALL_VOLUME[_k - 2] * 2 * 3.141592653589793 / _k)


def leading_minors(rows) -> list[int]:
    """Leading principal minors by fraction-free elimination."""
    n = len(rows)
    a = [list(r) for r in rows]
    out = []
    prev = 1
    for k in range(n):
        d = a[k][k]
        out.append(d)
        if k == n - 1 or d == 0:
            break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * d - a[i][k] * a[k][j]) // prev
        prev = d
    return out


def char_base(rows) -> list[int]:
    """The 0/1 solution of G w = diag(G) mod 2 (unique when det G is odd)."""
    n = len(rows)
    eq = [[rows[i][j] & 1 for j in range(n)] + [rows[i][i] & 1] for i in range(n)]
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, n) if eq[i][c]), None)
        if p is None:
            continue
        eq[r], eq[p] = eq[p], eq[r]
        for i in range(n):
            if i != r and eq[i][c]:
                eq[i] = [x ^ y for x, y in zip(eq[i], eq[r])]
        pivots.append(c)
        r += 1
    w = [0] * n
    for i, c in enumerate(pivots):
        w[c] = eq[i][n]
    return w


def _heuristic_nodes(minors, radius: float) -> float:
    """Gaussian-heuristic node count of a depth-first search of a unimodular
    form: levels n-1 .. n-k hold about V_k R^(k/2) / prod(sqrt(d_i)) nodes,
    and the product of the last k Cholesky pivots d_i is 1 / minors[n - k]."""
    n = len(minors) - 1
    return sum(_BALL_VOLUME[k] * radius ** (k / 2) * float(minors[n - k]) ** 0.5
               for k in range(1, n + 1))


def search_cost_estimate(rows) -> float:
    """Estimated nodes of `analyze`: the characteristic search starts at radius
    min(Q(w0), n)/4 around w0/2, and the unit-vector count searches radius 1."""
    n = len(rows)
    minors = [1] + leading_minors(rows)
    start = min(gram_norm(rows, char_base(rows)), n) / 4
    return _heuristic_nodes(minors, start) + _heuristic_nodes(minors, 1.0)


CHARVEC_BASES = ("E8+Z1", "E8+Z2", "E8+Z3", "E8+Z4", "D12plus", "D12plus+Z1")
CHARVEC_PER_BASE = 120
CHARVEC_OVERSAMPLE = 8


def build_charvec_conjugates(seed: int) -> list:
    """Per base form, draw 8x the needed conjugates, sort them by estimated
    search cost and keep one from the middle of each group of eight, so every
    seed spans the same range of difficulty."""
    rng = _rng("charvec_conjugates", seed)
    ops = []
    for fid in CHARVEC_BASES:
        rows = base_rows(fid)
        drawn = [random_conjugate(rows, rng)
                 for _ in range(CHARVEC_PER_BASE * CHARVEC_OVERSAMPLE)]
        drawn.sort(key=search_cost_estimate)
        for i in range(CHARVEC_PER_BASE):
            conj = drawn[i * CHARVEC_OVERSAMPLE + CHARVEC_OVERSAMPLE // 2]
            ops.append(analyze_op(f"analyze {fid} #{i}", conj, fid))
    rng.shuffle(ops)
    return ops


def sign_flip(rows, rng: random.Random) -> list[list[int]]:
    """The same lattice with seeded basis signs: the output vectors change,
    the search work does not (the tree is mirrored coordinate by coordinate)."""
    signs = [rng.choice((-1, 1)) for _ in rows]
    return [[signs[i] * signs[j] * x for j, x in enumerate(row)] for i, row in enumerate(rows)]


E8_BALLS = 32
ZN_BALLS = ((8, 4), (10, 3), (12, 3), (14, 2), (16, 2), (16, 3))
# two analyze runs per Zn form put the p90 inside one class of operations
# (analyze Zn:15), not on the edge between two
ZN_ANALYZE_COPIES = 2


def build_dense_output(seed: int) -> list:
    rng = _rng("dense_output", seed)
    ops = []
    e8 = base_rows("E8")
    for i in range(E8_BALLS):
        ops.append(ball_op(f"ball E8 r=4 #{i}", sign_flip(e8, rng), 4,
                           sum(THETA_SHELLS[8]), THETA_SHELLS[8]))
    for fid in ("E8+E8", "D16plus"):
        ops.append(ball_op(f"ball {fid} r=4", sign_flip(base_rows(fid), rng), 4,
                           sum(THETA_SHELLS[16]), THETA_SHELLS[16]))
    for n, r in ZN_BALLS:
        rows = sign_flip(base_rows(f"Zn:{n}"), rng)
        ops.append(ball_op(f"ball Zn:{n} r={r}", rows, r, sums_of_squares_ball(n, r)))
    for copy in range(ZN_ANALYZE_COPIES):
        for n in range(12, 17):
            ops.append(analyze_op(f"analyze Zn:{n} #{copy}",
                                  sign_flip(base_rows(f"Zn:{n}"), rng), f"Zn:{n}"))
    rng.shuffle(ops)
    return ops


E8_ORACLES = 12
# (form, scan box) of the library cross-checks: (2*box + 1)^n cells each
CROSSCHECK_SLOTS = (("D4", 5), ("D4", 6), ("D4", 7), ("Zn:4", 5), ("Zn:4", 7),
                    ("D5", 4), ("D5", 5))


def _shifted_ball(rows, box: int, rng: random.Random):
    """Draw conjugate, shift and radius until the Cholesky box equals `box`."""
    for _ in range(20000):
        conj = random_conjugate(rows, rng)
        shift = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in rows)
        radius = Fraction(rng.randint(1, 8), 2)
        if cholesky_box(conj, shift, radius) == box:
            return conj, shift, radius
    raise RuntimeError(f"no query with scan box {box} found")


def build_oracle_crosscheck(seed: int) -> list:
    """E8 conjugates always scan 3^8 cells (the char coset is 2Z^8 at radius
    0); Z^n in a sign-flipped basis scans 5^n cells for n = 4..7."""
    rng = _rng("oracle_crosscheck", seed)
    ops = []
    e8 = base_rows("E8")
    for i in range(E8_ORACLES):
        ops.append(analyze_op(f"oracle E8 #{i}", random_conjugate(e8, rng), "E8", oracle=True))
    for n in range(4, 8):
        rows = sign_flip(base_rows(f"Zn:{n}"), rng)
        ops.append(analyze_op(f"oracle Zn:{n}", rows, f"Zn:{n}", oracle=True))
    for fid, box in CROSSCHECK_SLOTS:
        conj, shift, radius = _shifted_ball(base_rows(fid), box, rng)
        ops.append(crosscheck_op(f"crosscheck {fid} box={box}", conj, shift, radius))
    rng.shuffle(ops)
    return ops


# (base, copies per group): rank 16 forms are the bulk so that the median
# falls inside one class of operations, not on the edge between two
DONALDSON_FORBIDDEN = (("E8", 1), ("E8+E8", 5), ("D16plus", 5), ("D24plus", 2),
                       ("E8+E8+E8", 2))
DONALDSON_ZN = (4, 5, 6, 7, 8)
DONALDSON_GROUPS = 3


def build_donaldson_classify(seed: int) -> list:
    rng = _rng("donaldson_classify", seed)
    ops = []
    for group in range(DONALDSON_GROUPS):
        for fid, copies in DONALDSON_FORBIDDEN:
            for c in range(copies):
                rows = random_conjugate(base_rows(fid), rng)
                n = len(rows)
                ops.append(donaldson_op(f"donaldson -{fid} #{group}.{c}", rng.randint(0, 3),
                                        negated(rows), "Forbidden", k=n // 8, m=0, count=1))
        for n in DONALDSON_ZN:
            rows = random_conjugate(base_rows(f"Zn:{n}"), rng)
            ops.append(donaldson_op(f"donaldson -Zn:{n} #{group}", rng.randint(0, 3),
                                    negated(rows), "Realizable", k=0, m=n, count=2 ** n))
        e8 = random_conjugate(base_rows("E8"), rng)
        outside = (
            ("positive E8", e8),
            ("indefinite -E8+Z1", block_sum(negated(e8), [[1]])),
            ("degenerate -E8+0", block_sum(negated(e8), [[0]])),
        )
        for label, rows in outside:
            ops.append(donaldson_op(f"donaldson {label} #{group}", rng.randint(0, 3), rows,
                                    "NotApplicable"))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("charvec_conjugates", build_charvec_conjugates, tail_pct=95, min_ops=720),
        Workload("dense_output", build_dense_output, tail_pct=90, min_ops=200),
        Workload("oracle_crosscheck", build_oracle_crosscheck, tail_pct=90, min_ops=100),
        Workload("donaldson_classify", build_donaldson_classify, tail_pct=95, min_ops=200),
    )
}
