"""Built-in invariant suite: frozen goldens plus randomized cross-checks.

Every check is exact; a failing row means a real defect, not noise.  The
random parts use a fixed seed so runs are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .catalog import CatalogEntry, builtin_ids, catalog_get
from .charvec import (
    CharVecResult,
    count_unit_vectors,
    elkies_verdict,
    signature_mod8_check,
    solve_char_coset,
)
from .core import (
    GramMatrix,
    basis_change,
    determinant,
    is_unimodular,
    negate,
    parity,
)
from .enumeration import EnumQuery, brute_force_coset, enumerate_coset, sufficient_box
from .manifold import (
    ManifoldDescriptor,
    Verdict,
    choose_line_bundle,
    donaldson_verdict,
    sw_boundary_number,
    virtual_dimension,
    weitzenbock_bound,
)

__all__ = ["CheckResult", "random_unimodular", "run_selftest", "format_table"]

_SEED = 108

# ranks above these stay exact but make the self-test slow
_ORACLE_RANK = 6
_MOD8_RANK = 10
_GL_RANK = 8


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def random_unimodular(n: int, rng: random.Random, bound: int = 2,
                      steps: int = 60) -> tuple[tuple[int, ...], ...]:
    """Random determinant +-1 integer matrix with entries bounded by `bound`,
    built from elementary row operations (add, negate, swap)."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            sign = rng.choice((-1, 1))
            cand = [a + sign * b for a, b in zip(u[i], u[j])]
            if max(abs(x) for x in cand) <= bound:
                u[i] = cand
        elif kind == 1:
            u[i] = [-x for x in u[i]]
        elif i != j:
            u[i], u[j] = u[j], u[i]
    return tuple(tuple(row) for row in u)


def _check_goldens(entries: list[CatalogEntry], max_rank: int):
    for entry in entries:
        if entry.gram.rank > max_rank:
            continue
        expected = entry.expected
        problems = []
        det = determinant(entry.gram)
        if det != expected["det"]:
            problems.append(f"det {det} != {expected['det']}")
        par = parity(entry.gram).value
        if par != expected["parity"]:
            problems.append(f"parity {par} != {expected['parity']}")
        if "m" in expected:
            verdict = elkies_verdict(entry.gram)
            if verdict.result.norm_m != expected["m"]:
                problems.append(f"m {verdict.result.norm_m} != {expected['m']}")
            if verdict.result.k != expected.get("k"):
                problems.append(f"k {verdict.result.k} != {expected.get('k')}")
            identity = verdict.result.norm_m == entry.gram.rank
            if verdict.identity is not identity:
                problems.append("dichotomy verdict disagrees with m == n")
            units = count_unit_vectors(entry.gram)
            if (units == 2 * entry.gram.rank) is not identity:
                problems.append(f"unit count {units} disagrees with verdict")
        ok = not problems
        yield CheckResult(f"golden[{entry.id}]", ok, "; ".join(problems) or "ok")


def _check_oracle(entries: list[CatalogEntry], max_rank: int, rng: random.Random):
    cap = min(_ORACLE_RANK, max_rank)
    forms = [(e.id, e.gram) for e in entries if e.gram.rank <= cap]
    for name in ("D4", "D5"):
        gram = catalog_get(name).gram
        if gram.rank <= cap:
            forms.append((name, gram))
    for form_id, gram in forms:
        n = gram.rank
        for trial in range(3):
            shift = tuple(
                Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)
            )
            radius = Fraction(rng.randint(1, 5), 2)
            query = EnumQuery(form=gram, shift=shift, radius=radius)
            fast = enumerate_coset(query)
            slow = brute_force_coset(query, sufficient_box(query))
            ok = fast.vectors == slow.vectors and fast.norms == slow.norms
            detail = "ok" if ok else (
                f"fast {len(fast.vectors)} vs brute {len(slow.vectors)} vectors"
            )
            yield CheckResult(f"oracle[{form_id}#{trial}]", ok, detail)


def _check_mod8(entries: list[CatalogEntry], max_rank: int, rng: random.Random):
    cap = min(_MOD8_RANK, max_rank)
    for entry in entries:
        gram = entry.gram
        if gram.rank > cap or not is_unimodular(gram):
            continue
        for trial in range(2):
            conj = basis_change(gram, random_unimodular(gram.rank, rng))
            ok = signature_mod8_check(conj) and signature_mod8_check(negate(conj))
            yield CheckResult(f"mod8[{entry.id}#{trial}]", ok, "ok" if ok else "residue mismatch")


def _check_gl_invariance(entries: list[CatalogEntry], max_rank: int, rng: random.Random):
    cap = min(_GL_RANK, max_rank)
    for entry in entries:
        gram = entry.gram
        if gram.rank > cap or "m" not in entry.expected:
            continue
        base = elkies_verdict(gram)
        base_units = count_unit_vectors(gram)
        conj = basis_change(gram, random_unimodular(gram.rank, rng))
        other = elkies_verdict(conj)
        problems = []
        if determinant(conj) != determinant(gram):
            problems.append("determinant moved")
        if other.result.norm_m != base.result.norm_m:
            problems.append(f"m moved {base.result.norm_m} -> {other.result.norm_m}")
        if other.result.count_minimizers != base.result.count_minimizers:
            problems.append("minimizer count moved")
        if count_unit_vectors(conj) != base_units:
            problems.append("unit count moved")
        problems += _unreduced_search_problems(conj, other.result, base_units)
        yield CheckResult(f"gl[{entry.id}]", not problems, "; ".join(problems) or "ok")


def _unreduced_search_problems(conj: GramMatrix, result: CharVecResult, units: int) -> list[str]:
    """Search the conjugate's own basis, not its LLL-reduced one, and compare
    with what the reduced search reported: the lex-least minimizer, the
    minimizer count and the unit-vector count."""
    n = conj.rank
    problems = []
    base = solve_char_coset(conj).base
    shift = tuple(Fraction(x, 2) for x in base)
    quarter_m = Fraction(result.norm_m, 4)
    res = enumerate_coset(EnumQuery(form=conj, shift=shift, radius=quarter_m))
    mins = [u for u, nu in zip(res.vectors, res.norms) if nu == quarter_m]
    if len(mins) != result.count_minimizers or min(res.norms) != quarter_m:
        problems.append("unreduced minimizer count differs")
    elif tuple(base[i] + 2 * mins[0][i] for i in range(n)) != result.minimizer:
        problems.append("unreduced lex-least minimizer differs")
    zero = tuple(Fraction(0) for _ in range(n))
    res = enumerate_coset(EnumQuery(form=conj, shift=zero, radius=Fraction(1)))
    if sum(1 for nu in res.norms if nu == 1) != units:
        problems.append("unreduced unit count differs")
    return problems


def _check_pipeline(entries: list[CatalogEntry], max_rank: int):
    for entry in entries:
        gram = entry.gram
        if gram.rank > max_rank or "m" not in entry.expected:
            continue
        for b1 in (0, 2):
            descriptor = ManifoldDescriptor(b1=b1, form=negate(gram))
            report = donaldson_verdict(descriptor)
            problems = []
            k = entry.expected["k"]
            want = Verdict.REALIZABLE if k == 0 else Verdict.FORBIDDEN
            if report.verdict is not want:
                problems.append(f"verdict {report.verdict.value} != {want.value}")
            if report.k != k:
                problems.append(f"k {report.k} != {k}")
            # surgery runs first, so the reported dimension is the b1 = 0 one
            if report.virtual_dim != 2 * k - 1:
                problems.append(f"virtual dim {report.virtual_dim} != {2 * k - 1}")
            if report.based_dim != report.virtual_dim + 1:
                problems.append("based dim is not virtual dim + 1")
            if b1 > 0:
                bundle = choose_line_bundle(descriptor)
                dim = virtual_dimension(descriptor, bundle)
                if dim != 2 * k - 1 + b1:
                    problems.append(f"unreduced virtual dim {dim} != {2 * k - 1 + b1}")
            if len(report.surgery_certificates) != b1:
                problems.append(f"{len(report.surgery_certificates)} certificates for b1={b1}")
            if not all(c.rank_preserved for c in report.surgery_certificates):
                problems.append("a surgery ledger does not balance")
            yield CheckResult(
                f"pipeline[{entry.id},b1={b1}]", not problems, "; ".join(problems) or "ok"
            )


def _check_boundary_and_bound():
    ok = all(sw_boundary_number(k).value == 1 for k in range(1, 7))
    yield CheckResult("boundary[k=1..6]", ok, "ok" if ok else "mod-2 number is not 1")
    cases = [
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(1), Fraction(0)),
        (Fraction(-1), Fraction(1), Fraction(6)),
        (Fraction(1, 2), Fraction(3, 4), Fraction(2)),
    ]
    ok = all(weitzenbock_bound(s, p) == want for s, p, want in cases)
    yield CheckResult("weitzenbock[frozen]", ok, "ok" if ok else "bound mismatch")


def run_selftest(entries: list[CatalogEntry] | None = None,
                 max_rank: int = 16, seed: int = _SEED) -> list[CheckResult]:
    """Run every check; returns one row per check."""
    if entries is None:
        entries = [catalog_get(form_id) for form_id in builtin_ids()]
    rng = random.Random(seed)
    results: list[CheckResult] = []
    results.extend(_check_goldens(entries, max_rank))
    results.extend(_check_oracle(entries, max_rank, rng))
    results.extend(_check_mod8(entries, max_rank, rng))
    results.extend(_check_gl_invariance(entries, max_rank, rng))
    results.extend(_check_pipeline(entries, max_rank))
    results.extend(_check_boundary_and_bound())
    return results


def format_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results) if results else 4
    lines = [f"{r.name:<{width}}  {'PASS' if r.ok else 'FAIL'}  {r.detail}" for r in results]
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
