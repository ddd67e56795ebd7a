"""Command-line front end.

Exit codes: 0 success, 1 usage, parse or input errors (including a rank
above the search cap), 2 verification failures (a failed self-test, a
failed oracle cross-check, or a mathematical precondition that does not
hold for the given input).

A command imports only the modules it runs: `donaldson` loads `manifold`
and `selftest` loads `selftest`, so `analyze` loads neither.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .catalog import _unimodular_rank, catalog_get
from .charvec import charvec_report_with_stats, solve_char_coset
from .core import (
    Definiteness,
    GramMatrix,
    definiteness,
    determinant,
    evaluate,
    is_unimodular,
    negate,
    parity,
    signature,
)
from .enumeration import EnumQuery, _box_scan, _check_rank_cap, _scan_problem, kernel_name
from .errors import (
    BadShapeError,
    InvalidParameterError,
    LatgateError,
    NotSymmetricError,
    ParseError,
    RankCapExceededError,
    UnknownIdError,
)
from .formats import (
    REPORT_FORMAT,
    _is_inline,
    dumps_canonical,
    gram_to_obj,
    load_gram,
    load_manifold,
    moduli_report_to_obj,
)

__all__ = ["main"]

_USAGE_ERRORS = (
    ParseError,
    UnknownIdError,
    InvalidParameterError,
    BadShapeError,
    NotSymmetricError,
    RankCapExceededError,
    OSError,
)

_ORACLE_CELL_CAP = 200_000

# the search is serial; --workers is still accepted so that existing command
# lines keep working, and it has no effect
_IGNORED_HELP = "accepted for compatibility; has no effect"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise _UsageError(message)


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs far more than a parse."""
    parser = _Parser(
        prog="latgate",
        description="Exact analysis of integer quadratic forms: the characteristic-vector "
        "dichotomy and the obstruction pipeline for closed four-manifolds.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    analyze = sub.add_parser(
        "analyze", help="classify a form and locate its minimal characteristic vector"
    )
    analyze.add_argument("gram", nargs="?", help="path to a Gram JSON document")
    analyze.add_argument("--catalog", metavar="ID", help="analyze a built-in form instead")
    analyze.add_argument("--json", action="store_true", help="emit the JSON report")
    analyze.add_argument(
        "--oracle", action="store_true",
        help="cross-check the result by an independent route (exit 2 on mismatch)",
    )
    analyze.add_argument(
        "--stats", action="store_true", help="include search counters in the output"
    )
    analyze.add_argument("--workers", type=int, default=1, help=_IGNORED_HELP)
    analyze.set_defaults(run=_cmd_analyze)

    donaldson = sub.add_parser(
        "donaldson", help="run the realizability pipeline on a closed-manifold descriptor"
    )
    donaldson.add_argument("manifold", nargs="?", help="path to a manifold JSON document")
    donaldson.add_argument("--catalog", metavar="ID", help="use a built-in form instead")
    donaldson.add_argument(
        "--b1", type=int, default=None, help="first Betti number (with --catalog; default 0)"
    )
    donaldson.add_argument(
        "--negate", action="store_true", help="negate the catalog form (with --catalog)"
    )
    donaldson.add_argument("--json", action="store_true", help="emit the JSON report")
    donaldson.add_argument("--workers", type=int, default=1, help=_IGNORED_HELP)
    donaldson.set_defaults(run=_cmd_donaldson)

    selftest = sub.add_parser("selftest", help="run the built-in invariant suite")
    selftest.add_argument(
        "--max-rank", type=int, default=16, help="skip checks on forms above this rank"
    )
    selftest.set_defaults(run=_cmd_selftest)
    return parser


def _oracle_block(gram: GramMatrix, result) -> dict:
    """Independent confirmation: the exhaustive box scan of the characteristic
    coset when the cells it visits, clipped per axis by the determinant-only
    Cauchy-Schwarz bound, number at most `_ORACLE_CELL_CAP`; otherwise
    direct structural checks on the claimed minimizer.  Either works on the
    input's own Gram matrix, so it never sees the LLL reduction or the
    block split of the search it checks."""
    n = gram.rank
    coset = solve_char_coset(gram)
    w0 = coset.base
    radius = Fraction(min(evaluate(gram, w0), n), 4)
    shift = tuple(Fraction(w, 2) for w in w0)
    query = EnumQuery(form=gram, shift=shift, radius=radius)
    problem = _scan_problem(query)
    *_, box, cells = problem
    checks: dict[str, bool] = {}
    if cells <= _ORACLE_CELL_CAP:
        mode = "brute"
        scan = _box_scan(query, problem, box)
        best = min(scan.norms)
        mins = [v for v, nu in zip(scan.vectors, scan.norms) if nu == best]
        checks["norm"] = 4 * best == result.norm_m
        checks["count"] = len(mins) == result.count_minimizers
        lex_w = tuple(w + 2 * u for w, u in zip(w0, min(mins)))
        checks["minimizer"] = lex_w == result.minimizer
    else:
        mode = "structural"
        w = result.minimizer
        paired = [sum(row[j] * w[j] for j in range(n)) for row in gram.entries]
        checks["characteristic"] = all(
            (paired[i] - gram.entries[i][i]) % 2 == 0 for i in range(n)
        )
        checks["norm"] = evaluate(gram, w) == result.norm_m
        checks["coset"] = all((a - b) % 2 == 0 for a, b in zip(w, w0))
        checks["rank_bound"] = result.norm_m <= n and (n - result.norm_m) % 8 == 0
        checks["k"] = result.k == (n - result.norm_m) // 8
    return {"mode": mode, "ok": all(checks.values()), "checks": checks}


def _catalog_gram(form_id: str, searched: bool) -> GramMatrix:
    """The catalog form `form_id`.  When the command searches it and every
    atom is unimodular, the rank is read from the id and checked against
    the cap before anything is built: a catalog form is positive definite,
    so such a form is always searched."""
    rank = _unimodular_rank(form_id) if searched else None
    if rank is not None:
        _check_rank_cap(rank)
    return catalog_get(form_id).gram


def _load_form(args) -> tuple[str, GramMatrix]:
    if (args.gram is None) == (args.catalog is None):
        raise _UsageError("provide exactly one of a Gram document path or --catalog ID")
    if args.catalog is not None:
        return args.catalog, _catalog_gram(args.catalog, searched=True)
    name = "inline" if _is_inline(args.gram) else args.gram
    return name, load_gram(args.gram)


def _cmd_analyze(args) -> int:
    form_id, gram = _load_form(args)
    det = determinant(gram)
    shape = definiteness(gram)
    report = {
        "format": REPORT_FORMAT,
        "form_id": form_id,
        "gram": gram_to_obj(gram),
        "rank": gram.rank,
        "determinant": det,
        "unimodular": is_unimodular(gram),
        "definiteness": shape.value,
        "parity": parity(gram).value if shape is not Definiteness.DEGENERATE else None,
        "signature": signature(gram) if shape is not Definiteness.DEGENERATE else None,
        "charvec": None,
        "charvec_skipped": None,
    }
    result = None
    stats = None
    if shape is not Definiteness.POSITIVE_DEFINITE:
        report["charvec_skipped"] = "form is not positive definite"
    elif not is_unimodular(gram):
        report["charvec_skipped"] = f"determinant {det} is not +-1"
    else:
        report["charvec"], result, stats = charvec_report_with_stats(gram, form_id)
    if args.stats and stats is not None:
        report["stats"] = {"kernel": kernel_name(), "nodes": stats.nodes, "prunes": stats.prunes}
    oracle = None
    if args.oracle and result is not None:
        oracle = _oracle_block(gram, result)
        report["oracle"] = oracle

    if args.json:
        sys.stdout.write(dumps_canonical(report))
    else:
        sig = report["signature"]
        line = (
            f"form {form_id}: rank {gram.rank}, determinant {det}, {shape.value}"
        )
        if report["parity"] is not None:
            line += f", {report['parity']}"
        if sig is not None:
            line += f", signature {sig}"
        print(line)
        block = report["charvec"]
        if block is None:
            print(f"characteristic analysis skipped: {report['charvec_skipped']}")
        else:
            print(
                f"characteristic minimum: m = {block['m']}, k = {block['k']}, "
                f"minimizer = {tuple(block['minimizer'])}, minimizers = "
                f"{result.count_minimizers}"
            )
            print(
                f"verdict: {block['verdict']} (unit vectors: {block['unit_vector_count']}, "
                f"mod 8: {'ok' if block['mod8_ok'] else 'VIOLATED'})"
            )
        if args.stats and stats is not None:
            print(f"search: {stats.nodes} nodes, {stats.prunes} prunes (kernel: {kernel_name()})")
        if oracle is not None:
            print(f"oracle[{oracle['mode']}]: {'ok' if oracle['ok'] else 'MISMATCH'}")
    if oracle is not None and not oracle["ok"]:
        print("latgate: oracle cross-check failed", file=sys.stderr)
        return 2
    return 0


def _cmd_donaldson(args) -> int:
    from .manifold import ManifoldDescriptor, Verdict, donaldson_verdict

    if (args.manifold is None) == (args.catalog is None):
        raise _UsageError("provide exactly one of a manifold document path or --catalog ID")
    if args.manifold is not None:
        if args.b1 is not None or args.negate:
            raise _UsageError("--b1 and --negate go with --catalog, not a manifold document")
        descriptor = load_manifold(args.manifold)
    else:
        b1 = args.b1 or 0
        # a negative b1 is refused by the descriptor, ahead of the rank cap
        gram = _catalog_gram(args.catalog, searched=args.negate and b1 >= 0)
        if args.negate:
            gram = negate(gram)
        descriptor = ManifoldDescriptor(b1=b1, form=gram)
    report = donaldson_verdict(descriptor)

    if args.json:
        sys.stdout.write(dumps_canonical(moduli_report_to_obj(report, descriptor)))
        return 0
    shape = definiteness(descriptor.form)
    sigma = descriptor.sigma if shape is not Definiteness.DEGENERATE else "undefined"
    print(
        f"manifold: b1 = {descriptor.b1}, b2 = {descriptor.b2}, "
        f"signature = {sigma}, chi = {descriptor.chi}"
    )
    if report.verdict is Verdict.NOT_APPLICABLE:
        print(f"verdict: {report.verdict.value} ({report.reason})")
        return 0
    steps = len(report.surgery_certificates)
    if steps:
        balanced = all(c.rank_preserved for c in report.surgery_certificates)
        print(
            f"step 1 (surgery): {steps} step(s) reduce b1 to 0; rank ledgers "
            f"{'balance' if balanced else 'DO NOT balance'}; chi -> {descriptor.chi + 2 * steps}"
        )
    else:
        print("step 1 (surgery): b1 is already 0, nothing to cut")
    bundle = report.line_bundle
    print(f"step 2 (line bundle): c1^2 = {bundle.c1_squared}, k = {bundle.k}")
    print(f"step 3 (moduli dimension): virtual = {report.virtual_dim}, based = {report.based_dim}")
    if report.verdict is Verdict.FORBIDDEN:
        print(f"step 4 (boundary): {report.boundary}")
        print(
            "step 5 (characteristic number): "
            f"{'nonzero' if report.sw_number_nonzero else 'zero'} mod 2"
        )
    print(f"verdict: {report.verdict.value} ({report.reason})")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import format_table, run_selftest

    results = run_selftest(max_rank=args.max_rank)
    print(format_table(results))
    return 0 if all(r.ok for r in results) else 2


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except (_UsageError, *_USAGE_ERRORS) as exc:
        print(f"latgate: error: {exc}", file=sys.stderr)
        return 1
    except LatgateError as exc:
        print(f"latgate: verification failure: {exc}", file=sys.stderr)
        return 2
