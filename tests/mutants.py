"""Mutants that the tests must kill.

Each mutant is one edit of one file under `src/latgate` and the tests that
must fail once it is made.  For each, the script copies `src/`, `tests/`,
`pyproject.toml` and `README.md` into a temporary directory, makes the edit
there (its old text must occur exactly once), runs the named tests with
pytest and expects them to fail.  The same tests are first run on an
unedited copy, where they must pass.  Run it from anywhere:

    python3 tests/mutants.py              # every mutant
    python3 tests/mutants.py axis_reach   # those whose name holds the text

It prints one line per mutant and exits 1 when a mutant survives, an edit
no longer applies, or a named test does not pass unedited.  pytest does
not collect this file, since its name does not start with `test_`.  It
uses the standard library only, and takes about 40 seconds on a 2-core
machine.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # under src/latgate
    old: str
    new: str
    tests: tuple[str, ...]


ENUM = "tests/test_enumerate.py"
CLI = "tests/test_catalog_cli.py"

MUTANTS = (
    # the split route
    Mutant("split_cut_lower_not_split", "enumeration.py",
           "part = _split(*low, D, C - tot_a, memo)",
           "part = _dfs_columns(k, *low, D, C - tot_a)",
           (f"{ENUM}::TestNestedSplits",)),
    Mutant("split_separator_offset", "enumeration.py",
           "w = [D * a[n - 1 - j] + T[j] for j in sep]",
           "w = [D * a[n - 1 - j] for j in sep]",
           (f"{ENUM}::TestNestedSplits",)),
    Mutant("mirror_not_reversed", "enumeration.py",
           "for b in reversed(bs)]",
           "for b in bs]",
           (f"{ENUM}::TestMirroredStates",)),
    Mutant("mirror_without_half_test", "enumeration.py",
           "half = sep and all(2 * t % D == 0 for t in T)",
           "half = sep and True",
           (f"{ENUM}::TestMirroredStates",)),
    Mutant("mirror_low_flip_level_order", "enumeration.py",
           "low_flip = flip[n - k:]",
           "low_flip = [-2 * t // D for t in T[:k]]",
           (f"{ENUM}::TestMirroredStates",)),
    # start-up: a command imports only the modules it runs
    Mutant("cli_eager_manifold", "cli.py",
           "from .charvec import charvec_report_with_stats, solve_char_coset",
           "from . import manifold\nfrom .charvec import charvec_report_with_stats, solve_char_coset",
           (f"{CLI}::test_a_command_imports_only_what_it_runs",)),
    # the canonical JSON writer
    Mutant("formats_bools_in_int_rows", "formats.py",
           "if set(map(type, items)) == {int}:",
           "if all(isinstance(x, int) for x in items):",
           (f"{CLI}::TestFormats",)),
    Mutant("formats_unsorted_keys", "formats.py",
           "for key, value in sorted(obj.items())",
           "for key, value in obj.items()",
           (f"{CLI}::TestFormats",)),
    Mutant("formats_closing_indent", "formats.py",
           'join(["%d"] * len(items)) + newline + "]")',
           'join(["%d"] * len(items)) + inner + "]")',
           (f"{CLI}::TestFormats",)),
    # the fast paths
    Mutant("kernel_half_cap", "_pykernel.py",
           "cap = [(-t) // D for t in T]",
           "cap = [(-t) // D + 1 for t in T]",
           (f"{ENUM}::TestLexOrder",)),
    Mutant("size_gate_constant", "enumeration.py",
           "_SPLIT_NODES = 300",
           "_SPLIT_NODES = 400",
           (f"{ENUM}::TestSizeGate",)),
    Mutant("exact_takes_float", "core.py",
           "not isinstance(x, (int, Fraction))",
           "not isinstance(x, (int, float, Fraction))",
           (f"{ENUM}::TestValidationAndCaps",)),
    Mutant("lll_lovasz_constant", "core.py",
           "< 3 * d[k] * d[k] - 4 * lm * lm",
           "< 2 * d[k] * d[k] - 4 * lm * lm",
           ("tests/test_core.py::TestLLL",)),
    # the oracle's scan plan
    Mutant("axis_reach_zero_bound_nonzero", "enumeration.py",
           "return [0] * n",
           "return [1] * n",
           (f"{ENUM}::TestRadiusZeroPlan",)),
    Mutant("axis_reach_zero_bound_eliminates", "enumeration.py",
           "if not C2:",
           "if C2 is None:",
           (f"{ENUM}::TestRadiusZeroPlan",)),
    Mutant("scan_plan_definiteness_skipped_at_radius_0", "enumeration.py",
           "if definiteness(query.form) is not Definiteness.POSITIVE_DEFINITE:",
           "if query.radius and definiteness(query.form) is not Definiteness.POSITIVE_DEFINITE:",
           (f"{ENUM}::TestSufficientBox::test_not_positive_definite_rejected",)),
    Mutant("axis_reach_range_short", "enumeration.py",
           "for j in range(k + 1, 2 * n):",
           "for j in range(k + 1, 2 * n - 1):",
           (f"{ENUM}::TestAxisReach",)),
    Mutant("axis_reach_true_division", "enumeration.py",
           "return [isqrt(C2 * a[i][n + i] // prev) for i in range(n)]",
           "return [isqrt(int(C2 * a[i][n + i] / prev)) for i in range(n)]",
           ("tests/test_exactness.py",)),
    # the oracle's box scan walks each row by its first and second difference
    Mutant("brute_row_second_difference_halved", "_pykernel.py",
           "second = 2 * dd",
           "second = dd",
           (f"{ENUM}::TestClippedScan",)),
    Mutant("brute_row_step_without_square", "_pykernel.py",
           "step = 2 * D * gv[last] + dd",
           "step = 2 * D * gv[last]",
           (f"{ENUM}::TestClippedScan",)),
    # floats from outside math: the exactness scan must see them too
    Mutant("ball_volume_cmath_pi", "enumeration.py",
           "num, den = 355 ** (2 * m), 113 ** (2 * m)",
           "num, den = round(cmath.pi ** (2 * m) * 2 ** 64), 2 ** 64",
           ("tests/test_exactness.py",)),
    Mutant("ball_volume_bare_pi", "enumeration.py",
           "num, den = 355 ** (2 * m), 113 ** (2 * m)",
           "num, den = round(pi ** (2 * m) * 2 ** 64), 2 ** 64",
           ("tests/test_exactness.py",)),
)


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, dest / name)


def run_tests(tree: Path, tests) -> int:
    """pytest's exit code for `tests` in `tree`: 0 passed, 1 some failed."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        # the copy's src only, and no bytecode: an edit that keeps a file's
        # size within the second would otherwise be read back from a stale .pyc
        env={**{k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
             "PYTHONDONTWRITEBYTECODE": "1"},
    ).returncode


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(a in m.name for a in argv)]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="latgate-mutants-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        tests = sorted({t for m in chosen for t in m.tests})
        code = run_tests(tree, tests)
        if code != 0:
            print(f"unedited: the named tests exit {code}, expected 0")
            return 1
        for m in chosen:
            start = time.perf_counter()
            path = tree / "src" / "latgate" / m.path
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"STALE     {m.name}: the old text occurs {text.count(m.old)} times")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            try:
                code = run_tests(tree, m.tests)
            finally:
                path.write_text(text)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR {code}")
            bad += code != 1
            print(f"{verdict:9} {m.name} ({time.perf_counter() - start:.1f} s)")
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
