import dataclasses
import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from latgate import (
    BadShapeError,
    CatalogEntry,
    InvalidParameterError,
    NotSymmetricError,
    ParseError,
    UnknownIdError,
    basis_change,
    builtin_ids,
    catalog_get,
    charvec_report,
    count_unit_vectors,
    dumps_canonical,
    elkies_verdict,
    gram_from_obj,
    gram_to_obj,
    min_char_vector,
    negate,
    random_unimodular,
)
from latgate import cli
from latgate.cli import main
from latgate.formats import load_gram, load_manifold, manifold_from_obj
from latgate.selftest import CheckResult
from oracle_helpers import det_gauss


class TestCatalogGrammar:
    def test_standard_form_aliases(self):
        assert catalog_get("Zn:8").gram == catalog_get("Z8").gram

    def test_glued_rank4_is_standard_in_disguise(self):
        g = catalog_get("D4plus").gram
        res = min_char_vector(g)
        assert (res.norm_m, res.k, res.count_minimizers) == (4, 0, 16)
        assert elkies_verdict(g).identity
        assert count_unit_vectors(g) == 8

    def test_composite_rank(self):
        assert catalog_get("E8+Z2").gram.rank == 10
        assert catalog_get("E8+E8").gram.rank == 16

    @pytest.mark.parametrize("bad", ["Zn:0", "D1", "D6plus", "D2plus"])
    def test_invalid_parameters(self, bad):
        with pytest.raises(InvalidParameterError):
            catalog_get(bad)

    @pytest.mark.parametrize("bad", ["E7", "A2", "", "E8++Z1", "E8+"])
    def test_unknown_ids(self, bad):
        with pytest.raises(UnknownIdError):
            catalog_get(bad)


class TestCatalogGoldens:
    @pytest.mark.parametrize("fid", builtin_ids())
    def test_determinant_oracle(self, fid):
        entry = catalog_get(fid)
        assert entry.expected["det"] == det_gauss(entry.gram.entries)

    @pytest.mark.parametrize("fid", builtin_ids())
    def test_parity_matches_diagonal(self, fid):
        entry = catalog_get(fid)
        all_even = all(row[i] % 2 == 0 for i, row in enumerate(entry.gram.entries))
        assert entry.expected["parity"] == ("Even" if all_even else "Odd")

    @pytest.mark.parametrize("fid", [f for f in builtin_ids() if f.startswith("Zn:")][:8])
    def test_standard_form_goldens(self, fid):
        entry = catalog_get(fid)
        res = min_char_vector(entry.gram)
        assert res.norm_m == entry.expected["m"]
        assert res.k == entry.expected["k"] == 0


class TestFormats:
    def test_gram_round_trip(self):
        g = catalog_get("D12plus").gram
        assert gram_from_obj(gram_to_obj(g)) == g

    def test_canonical_dumps(self):
        obj = {"b": 2, "a": {"d": [3, 1], "c": 0}}
        text = dumps_canonical(obj)
        assert text.endswith("\n")
        assert json.loads(text) == obj
        assert text == dumps_canonical(obj)
        assert text.index('"a"') < text.index('"b"')

    def test_inline_gram(self):
        g = load_gram('{"rank": 2, "gram": [[2, 1], [1, 2]]}')
        assert g.entries == ((2, 1), (1, 2))

    def test_gram_from_file(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(dumps_canonical(gram_to_obj(catalog_get("Zn:3").gram)))
        assert load_gram(path) == catalog_get("Zn:3").gram
        assert load_gram(str(path)) == catalog_get("Zn:3").gram

    def test_missing_file_diagnostic(self):
        with pytest.raises(ParseError, match="cannot read"):
            load_gram("/does/not/exist.json")

    def test_bad_json_syntax(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rank": 2, "gram": [[1, 0], ')
        with pytest.raises(ParseError, match="line"):
            load_gram(path)

    def test_missing_field(self):
        with pytest.raises(ParseError, match="gram"):
            load_gram('{"rank": 2}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"rank": 2, "gram": [[1, 0], [0]]}',
            '{"rank": 3, "gram": [[1, 0], [0, 1]]}',
        ],
    )
    def test_shape_problems(self, text):
        with pytest.raises(BadShapeError):
            load_gram(text)

    def test_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            load_gram('{"rank": 2, "gram": [[1, 2], [0, 1]]}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"rank": 1, "gram": [[1.5]]}',
            '{"rank": 1, "gram": [[true]]}',
            '{"rank": "1", "gram": [[1]]}',
        ],
    )
    def test_non_integer_entries(self, text):
        with pytest.raises(ParseError, match="integer"):
            load_gram(text)

    @pytest.mark.parametrize("text, message", (
        ("[1]", "Gram document must be a JSON object, got list"),
        ('{"rank": 1, "gram": 5}', "field 'gram': expected a list of rows, got int"),
        ('{"rank": 2, "gram": [[1, 0], 7]}', "field 'gram' row 1: expected a list"),
    ))
    def test_gram_document_structure(self, tmp_path, text, message):
        path = tmp_path / "g.json"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            load_gram(path)
        assert str(info.value) == message

    def test_manifold_document_not_an_object(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('[{"b1": 0}]')
        with pytest.raises(ParseError) as info:
            load_manifold(path)
        assert str(info.value) == "manifold document must be a JSON object, got list"
        with pytest.raises(ParseError, match="got str"):
            manifold_from_obj("b1")

    def test_manifold_document(self):
        m = load_manifold('{"b1": 2, "form": {"rank": 1, "gram": [[-1]]}}')
        assert m.b1 == 2 and m.form.entries == ((-1,),)
        with pytest.raises(ParseError, match="b1"):
            load_manifold('{"form": {"rank": 1, "gram": [[1]]}}')


class TestCliAnalyze:
    def test_json_report(self, capsys):
        assert main(["analyze", "--catalog", "D12plus", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["format"] == 1
        assert report["form_id"] == "D12plus"
        assert report["determinant"] == 1
        assert report["charvec"]["m"] == 4
        assert report["charvec"]["verdict"] == "HasShortCharVector"
        assert "stats" not in report
        assert "oracle" not in report

    def test_stats_key(self, capsys):
        assert main(["analyze", "--catalog", "Zn:3", "--json", "--stats"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["stats"]) == {"kernel", "nodes", "prunes"}
        assert report["stats"]["nodes"] > 0

    def test_text_report(self, capsys):
        assert main(["analyze", "--catalog", "D12plus"]) == 0
        out = capsys.readouterr().out
        assert "form D12plus" in out
        assert "m = 4" in out
        assert "HasShortCharVector" in out

    def test_non_unimodular_skips_charvec(self, capsys):
        assert main(["analyze", '{"rank": 2, "gram": [[2, 1], [1, 2]]}']) == 0
        out = capsys.readouterr().out
        assert "skipped" in out

    def test_json_skip_is_machine_readable(self, capsys):
        assert main(["analyze", "--catalog", "D4", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["charvec"] is None
        assert report["charvec_skipped"]

    def test_missing_file_exit_1(self, capsys):
        assert main(["analyze", "/does/not/exist.json"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_bad_catalog_id_exit_1(self, capsys):
        assert main(["analyze", "--catalog", "E7"]) == 1
        assert "error" in capsys.readouterr().err

    def test_rank_over_cap_exit_1(self, capsys):
        assert main(["analyze", "--catalog", "Zn:25"]) == 1
        err = capsys.readouterr().err
        assert "latgate: error: rank 25 exceeds the cap of 24" in err
        assert "verification failure" not in err

    @pytest.mark.parametrize("fid", ["D12plus", "Zn:2"])
    def test_charvec_block_matches_report(self, capsys, fid):
        assert main(["analyze", "--catalog", fid, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["charvec"] == charvec_report(catalog_get(fid).gram, fid)

    def test_no_input_exit_1(self, capsys):
        assert main(["analyze"]) == 1
        capsys.readouterr()

    def test_oracle_brute(self, capsys):
        # the scan runs whenever its clipped cells are within the cap: 256 on
        # Zn:8, 12,150 on E8+Z1, and one cell on E8+E8 and D16plus
        for fid in ("Zn:4", "Zn:8", "E8+Z1", "E8+E8", "D16plus"):
            assert main(["analyze", "--catalog", fid, "--json", "--oracle"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["oracle"]["mode"] == "brute", fid
            assert report["oracle"]["ok"], fid

    def test_oracle_structural(self, capsys):
        # clipped scans of 661,500 cells (E8+Z2) and 4^9 (Zn:9) are over the cap
        for fid in ("D12plus", "E8+Z2", "Zn:9"):
            assert main(["analyze", "--catalog", fid, "--json", "--oracle"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["oracle"]["mode"] == "structural", fid
            assert report["oracle"]["ok"], fid

    def test_oracle_gate_counts_clipped_cells(self, capsys, monkeypatch):
        # on E8+Z1 the nominal cube of the box, 5^9 cells, is over the cap,
        # but the scan clipped per axis visits only 12,150 of them
        plans = []
        plan = cli._scan_problem
        monkeypatch.setattr(cli, "_scan_problem", lambda q: plans.append(plan(q)) or plans[-1])
        assert main(["analyze", "--catalog", "E8+Z1", "--json", "--oracle"]) == 0
        assert json.loads(capsys.readouterr().out)["oracle"]["mode"] == "brute"
        [(*_, box, cells)] = plans
        assert (box, cells) == (2, 12_150)
        assert cells <= cli._ORACLE_CELL_CAP < (2 * box + 1) ** 9

    # (document, first text line, JSON fields that differ by form)
    NOT_DEFINITE = (
        ('{"rank": 1, "gram": [[-1]]}',
         "form inline: rank 1, determinant -1, NegativeDefinite, Odd, signature -1",
         {"definiteness": "NegativeDefinite", "determinant": -1, "gram": [[-1]],
          "parity": "Odd", "signature": -1, "unimodular": True}),
        ('{"rank": 2, "gram": [[0, 1], [1, 0]]}',
         "form inline: rank 2, determinant -1, Indefinite, Even, signature 0",
         {"definiteness": "Indefinite", "determinant": -1, "gram": [[0, 1], [1, 0]],
          "parity": "Even", "signature": 0, "unimodular": True}),
        ('{"rank": 2, "gram": [[1, 0], [0, 0]]}',
         "form inline: rank 2, determinant 0, Degenerate",
         {"definiteness": "Degenerate", "determinant": 0, "gram": [[1, 0], [0, 0]],
          "parity": None, "signature": None, "unimodular": False}),
    )

    @pytest.mark.parametrize("doc, line, fields", NOT_DEFINITE)
    def test_not_positive_definite_skips_search_and_oracle(self, capsys, doc, line, fields):
        # --stats and --oracle print nothing when no search runs
        assert main(["analyze", doc, "--stats", "--oracle"]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            f"{line}\ncharacteristic analysis skipped: form is not positive definite\n"
        )
        assert captured.err == ""
        assert main(["analyze", doc, "--stats", "--oracle", "--json"]) == 0
        captured = capsys.readouterr()
        rows = fields["gram"]
        expected = {
            **fields,
            "charvec": None,
            "charvec_skipped": "form is not positive definite",
            "form_id": "inline",
            "format": 1,
            "gram": {"gram": rows, "rank": len(rows)},
            "rank": len(rows),
        }
        assert captured.out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
        assert captured.err == ""

    def test_text_search_and_oracle_lines(self, capsys):
        assert main(["analyze", "--catalog", "E8+Z1", "--stats", "--oracle"]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "form E8+Z1: rank 9, determinant 1, PositiveDefinite, Odd, signature 9\n"
            "characteristic minimum: m = 1, k = 1, minimizer = "
            "(0, 0, 0, 0, 0, 0, 0, 0, -1), minimizers = 2\n"
            "verdict: HasShortCharVector (unit vectors: 2, mod 8: ok)\n"
            "search: 89 nodes, 18 prunes (kernel: python)\n"
            "oracle[brute]: ok\n"
        )
        assert captured.err == ""

    @pytest.mark.parametrize("fid, claim, mode, checks", (
        ("E8+Z1", {"count_minimizers": 3}, "brute",
         {"count": False, "minimizer": True, "norm": True}),
        ("Zn:9", {"norm_m": 1}, "structural",
         {"characteristic": True, "coset": True, "k": False, "norm": False,
          "rank_bound": True}),
    ))
    def test_oracle_mismatch_exit_2(self, capsys, monkeypatch, fid, claim, mode, checks):
        # a search result that the cross-check must refuse
        report_with_stats = cli.charvec_report_with_stats

        def wrong(gram, form_id):
            report, result, stats = report_with_stats(gram, form_id)
            return report, dataclasses.replace(result, **claim), stats

        monkeypatch.setattr(cli, "charvec_report_with_stats", wrong)
        assert main(["analyze", "--catalog", fid, "--oracle"]) == 2
        captured = capsys.readouterr()
        assert captured.out.endswith(f"\noracle[{mode}]: MISMATCH\n")
        assert captured.err == "latgate: oracle cross-check failed\n"
        assert main(["analyze", "--catalog", fid, "--oracle", "--json"]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["oracle"] == {"checks": checks, "mode": mode, "ok": False}
        assert captured.err == "latgate: oracle cross-check failed\n"

    def test_deterministic_output(self, capsys):
        assert main(["analyze", "--catalog", "E8", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", "--catalog", "E8", "--json", "--workers", "3"]) == 0
        assert capsys.readouterr().out == first
        # a conjugate whose characteristic search would give different
        # counters if its top level were split among workers, so --stats
        # shows that --workers is ignored
        g = basis_change(catalog_get("D12plus").gram, random_unimodular(12, random.Random(2)))
        doc = dumps_canonical(gram_to_obj(g))
        assert main(["analyze", doc, "--json", "--stats"]) == 0
        serial = capsys.readouterr().out
        # the radius-1 unit search (98 nodes, 32 prunes) plus the
        # characteristic search of the complement (189 nodes, 16 prunes)
        assert json.loads(serial)["stats"] == {"kernel": "python", "nodes": 287, "prunes": 48}
        assert main(["analyze", doc, "--json", "--stats", "--workers", "4"]) == 0
        assert capsys.readouterr().out == serial


class TestCliDonaldson:
    def test_forbidden_text(self, capsys):
        assert main(["donaldson", "--catalog", "E8", "--negate"]) == 0
        out = capsys.readouterr().out
        assert "verdict: Forbidden" in out
        assert "CP^0" in out

    def test_realizable_json(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"b1": 2, "form": {"rank": 1, "gram": [[-1]]}}')
        assert main(["donaldson", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["format"] == 1
        assert report["verdict"] == "Realizable"
        assert report["k"] == 0
        assert len(report["surgery_certificates"]) == 2
        assert all(c["rank_preserved"] for c in report["surgery_certificates"])

    def test_b1_flag(self, capsys):
        assert main(["donaldson", "--catalog", "E8", "--negate", "--b1", "2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["manifold"]["b1"] == 2
        assert report["virtual_dim"] == 1  # reported after surgery to b1 = 0

    def test_b1_and_negate_as_documents(self, capsys):
        # the flags build the descriptor that a document would spell out
        argv = ["donaldson", "--catalog", "E8", "--negate", "--b1", "2", "--json"]
        assert main(argv) == 0
        flagged = capsys.readouterr().out
        doc = json.dumps({"b1": 2, "form": gram_to_obj(negate(catalog_get("E8").gram))})
        assert main(["donaldson", doc, "--json"]) == 0
        assert capsys.readouterr().out == flagged
        assert main(["donaldson", "--catalog", "E8", "--negate", "--b1", "0"]) == 0
        explicit = capsys.readouterr().out
        assert main(["donaldson", "--catalog", "E8", "--negate"]) == 0
        assert capsys.readouterr().out == explicit

    @pytest.mark.parametrize("flags", (["--b1", "3"], ["--b1", "0"], ["--negate"],
                                       ["--b1", "3", "--negate"]))
    def test_document_refuses_catalog_flags(self, capsys, flags):
        doc = '{"b1": 0, "form": {"rank": 1, "gram": [[-1]]}}'
        assert main(["donaldson", doc, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "latgate: error: --b1 and --negate go with --catalog" in captured.err

    @pytest.mark.parametrize("argv", (
        ["donaldson"],
        ["donaldson", '{"b1": 0, "form": {"rank": 1, "gram": [[-1]]}}', "--catalog", "E8"],
    ))
    def test_needs_exactly_one_input(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "latgate: error: provide exactly one of a manifold document path or --catalog ID\n"
        )

    def test_surgery_text(self, capsys):
        assert main(["donaldson", "--catalog", "Zn:3", "--negate", "--b1", "2"]) == 0
        assert capsys.readouterr().out == (
            "manifold: b1 = 2, b2 = 3, signature = -3, chi = 1\n"
            "step 1 (surgery): 2 step(s) reduce b1 to 0; rank ledgers balance; chi -> 5\n"
            "step 2 (line bundle): c1^2 = -3, k = 0\n"
            "step 3 (moduli dimension): virtual = -1, based = 0\n"
            "verdict: Realizable (minimal characteristic norm equals the rank: "
            "the form is minus the identity)\n"
        )

    def test_verification_failure_exit_2(self, capsys):
        assert main(["donaldson", "--catalog", "D4", "--negate"]) == 2
        assert "verification failure" in capsys.readouterr().err

    def test_not_applicable(self, capsys):
        assert main(["donaldson", "--catalog", "E8"]) == 0
        assert "NotApplicable" in capsys.readouterr().out


class TestCliSelftest:
    def test_passes(self, capsys):
        assert main(["selftest", "--max-rank", "4"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_default_max_rank(self, capsys):
        # every check up to rank 16, oracle rows included
        assert main(["selftest"]) == 0
        assert capsys.readouterr().out.rstrip().endswith("133/133 checks passed")

    def test_gl_check_of_even_conjugate_is_independent(self, monkeypatch):
        # an even conjugate is searched as it stands, so the GL check's own
        # search of it would repeat the checked radius-0 query; the clipped
        # scan checks it instead, and the query runs once
        import latgate.selftest as selftest_mod
        from latgate import charvec, enumeration, run_selftest

        queries = Counter()
        search = enumeration._search

        def recording(query):
            queries[query.form.entries, query.shift, query.radius] += 1
            return search(query)

        checked = []
        unreduced = selftest_mod._unreduced_search_problems

        def capturing(conj, result, units):
            checked.append((conj, result.norm_m))
            return unreduced(conj, result, units)

        for module in (charvec, enumeration):
            monkeypatch.setattr(module, "_search", recording)
        monkeypatch.setattr(selftest_mod, "_unreduced_search_problems", capturing)
        results = run_selftest()
        assert len(results) == 133 and all(r.ok for r in results)
        [e8] = [conj for conj, m in checked if m == 0]
        assert e8.rank == 8 and e8 != catalog_get("E8").gram
        assert queries[e8.entries, (0,) * 8, 0] == 1

    def test_corrupted_golden_detected(self):
        from latgate import run_selftest

        entry = catalog_get("Zn:2")
        bad = CatalogEntry(id="bad", gram=entry.gram, expected={**entry.expected, "m": 5})
        results = run_selftest(entries=[bad], max_rank=4)
        failing = [r for r in results if not r.ok]
        assert len(failing) == 1
        assert failing[0].name == "golden[bad]"

    def test_failure_exit_2(self, capsys, monkeypatch):
        import latgate.selftest as selftest_mod

        monkeypatch.setattr(
            selftest_mod,
            "run_selftest",
            lambda **kwargs: [CheckResult(name="forced", ok=False, detail="boom")],
        )
        assert main(["selftest"]) == 2
        assert "FAIL" in capsys.readouterr().out


class TestCliUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert main(["analyze", "--catalog", "E8", "--frob"]) == 1
        capsys.readouterr()

    def test_parser_reused(self, capsys):
        # main builds its parser once per process; calls that follow each
        # other, failed parses among them, read as with a freshly built one
        argvs = [
            ["analyze", "--catalog", "Zn:3", "--json"],
            ["analyze", "--catalog", "E8", "--frob"],
            ["donaldson", "--catalog", "E8", "--negate", "--b1", "2", "--json"],
            [],
            ["analyze", "--catalog", "Zn:3", "--json", "--stats", "--workers", "2"],
            ["frobnicate"],
            ["analyze", "--catalog", "D12plus"],
            ["donaldson", "--catalog", "Zn:2", "--b1", "x"],
            ["selftest", "--max-rank", "2"],
            ["analyze"],
        ]

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in argvs:
            cli._build_parser.cache_clear()
            fresh.append(run(argv))
        assert [run(argv) for argv in argvs + argvs[::-1]] == fresh + fresh[::-1]
        assert cli._build_parser() is cli._build_parser()
        assert [code for code, _, _ in fresh] == [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


class TestModuleEntry:
    """`python -m latgate` runs `main` and exits with its code."""

    @staticmethod
    def run(*argv):
        # the child imports the package this suite imported
        src = os.path.dirname(os.path.dirname(cli.__file__))
        return subprocess.run(
            [sys.executable, "-m", "latgate", *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )

    def test_selftest(self):
        proc = self.run("selftest", "--max-rank", "4")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "41/41 checks passed"

    def test_usage_error_exit_1(self):
        proc = self.run("analyze", "--catalog", "Zn:25")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "latgate: error: rank 25 exceeds the cap of 24\n"
