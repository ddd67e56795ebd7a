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
from latgate.manifold import ExactSequence, Verdict
from latgate.selftest import CheckResult
from oracle_helpers import det_gauss, dn_basis, dn_plus_basis, gram_from_vectors


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

    def test_dn_grams_match_root_products(self):
        # the D<n> and D<n>plus Gram matrices are written down entry by
        # entry; the products V V^T of their bases in ambient coordinates
        # must give the same matrices
        for n in range(2, 65):
            assert catalog_get(f"D{n}").gram.entries == gram_from_vectors(dn_basis(n)), n
            if n % 4 == 0:
                plus = catalog_get(f"D{n}plus").gram.entries
                assert plus == gram_from_vectors(dn_plus_basis(n)), n

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

    @pytest.mark.parametrize("entry, shown", (("true", "True"), ("1.5", "1.5"), ('"1"', "'1'")))
    def test_off_diagonal_entry_message(self, entry, shown):
        # the first bad entry is named by its row and column, after a valid
        # row and a valid entry of its own row
        with pytest.raises(ParseError) as info:
            load_gram(f'{{"rank": 3, "gram": [[1, 0, 0], [0, 1, {entry}], [0, 0, 1]]}}')
        assert str(info.value) == f"field 'gram' entry (1,2): expected an integer, got {shown}"

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

    @pytest.mark.parametrize("lead", [" ", "\n", " \t\n  "], ids=["space", "newline", "mixed"])
    def test_blank_led_document_is_inline(self, capsys, lead):
        # the document is read inline, not as a path, and named as such
        doc = lead + '{"rank": 2, "gram": [[2, 1], [1, 2]]}'
        assert main(["analyze", doc]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("form inline: rank 2, determinant 3, PositiveDefinite, Even,")
        assert captured.err == ""
        assert main(["analyze", doc, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["form_id"] == "inline"
        assert report["gram"] == {"rank": 2, "gram": [[2, 1], [1, 2]]}

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
        # characteristic search of the reduced form, one block (189 nodes,
        # 16 prunes)
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


def _run_child(argv):
    """main(argv) in a child process under a 1 GB address-space limit and a
    30 s timeout."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from latgate.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )



class TestOverCapCatalogIds:
    """A catalog id whose form would be searched is refused above the rank
    cap from the rank the id gives, before anything is built; every other
    id keeps its answer."""

    @pytest.mark.parametrize("fid, rank", [
        ("Zn:3", 3), ("Z25", 25), ("E8", 8), ("D12plus", 12), ("E8+Z2+D16plus", 26),
        ("D4", None), ("Zn:30+D4", None),
    ])
    def test_rank_read_from_id(self, fid, rank):
        from latgate.catalog import _unimodular_rank

        assert _unimodular_rank(fid) == rank
        if rank is not None:
            assert catalog_get(fid).gram.rank == rank

    @staticmethod
    def refuse_to_build(monkeypatch):
        import latgate.catalog as catalog_mod

        def refuse(family, n):
            raise AssertionError("a catalog form was built")

        monkeypatch.setattr(catalog_mod, "_atom", refuse)

    @pytest.mark.parametrize("argv, rank", [
        (["analyze", "--catalog", "Zn:25"], 25),
        (["analyze", "--catalog", "E8+E8+E8+E8", "--json"], 32),
        (["analyze", "--catalog", "D28plus", "--oracle"], 28),
        (["donaldson", "--catalog", "Zn:100000", "--negate"], 100000),
        (["donaldson", "--catalog", "E8+Z20", "--negate", "--b1", "1000000000"], 28),
    ])
    def test_refused_before_built(self, monkeypatch, capsys, argv, rank):
        self.refuse_to_build(monkeypatch)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"latgate: error: rank {rank} exceeds the cap of 24\n"

    @pytest.mark.parametrize("fid, text", [
        ("Zn:100000+E7", "unrecognized catalog id component 'E7'"),
        ("Zn:100000+D6plus", "'D6plus': the glue vector is integral only when 4 divides n"),
        ("Zn:100000+", "malformed catalog id 'Zn:100000+'"),
    ])
    def test_bad_atom_refused_before_any_is_built(self, monkeypatch, capsys, fid, text):
        self.refuse_to_build(monkeypatch)
        assert main(["analyze", "--catalog", fid]) == 1
        assert capsys.readouterr().err == f"latgate: error: {text}\n"

    @pytest.mark.parametrize("argv, code, text", [
        (["donaldson", "--catalog", "Zn:30"], 0, "verdict: NotApplicable"),
        (["analyze", "--catalog", "Zn:30+D4"], 0, "skipped: determinant 4 is not +-1"),
        (["donaldson", "--catalog", "Zn:30+D4", "--negate"], 2, "verification failure"),
        (["donaldson", "--catalog", "E8+E8+E8+E8", "--negate", "--b1", "-1"], 1,
         "b1 must be a nonnegative integer, got -1"),
    ])
    def test_other_ids_keep_their_answers(self, capsys, argv, code, text):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert text in captured.out + captured.err

    def test_huge_id_in_bounded_memory(self):
        # building Z^100000 would need far more than the address-space limit
        proc = _run_child(["analyze", "--catalog", "Zn:100000"])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "latgate: error: rank 100000 exceeds the cap of 24\n"


class TestCatalogRankLimit:
    """An id of rank above 256, D<n> atoms included, is refused from the
    grammar alone; ids of rank 256 or less keep their answers, and an id
    that would be searched keeps the search cap's message."""

    @pytest.mark.parametrize("argv, fid, rank", [
        (["analyze", "--catalog", "Zn:400+D4"], "Zn:400+D4", 404),
        (["donaldson", "--catalog", "Zn:400"], "Zn:400", 400),
        (["donaldson", "--catalog", "Zn:128+D130"], "Zn:128+D130", 258),
        (["donaldson", "--catalog", "E8+Z249", "--b1", "3"], "E8+Z249", 257),
    ])
    def test_refused_before_built(self, monkeypatch, capsys, argv, fid, rank):
        TestOverCapCatalogIds.refuse_to_build(monkeypatch)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"latgate: error: catalog id {fid!r} has rank {rank}, "
                                "above the limit of 256\n")

    def test_limit_counts_every_atom(self):
        from latgate.catalog import _parse_id

        assert sum(n for _, n in _parse_id("Zn:200+E8+D48")) == 256
        with pytest.raises(InvalidParameterError, match="rank 257, above the limit of 256"):
            _parse_id("Zn:200+E8+D49")
        with pytest.raises(InvalidParameterError, match="rank 257"):
            catalog_get("D257")

    def test_rank_256_keeps_its_answer(self, capsys):
        assert main(["donaldson", "--catalog", "Zn:256"]) == 0
        assert "verdict: NotApplicable" in capsys.readouterr().out

    def test_searched_id_keeps_the_cap_message(self, capsys):
        assert main(["analyze", "--catalog", "Zn:400"]) == 1
        assert capsys.readouterr().err == "latgate: error: rank 400 exceeds the cap of 24\n"


class TestB1Cap:
    """donaldson refuses b1 above 10,000 before any surgery step runs, for
    a manifold document and for --catalog ID --b1 N alike."""

    @staticmethod
    def refuse_to_surger(monkeypatch):
        import latgate.manifold as manifold_mod

        def refuse(m):
            raise AssertionError("a surgery step ran")

        monkeypatch.setattr(manifold_mod, "surgery_reduce_b1", refuse)

    @pytest.mark.parametrize("argv, b1", [
        (["donaldson", json.dumps({"b1": 10_001, "form": {"rank": 1, "gram": [[-1]]}})],
         10_001),
        (["donaldson", json.dumps({"b1": 10**9, "form": {"rank": 1, "gram": [[-1]]}}),
          "--json"], 10**9),
        (["donaldson", "--catalog", "E8", "--negate", "--b1", "10001"], 10_001),
        (["donaldson", "--catalog", "Zn:2", "--b1", "1000000000", "--json"], 10**9),
    ])
    def test_refused_before_surgery(self, monkeypatch, capsys, argv, b1):
        self.refuse_to_surger(monkeypatch)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"latgate: error: b1 {b1} exceeds the cap of 10000\n"

    def test_cap_itself_is_admitted(self, capsys):
        doc = json.dumps({"b1": 10_000, "form": {"rank": 1, "gram": [[-1]]}})
        assert main(["donaldson", doc]) == 0
        out = capsys.readouterr().out
        assert "step 1 (surgery): 10000 step(s) reduce b1 to 0" in out
        assert "verdict: Realizable" in out

    def test_huge_b1_in_bounded_memory(self):
        # 10^9 surgery certificates would need far more than the limit
        doc = json.dumps({"b1": 10**9, "form": {"rank": 1, "gram": [[-1]]}})
        proc = _run_child(["donaldson", doc, "--json"])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "latgate: error: b1 1000000000 exceeds the cap of 10000\n"


_ZN2 = catalog_get("Zn:2")


def _expect(**expected):
    """Zn:2 with corrupted goldens."""
    return lambda monkeypatch: CatalogEntry(id="Zn:2", gram=_ZN2.gram,
                                            expected={**_ZN2.expected, **expected})


def _patch(name, make):
    """Zn:2, with selftest's `name` replaced by make(original).  The GL check
    conjugates the catalog form into a new object, so `g is _ZN2.gram` tells
    the form from its conjugate."""
    def fault(monkeypatch):
        import latgate.selftest as selftest_mod

        monkeypatch.setattr(selftest_mod, name, make(getattr(selftest_mod, name)))
        return _ZN2
    return fault


def _catalog_form_verdict(change):
    """elkies_verdict with `change` applied to the verdict on the catalog form
    (not on its conjugate)."""
    return _patch("elkies_verdict",
                  lambda verdict: lambda g: change(verdict(g)) if g is _ZN2.gram else verdict(g))


def _catalog_form_result(**changes):
    return _catalog_form_verdict(
        lambda v: dataclasses.replace(v, result=dataclasses.replace(v.result, **changes)))


def _searched(change, unit_ball):
    """enumerate_coset with `change` applied to the vectors and norms of the
    radius-1 ball about 0 (unit_ball) or of every other query."""
    def make(search):
        def changed(query):
            res = search(query)
            if (query.radius == 1 and not any(query.shift)) is not unit_ball:
                return res
            return dataclasses.replace(res, vectors=change(res.vectors), norms=change(res.norms))
        return changed
    return _patch("enumerate_coset", make)


def _reported(change):
    return _patch("donaldson_verdict", lambda verdict: lambda d: change(verdict(d)))


def _unbalanced(report):
    bad = (ExactSequence("bad", (("H", 1),)),)
    return dataclasses.replace(report, surgery_certificates=tuple(
        dataclasses.replace(c, sequences=bad) for c in report.surgery_certificates))


# one injected fault per self-test check on Zn:2 (m = 2, k = 0, 4 unit
# vectors, 4 minimizers): the row it fails and that row's whole detail
_SELFTEST_FAULTS = [
    (_expect(det=2), "golden[Zn:2]", "det 1 != 2"),
    (_expect(parity="Even"), "golden[Zn:2]", "parity Odd != Even"),
    (_expect(k=1), "golden[Zn:2]", "k 0 != 1"),
    (_catalog_form_verdict(lambda v: dataclasses.replace(v, identity=False)),
     "golden[Zn:2]", "dichotomy verdict disagrees with m == n"),
    (_patch("count_unit_vectors", lambda count: lambda g: 2),
     "golden[Zn:2]", "unit count 2 disagrees with verdict"),
    (_patch("brute_force_coset", lambda scan: lambda q, box: dataclasses.replace(
        scan(q, box), vectors=(), norms=())), "oracle[Zn:2#0]", "fast 7 vs brute 0 vectors"),
    (_patch("signature_mod8_check", lambda check: lambda g: False),
     "mod8[Zn:2#0]", "residue mismatch"),
    (_patch("determinant", lambda det: lambda g: det(g) + (g is not _ZN2.gram)),
     "gl[Zn:2]", "determinant moved"),
    (_catalog_form_result(norm_m=3), "gl[Zn:2]", "m moved 3 -> 2"),
    (_catalog_form_result(count_minimizers=5), "gl[Zn:2]", "minimizer count moved"),
    (_patch("count_unit_vectors", lambda count: lambda g: count(g) + (g is not _ZN2.gram)),
     "gl[Zn:2]", "unit count moved"),
    (_searched(lambda xs: xs[1:], unit_ball=False),
     "gl[Zn:2]", "unreduced minimizer count differs"),
    (_searched(lambda xs: xs[::-1], unit_ball=False),
     "gl[Zn:2]", "unreduced lex-least minimizer differs"),
    (_searched(lambda xs: xs[1:], unit_ball=True), "gl[Zn:2]", "unreduced unit count differs"),
    (_reported(lambda r: dataclasses.replace(r, verdict=Verdict.FORBIDDEN)),
     "pipeline[Zn:2,b1=0]", "verdict Forbidden != Realizable"),
    (_reported(lambda r: dataclasses.replace(r, k=1)), "pipeline[Zn:2,b1=0]", "k 1 != 0"),
    (_reported(lambda r: dataclasses.replace(r, virtual_dim=1, based_dim=2)),
     "pipeline[Zn:2,b1=0]", "virtual dim 1 != -1"),
    (_reported(lambda r: dataclasses.replace(r, based_dim=1)),
     "pipeline[Zn:2,b1=0]", "based dim is not virtual dim + 1"),
    (_patch("virtual_dimension", lambda dim: lambda d, bundle: dim(d, bundle) + 1),
     "pipeline[Zn:2,b1=2]", "unreduced virtual dim 2 != 1"),
    (_reported(lambda r: dataclasses.replace(r, surgery_certificates=())),
     "pipeline[Zn:2,b1=2]", "0 certificates for b1=2"),
    (_reported(_unbalanced), "pipeline[Zn:2,b1=2]", "a surgery ledger does not balance"),
    (_patch("sw_boundary_number",
            lambda number: lambda k: dataclasses.replace(number(k), value=0)),
     "boundary[k=1..6]", "mod-2 number is not 1"),
    (_patch("weitzenbock_bound", lambda bound: lambda s, p: bound(s, p) + 1),
     "weitzenbock[frozen]", "bound mismatch"),
]


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
        # an even conjugate is answered without a search, and the GL check
        # does not search it either: the clipped scan is its only check, so
        # its radius-0 query never runs; its radius-1 unit query does
        import latgate.selftest as selftest_mod
        from latgate import charvec, enumeration, run_selftest
        from latgate.core import _reversed_pivots

        queries = Counter()
        search = enumeration._search

        def recording(rows, T, D, radius):
            queries[tuple(map(tuple, rows)), tuple(T), radius] += 1
            return search(rows, T, D, radius)

        checked = []
        unreduced = selftest_mod._unreduced_search_problems

        def capturing(conj, result, units):
            checked.append((conj, result.norm_m))
            return unreduced(conj, result, units)

        scanned = []
        scan = selftest_mod.brute_force_coset

        def scanning(query, box):
            scanned.append(query.form.entries)
            return scan(query, box)

        for module in (charvec, enumeration):
            monkeypatch.setattr(module, "_search", recording)
        monkeypatch.setattr(selftest_mod, "_unreduced_search_problems", capturing)
        monkeypatch.setattr(selftest_mod, "brute_force_coset", scanning)
        results = run_selftest()
        assert len(results) == 133 and all(r.ok for r in results)
        [e8] = [conj for conj, m in checked if m == 0]
        assert e8.rank == 8 and e8 != catalog_get("E8").gram
        e8_rows = tuple(map(tuple, _reversed_pivots(e8)))
        assert queries[e8_rows, (0,) * 8, 0] == 0
        assert queries[e8_rows, (0,) * 8, 1] == 1
        assert scanned.count(e8.entries) == 1

    def test_faulty_even_shortcut_fails_gl_check(self, monkeypatch):
        # an even form is answered without a search; a shortcut that claimed
        # two minimizers would agree with itself on E8 and its conjugate, and
        # the clipped scan of the conjugate is what catches it
        from latgate import Parity, charvec, parity, run_selftest

        real = charvec.min_char_vector_with_stats

        def two_minimizers(g):
            result, stats = real(g)
            if parity(g) is Parity.EVEN:
                result = dataclasses.replace(result, count_minimizers=2)
            return result, stats

        monkeypatch.setattr(charvec, "min_char_vector_with_stats", two_minimizers)
        failing = [(r.name, r.detail) for r in run_selftest() if not r.ok]
        assert failing == [("gl[E8]", "unreduced minimizer count differs")]

    def test_corrupted_golden_detected(self):
        from latgate import run_selftest

        entry = catalog_get("Zn:2")
        bad = CatalogEntry(id="bad", gram=entry.gram, expected={**entry.expected, "m": 5})
        results = run_selftest(entries=[bad], max_rank=4)
        failing = [r for r in results if not r.ok]
        assert len(failing) == 1
        assert failing[0].name == "golden[bad]"

    @pytest.mark.parametrize("fault, row, detail", _SELFTEST_FAULTS)
    def test_each_check_reports_its_fault(self, monkeypatch, fault, row, detail):
        from latgate import run_selftest

        entry = fault(monkeypatch)
        results = {r.name: r for r in run_selftest(entries=[entry], max_rank=2)}
        assert (results[row].ok, results[row].detail) == (False, detail)

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
