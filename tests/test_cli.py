import json
from importlib import resources
from pathlib import Path

import pytest

from adjoint_oracle import rounded_global_product, sympy_global_poly
from mahlerlat.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USER_ERROR,
    SCHEMA_VERSION,
    bundled_corpus,
    load_corpus,
    main,
    parse_poly,
)
from mahlerlat.fields import classify_Psr, field_summary
from mahlerlat.intpoly import LEHMER, IntPoly
from mahlerlat.mahler import smyth_threshold

LEHMER_ARG = "1 1 0 -1 -1 -1 -1 -1 0 1 1"
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestParsing:
    def test_parse_poly(self):
        assert parse_poly(LEHMER_ARG) == LEHMER

    def test_reject_garbage(self):
        with pytest.raises(SystemExit):
            parse_poly("1 x 3")

    def test_reject_zero(self):
        with pytest.raises(SystemExit):
            parse_poly("0 0")

    def test_load_corpus(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# a comment line\n1 1 1  # phi3\n\n-1 -1 1\n")
        entries = load_corpus(str(path))
        assert len(entries) == 2
        assert entries[0].poly == IntPoly.of(1, 1, 1)
        assert entries[0].label == "phi3"
        assert entries[1].label is None

    def test_bundled_corpus_nonempty(self):
        entries = bundled_corpus()
        assert len(entries) >= 10
        assert any(e.poly == LEHMER for e in entries)


class TestCommands:
    def test_mahler(self, capsys):
        code, doc = run(capsys, "mahler", LEHMER_ARG)
        assert code == EXIT_OK
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["value"] == pytest.approx(1.17628081826, abs=1e-9)
        assert doc["kronecker"] is False

    def test_mahler_kronecker(self, capsys):
        _, doc = run(capsys, "mahler", "1 1 1")
        assert doc["kronecker"] is True
        assert doc["value"] == 1.0

    def test_classify(self, capsys):
        code, doc = run(capsys, "classify", LEHMER_ARG)
        assert code == EXIT_OK
        assert (doc["s"], doc["r"], doc["on_circle"]) == (1, 1, 8)
        assert doc["member"] is True
        assert doc["salem_kind"] == "salem"
        assert len(doc["roots"]) == 10

    @pytest.mark.parametrize("constant, reason", [("1", "degree not even >= 2"),
                                                   ("3", "not monic")])
    def test_classify_constant(self, capsys, constant, reason):
        code, doc = run(capsys, "classify", constant)
        assert code == EXIT_OK
        assert (doc["degree"], doc["roots"], doc["member_reason"]) == (0, [], reason)
        assert "salem_kind" not in doc

    def test_trace_poly(self, capsys):
        _, doc = run(capsys, "trace-poly", LEHMER_ARG)
        assert parse_poly(doc["trace_poly"]) == LEHMER.trace_polynomial()
        assert doc["signature_K"] == [5, 0]
        assert doc["d"] == 5
        assert len(doc["embeddings"]) == 5
        assert len(doc["multiplication_matrix"]) == 10

    def test_search(self, capsys):
        code, doc = run(
            capsys, "search", "--deg", "4", "--height", "1", "--palindromic"
        )
        assert code == EXIT_OK
        assert doc["complete"] is True
        assert doc["minima"][0]["value"] == pytest.approx(1.7220838, abs=1e-6)

    def test_search_top_zero(self, capsys):
        code, doc = run(capsys, "search", "--deg", "4", "--height", "1", "--top", "0")
        assert code == EXIT_OK
        assert doc["minima"] == []

    def test_search_negative_top_rejected(self, capsys):
        assert main(["search", "--deg", "4", "--height", "1", "--top", "-1"]) == EXIT_USER_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --top must be >= 0\n"

    @pytest.mark.parametrize("deg, height", [("-1", "1"), ("3", "-1")])
    def test_search_negative_box_rejected(self, capsys, deg, height):
        assert main(["search", "--deg", deg, "--height", height]) == EXIT_USER_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: search box sizes must be >= 0\n"

    def test_search_empty_box(self, capsys):
        code, doc = run(capsys, "search", "--deg", "0", "--height", "0")
        assert code == EXIT_OK
        assert doc["complete"] is True and doc["minima"] == []

    def test_search_emit_plot(self, capsys, tmp_path):
        plot = tmp_path / "plot.tsv"
        run(
            capsys,
            "search", "--deg", "4", "--height", "1", "--palindromic",
            "--emit-plot", str(plot),
        )
        lines = plot.read_text().strip().splitlines()
        assert lines
        for line in lines:
            degree, value = line.split("\t")
            assert int(degree) >= 1 and float(value) > 1

    def test_beta_n(self, capsys):
        _, doc = run(capsys, "beta-n", "--n", "4", "--height", "1")
        assert doc["salem_value"] == pytest.approx(1.7220838, abs=1e-6)
        assert doc["log_value"] == pytest.approx(0.5435, abs=1e-3)

    def test_beta_n_negative_height_rejected(self, capsys):
        assert main(["beta-n", "--n", "4", "--height", "-1"]) == EXIT_USER_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: search box sizes must be >= 0\n"

    def test_construct(self, capsys):
        code, doc = run(capsys, "construct", LEHMER_ARG, "--m", "3")
        assert code == EXIT_OK
        assert doc["t"] == 0
        assert doc["dirichlet_c"] == 1
        assert doc["power"] == 2
        assert doc["eta"] == [1, 6]
        assert doc["mahler_hypothesis_met"] is True
        assert doc["cocompact"] is True
        assert all(e["argument_in_window"] for e in doc["eigenvalues"])

    def test_scan_bundled_corpus(self, capsys, corpus):
        path = resources.files("mahlerlat.data") / "corpus.txt"
        code, doc = run(capsys, "scan", str(path), "--m-range", "1..2", "--n", "2")
        assert code == EXIT_OK
        members = {}
        for entry in corpus:
            cls = classify_Psr(entry.poly)
            if cls.member:
                members[str(entry.poly)] = [cls.s, cls.r]
        skipped = {item["poly"]: item["reason"] for item in doc["skipped"]}
        assert skipped == {
            "-1 -1 0 1": "not palindromic",
            "-1 -1 1": "not palindromic",
            "1 0 1 0 1": "reducible",
        }
        assert len(members) + len(skipped) == len(corpus)
        assert len(doc["entries"]) == 2 * len(members)
        classes = [e["class"] for e in doc["entries"]]
        assert classes == sorted(classes)
        assert len({tuple(c) for c in classes}) == 3
        for e in doc["entries"]:
            assert e["class"] == members[e["poly"]]

    def test_scan(self, capsys, tmp_path):
        corpus = tmp_path / "salems.txt"
        corpus.write_text("1 1 0 -1 -1 -1 -1 -1 0 1 1 # lehmer\n1 -1 -1 -1 1 # quartic\n")
        code, doc = run(capsys, "scan", str(corpus), "--m-range", "1..2")
        assert code == EXIT_OK
        assert doc["m_values"] == [1, 2]
        assert len(doc["entries"]) == 4
        assert all(e["argument_window_ok"] for e in doc["entries"])

    @pytest.mark.parametrize("m_range", ["3..1", "5", "0..2", "1..2..3", "a..b"])
    def test_scan_invalid_m_range(self, capsys, m_range):
        path = resources.files("mahlerlat.data") / "corpus.txt"
        assert main(["scan", str(path), "--m-range", m_range]) == EXIT_USER_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --m-range must be A..B with 1 <= A <= B\n"

    def test_bounds_constant(self, capsys):
        code, doc = run(capsys, "bounds", "1")
        assert code == EXIT_OK
        assert (doc["degree"], doc["kronecker"], doc["irreducibility"]) == (0, True, None)

    def test_bounds(self, capsys):
        _, doc = run(capsys, "bounds", LEHMER_ARG)
        assert doc["degree"] == 10
        assert doc["mahler"] == pytest.approx(1.17628081826, abs=1e-8)
        assert doc["voutier"] > doc["dobrowolski"] > 1
        assert doc["smyth_threshold"] == pytest.approx(1.3247179572, abs=1e-8)
        assert doc["totally_real"] is False

    def test_adjoint(self, capsys):
        code, doc = run(capsys, "adjoint", LEHMER_ARG, "--n", "2")
        assert code == EXIT_OK
        assert doc["s_global"] == 1
        assert doc["s_bound"] == 3
        assert doc["torsion"] is False
        oracle, err = rounded_global_product(field_summary(LEHMER), 2)
        assert err < 1e-6
        assert parse_poly(doc["global_poly"]) == oracle

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_adjoint_every_member(self, capsys, corpus_members, n):
        # exact at every n; the float oracle agrees wherever it rounds cleanly
        oracle_checked = 0
        for entry in corpus_members:
            code, doc = run(capsys, "adjoint", str(entry.poly), "--n", str(n))
            assert code == EXIT_OK
            global_poly = parse_poly(doc["global_poly"])
            assert global_poly.coeffs == sympy_global_poly(entry.poly.coeffs, n)
            summary = field_summary(entry.poly)
            assert doc["s_global"] == (2 * n - 3) * summary.s
            oracle, err = rounded_global_product(summary, n)
            if err < 1e-6:
                assert global_poly == oracle
                oracle_checked += 1
        assert oracle_checked > 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", LEHMER_ARG],
            ["trace-poly", LEHMER_ARG],
            ["adjoint", LEHMER_ARG],
            ["bounds", LEHMER_ARG],
        ],
    )
    def test_one_root_refinement(self, capsys, count_calls, refine_calls, argv):
        # classify passes its one profile to certify, which then polishes nothing
        outside_calls = count_calls("roots.refine_outside_roots")
        smyth_threshold()  # cached after its first call
        refine_calls.clear()
        code, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert refine_calls == [LEHMER]
        assert outside_calls == []


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        main(["classify", LEHMER_ARG])
        first = capsys.readouterr().out
        main(["classify", LEHMER_ARG])
        second = capsys.readouterr().out
        assert first == second


class TestGolden:
    """Reports on Lehmer's polynomial, byte for byte as recorded."""

    COMMANDS = {
        "mahler": ["mahler", LEHMER_ARG],
        "classify": ["classify", LEHMER_ARG],
        "trace-poly": ["trace-poly", LEHMER_ARG],
        "construct": ["construct", LEHMER_ARG, "--m", "3"],
        "bounds": ["bounds", LEHMER_ARG],
        "beta-n": ["beta-n", "--n", "4", "--height", "1"],
        "adjoint": ["adjoint", LEHMER_ARG, "--n", "2"],
    }

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_byte_identical(self, capsys, name):
        assert main(self.COMMANDS[name]) == EXIT_OK
        assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()

    SEARCHES = {
        "search": ["--top", "20"],
        "search-s1-r1": ["--s", "1", "--r", "1", "--top", "20"],
    }

    @pytest.mark.parametrize("name", sorted(SEARCHES))
    def test_search_byte_identical(self, capsys, name):
        """Box searches, byte for byte without their wall time."""
        argv = ["search", "--deg", "10", "--height", "1", "--palindromic"]
        assert main(argv + self.SEARCHES[name]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        del doc["elapsed"]
        assert json.dumps(doc, indent=2) + "\n" == (GOLDEN / f"{name}.json").read_text()


class TestErrors:
    def test_user_error_exit_code(self, capsys):
        # trace-poly on a non-member raises ValueError -> exit 1
        code = main(["trace-poly", "-1 -1 0 1"])
        assert code == EXIT_USER_ERROR
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["1", "0"])
    def test_adjoint_size_below_two(self, capsys, n):
        code = main(["adjoint", "1 -1 -1 -1 1", "--n", n])
        assert code == EXIT_USER_ERROR
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["mahler", "classify", "bounds"])
    def test_certification_failure_exit(self, capsys, command):
        # x^14 - 2(20x - 1)^2: two roots near 1/20 closer than polishing separates
        mignotte = "-2 80 -800" + " 0" * 11 + " 1"
        assert main([command, mignotte]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "certification"
        assert mignotte in error["message"]
        assert len(error["achieved_radii"]) == 14
        # radii below the smallest float are clamped to it, never read as 0.0
        assert all(radius > 0 for radius in error["achieved_radii"])

    def test_invalid_poly_exits(self):
        with pytest.raises(SystemExit):
            main(["mahler", "not-a-poly"])

    def test_search_filter_requires_both(self):
        with pytest.raises(SystemExit):
            main(["search", "--deg", "2", "--height", "1", "--s", "1"])
