import json
import os

import pytest

from dedekindsym import eichler
from dedekindsym.cli import main
from dedekindsym.series import COMPLEX, TruncSeries


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSymbol:
    def test_length_one_rows(self, capsys):
        code, out = run(capsys, "symbol", "--forms", "A=E4", "--pq", "3,5", "--length", "1")
        assert code == 0
        doc = json.loads(out)
        assert [r["word"] for r in doc["rows"]] == ["A"]

    def test_two_letter_words(self, capsys):
        code, out = run(capsys, "symbol", "--forms", "A=E4,B=E6", "--pq", "3,5", "--length", "2")
        assert code == 0
        doc = json.loads(out)
        assert [r["word"] for r in doc["rows"]] == ["A", "B", "AA", "AB", "BA", "BB"]

    def test_malformed_pq(self, capsys):
        code, _ = run(capsys, "symbol", "--forms", "A=E4", "--pq", "3;5")
        assert code == 2

    def test_unknown_form(self, capsys):
        code, _ = run(capsys, "symbol", "--forms", "A=E5", "--pq", "3,5")
        assert code == 2

    def test_repeated_letter(self, capsys):
        code, out = run(capsys, "symbol", "--forms", "A=E4,A=E6", "--pq", "3,5")
        assert code == 2 and not out

    @pytest.mark.parametrize("forms,name", [("A=E4,AA=E6", "AA"), ("X1=E4", "X1")])
    def test_letter_name_of_more_than_one_character_exits_2(self, capsys, forms, name):
        code = main(["symbol", "--forms", forms, "--pq=3,2", "--length", "1"])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert f"letter name {name!r}" in captured.err

    def test_which_E(self, capsys):
        code, out = run(capsys, "symbol", "--forms", "A=E4", "--pq", "3,5", "--which", "E")
        assert code == 0
        doc = json.loads(out)
        row = [r for r in doc["rows"] if r["word"] == "A"][0]
        assert abs(row["re"] - (1 / 240) / 15) < 1e-15

    @pytest.mark.parametrize("pq", ["-2,51", "1,100", "1,1000"])
    def test_not_grouplike_exits_3(self, capsys, monkeypatch, pq):
        # a D off group-like by 1e-3 at (B, B): the command refuses to print it
        build_D = eichler.build_D

        def perturbed(h, p, q, cfg):
            return build_D(h, p, q, cfg) + TruncSeries(h.alphabet, cfg.trunc, {(1, 1): 1e-3}, COMPLEX)

        monkeypatch.setattr(eichler, "build_D", perturbed)
        code = main(["symbol", "--forms", "A=E4,B=E6", f"--pq={pq}", "--length", "2"])
        out, err = capsys.readouterr()
        assert code == 3 and not out and "not group-like" in err

    @pytest.mark.parametrize("argv", [["--forms", "A=E4,B=E6", "--pq=-2,51", "--length", "2"],
                                      ["--forms", "A=E4,B=E6", "--pq=1,100", "--length", "2"],
                                      ["--forms", "A=E4,B=E6", "--pq=1,1000", "--length", "2"],
                                      ["--forms", "A=Delta", "--pq=1,7", "--length", "3"]])
    def test_wide_pairs_exit_0(self, capsys, argv):
        code, out = run(capsys, "symbol", *argv)
        assert code == 0 and json.loads(out)["rows"]

    @pytest.mark.parametrize("which", ["D", "F", "E"])
    def test_negative_length_exits_2(self, capsys, which):
        code = main(["symbol", "--forms", "A=E4", "--pq", "3,5", "--length", "-1", "--which", which])
        out, err = capsys.readouterr()
        assert code == 2 and not out and "--length must be at least 0, got -1" in err

    def test_csv_format(self, capsys):
        code, out = run(capsys, "symbol", "--forms", "A=E4", "--pq", "3,5",
                        "--length", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "word,p,q,re,im"
        assert len(lines) == 2


class TestVerify:
    def test_bijection_passes(self, capsys):
        code, out = run(capsys, "verify", "--suite", "bijection", "--samples", "5", "--seed", "42")
        assert code == 0
        doc = json.loads(out)
        assert all(r["pass"] for r in doc["rows"])

    def test_determinism(self, capsys):
        _, out1 = run(capsys, "verify", "--suite", "axioms", "--samples", "8", "--seed", "7")
        _, out2 = run(capsys, "verify", "--suite", "axioms", "--samples", "8", "--seed", "7")
        assert out1 == out2

    def test_corrupted_fixture_fails(self, capsys):
        code, out = run(capsys, "verify", "--suite", "shuffle", "--samples", "3",
                        "--seed", "1", "--corrupt")
        assert code == 1
        doc = json.loads(out)
        assert not all(r["pass"] for r in doc["rows"])

    @pytest.mark.parametrize("suite", ["bijection", "axioms", "reciprocity-law", "eichler"])
    def test_corrupt_outside_shuffle_exits_2(self, capsys, suite):
        # only the shuffle suite has a corrupted fixture: elsewhere the
        # negative control would pass, so the flag is refused and named
        code = main(["verify", "--suite", suite, "--samples", "1", "--corrupt"])
        out, err = capsys.readouterr()
        assert code == 2 and not out and "--corrupt" in err

    @pytest.mark.parametrize("suite, samples", [("bijection", "0"), ("axioms", "0"),
                                                ("axioms", "3000")])
    def test_sample_count_out_of_range_exits_2(self, capsys, suite, samples):
        code, out = run(capsys, "verify", "--suite", suite, "--samples", samples)
        assert code == 2 and not out

    def test_reciprocity_small(self, capsys):
        code, out = run(capsys, "verify", "--suite", "reciprocity-law",
                        "--weights", "4", "--pmax", "5")
        assert code == 0

    @pytest.mark.parametrize("pmax", ["1", "0", "-3"])
    def test_reciprocity_pmax_below_2_exits_2(self, capsys, pmax):
        # the law is checked at p = 2..pmax: below 2 there is nothing to check
        code = main(["verify", "--suite", "reciprocity-law", "--pmax", pmax])
        out, err = capsys.readouterr()
        assert code == 2 and not out and f"--pmax must be at least 2, got {pmax}" in err


class TestDecompose:
    def test_reports_residual_and_factor_axioms(self, capsys):
        code, out = run(capsys, "decompose", "--forms", "A=E4,B=E6",
                        "--depth", "2", "--pq-samples", "3", "--seed", "5")
        assert code == 0
        doc = json.loads(out)
        checks = {r["check"] for r in doc["rows"]}
        assert "reconstruction-residual" in checks
        assert "factor-mds[AB]" in checks
        assert all(r["pass"] for r in doc["rows"])

    @pytest.mark.parametrize("samples", ["0", "200"])
    def test_pq_sample_count_out_of_range_exits_2(self, capsys, samples):
        # |p|, |q| <= 6 holds 92 distinct coprime pairs
        code, out = run(capsys, "decompose", "--forms", "A=E4", "--depth", "1",
                        "--pq-samples", samples)
        assert code == 2 and not out

    def test_delta_input_is_shuffled_relative_to_term_size(self, capsys):
        # the peeled target at (-5, 3) for A=E4, B=Delta has a BB term near
        # 1.8e9; its absolute shuffle gap 3.5e-6 is 5e-16 of the term size
        code, out = run(capsys, "decompose", "--forms", "A=E4,B=Delta", "--depth", "2",
                        "--seed", "465123", "--tol", "1e-8")
        assert code == 0
        assert all(r["pass"] for r in json.loads(out)["rows"])


class TestGamma02:
    def test_delta_value(self, capsys):
        from dedekindsym import modforms as mf

        code, out = run(capsys, "gamma02", "--weight", "4", "--pq", "2,1")
        assert code == 0
        doc = json.loads(out)
        delta_row = [r for r in doc["rows"] if r["name"] == "delta"][0]
        assert abs(delta_row["re"] - 2 * mf.zeta(3)) < 1e-10

    @pytest.mark.parametrize("weight", ["0", "2", "3", "5"])
    def test_weight_without_a_form_exits_2(self, capsys, weight):
        code = main(["gamma02", "--weight", weight, "--pq", "3,2"])
        out, err = capsys.readouterr()
        assert code == 2 and not out and "weight must be an even integer >= 4" in err


class TestTable:
    def test_row_count_and_order(self, capsys):
        from math import gcd

        code, out = run(capsys, "table", "--forms", "A=E4", "--pmax", "6")
        assert code == 0
        doc = json.loads(out)
        want = [(p, q) for p in range(1, 7) for q in range(1, p + 1) if gcd(p, q) == 1]
        assert [(r["p"], r["q"]) for r in doc["rows"]] == want

    def test_wide_pairs_exit_zero(self, capsys):
        # pmax 60 reaches the height 1/46 that a fixed Fourier cap of 400
        # could not
        code, out = run(capsys, "table", "--forms", "A=E4", "--pmax", "60")
        assert code == 0 and len(json.loads(out)["rows"]) == 1102

    @pytest.mark.parametrize("pmax", ["0", "-3"])
    def test_pmax_below_1_exits_2(self, capsys, pmax):
        code = main(["table", "--forms", "A=E4", "--pmax", pmax])
        out, err = capsys.readouterr()
        assert code == 2 and not out and f"--pmax must be at least 1, got {pmax}" in err

    def test_deterministic_bytes(self, capsys):
        _, out1 = run(capsys, "table", "--forms", "A=E4", "--pmax", "5")
        _, out2 = run(capsys, "table", "--forms", "A=E4", "--pmax", "5")
        assert out1 == out2


class TestCfrac:
    def test_canonical_output(self, capsys):
        code, out = run(capsys, "cfrac", "--pq", "3,5")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["entries"] == [2, 3]
        assert doc["rows"][0]["tails"] == [[3, 5], [1, 3]]

    def test_csv_refused(self, capsys):
        # a row holds lists, which a CSV cell cannot: cfrac writes JSON only
        code = main(["cfrac", "--pq", "5,3", "--format", "csv"])
        out, err = capsys.readouterr()
        assert code == 2 and not out and "unrecognized arguments: --format csv" in err


class TestEichlerSuite:
    def test_passes(self, capsys):
        # E4/E6 and E4/Delta at length 2 and Delta at length 3, up to (1, 100)
        code, out = run(capsys, "verify", "--suite", "eichler", "--tol", "1e-12")
        assert code == 0
        doc = json.loads(out)
        assert all(r["pass"] for r in doc["rows"])


class TestArguments:
    @pytest.mark.parametrize("argv", [["symbol", "--forms", "A=E4", "--pq=1,2"],
                                      ["verify", "--suite", "bijection", "--samples", "1"],
                                      ["decompose", "--forms", "A=E4", "--depth", "2"]])
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf"])
    def test_bad_tol_exits_2(self, capsys, argv, tol):
        # a negative --tol passes nothing and blames the input, nan passes
        # everything; both are refused before any work
        code = main([*argv, f"--tol={tol}"])
        out, err = capsys.readouterr()
        assert code == 2 and not out and "--tol must be finite and at least 0" in err

    @pytest.mark.parametrize("argv", [["table", "--forms", "A=E4", "--pmax", "2"],
                                      ["gamma02", "--weight", "4", "--pq", "2,1"],
                                      ["cfrac", "--pq", "3,5"]])
    @pytest.mark.parametrize("tol", ["1", "-5"])
    def test_tol_refused_where_unread(self, capsys, argv, tol):
        # table, gamma02 and cfrac compare nothing against a tolerance, so
        # they have no --tol flag to ignore or to blame
        code = main([*argv, "--tol", tol])
        out, err = capsys.readouterr()
        assert code == 2 and not out and "unrecognized arguments: --tol" in err
        assert main(argv) == 0

    @pytest.mark.parametrize("argv, pq", [(["symbol", "--forms", "A=E4"], "2,4"),
                                          (["symbol", "--forms", "A=E4"], "1,0"),
                                          (["gamma02", "--weight", "4"], "2,4"),
                                          (["gamma02", "--weight", "4"], "1,0"),
                                          (["cfrac"], "2,4"),
                                          (["cfrac"], "0,1")])
    def test_bad_pair_exits_2_and_is_named(self, capsys, argv, pq):
        # symbol and gamma02 need pq != 0; cfrac needs p != 0, and reads
        # (1, 0) as the continued fraction <0>
        code = main([*argv, f"--pq={pq}"])
        out, err = capsys.readouterr()
        assert code == 2 and not out and f"({pq.replace(',', ', ')})" in err

    @pytest.mark.parametrize("argv", [["symbol", "--pq=3,2"], ["decompose"], ["table"]])
    def test_level_two_name_exits_2(self, capsys, argv):
        # --forms splits on ",", so the level-two name E6,2 leaves the
        # fragment "2", which is no assignment
        code = main([*argv, "--forms", "A=E6,2"])
        out, err = capsys.readouterr()
        assert code == 2 and not out and "malformed form assignment '2'" in err

    def test_cfrac_of_zero(self, capsys):
        code, out = run(capsys, "cfrac", "--pq=1,0")
        assert code == 0 and json.loads(out)["rows"] == [{"entries": [0], "tails": [[1, 0]]}]

    def test_zero_tol_is_valid(self, capsys):
        code, out = run(capsys, "symbol", "--forms", "A=E4", "--pq", "3,5", "--length", "1", "--tol", "0")
        assert code == 0 and json.loads(out)["meta"]["tolerance"] == 0.0

    @pytest.mark.parametrize("depth", ["0", "-2"])
    def test_decompose_depth_below_1_exits_2(self, capsys, depth):
        # at depth 0 there is no word to peel and the one row checks nothing
        code = main(["decompose", "--forms", "A=E4", "--depth", depth])
        out, err = capsys.readouterr()
        assert code == 2 and not out and f"--depth must be at least 1, got {depth}" in err

    def test_openblas_starts_one_thread(self, capsys, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert run(capsys, "cfrac", "--pq", "3,5")[0] == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

    def test_openblas_threads_set_by_the_user_win(self, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert run(capsys, "cfrac", "--pq", "3,5")[0] == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
