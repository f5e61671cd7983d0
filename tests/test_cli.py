import csv
import io
import json
from math import prod

import pytest

from prodcong import cli
from prodcong.cli import main


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, args):
    code, out, err = run(capsys, args + ["--format", "json"])
    return code, (json.loads(out) if out else None), err


class TestSolveCommand:
    def test_solvable_exit_zero(self, capsys):
        code, doc, _ = run_json(
            capsys,
            ["solve", "--p", "13", "--a", "1", "--b", "1", "--c", "2",
             "--intervals", ",".join(["0:1"] * 13)],
        )
        assert code == 0
        assert doc["rows"][0]["solvable"] is True
        assert doc["rows"][0]["witness"] == ",".join(["1"] * 13)

    def test_unsolvable_exit_three(self, capsys):
        code, doc, _ = run_json(
            capsys, ["solve", "--p", "5", "--a", "1", "--b", "1", "--c", "3", "--len", "1"]
        )
        assert code == 3
        assert doc["rows"][0]["solvable"] is False

    def test_composite_modulus_exit_two(self, capsys):
        code, _, err = run(
            capsys, ["solve", "--p", "4", "--a", "1", "--b", "1", "--c", "2", "--len", "1"]
        )
        assert code == 2
        assert "modulus must be prime" in err

    def test_malformed_interval_spec(self, capsys):
        code, _, err = run(
            capsys,
            ["solve", "--p", "13", "--a", "1", "--b", "1", "--c", "2",
             "--intervals", "0:1," * 12 + "nonsense"],
        )
        assert code == 2
        assert "interval" in err

    def test_wrong_interval_count(self, capsys):
        code, _, err = run(
            capsys,
            ["solve", "--p", "13", "--a", "1", "--b", "1", "--c", "2", "--intervals", "0:1,0:1"],
        )
        assert code == 2

    def test_witness_verifies(self, capsys):
        code, doc, _ = run_json(
            capsys, ["solve", "--p", "13", "--a", "1", "--b", "1", "--c", "5", "--len", "2"]
        )
        assert code == 0
        witness = [int(x) for x in doc["rows"][0]["witness"].split(",")]
        assert (prod(witness[:6]) + prod(witness[6:])) % 13 == 5


class TestScanCommand:
    def test_full_scan_row(self, capsys):
        code, out, _ = run(capsys, ["scan", "--p", "5", "--len", "4", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows == [
            {"p": "5", "len": "4", "total": "16", "solvable": "16", "fraction": "1.0"}
        ]

    def test_len_range(self, capsys):
        code, doc, _ = run_json(
            capsys, ["scan", "--p", "5", "--len-min", "1", "--len-max", "3"]
        )
        assert code == 0
        assert [r["len"] for r in doc["rows"]] == [1, 2, 3]

    def test_composite_in_prime_list(self, capsys):
        code, _, err = run(capsys, ["scan", "--p", "5,6", "--len", "2"])
        assert code == 2

    def test_csv_and_json_rows_agree(self, capsys):
        args = ["scan", "--p", "7", "--len", "2", "--sample", "25", "--seed", "9"]
        code, doc, _ = run_json(capsys, args)
        code2, out_csv, _ = run(capsys, args + ["--format", "csv"])
        assert code == code2 == 0
        csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
        assert len(csv_rows) == len(doc["rows"]) == 1
        for key, value in doc["rows"][0].items():
            got = csv_rows[0][key]
            assert got == (repr(value) if isinstance(value, float) else str(value))


class TestThresholdCommand:
    def test_reports_minimal_len(self, capsys):
        code, doc, _ = run_json(capsys, ["threshold", "--p", "5"])
        assert code == 0
        assert doc["summary"]["minimal_len"] == 2
        assert doc["rows"][-1]["fraction"] == 1.0


class TestGrowthCommand:
    def test_rows_match_module_examples(self, capsys):
        code, out, _ = run(
            capsys,
            ["growth", "--m-min", "7", "--m-max", "8", "--cutoff", "3", "--format", "csv"],
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0] == {
            "m": "7", "card_A": "3", "n_stab": "3", "subgroup_order": "6",
            "density": "1.0", "ell": "1", "degenerate": "false",
        }
        assert rows[1]["subgroup_order"] == "2" and rows[1]["density"] == "0.5"
        assert rows[1]["ell"] == ""  # composite modulus leaves it blank

    def test_degenerate_flagged(self, capsys):
        code, doc, _ = run_json(capsys, ["growth", "--m", "210", "--cutoff", "8"])
        assert code == 0
        assert doc["rows"][0]["degenerate"] is True
        assert doc["rows"][0]["card_A"] == 1

    def test_c_out_of_range(self, capsys):
        code, _, err = run(capsys, ["growth", "--m", "7", "--c", "1.2"])
        assert code == 2


class TestCharsumCommand:
    def test_identity_close(self, capsys):
        code, doc, _ = run_json(capsys, ["charsum", "--p", "11,13", "--len", "4"])
        assert code == 0
        for row in doc["rows"]:
            assert abs(row["j_char"] - row["j_direct"]) <= 1e-6 * row["j_direct"]
            assert 0 <= row["max_ratio"] <= 1


class TestSmoothCommand:
    def test_check_greedy_all_valid(self, capsys):
        code, doc, _ = run_json(
            capsys, ["smooth", "--m", "1000", "--c0", "0.5", "--check-greedy"]
        )
        assert code == 0
        row = doc["rows"][0]
        assert row["greedy_failures"] == 0
        assert row["greedy_max_k"] <= 5
        assert row["greedy_checked"] == row["psi_coprime"]
        assert row["delta_hat"] > 0


class TestCoverageCommand:
    def test_no_counterexamples(self, capsys):
        code, doc, _ = run_json(
            capsys, ["coverage", "--p", "5", "--random", "200", "--seed", "1"]
        )
        assert code == 0
        assert doc["summary"] == {"trials": 200, "counterexamples": 0}
        assert all(r["hypothesis_met"] for r in doc["rows"])


class TestRepresentCommand:
    def test_unit_example(self, capsys):
        code, doc, _ = run_json(capsys, ["represent", "--m", "7", "--target", "1", "--cutoff", "2"])
        assert code == 0
        row = doc["rows"][0]
        assert row["factors"] == "2,2,2,1"
        assert row["verified"] is True

    def test_unreachable_target_exit_three(self, capsys):
        code, doc, _ = run_json(capsys, ["represent", "--m", "7", "--target", "3", "--cutoff", "2"])
        assert code == 3
        assert doc["summary"]["representable"] is False
        assert doc["summary"]["ell"] == 2

    def test_degenerate_exit_two(self, capsys):
        code, _, err = run(capsys, ["represent", "--m", "210", "--target", "1", "--cutoff", "8"])
        assert code == 2
        assert "degenerate" in err


class TestOlsonSuiteCommand:
    def test_no_violations(self, capsys):
        code, doc, _ = run_json(
            capsys, ["olson-suite", "--count", "25", "--m-max", "60", "--seed", "3"]
        )
        assert code == 0
        assert doc["summary"]["violations"] == 0
        assert len(doc["rows"]) == 25


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["scan", "--p", "101", "--len", "3", "--sample", "50", "--seed", "42", "--format", "csv"],
            ["coverage", "--p", "7", "--random", "60", "--seed", "1", "--format", "json"],
            ["olson-suite", "--count", "20", "--m-max", "80", "--seed", "5", "--format", "csv"],
        ],
    )
    def test_same_seed_same_bytes(self, tmp_path, capsys, args):
        out1 = tmp_path / "one.out"
        out2 = tmp_path / "two.out"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_usage_error_exit_two(self, capsys):
        assert main(["scan", "--p", "5"]) == 2
        capsys.readouterr()

    def test_shared_parser_matches_fresh_parsers(self, capsys, monkeypatch):
        sequence = [
            ["solve", "--p", "13", "--a", "1", "--b", "1", "--c", "5", "--len", "2"],
            ["solve", "--p", "13", "--a", "1"],  # missing required options
            ["represent", "--m", "7", "--target", "3", "--cutoff", "2"],
            ["no-such-command"],
            ["growth", "--m", "30", "--cutoff", "3", "--format", "csv"],
            ["threshold", "--p", "7"],
            ["solve", "--p", "5", "--a", "1", "--b", "1", "--c", "3", "--len", "1"],
        ]
        assert cli._build_parser() is cli._build_parser()
        shared = [run(capsys, list(args)) for args in sequence]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [run(capsys, list(args)) for args in sequence]
        assert [code for code, _, _ in shared] == [0, 2, 3, 2, 0, 0, 3]
        assert shared == fresh


class TestResourceCaps:
    def test_charsum_beyond_table_cap_exit_four(self, capsys, monkeypatch):
        monkeypatch.setenv("PRODCONG_TABLE_CAP", "100")
        code, _, err = run(capsys, ["charsum", "--p", "101", "--len", "5"])
        assert code == 4
        assert "cap" in err

    def test_smooth_beyond_sieve_cap_exit_four(self, capsys, monkeypatch):
        monkeypatch.setenv("PRODCONG_SIEVE_CAP", "1000")
        code, _, err = run(capsys, ["smooth", "--m", "2000", "--c0", "0.5"])
        assert code == 4
        assert "cap" in err
