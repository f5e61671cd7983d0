import csv
import hashlib
import io
import json
import shlex
import tracemalloc
from math import prod
from pathlib import Path

import numpy as np
import pytest

from prodcong import arith, charsums, cli
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

    def test_zero_len_reaches_the_interval_check(self, capsys):
        code, _, err = run(
            capsys, ["solve", "--p", "13", "--a", "1", "--b", "1", "--c", "2", "--len", "0"]
        )
        assert code == 2
        assert "interval length must satisfy 1 <= N <= m" in err

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

    # SHA-256 of the report bodies. The --p 31 bodies are those written when
    # each prime took three FFTs. The next four were re-pinned when the spectrum
    # became half length: argmax_j is min(j, p-1-j), max_ratio is a direct
    # character sum (it moved by at most 1e-15 relative) and j_char the rounded
    # identity, float(j_direct). The last four were recorded from the packed FFT
    # before small sets took the phase GEMM: --len 300 stays on the FFT, and
    # 999983 - 1 = 2 * 79 * 6329 and 859049 - 1 = 2**3 * 167 * 643 sent their
    # FFT to Bluestein.
    @pytest.mark.parametrize(
        "args,fmt,digest",
        [
            (["--p", "31", "--len", "5"], "json",
             "145df6c45fb4e9154f9446a39b64d5cd63d7f10cf8d7626920e599ad8579c9b9"),
            (["--p", "31", "--len", "5"], "csv",
             "18551cd52379066c50cb6e29b8db8dc512a003d6cec722c8135bac66607ac407"),
            (["--p", "1009,1013", "--len", "7", "--n0", "3"], "json",
             "bb1ae40d571f657d077235a7740d44d076fa8800c49448f980a7ea9a60a73d83"),
            (["--p", "1009,1013", "--len", "7", "--n0", "3"], "csv",
             "c810fbc95065f0cc9894766e1e90c53ff7ab37c4a9153e2a5da35db58ed1f87b"),
            (["--p", "100003", "--len", "20"], "json",
             "ba3a918b634c1299b3f69ed83c9ae120c815fe5c14f13789a696057994b0dcdf"),
            (["--p", "100003", "--len", "20"], "csv",
             "245e8661eb4e916d263b3a95153f2d240d3e535004c09d802649102a9a5fe86f"),
            (["--p", "1009,1013", "--len", "300"], "json",
             "c44a3fc23c4407e7cce3678ef1d6df8755e063c3d1ad78f5c444d1aa3c701c84"),
            (["--p", "1009,1013", "--len", "300"], "csv",
             "6a3475b64eaa29ec734cfea443f99b819c72af7006f08b658d3e684432059653"),
            (["--p", "999983,859049", "--len", "47"], "json",
             "2ce3ec07413ac42a497ff6c5da385ec9ca6bb4466c726b4496cfb27f88049bee"),
            (["--p", "999983,859049", "--len", "47"], "csv",
             "824ff87f48b3a7a08d55e272671261b24b115d505615128272c8c63da7623263"),
        ],
    )
    def test_report_bytes_pinned(self, capsys, args, fmt, digest):
        code, out, _ = run(capsys, ["charsum", *args, "--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_one_fft_per_prime(self, capsys, monkeypatch):
        calls = []
        fft = np.fft.fft

        def counting_fft(a, *rest, **kw):
            calls.append(len(a))
            return fft(a, *rest, **kw)

        monkeypatch.setattr(np.fft, "fft", counting_fft)
        monkeypatch.setattr(charsums, "_gemm_pays", lambda count, bins: False)
        monkeypatch.setattr(charsums, "_last_spectrum", None)
        code, _, _ = run(capsys, ["charsum", "--p", "1009,1013", "--len", "7"])
        assert code == 0
        assert calls == [504, 506]  # one half-length transform per prime

    def test_one_gemm_spectrum_per_prime(self, capsys, monkeypatch):
        calls = []
        gemm = charsums._gemm_spectrum

        def counting_gemm(ctx, members):
            calls.append(ctx.p)
            return gemm(ctx, members)

        monkeypatch.setattr(charsums, "_gemm_spectrum", counting_gemm)
        monkeypatch.setattr(np.fft, "fft", lambda *args, **kw: calls.append("fft"))
        monkeypatch.setattr(charsums, "_last_spectrum", None)
        code, _, _ = run(capsys, ["charsum", "--p", "1009,1013", "--len", "7"])
        assert code == 0
        assert calls == [1009, 1013]

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--p", "999983", "--len", "40", "--n0", "0"], "n0 must be >= 1"),
            (["--p", "999983,101", "--len", "200"], "interval length must be below p"),
            (["--p", "999983", "--len", "0"], "interval length must satisfy 1 <= len < p"),
            (["--p", "999983", "--len", "-5"], "interval length must satisfy 1 <= len < p"),
        ],
    )
    def test_refused_before_any_table(self, capsys, monkeypatch, args, message):
        built = []
        monkeypatch.setattr(cli, "build_field_context", built.append)
        code, out, err = run(capsys, ["charsum", *args])
        assert (code, out, built) == (2, "", [])
        assert err == f"error: {message}\n"

    def test_row_builds_no_dlog_table(self, capsys, monkeypatch):
        # a row reads the logs of its len members by baby-step giant-step,
        # so the p-entry index table (8p bytes, 24 MB with its build buffers)
        # is never made; what remains is the exact count's p-entry histogram
        # and the (p+1)/2 spectrum the row keeps, under two tables together
        p = 999983
        arith._field_context.cache_clear()
        monkeypatch.setattr(charsums, "_last_spectrum", None)
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, ["charsum", "--p", str(p), "--len", "47"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 * 8 * p
        assert "dlog" not in vars(arith.build_field_context(p))


_ANCHORED = "3:4,7:4,1:5,0:3,20:4,9:4,0:4,2:4,11:3,5:4,30:3,4:4,0:2"


class TestReportBytesPinned:
    # Exit code and SHA-256 of the json and csv bodies, recorded from the CLI
    # as it was when every command listed its columns and wrote its own
    # report; charsum is pinned by TestCharsumCommand.test_report_bytes_pinned.
    @pytest.mark.parametrize(
        "args,code,json_digest,csv_digest",
        [
            (["solve", "--p", "13", "--a", "1", "--b", "1", "--c", "5", "--len", "2"], 0,
             "d85c4a717347dd5e67b43991822372a982246129708dbd4e83d300945f621870",
             "90dfb85e34b28b30d12bef24ce0e538a328bffeb7ceff46160cf1475c01fbef3"),
            (["solve", "--p", "5", "--a", "1", "--b", "1", "--c", "3", "--len", "1"], 3,
             "496d16a4eb42399b2836cafc558ee6d765c877165174a0df519da4dd9b1e40ce",
             "c7973d9557746762cb9af7f648682cc9b9fc7268c3121656185f0f39db0dc81c"),
            (["solve", "--p", "101", "--a", "3", "--b", "5", "--c", "7",
              "--intervals", _ANCHORED, "--anchored"], 0,
             "f100d658c8c61c3770112581eb8fee1f01eea92881ca31af0dc316be92316f5a",
             "add48f0487ceaf8c2ecc860e4444256b645344aa223b3d058b7ded997381656a"),
            (["scan", "--p", "31,37", "--len-min", "1", "--len-max", "3"], 0,
             "306cf2ff1418692e58fffc8ba789cd570ae5ef2f84c2ed1224971cbafdbf1db3",
             "86db931312c94fa8b1976ab3536e21cb7953cbcb7bd3bdeb02a75ff769201ef6"),
            (["threshold", "--p", "31"], 0,
             "a8acdd4850f9551c8d56f628234f26cddea804efb14c00db849672ba9a8ee11d",
             "5fa2edf0dbafbd6b359307736927c4c8693a6337024dc9dd94ca944a88787b5f"),
            (["growth", "--m-min", "100", "--m-max", "120", "--c", "0.5"], 0,
             "1b759c7542eff67581d461d0d56502c2627b86d414394cd997ee7728cdc4b2bb",
             "3ee731f755515ff85fbe03ac2452664390084e72fea9fb9d42f7d7ab99279e50"),
            (["smooth", "--m", "1000", "--c0", "0.5", "--check-greedy"], 0,
             "d54733b60184d5a35700f33f4a8ab41963bcb16e7e0c8b926b4dbd622e7fb125",
             "73b6699a7163b81484d9ff7fe2d7d5d0ad9ebdf974874805a8ab8c337cb64325"),
            (["coverage", "--p", "23", "--random", "30", "--seed", "4"], 0,
             "0afdc60ff98db4c956d17bda5d080c0a52de8fc32691c8375da296d9ec2fe9c6",
             "39becb6a236532a7d086b83f04d41af6556f6ddf5d9da51b4f07a3355725be3e"),
            (["represent", "--m", "7", "--target", "1", "--cutoff", "2"], 0,
             "1fa1b2a6e76e990711bf14658d9dbe9b967c0ed010540b8770be008b39f13aa3",
             "59503b3b63d2056d21612634451026310e24aea1f1b8ae011ba292b5682f7310"),
            (["represent", "--m", "101", "--target", "5", "--c", "0.3"], 0,
             "50ba5d9e299a8315645a367f775695a9c8baa27e57f5626f50cf10449807647a",
             "c285549b9d0dc86f08790eb67fe9e6550cdb6a52f216e72964fe7f05449c6cba"),
            (["represent", "--m", "7", "--target", "3", "--cutoff", "2"], 3,
             "f41df7cfac28b8d18a73b362b65c6e361353998b700c807d40ce6a2bd1bca2a2",
             "c29dc84e85a765fa28d8320123262cd17e5910752ac4c613c34a43e1e1df68e0"),
            (["olson-suite", "--count", "30", "--m-max", "300", "--seed", "11"], 0,
             "4c7d90d47ad07b35aa9e1929ff821a85e8012d308af0531dd95d66187b46618b",
             "0bdbd4d152ba04d5cb3ea381e00a9ecc88e198c949ae919e28df0f0ebf8f92a2"),
            (["smooth", "--check-greedy", "--m", "19997", "--c0", "0.5"], 0,
             "1e986d8d041af2d4718014a78ce948c2518f089181a16aa572d9eb6d0322992b",
             "7780c74873142af8b99daf05a283f6e0c5c7a68a068022067ae56245eb5b6596"),
            (["smooth", "--check-greedy", "--m", "17325", "--c0", "0.3"], 0,
             "5f1f2e887d6274488cccc708b3e36a5f410f8e2590f47ad399ba858c9775b6d9",
             "7e51afebe1ba845b97d43c1cf6631d12602edb4d2ec8d9ee8ff1d1394f1ef70c"),
            (["smooth", "--check-greedy", "--m", "2", "--c0", "0.5"], 0,
             "74e306bfde159f632544e599971205ffe2d42f65a2ba6dd1e75c7057717dfd5c",
             "78eb3fd1d6c0da2437134051f0a8ab5d0355c38a641018dc8e50e8b925437e88"),
            (["smooth", "--check-greedy", "--m", "3", "--c0", "0.1"], 0,
             "38979865171f0a946d59b45576bd7fcc09905ddcd0eebf5a55f69d1d7f0d9c7e",
             "1095183173c4bb61628446a782bc55550a7581498b81149a40016f21f9d99e7d"),
        ],
    )
    def test_report_bytes_pinned(self, capsys, args, code, json_digest, csv_digest):
        for fmt, digest in (("json", json_digest), ("csv", csv_digest)):
            got, out, _ = run(capsys, args + ["--format", fmt])
            assert got == code
            assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    def test_smooth_bound_is_exact_at_a_perfect_power(self, capsys):
        # 1024**0.3 = 2**3 exactly; float powering gave 7
        code, doc, _ = run_json(capsys, ["smooth", "--m", "1024", "--c0", "0.3"])
        assert code == 0
        assert doc["rows"][0]["smooth_bound"] == 8


class TestCoverageCommand:
    def test_no_counterexamples(self, capsys):
        code, doc, _ = run_json(
            capsys, ["coverage", "--p", "5", "--random", "200", "--seed", "1"]
        )
        assert code == 0
        assert doc["summary"] == {"trials": 200, "counterexamples": 0}
        assert all(r["hypothesis_met"] for r in doc["rows"])

    def test_zero_trials_names_the_option(self, capsys):
        code, _, err = run(capsys, ["coverage", "--p", "5", "--random", "0"])
        assert code == 2
        assert "--random" in err

    @pytest.mark.parametrize("p", ["2", "3"])
    def test_primes_below_five_rejected(self, capsys, p):
        # no sizes in 1..p-1 have a product above p**3, so no trial can be drawn
        code, out, err = run(capsys, ["coverage", "--p", p, "--random", "1"])
        assert (code, out) == (2, "")
        assert "p >= 5" in err


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

    def test_composite_modulus_other_target_exit_two(self, capsys):
        code, out, err = run(capsys, ["represent", "--m", "15", "--target", "4", "--cutoff", "3"])
        assert (code, out) == (2, "")
        assert "modulus 15 is not prime" in err
        assert "only target 1" in err

    @pytest.mark.parametrize("m", ["0", "1"])
    def test_modulus_below_two_exit_two(self, capsys, m):
        code, out, err = run(capsys, ["represent", "--m", m, "--target", "1", "--cutoff", "2"])
        assert (code, out) == (2, "")
        assert "m must be >= 2" in err


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

    @pytest.mark.parametrize(
        "args",
        [
            ["scan", "--p", "31", "--len-min", "3", "--len-max", "1"],
            ["growth", "--m-min", "10", "--m-max", "5", "--cutoff", "2"],
            ["threshold", "--p", "31", "--max-len", "0"],
            ["olson-suite", "--count", "0"],
        ],
    )
    def test_empty_range_exit_two(self, capsys, args):
        code, out, err = run(capsys, args)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

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

    def test_overlong_exponent_exit_four(self, capsys):
        # 0.123456789 means 123456789/10**9: 1000**123456789 is refused, not formed
        code, out, err = run(capsys, ["growth", "--m", "1000", "--c", "0.123456789"])
        assert (code, out) == (4, "")
        assert "cap" in err


class TestReadme:
    def test_cli_examples_run(self, capsys):
        # every `prodcong ...` line of the README's CLI block, comments stripped
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("prodcong ")]
        assert len(lines) == 10
        for line in lines:
            argv = shlex.split(line, comments=True)[1:]
            code, out, err = run(capsys, argv)
            assert (code, err) == (0, ""), line
            assert json.loads(out)["command"] == argv[0]
