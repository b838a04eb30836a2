"""End-to-end command tests: parsing, schemas, exit codes, determinism."""

import argparse
import json
import math

import numpy as np
import pytest

from ontolab.cli import main, parse_bins, parse_dirs, parse_time


def run_cli(args, monkeypatch=None, threads=None):
    if monkeypatch is not None:
        if threads is None:
            monkeypatch.delenv("ONTOLAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("ONTOLAB_THREADS", str(threads))
    return main(args)


class TestParsers:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", 0.0),
            ("pi", math.pi),
            ("pi/8", math.pi / 8),
            ("3pi/8", 3 * math.pi / 8),
            ("-pi/2", -math.pi / 2),
            ("1.5", 1.5),
            ("2.5pi", 2.5 * math.pi),
        ],
    )
    def test_time_literals(self, text, expected):
        assert parse_time(text) == pytest.approx(expected, abs=1e-15)

    def test_bad_time_rejected(self):
        with pytest.raises(Exception):
            parse_time("eight")

    def test_zero_denominator_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_time("pi/0")
        with pytest.raises(SystemExit) as exc:
            main(["lg", "--times", "0,pi/0,pi/4,3pi/8"])
        assert exc.value.code == 2

    def test_bins(self):
        assert parse_bins("32x32") == ((32, 32),)
        assert parse_bins("8x8,16x16") == ((8, 8), (16, 16))
        with pytest.raises(Exception):
            parse_bins("32by32")

    def test_dirs_normalized(self):
        (d,) = parse_dirs("0,0,2")
        assert np.allclose(d, [0, 0, 1])
        a, b = parse_dirs("1,1,0;0,0,1")
        assert np.allclose(a, [1 / math.sqrt(2), 1 / math.sqrt(2), 0])
        with pytest.raises(Exception):
            parse_dirs("0,0,0")


class TestLGCommand:
    def test_quantum_exact_json(self, tmp_path):
        out = tmp_path / "lg.json"
        code = main(["lg", "--times", "0,pi/8,pi/4,3pi/8", "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"config", "results", "provenance"}
        assert payload["results"]["lg_value"] == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert payload["config"]["seed"] == 0
        assert payload["provenance"]["package"] == "ontolab"

    def test_quantum_exact_csv(self, tmp_path):
        out = tmp_path / "lg.csv"
        assert main(["lg", "--times", "0,pi/8,pi/4,3pi/8", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "quantity,value,stderr,n"
        values = dict(l.split(",")[:2] for l in lines[header_idx + 1 :])
        assert float(values["lg_value"]) == pytest.approx(2.82842712, abs=1e-7)
        assert float(values["classical_bound"]) == 2.0
        # config is embedded as comments
        assert any(l.startswith("# seed=") for l in lines)

    def test_empirical_model(self, tmp_path):
        out = tmp_path / "lg_bb.json"
        code = main(
            ["lg", "--model", "bb", "--times", "0,pi/8,pi/4,3pi/8",
             "--runs", "50000", "--seed", "7", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["lg_value"] == pytest.approx(2.828, abs=5 * res["lg_stderr"])
        assert sum(c["n"] for c in res["correlators"].values()) == 50000

    def test_zero_runs_rejected_without_output(self, tmp_path):
        out = tmp_path / "never.json"
        code = main(["lg", "--times", "0,pi/8,pi/4,3pi/8", "--runs", "0", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_missing_times_rejected(self):
        assert main(["lg"]) == 2

    def test_unwritable_output_rejected_before_computing(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("computed before the output path was checked")

        monkeypatch.setattr("ontolab.cli.empirical_correlations", never)
        for out in (tmp_path / "missing" / "x.csv", tmp_path):
            args = ["lg", "--model", "bb", "--times", "0,pi/8,pi/4,3pi/8", "--out", str(out)]
            assert main(args) == 2
        assert "cannot write output file" in capsys.readouterr().err

    def test_zero_count_correlators_are_null(self, tmp_path):
        out = tmp_path / "lg.json"
        args = ["lg", "--model", "bb", "--times", "0,pi/8,pi/4,3pi/8", "--runs", "1"]
        assert main([*args, "--format", "json", "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        res = json.loads(out.read_text(), parse_constant=reject)["results"]
        sampled = [c for c in res["correlators"].values() if c["n"] == 1]
        empty = [c for c in res["correlators"].values() if c["n"] == 0]
        assert len(sampled) == 1 and len(empty) == 3
        assert all(c["value"] is None and c["stderr"] is None for c in empty)
        assert res["lg_value"] is None and res["lg_stderr"] is None

        csv_out = tmp_path / "lg.csv"
        assert main([*args, "--out", str(csv_out)]) == 0
        lines = [l.split(",") for l in csv_out.read_text().splitlines() if not l.startswith("#")]
        rows = {l[0]: l[1:] for l in lines}
        assert rows["lg_value"] == ["", "", "1"]
        assert sum(r == ["", "", "0"] for r in rows.values()) == 3

    def test_bad_schedule_rejected(self):
        assert main(["lg", "--times", "0,pi/8,pi/16,3pi/8"]) == 2


class TestScanCommand:
    def test_quarter_gap(self, tmp_path):
        out = tmp_path / "scan.json"
        code = main(["scan", "--times", "0,pi/4", "--format", "json", "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["value_scan"] == pytest.approx(2 * math.sqrt(2), abs=1e-8)
        assert res["abs_difference"] <= 1e-8

    def test_commuting_gap_no_violation(self, tmp_path):
        out = tmp_path / "scan2.json"
        assert main(["scan", "--times", "0.2,0.2", "--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["value_scan"] == pytest.approx(2.0, abs=1e-8)

    def test_pi_8_gap_value(self, tmp_path):
        out = tmp_path / "scan3.json"
        assert main(["scan", "--times", "0,pi/8", "--format", "json", "--out", str(out)]) == 0
        expected = 2 * (math.cos(math.pi / 8) + math.sin(math.pi / 8))
        assert json.loads(out.read_text())["results"]["value_scan"] == pytest.approx(expected, abs=1e-8)

    def test_needs_two_times(self):
        assert main(["scan", "--times", "0,1,2"]) == 2


class TestErasureCommand:
    def test_bb_report(self, tmp_path):
        out = tmp_path / "erasure.json"
        code = main(
            ["erasure", "--model", "bb", "--runs", "100000", "--bins", "8x8,16x16",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        rows = json.loads(out.read_text())["results"]["rows"]
        assert [r["nz"] for r in rows] == [8, 16]
        assert rows[0]["gap"] == pytest.approx(math.log(4 * math.pi) - math.log(2) - math.log(4 * math.pi / 64), abs=0.05)

    def test_branching_model_redirected(self):
        assert main(["erasure", "--model", "mw", "--runs", "10"]) == 2

    def test_quantum_model_rejected(self):
        assert main(["erasure", "--model", "quantum", "--runs", "10"]) == 2


class TestNoFlowCommand:
    def test_bb_z_vs_x(self, tmp_path):
        out = tmp_path / "noflow.json"
        code = main(
            ["noflow", "--model", "bb", "--dirs", "0,0,1;1,0,0", "--runs", "100000",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["tv"] >= 0.95 and res["flow_detected"] is True

    def test_needs_two_dirs(self):
        assert main(["noflow", "--model", "bb", "--dirs", "0,0,1", "--runs", "100"]) == 2


class TestMwCheckCommand:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "mw.json"
        code = main(
            ["mwcheck", "--dirs", "0,0,1;0,0.70710678,0.70710678", "--runs", "200000",
             "--seed", "5", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["variant_b_oracle_equivalent"] is True
        assert res["immutable"] is True and res["no_erasure"] is True
        assert res["e_exact"] == pytest.approx(math.cos(math.pi / 4), abs=1e-6)
        # the printed-bookkeeping variant deviates measurably on this pair
        assert res["variant_a_max_abs_dev"] > res["variant_b_max_abs_dev"]
        assert res["variant_a_oracle_equivalent"] is False

    def test_needs_dirs(self):
        assert main(["mwcheck", "--runs", "100"]) == 2


class TestDeterminism:
    def test_byte_identical_across_worker_counts(self, tmp_path, monkeypatch):
        out = tmp_path / "lg_mw.json"
        args = ["lg", "--model", "mw", "--times", "0,pi/8,pi/4,3pi/8",
                "--runs", "150000", "--seed", "99", "--format", "json", "--out", str(out)]
        monkeypatch.setenv("ONTOLAB_THREADS", "1")
        assert main(args) == 0
        single = out.read_bytes()
        monkeypatch.setenv("ONTOLAB_THREADS", "4")
        assert main(args) == 0
        assert out.read_bytes() == single

    def test_byte_identical_repeat_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ONTOLAB_THREADS", "2")
        out = tmp_path / "erasure.csv"
        args = ["erasure", "--model", "bb", "--runs", "80000", "--seed", "3",
                "--bins", "16x16", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_stdout_when_no_out(self, capsys):
        assert main(["lg", "--times", "0,pi/8,pi/4,3pi/8"]) == 0
        captured = capsys.readouterr()
        assert "lg_value,2.82842712" in captured.out
