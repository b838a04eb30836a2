"""End-to-end command tests: parsing, schemas, exit codes, determinism."""

import argparse
import contextlib
import ctypes
import errno
import io
import json
import math
import os
import platform
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ontolab import BeltramettiBugajski, BranchingModel, Telegraph, cli, leggett_garg, rng
from ontolab.cli import _COMMANDS, MAX_RUNS, build_parser, main, parse_bins, parse_dirs, parse_time
from ontolab.information import branching_no_erasure_check, chi_square_test
from ontolab.leggett_garg import PAIR_LABELS, LGScenario
from ontolab.qubit import sequential_joint

SRC = Path(__file__).resolve().parent.parent / "src"


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

    def test_bins_capped(self):
        assert parse_bins("1024x1024") == ((1024, 1024),)
        with pytest.raises(argparse.ArgumentTypeError):
            parse_bins("1025x1024")
        with pytest.raises(SystemExit) as exc:
            main(["erasure", "--bins", "1025x1024", "--runs", "10"])
        assert exc.value.code == 2

    def test_bins_capped_in_total(self):
        # the grids erasure counts, the finest of each family, together; parsed only, so nothing is allocated
        assert parse_bins("512x1024,256x1024,256x1024") == ((512, 1024), (256, 1024), (256, 1024))
        for text in ("512x512,1024x1024", "1024x1024,1x1", "1x1,1024x1024", ",".join(["512x512"] * 5), "512x1024,1024x512"):
            assert parse_bins(text) == tuple(tuple(map(int, g.split("x"))) for g in text.split(","))
        for text in ("1024x1024,3x3", "3x3,1024x1024", "1024x1024,1024x1023", "512x1024,1024x512,3x1"):
            with pytest.raises(argparse.ArgumentTypeError, match="in total"):
                parse_bins(text)

    def test_bins_capped_before_grouping_when_the_grids_asked_reach_four_times_the_cap(self, monkeypatch):
        # a family's distinct grids hold under 4 times its finest grid's cells, so no such --bins is valid
        monkeypatch.setattr(cli, "_finest_grids", lambda grids: pytest.fail("grouped a --bins past the bound"))
        with pytest.raises(argparse.ArgumentTypeError, match="in total"):
            parse_bins(",".join(f"1x{2 * k + 1}" for k in range(3000)))

    def test_bins_of_one_family_run_and_another_family_exits_2(self, capsys):
        assert main(["erasure", "--bins", "512x512,1024x1024", "--runs", "1000", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        assert [(row["nz"], row["nphi"]) for row in rows] == [(512, 512), (1024, 1024)]
        with pytest.raises(SystemExit) as exc:
            main(["erasure", "--bins", "1024x1024,3x3", "--runs", "1000"])
        assert exc.value.code == 2

    def test_dirs_normalized(self):
        (d,) = parse_dirs("0,0,2")
        assert np.allclose(d, [0, 0, 1])
        a, b = parse_dirs("1,1,0;0,0,1")
        assert np.allclose(a, [1 / math.sqrt(2), 1 / math.sqrt(2), 0])
        with pytest.raises(Exception):
            parse_dirs("0,0,0")

    # components whose squares and their sum stay normal doubles
    IN_RANGE = st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-150, max_value=1e150),
        st.floats(min_value=-1e150, max_value=-1e-150),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(IN_RANGE, min_size=3, max_size=3).filter(any))
    def test_dirs_in_range_keep_their_bits(self, comps):
        (d,) = parse_dirs(",".join(map(repr, comps)))
        v = np.array(comps)
        assert np.array(d).tobytes() == (v / np.linalg.norm(v)).tobytes()

    @pytest.mark.parametrize("text", ["1e200,1e200,0", "1e-200,1e-200,0"])
    def test_dirs_beyond_the_square_range_accepted(self, text, capsys):
        (d,) = parse_dirs(text)
        assert d == pytest.approx((math.sqrt(0.5), math.sqrt(0.5), 0.0), abs=1e-15)
        assert main(["noflow", "--dirs", f"{text};0,0,1", "--runs", "100"]) == 0

    def test_runs_capped_before_any_work(self, monkeypatch, capsys):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr("ontolab.cli.empirical_correlations", reached)
        args = ["lg", "--model", "bb", "--times", "0,pi/8,pi/4,3pi/8", "--runs"]
        assert main([*args, "99999999999999999999"]) == 2
        assert main([*args, str(MAX_RUNS + 1)]) == 2
        assert f"MAX_RUNS = {MAX_RUNS}" in capsys.readouterr().err
        with pytest.raises(Reached):
            main([*args, str(MAX_RUNS)])


LG_TIMES = ["--times", "0,pi/8,pi/4,3pi/8"]
TWO_DIRS = ["--dirs", "0,0,1;1,0,0"]


class TestIgnoredFlags:
    """A flag the command or model would ignore exits 2 and names the flag."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["scan", "--times", "0,pi/4", "--model", "bb"], "--model"),
            (["scan", "--times", "0,pi/4", "--runs", "10"], "--runs"),
            (["scan", "--times", "0,pi/4", "--gamma", "2"], "--gamma"),
            (["scan", "--times", "0,pi/4", "--bins", "8x8"], "--bins"),
            (["scan", "--times", "0,pi/4", "--dirs", "0,0,1"], "--dirs"),
            (["lg", *LG_TIMES, "--model", "bb", "--runs", "10", "--bins", "8x8"], "--bins"),
            (["lg", *LG_TIMES, "--model", "bb", "--runs", "10", "--dirs", "0,0,1"], "--dirs"),
            (["lg", *LG_TIMES, "--model", "quantum", "--runs", "10"], "--runs"),
            (["lg", *LG_TIMES, "--runs", "10"], "--runs"),
            (["lg", *LG_TIMES, "--model", "quantum", "--gamma", "2"], "--gamma"),
            (["lg", *LG_TIMES, "--model", "bb", "--runs", "10", "--gamma", "2"], "--gamma"),
            (["lg", *LG_TIMES, "--model", "mw", "--runs", "10", "--gamma", "1"], "--gamma"),
            (["erasure", "--model", "bb", "--runs", "10", "--gamma", "2"], "--gamma"),
            (["noflow", "--model", "bb", *TWO_DIRS, "--runs", "10", "--gamma", "2"], "--gamma"),
            (["mwcheck", *TWO_DIRS, "--runs", "10", "--model", "telegraph"], "--model"),
            (["mwcheck", *TWO_DIRS, "--runs", "10", "--gamma", "2"], "--gamma"),
            (["mwcheck", *TWO_DIRS, "--runs", "10", "--bins", "8x8"], "--bins"),
            (["erasure", "--model", "bb", "--runs", "10", "--times", "0,1"], "--times"),
            (["noflow", "--model", "bb", *TWO_DIRS, "--runs", "10", "--times", "0,1"], "--times"),
            (["noflow", "--model", "bb", *TWO_DIRS, "--runs", "10", "--bins", "8x8,16x16"], "--bins"),
            (["erasure", "--model", "bb", "--runs", "10", *TWO_DIRS], "--dirs"),
        ],
    )
    def test_rejected(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "never.json"
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_telegraph_takes_gamma(self, tmp_path):
        out = tmp_path / "lg.json"
        args = ["lg", *LG_TIMES, "--model", "telegraph", "--gamma", "0.5", "--runs", "1000"]
        assert main([*args, "--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["gamma"] == 0.5

    @pytest.mark.parametrize("gamma", ["inf", "nan", "-1"])
    def test_gamma_must_be_finite_and_nonnegative(self, gamma, capsys):
        args = ["lg", *LG_TIMES, "--model", "telegraph", f"--gamma={gamma}", "--runs", "10"]
        assert main(args) == 2
        assert "--gamma must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, -(2**64), 2**64, 2**64 + 7])
    def test_seed_outside_64_bits_exits_2(self, seed, tmp_path, capsys):
        # the stream reads seeds mod 2**64: -1 and 2**64 - 1 would print the same results
        out = tmp_path / "lg.json"
        args = ["lg", *LG_TIMES, "--model", "bb", "--runs", "10", f"--seed={seed}", "--out", str(out)]
        assert main(args) == 2
        assert "--seed must be from 0 to 2**64 - 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, seed, tmp_path):
        out = tmp_path / "lg.json"
        args = ["lg", *LG_TIMES, "--model", "bb", "--runs", "10", f"--seed={seed}", "--format", "json"]
        assert main([*args, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == seed


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

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
    def test_failed_output_file_write_exits_2(self, capsys):
        assert main(["scan", "--times", "0,pi/8", "--out", "/dev/full"]) == 2
        assert capsys.readouterr().err == "configuration error: cannot write output to /dev/full: No space left on device\n"

    def test_failed_stdout_write_exits_2(self, monkeypatch, capsys):
        class FullStdout:
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(sys, "stdout", FullStdout())
        assert main(["scan", "--times", "0,pi/8"]) == 2
        assert capsys.readouterr().err == "configuration error: cannot write output to stdout: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
    @pytest.mark.parametrize("buffered", [True, False])
    def test_stdout_on_full_device_exits_2(self, buffered):
        # buffered, the failed bytes would stay in stdout's buffer and fail again at the interpreter's exit
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [sys.executable, "-m", "ontolab.cli", "scan", "--times", "0,pi/8"]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (2, "configuration error: cannot write output to stdout: No space left on device\n")

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

    # the slots each pair's kernel draws, C13 C23 C24 C14, on the schedule 0, pi/8, pi/4, 3pi/8: bb's first
    # measurement reads no y at time 0 (C13 and C14), so those pairs draw no azimuth slot 1
    LG_DRAWS = {
        "bb": ((0, 3, 5), (0, 1, 3, 5), (0, 1, 3, 5), (0, 3, 5)),
        "mw": ((0, 1, 2, 3, 4),) * 4,
        "telegraph": ((4,),) * 4,
    }

    @pytest.mark.parametrize("runs", [7, rng.CHUNK_RUNS - 3, 2 * rng.CHUNK_RUNS + 7])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("model", ["bb", "mw", "telegraph"])
    def test_each_pair_takes_a_fixed_quarter_of_the_runs(self, model, threads, runs, monkeypatch, capsys):
        # every run is hashed once, from the command's seed, in one draw of
        # its pair's slots: no run picks its pair, and no run is drawn twice
        monkeypatch.setenv("ONTOLAB_THREADS", str(threads))
        if rng.resolve_workers() < threads:
            pytest.skip(f"needs {threads} CPUs")
        hashed = []
        uniform_block = rng.uniform_block

        def recording(seed, runs, slots):
            hashed.append((seed, runs, tuple(slots)))
            return uniform_block(seed, runs, slots)

        monkeypatch.setattr(rng, "uniform_block", recording)
        assert main(["lg", "--model", model, *LG_TIMES, "--runs", str(runs), "--seed", "5", "--format", "json"]) == 0
        assert {seed for seed, _, _ in hashed} == {5}
        hashed.sort(key=lambda call: call[1].start)
        ranges = [r for _, r, _ in hashed]
        assert all(r.step == 1 for r in ranges)
        assert [r.start for r in ranges] == [0, *(r.stop for r in ranges[:-1])] and ranges[-1].stop == runs
        bounds = [runs * p // 4 for p in range(5)]
        for _, r, slots in hashed:
            p = next(p for p in range(4) if bounds[p] <= r.start < bounds[p + 1])
            assert r.stop <= bounds[p + 1] and slots == self.LG_DRAWS[model][p]
        # a whole chunk per call, cut only where a pair's quarter ends inside it: within one
        # chunk, the draws are the four quarters themselves
        assert len(hashed) <= -(-runs // rng.CHUNK_RUNS) + 3
        correlators = json.loads(capsys.readouterr().out)["results"]["correlators"]
        assert [correlators[label]["n"] for label in PAIR_LABELS] == [bounds[p + 1] - bounds[p] for p in range(4)]

    @pytest.mark.parametrize("model", ["bb", "mw", "telegraph"])
    def test_output_does_not_depend_on_the_chunk_size(self, model, monkeypatch, capsys):
        argv = ["lg", "--model", model, *LG_TIMES, "--runs", "300001", "--seed", "3", "--format", "json"]
        outputs = set()
        for chunk_runs in (1 << 12, 1 << 16, 1 << 17):
            monkeypatch.setattr(rng, "CHUNK_RUNS", chunk_runs)
            assert main(argv) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

    @pytest.mark.parametrize("runs", [*range(4, 12), rng.CHUNK_RUNS + 1, rng.CHUNK_RUNS + 3, 2 * rng.CHUNK_RUNS + 2])
    def test_four_runs_or_more_define_every_correlator(self, runs, capsys):
        assert main(["lg", "--model", "telegraph", *LG_TIMES, "--runs", str(runs), "--format", "json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert all(c["n"] > 0 and c["value"] is not None for c in results["correlators"].values())
        assert results["lg_value"] is not None and results["lg_stderr"] is not None

    @pytest.mark.parametrize("model", ["bb", "mw", "telegraph"])
    @pytest.mark.parametrize(
        "runs, empty", [(1, {"C13", "C23", "C24"}), (2, {"C13", "C24"}), (3, {"C13"})], ids=["1", "2", "3"]
    )
    def test_fewer_than_four_runs_leave_the_documented_pairs_null(self, model, runs, empty, capsys):
        assert main(["lg", "--model", model, *LG_TIMES, "--runs", str(runs), "--format", "json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        correlators = results["correlators"]
        assert {label for label, c in correlators.items() if c["n"] == 0} == empty
        assert all(correlators[label]["value"] is None and correlators[label]["stderr"] is None for label in empty)
        assert sum(c["n"] for c in correlators.values()) == runs
        assert results["lg_value"] is None and results["lg_stderr"] is None

    def test_bad_schedule_rejected(self):
        assert main(["lg", "--times", "0,pi/8,pi/16,3pi/8"]) == 2

    @pytest.mark.parametrize("model", ["bb", "quantum"])
    def test_overflowing_times_rejected(self, model, capsys):
        runs = [] if model == "quantum" else ["--runs", "1000"]
        assert main(["lg", "--model", model, "--times", "0,1e308,1e308,1e308", *runs]) == 2
        captured = capsys.readouterr()
        assert "MAX_TIME = 8.98846567e+307" in captured.err and not captured.out

    @pytest.mark.parametrize("runs", [1000, 100_000])
    def test_telegraph_takes_negative_times(self, runs, capsys):
        # bb and mw take this schedule; the stationary chain evolves by |dt| before a negative first time
        gamma = 0.5
        argv = ["lg", "--model", "telegraph", "--times=-1,0,1,2", "--gamma", str(gamma), "--runs", str(runs)]
        assert main([*argv, "--format", "json"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]["correlators"]
        scenario = LGScenario.from_times(-1.0, 0.0, 1.0, 2.0)
        for label, (t_k, t_l) in zip(PAIR_LABELS, scenario.pair_times()):
            expected = math.exp(-2.0 * gamma * abs(t_l - t_k))
            assert abs(res[label]["value"] - expected) <= 5 * res[label]["stderr"]


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

    @pytest.mark.parametrize("times", ["256,256.3", "0,1e3", "524288,524288.3", "0,1e7"])
    def test_times_beyond_the_limit_exit_2_quickly(self, times):
        # a subprocess, so that the exit code and both streams are those a shell sees
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ontolab.cli", "scan", "--times", times],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 2
        assert "2**8" in proc.stderr and not proc.stdout

    def test_times_just_below_the_limit_exit_0(self, capsys):
        below = repr(math.nextafter(256.0, 0.0))
        assert main(["scan", f"--times=-{below},{below}", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["abs_difference"] <= 1e-12

    def test_wrong_argmax_exits_3_with_no_output(self, monkeypatch, capsys):
        right = leggett_garg._argmax_34
        monkeypatch.setattr(leggett_garg, "_argmax_34", lambda t1, t2: (right(t1, t2)[0] + 0.01, right(t1, t2)[1]))
        assert main(["scan", "--times", "0,pi/8"]) == 3
        captured = capsys.readouterr()
        assert not captured.out and "closed form" in captured.err


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

    def test_quantum_model_rejected(self, capsys):
        assert main(["erasure", "--model", "quantum", "--runs", "10"]) == 2
        err = capsys.readouterr().err
        assert "quantum model" in err and "--runs" not in err


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
        assert res["df"] == 3 and res["p_value"] < res["alpha"]

    def test_needs_two_dirs(self):
        assert main(["noflow", "--model", "bb", "--dirs", "0,0,1", "--runs", "100"]) == 2

    def test_quantum_model_rejected(self, capsys):
        assert main(["noflow", "--model", "quantum", "--runs", "10", *TWO_DIRS]) == 2
        err = capsys.readouterr().err
        assert "quantum model" in err and "--runs" not in err


class TestModelContract:
    """The commands reach the single-world models through their kernels alone."""

    @pytest.mark.parametrize("model", ["bb", "telegraph"])
    def test_commands_run_without_the_sequential_methods(self, model, monkeypatch, capsys):
        commands = [
            ["lg", "--times", "0,pi/8,pi/4,3pi/8"],
            ["erasure", "--dirs", "0,0.6,0.8"],
            ["noflow", "--dirs", "0,0,1;0.6,0,0.8"],
        ]

        def outputs():
            for argv in commands:
                assert main([*argv, "--model", model, "--runs", "30000", "--seed", "4"]) == 0
                yield capsys.readouterr().out

        unpatched = list(outputs())

        def unreachable(*args, **kwargs):
            raise AssertionError("a command ran a sequential reference method")

        for cls, method in ((BeltramettiBugajski, "evolve_batch"), (BeltramettiBugajski, "measure_batch"),
                            (Telegraph, "evolve_batch")):
            monkeypatch.setattr(cls, method, unreachable)
        assert list(outputs()) == unpatched

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("argv", [
        ["lg", "--model", "bb", *LG_TIMES],
        ["lg", "--model", "mw", *LG_TIMES],
        ["lg", "--model", "telegraph", *LG_TIMES],
        ["erasure", "--model", "bb", "--bins", "8x8,16x16"],
        ["erasure", "--model", "telegraph"],
        ["noflow", "--model", "bb", *TWO_DIRS],
        ["noflow", "--model", "telegraph", *TWO_DIRS],
        ["mwcheck", *TWO_DIRS],
    ], ids=["lg-bb", "lg-mw", "lg-telegraph", "erasure-bb", "erasure-telegraph", "noflow-bb", "noflow-telegraph",
            "mwcheck"])
    def test_no_run_slot_is_hashed_twice(self, argv, threads, monkeypatch):
        # each (seed, run, slot) is hashed at most once per command, whatever the worker count
        monkeypatch.setenv("ONTOLAB_THREADS", str(threads))
        if rng.resolve_workers() < threads:
            pytest.skip(f"needs {threads} CPUs")
        spans = {}
        uniform_block = rng.uniform_block

        def recording(seed, runs, slots):
            for slot in slots:
                spans.setdefault((seed, slot), []).append((runs.start, runs.stop))
            return uniform_block(seed, runs, slots)

        monkeypatch.setattr(rng, "uniform_block", recording)
        runs = 2 * rng.CHUNK_RUNS + 7
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--runs", str(runs), "--seed", "5"]) == 0
        assert spans
        for ranges in spans.values():
            ranges.sort()
            assert all(stop <= start for (_, stop), (start, _) in zip(ranges, ranges[1:]))
            assert ranges[-1][1] <= runs


def _run_fresh(code: str, threads: int | None = None) -> str:
    """Stdout of `code` in a fresh interpreter that imports ontolab from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if threads is not None:
        env["ONTOLAB_THREADS"] = str(threads)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_verdicts_import_no_scipy():
    # scipy is a test dependency only; noflow and mwcheck compute their p-values without it
    code = (
        "import sys\n"
        "from ontolab.cli import main\n"
        "assert main(['noflow', '--model', 'bb', '--dirs', '0,0,1;1,0,0', '--runs', '1000']) == 0\n"
        "assert main(['mwcheck', '--dirs', '0,0,1;0,1,1', '--runs', '1000']) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    assert _run_fresh(code).splitlines()[-1] == "[]"


class TestMwCheckCommand:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "mw.json"
        code = main(
            ["mwcheck", "--dirs", "0,0,1;0,0.70710678,0.70710678", "--runs", "200000",
             "--seed", "5", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["variant_b_oracle_equivalent"] is True and res["variant_b_p_value"] >= res["alpha"]
        assert res["no_erasure"] is True and "immutable" not in res
        assert res["e_exact"] == pytest.approx(math.cos(math.pi / 4), abs=1e-6)
        # the printed-bookkeeping variant deviates measurably on this pair
        assert res["variant_a_max_abs_dev"] > res["variant_b_max_abs_dev"]
        assert res["variant_a_oracle_equivalent"] is False and res["variant_a_p_value"] < res["alpha"]

    def test_write_in_last_chunk_detected(self, monkeypatch, capsys):
        # 150,000 runs are chunks of 65,536, 65,536 and 18,928 runs; a model
        # that writes into a coordinate array of x0 in the last chunk only must fail the verdict
        branch_outcomes = BranchingModel.branch_outcomes

        def faulty(self, a, b, references, x0, x1, u_select, near):
            outcomes = branch_outcomes(self, a, b, references, x0, x1, u_select, near)
            if len(u_select) == 18_928:
                x0[2][-1] = -x0[2][-1]
            return outcomes

        monkeypatch.setattr(BranchingModel, "branch_outcomes", faulty)
        assert main(["mwcheck", *TWO_DIRS, "--runs", "150000", "--format", "json"]) == 3
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["no_erasure"] is False
        assert "immutability_runs" not in results

    def test_needs_dirs(self):
        assert main(["mwcheck", "--runs", "100"]) == 2

    def test_p_values_read_the_counts(self):
        # the integer counts themselves: runs x (counts / runs) can miss a count by an ulp
        a, b = parse_dirs("0,0,1;0,1,1")
        runs, seed = 200_000, 7
        results = cli.cmd_mwcheck({"runs": runs, "seed": seed, "dirs": (a, b)}).results
        report = branching_no_erasure_check(a, b, runs, seed=seed)
        exact = sequential_joint(a, b)
        for variant, counts in zip("ba", report.counts):
            assert results[f"variant_{variant}_p_value"] == chi_square_test(counts.ravel(), runs * exact.ravel())[2]
        assert results["variant_b_p_value"] == 0.8294379050056437

    @pytest.mark.parametrize("dirs", ["1,2,3;1,2,3", "1,2,3;-1,-2,-3"], ids=["equal", "opposite"])
    def test_parallel_directions_oracle_equivalent(self, dirs, capsys):
        # the exact joint's zero cells round to a few ulps below 0 unless clipped,
        # and a negative binomial variance made the verdict NaN, so false
        assert main(["mwcheck", "--dirs", dirs, "--runs", "1000", "--format", "json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["variant_b_oracle_equivalent"]
        assert min(min(row) for row in results["joint_exact"]) == 0.0

    def test_one_draw_per_joint_run(self, monkeypatch, capsys):
        # both bookkeeping variants and the no-erasure verdict read one draw
        # from the command's seed; nothing else is hashed, from any seed
        hashed = []
        uniform_block = rng.uniform_block

        def counting(seed, runs, slots):
            block = uniform_block(seed, runs, slots)
            hashed.append((seed, len(block)))
            return block

        monkeypatch.setattr(rng, "uniform_block", counting)
        assert main(["mwcheck", *TWO_DIRS, "--runs", "150000", "--seed", "3"]) == 0
        assert {seed for seed, _ in hashed} == {3}
        assert sum(rows for _, rows in hashed) == 150_000


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

    @pytest.mark.parametrize(
        "argv", [["lg", "--model", "quantum"], ["lg", "--model", "bb", "--runs", "10"]], ids=["quantum", "bb"]
    )
    def test_bad_thread_count_exits_2_before_any_work(self, argv, tmp_path, monkeypatch, capsys):
        # the exact quantum model starts no chunk, so only cli.main can reject the value
        monkeypatch.setenv("ONTOLAB_THREADS", "abc")
        out = tmp_path / "lg.csv"
        assert main([*argv, *LG_TIMES, "--out", str(out)]) == 2
        assert "ONTOLAB_THREADS" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_thread_count_below_one_exits_2(self, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ONTOLAB_THREADS", value)
        with pytest.raises(ValueError, match="at least 1"):
            rng.resolve_workers()
        out = tmp_path / "scan.csv"
        assert main(["scan", "--times", "0,pi/8", "--out", str(out)]) == 2
        assert "ONTOLAB_THREADS" in capsys.readouterr().err
        assert not out.exists()

    def test_thread_count_capped_at_cpu_count(self, monkeypatch, capsys):
        # a pool of 10**9 threads is never asked for: the value is capped
        # before map_chunks sizes its pool, here for a three-chunk call
        monkeypatch.setenv("ONTOLAB_THREADS", str(10**9))
        assert rng.resolve_workers() == len(os.sched_getaffinity(0))
        assert main(["mwcheck", *TWO_DIRS, "--runs", "140000"]) == 0
        # the cap is the set of CPUs the process may run on, not the machine's count
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        assert rng.resolve_workers() == 3
        monkeypatch.setenv("ONTOLAB_THREADS", "2")
        assert rng.resolve_workers() == 2
        monkeypatch.delenv("ONTOLAB_THREADS")
        assert rng.resolve_workers() == 3
        # where the OS has no affinity set, the CPU count
        monkeypatch.delattr(os, "sched_getaffinity")
        assert rng.resolve_workers() == 64

    def test_stdout_when_no_out(self, capsys):
        assert main(["lg", "--times", "0,pi/8,pi/4,3pi/8"]) == 0
        captured = capsys.readouterr()
        assert "lg_value,2.82842712" in captured.out

    def test_parser_built_once_and_reused(self, capsys):
        assert build_parser() is build_parser()
        # neither a rejected call nor a call's flags carry over to the next one
        with pytest.raises(SystemExit):
            main(["lg", "--times", "0,1,2,3", "--bogus"])
        assert main(["scan", "--times", "0,pi/8", "--seed", "5"]) == 0
        capsys.readouterr()
        assert main(["scan", "--times", "0,pi/4", "--format", "json"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config == {"command": "scan", "seed": 0, "times": [0.0, math.pi / 4]}


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in JSON output")


@st.composite
def fuzzed_argv(draw):
    """A command with every flag it reads, at tiny --runs; the numbers are any floats, non-finite too."""
    any_float = st.floats(allow_nan=True, allow_infinity=True)

    def numbers(n, chronological=False):
        xs = draw(st.lists(any_float, min_size=n, max_size=n))
        # chronological schedules get past from_times to the kernels
        return ",".join(map(repr, sorted(xs) if chronological else xs))

    name = draw(st.sampled_from(sorted(_COMMANDS)))
    command = _COMMANDS[name]
    model = draw(st.sampled_from(command.models)) if "model" in command.flags else None
    values = {
        "model": model,
        "runs": None if model == "quantum" else str(draw(st.integers(0, 40))),
        "seed": draw(st.one_of(st.integers(-(2**70), 2**70).map(str), any_float.map(repr))),
        "gamma": draw(any_float.map(repr)) if model == "telegraph" else None,
        "bins": ",".join(
            f"{draw(st.integers(1, 8))}x{draw(st.integers(1, 8))}" for _ in range(2 if name == "erasure" else 1)
        ),
        "times": numbers(4 if name == "lg" else 2, chronological=draw(st.booleans())),
        "dirs": ";".join(numbers(3) for _ in range(1 if name == "erasure" else 2)),
    }
    return [name, *(f"--{flag}={values[flag]}" for flag in command.flags if values[flag] is not None)]


class TestArgvFuzz:
    """Every argv keeps the documented contract: exit 0, 2 or 3, no traceback, strict JSON."""

    @settings(max_examples=150, deadline=None)
    @given(fuzzed_argv())
    @example(["lg", "--model", "bb", "--times", "pi/8,-1e308,2,7", "--runs", "3"])
    @example(["mwcheck", "--dirs", "1,2,3;1,2,3", "--runs", "3"])
    @example(["mwcheck", "--dirs", "0,0,1;0.2,0,0.98", "--runs", "1", "--seed", "93"])
    def test_exit_code_and_strict_json(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([*argv, "--format", "json"])
            except SystemExit as exc:  # argparse rejects unparsable values itself
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
        # a configuration error writes nothing; a success always writes its result
        if code != 3:
            assert bool(out) == (code == 0)
        if out:
            json.loads(out, parse_constant=_reject_constant)

    def test_one_run_is_no_false_alarm(self, capsys):
        # one run in a cell of exact probability 0.005 once failed a 5-stderr
        # test; every cell is rare at 1 run, so nothing is left to test.  Seed
        # 144 (the first from 0) puts the one run in a rarest cell, exact
        # probability 0.00505, and the test checks that it does.
        assert main(["mwcheck", "--dirs", "0,0,1;0.2,0,0.98", "--runs", "1", "--seed", "144", "--format", "json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        exact = np.ravel(results["joint_exact"])
        assert exact[np.argmax(results["joint_variant_b"])] == exact.min() < 0.0051
        assert results["variant_b_max_abs_dev"] > 0.99
        assert results["variant_b_p_value"] == 1.0 and results["variant_b_oracle_equivalent"] is True


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# 2**19 runs are 8 chunks, so a repeat call reuses what earlier chunks freed many times over
FAULT_COMMANDS = {
    "mwcheck": ["mwcheck", "--dirs", "0,0,1;0,0.6,0.8", "--runs", "524288"],
    "erasure": ["erasure", "--model", "bb", "--bins", "8x8,64x64", "--runs", "524288"],
}


def _no_cdll(name):
    raise OSError("no C library here")


def _windows_cdll(name):
    raise TypeError("expected str, bytes or os.PathLike object, not NoneType")  # CDLL(None) on Windows


class TestMallocPolicy:
    """The first rng.map_chunks call sets glibc's malloc policy once, so freed chunk arrays stay resident."""

    _GLIBC = pytest.mark.skipif(
        not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
        reason="the policy is glibc's mallopt",
    )

    @_GLIBC
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", sorted(FAULT_COMMANDS))
    def test_repeat_call_faults_no_pages_in(self, name, threads):
        # under glibc's default policy the second call faulted about 9,000 (erasure)
        # and 23,000 (mwcheck) pages in again, since each chunk's end trimmed the heap
        code = (
            "import contextlib, io, resource\n"
            "from ontolab.cli import main\n"
            "def faults(argv):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            f"faults({FAULT_COMMANDS[name]!r})\n"
            f"print(faults({FAULT_COMMANDS[name]!r}))\n"
        )
        assert int(_run_fresh(code, threads)) < 1000

    @_GLIBC
    def test_repeat_api_call_faults_no_pages_in(self):
        # the Python API sets the policy too, with no cli.main call in the process
        code = (
            "import resource\n"
            "from ontolab import BeltramettiBugajski, erasure_report\n"
            "def faults():\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    erasure_report(BeltramettiBugajski(), (0.0, 0.0, 1.0), 524288, ((8, 8), (64, 64)))\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "faults()\n"
            "print(faults())\n"
        )
        assert int(_run_fresh(code, 1)) < 1000

    @pytest.mark.parametrize(
        "cdll", [lambda name: types.SimpleNamespace(), _no_cdll, _windows_cdll], ids=["no-mallopt", "oserror", "typeerror"]
    )
    def test_output_unchanged_without_mallopt(self, cdll, monkeypatch, capsys):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        rng._keep_heap_resident.cache_clear()
        try:
            for argv, golden in (
                (["erasure", "--model", "bb", "--runs", "200000"], "erasure_bb_s7.json"),
                (["mwcheck", "--dirs", "0,0,1;0,1,1", "--runs", "200000"], "mwcheck_s7.json"),
            ):
                assert main([*argv, "--seed", "7", "--format", "json"]) == 0
                assert capsys.readouterr().out.encode() == (GOLDEN_DIR / golden).read_bytes()
            assert rng._keep_heap_resident.cache_info().currsize == 1  # it ran, on the stub
        finally:
            rng._keep_heap_resident.cache_clear()  # the next call sets the real policy

    def test_import_sets_no_policy(self):
        # numpy imports ctypes itself, so what must hold is that neither the CLI nor
        # rng imports it at module level, and that no policy is set before a Monte Carlo call
        code = (
            "import ontolab.cli as cli\n"
            "from ontolab import rng\n"
            "cli.build_parser()\n"
            "print(rng._keep_heap_resident.cache_info().currsize, 'ctypes' in vars(cli), 'ctypes' in vars(rng))\n"
        )
        assert _run_fresh(code).split() == ["0", "False", "False"]
