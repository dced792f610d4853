import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from stochlab import cli, colorlab, ipslab
from stochlab.cli import parse_and_dispatch, parse_pattern, parse_word

FLAG_NAMES = {"lam": "--lambda"}


def run(*argv):
    return parse_and_dispatch(list(argv))


def stable(report):
    """Report with the wall-clock field removed, for equality checks."""
    if report is None:
        return None
    out = dict(report)
    out.pop("elapsed_ms", None)
    return out


def argv_from_report(report):
    group, command = report["op"].split(".")
    argv = [group, command]
    for key, value in report["inputs"].items():
        flag = FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    return argv


@pytest.fixture()
def path3(tmp_path):
    p = tmp_path / "path3.g"
    p.write_text("n 3\ne 0 1 1.0\ne 1 2 1.0\n")
    return str(p)


class TestWordParsing:
    def test_word(self):
        assert parse_word("1213", 4) == (1, 2, 1, 3)

    def test_word_rejects_zero_and_overflow(self):
        with pytest.raises(ValueError):
            parse_word("102", 4)
        with pytest.raises(ValueError):
            parse_word("15", 4)
        with pytest.raises(ValueError):
            parse_word("1a", 4)

    def test_pattern(self):
        assert parse_pattern("1.3", 4) == (1, None, 3)
        with pytest.raises(ValueError):
            parse_pattern("1*3", 4)


class TestColorCommands:
    def test_prob_prints_rational(self, capsys):
        code, report = run("color", "prob", "--q", "4", "--word", "121")
        assert code == 0
        assert report["value"] == "1/48"
        assert capsys.readouterr().out.strip() == "1/48"

    def test_prob_formula_source(self):
        code, report = run("color", "prob", "--word", "131", "--source", "formula")
        assert code == 0 and report["value"] == "1/48"

    def test_prob_improper_recursion_is_zero(self):
        code, report = run("color", "prob", "--word", "11")
        assert code == 0 and report["value"] == "0"

    def test_prob_improper_formula_is_an_error(self, capsys):
        code, report = run("color", "prob", "--word", "11", "--source", "formula")
        assert code == 2 and report is None
        assert "proper" in capsys.readouterr().err

    def test_check_dep_holds(self):
        code, report = run("color", "check-dep", "--q", "4", "--k", "1",
                           "--nmax", "5", "--expect", "holds=true")
        assert code == 0 and report["holds"] is True

    def test_check_dep_expect_failure_exits_one(self, capsys):
        code, report = run("color", "check-dep", "--q", "4", "--k", "0",
                           "--nmax", "3", "--expect", "holds=true")
        assert code == 1
        assert report["holds"] is False
        assert "check failed" in capsys.readouterr().err

    def test_check_dep_nmax_bounded_by_memory(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "physical_memory_bytes", lambda: 2**20)
        base = ("color", "check-dep", "--q", "4", "--k", "1")
        # tables, windows and the largest pair's temporaries: 0.31 MiB at nmax=6
        # fit in 1 MiB, 1.19 MiB at nmax=7 do not; 10**12 is never powered
        assert run(*base, "--nmax", "6")[0] == 0
        for nmax in ("7", str(10**12)):
            code, report = run(*base, "--nmax", nmax)
            assert code == 2 and report is None
            assert "--nmax" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,long,short", [
        (("prob",), "--word", "1213121312131", "121312"),
        # sampling builds no memo: count words of n letters are charged
        # (16 count + 64)(n + 16) bytes, so 2,500 of 13 letters overflow 1 MiB
        (("sample", "--seed", "1", "--count", "2500"), "--n", "13", "6"),
        (("sample", "--seed", "1"), "--n", str(10**12), "6"),
        (("marginal",), "--pattern", "1.3.1.3.1.3.1", "1.3.1."),
        (("pushforward",), "--n", "6", "2"),  # source windows of 4**(n+2) entries
        (("pushforward",), "--n", str(10**12), "2"),
    ])
    def test_word_length_bounded_by_memory(self, monkeypatch, capsys, command, flag, long,
                                           short):
        monkeypatch.setattr(cli, "physical_memory_bytes", lambda: 2**20)
        code, report = run("color", *command, flag, long)  # refused before any memo is built
        assert code == 2 and report is None
        assert f"{flag}: length " in capsys.readouterr().err
        # 1 MiB holds the q=4 memo through length 6 (about 500 entries)
        assert run("color", *command, flag, short)[0] == 0

    def test_prob_long_q2_word(self):
        code, report = run("color", "prob", "--q", "2", "--word", "12" * 600)
        assert code == 0 and report["value"] == "1/2"

    def test_marginal(self, capsys):
        code, report = run("color", "marginal", "--pattern", "1.3")
        assert code == 0 and report["value"] == "1/16"
        assert capsys.readouterr().out.strip() == "1/16"

    def test_marginal_long_q2_pattern(self, capsys):
        # filling 1,200 wildcards must not recurse once per wildcard
        code, report = run("color", "marginal", "--q", "2", "--pattern", "." * 1200)
        assert code == 0 and report["value"] == "1"
        assert capsys.readouterr().out.strip() == "1"

    def test_formula_bounded_by_memory(self, monkeypatch, capsys):
        formula = ("color", "prob", "--source", "formula", "--word")
        monkeypatch.setattr(cli, "physical_memory_bytes", lambda: 2**20)
        # 17 run boundaries: 24,310 Dyck words at 291 bytes do not fit in 1 MiB; 12 do
        code, report = run(*formula, "13" * 9)
        assert code == 2 and report is None
        assert "--word" in capsys.readouterr().err
        assert run(*formula, "1313131313131")[0] == 0
        monkeypatch.undo()
        # 63 boundaries are refused before a single Dyck word is built
        code, report = run(*formula, "13" * 32)
        assert code == 2 and report is None
        assert "--word" in capsys.readouterr().err
        assert run(*formula, "131")[1]["value"] == "1/48"  # the README and golden query

    def test_sample_output_bounded_by_memory(self, capsys):
        code, report = run("color", "sample", "--n", "1", "--count", str(10**12), "--seed", "1")
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert "--n: length 1" in err and "--count 1000000000000" in err

    def test_sample_at_any_length(self, capsys):
        started = time.perf_counter()
        code, report = run("color", "sample", "--q", "4", "--n", "10000", "--count", "1",
                           "--seed", "1")
        assert code == 0 and time.perf_counter() - started < 1
        (word,) = report["words"]
        assert len(word) == 10_000 and colorlab.is_proper(word)
        assert capsys.readouterr().out == word + "\n"

    def test_sample_colors_print_as_one_digit(self, capsys):
        code, report = run("color", "sample", "--q", "10", "--n", "6", "--seed", "1")
        assert code == 2 and report is None
        assert "--q must be in 2..9" in capsys.readouterr().err
        code, report = run("color", "sample", "--q", "9", "--n", "6", "--seed", "1",
                           "--count", "20")
        assert code == 0
        assert all(len(w) == 6 and colorlab.is_proper(w) for w in report["words"])

    def test_sample_deterministic(self):
        a = run("color", "sample", "--n", "5", "--seed", "9", "--count", "4")
        b = run("color", "sample", "--n", "5", "--seed", "9", "--count", "4")
        assert (a[0], stable(a[1])) == (b[0], stable(b[1]))
        assert len(a[1]["words"]) == 4

    def test_pushforward_masses(self):
        code, report = run("color", "pushforward", "--n", "1")
        assert code == 0
        assert report["mass"] == "1"
        assert report["distribution"] == {"1": "17/48", "2": "1/3", "3": "5/16"}


class TestGapCommands:
    def test_report(self, path3):
        code, report = run("gap", "report", "--graph", path3)
        assert code == 0
        assert abs(report["lambdaIP"] - report["lambdaRW"]) <= 1e-8 * report["lambdaRW"]
        assert report["identityOk"] is True

    def test_reduce_series(self, path3, capsys):
        code, report = run("gap", "reduce", "--graph", path3, "--vertex", "1")
        assert code == 0
        out = capsys.readouterr().out
        assert "n 2" in out and "e 0 1 0.5" in out

    def test_octopus(self, path3):
        code, report = run("gap", "octopus", "--graph", path3, "--vertex", "1")
        assert code == 0 and report["psd"] is True

    def test_shuffle(self, tmp_path):
        p = tmp_path / "hyper.g"
        p.write_text("n 3\nh 3 0 1 2 1.0\n")
        code, report = run("gap", "shuffle", "--graph", str(p))
        assert code == 0
        assert report["lambdaShuffle"] == pytest.approx(1.0, abs=1e-9)

    def test_shuffle_without_rates_is_an_error(self, path3):
        code, _ = run("gap", "shuffle", "--graph", path3)
        assert code == 2

    def test_report_shuffle_without_rates_is_an_error(self, path3, capsys):
        code, report = run("gap", "report", "--graph", path3, "--shuffle")
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert "--shuffle" in err and "has no 'h' records" in err

    def test_malformed_graph_reports_line(self, tmp_path, capsys):
        p = tmp_path / "bad.g"
        p.write_text("n 2\ne 1 0 1.0\n")
        code, _ = run("gap", "report", "--graph", str(p))
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self):
        code, _ = run("gap", "report", "--graph", "/nonexistent.g")
        assert code == 2

    def test_disconnected_graph(self, tmp_path):
        p = tmp_path / "split.g"
        p.write_text("n 4\ne 0 1 1.0\ne 2 3 1.0\n")
        code, _ = run("gap", "report", "--graph", str(p))
        assert code == 2

    def test_report_seven_vertices_needs_no_flag(self, tmp_path):
        p = tmp_path / "cycle7.g"
        p.write_text("n 7\n" + "".join(f"e {i} {i + 1} 1.0\n" for i in range(6)) + "e 0 6 1.0\n")
        code, report = run("gap", "report", "--graph", str(p), "--expect", "identityOk=true")
        assert code == 0 and report["n"] == 7

    @pytest.mark.parametrize("command", [
        ("report",), ("octopus", "--vertex", "3"), ("shuffle",),
    ])
    @pytest.mark.parametrize("n", [7, 8])
    def test_seven_and_eight_vertices_run(self, tmp_path, command, n):
        p = tmp_path / "path.g"
        p.write_text(f"n {n}\n" + "".join(f"e {i} {i + 1} 1.0\nh 2 {i} {i + 1} 1.0\n"
                                           for i in range(n - 1)))
        code, report = run("gap", command[0], "--graph", str(p), *command[1:])
        assert code == 0
        if command[0] == "octopus":
            assert report["psd"] is True
        else:
            assert report["flags"] == []

    @pytest.mark.parametrize("command", [
        ("report",), ("octopus", "--vertex", "0"), ("shuffle",),
    ])
    def test_nine_vertices_exceed_capacity(self, tmp_path, capsys, command):
        # the hub form is solved on the vertex and its neighbors, so octopus
        # is refused at the centre of a 9-vertex star, not for n = 9 as such
        p = tmp_path / "star9.g"
        p.write_text("n 9\n" + "".join(f"e 0 {j} 1.0\nh 2 0 {j} 1.0\n" for j in range(1, 9)))
        code, report = run("gap", command[0], "--graph", str(p), *command[1:])
        assert code == 2 and report is None
        assert "2 to 8 vertices" in capsys.readouterr().err

    def test_octopus_is_capped_by_degree_not_by_n(self, tmp_path, capsys):
        path9, star9 = tmp_path / "path9.g", tmp_path / "star9.g"
        path9.write_text("n 9\n" + "".join(f"e {i} {i + 1} 1.0\n" for i in range(8)))
        star9.write_text("n 9\n" + "".join(f"e 0 {j} 1.0\n" for j in range(1, 9)))
        code, report = run("gap", "octopus", "--graph", str(path9), "--vertex", "3")
        assert code == 0 and report["psd"] is True
        code, report = run("gap", "octopus", "--graph", str(star9), "--vertex", "4")
        assert code == 0 and report["psd"] is True
        capsys.readouterr()
        code, report = run("gap", "octopus", "--graph", str(star9), "--vertex", "0")
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert "--vertex 0 has degree 8" in err and "9 vertices" in err

    @pytest.mark.parametrize("command", [("octopus",), ("reduce",)])
    def test_overflowing_star_is_an_input_error(self, tmp_path, capsys, command):
        p = tmp_path / "huge-weights.g"
        p.write_text("n 3\ne 0 1 1e300\ne 1 2 1e300\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, report = run("gap", command[0], "--graph", str(p), "--vertex", "1")
        assert code == 2 and report is None and caught == []
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: vertex 1: the products of its conductances overflow"]

    @pytest.mark.parametrize("command,records,message", [
        ("report", "", "the edge weights sum past the float range"),
        ("shuffle", "h 2 0 1 1e308\nh 2 1 2 1e308\n", "the subset rates sum past the float range"),
    ])
    def test_overflowing_sums_are_an_input_error(self, tmp_path, capsys, command, records,
                                                 message):
        p = tmp_path / "huge-sums.g"
        p.write_text("n 3\ne 0 1 1e308\ne 1 2 1e308\n" + records)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, report = run("gap", command, "--graph", str(p))
        assert code == 2 and report is None and caught == []
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_weights_far_apart_are_reducible(self, tmp_path, capsys):
        p = tmp_path / "far-apart.g"
        p.write_text("n 3\ne 0 1 1e300\ne 1 2 1e-300\n")
        code, report = run("gap", "report", "--graph", str(p))
        assert code == 2 and report is None
        assert "reducible" in capsys.readouterr().err

    def test_vertex_count_beyond_memory_is_refused(self, tmp_path, capsys):
        p = tmp_path / "huge-n.g"
        p.write_text("# a million vertices\nn 1000000\ne 0 1 1.0\n")
        code, report = run("gap", "octopus", "--graph", str(p), "--vertex", "0")
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert "line 2, column 3" in err and "physical memory" in err

    @pytest.mark.parametrize("record,token", [
        ("e 0 1 nan", "'nan'"), ("e 0 1 inf", "'inf'"), ("h 2 0 1 -inf", "'-inf'"),
    ])
    def test_non_finite_values_rejected(self, tmp_path, capsys, record, token):
        p = tmp_path / "bad.g"
        p.write_text(f"n 3\ne 1 2 1.0\n{record}\n")
        code, report = run("gap", "report", "--graph", str(p))
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert "line 3, column" in err and f"finite, got {token}" in err

    @pytest.mark.parametrize("command", [
        ("report",), ("octopus", "--vertex", "1"), ("shuffle",),
    ])
    def test_allow_large_flag_is_gone(self, path3, capsys, command):
        code, report = run("gap", command[0], "--graph", path3, *command[1:],
                           "--allow-large")
        assert code == 2 and report is None
        assert "--allow-large" in capsys.readouterr().err


class TestSimCommands:
    def test_contact_deterministic(self):
        args = ("sim", "contact", "--lambda", "1.0", "--L", "21", "--tmax", "5",
                "--trials", "50", "--seed", "4")
        a, b = run(*args), run(*args)
        assert (a[0], stable(a[1])) == (b[0], stable(b[1]))

    def test_contact_parallel_matches_serial(self):
        base = ("sim", "contact", "--lambda", "1.5", "--L", "31", "--tmax", "5",
                "--trials", "40", "--seed", "4")
        code_s, serial = run(*base)
        code_p, parallel = run(*base, "--parallel", "2")
        assert code_s == code_p == 0
        serial["inputs"].pop("parallel", None)
        parallel["inputs"].pop("parallel", None)
        assert stable(serial) == stable(parallel)

    CONTACT = ("sim", "contact", "--lambda", "1.0", "--L", "21", "--tmax", "3",
               "--trials", "8", "--seed", "4")
    DUALITY = ("sim", "duality", "--graph", "{path3}", "--set", "0,2", "--t", "1",
               "--rho", "0.5", "--trials", "200", "--seed", "3")

    @pytest.mark.parametrize("command, flag", [
        pytest.param(CONTACT, "-3", id="-3-None---parallel"),
        pytest.param(CONTACT, "0", id="0-None---parallel"),
        # only contact and duality read --parallel; argparse rejects it elsewhere
        pytest.param(("color", "prob", "--word", "12"), "-3", id="color-prob--3"),
        pytest.param(("gap", "report", "--graph", "{path3}"), "0", id="gap-report-0"),
    ])
    def test_bad_worker_count_exits_two(self, capsys, path3, command, flag):
        argv = [arg.format(path3=path3) for arg in command] + ["--parallel", flag]
        code, report = run(*argv)
        assert code == 2 and report is None
        assert "--parallel" in capsys.readouterr().err

    def test_env_thread_fallback(self, monkeypatch):
        # LIGGETT_LAB_THREADS is no fallback: --parallel and the config key
        # are the one way to set the worker count
        code, plain = run(*self.CONTACT)
        monkeypatch.setenv("LIGGETT_LAB_THREADS", "0")
        code_env, with_env = run(*self.CONTACT)
        assert code == code_env == 0
        assert stable(with_env) == stable(plain) and "parallel" not in plain["inputs"]

    @pytest.mark.parametrize("command, flag", [
        (("sim", "contact", "--lambda", "nan", "--L", "50", "--tmax", "5"), "--lambda"),
        (("sim", "contact", "--lambda", "inf", "--L", "50", "--tmax", "5"), "--lambda"),
        (("sim", "contact", "--lambda", "1", "--L", "50", "--tmax", "nan"), "--tmax"),
        (("sim", "contact", "--lambda", "1", "--L", "50", "--tmax", "inf"), "--tmax"),
        (("sim", "contact", "--lambda", "1", "--edge-speed", "--tmax", "inf"), "--tmax"),
        (("sim", "voter", "--graph", "{path3}", "--rho", "0.5", "--tmax", "nan"), "--tmax"),
        (("sim", "duality", "--graph", "{path3}", "--set", "0,1", "--t", "nan",
          "--rho", "0.5"), "--t"),
        (("sim", "duality", "--graph", "{path3}", "--set", "0,1", "--t", "inf",
          "--rho", "0.5"), "--t"),
    ])
    def test_non_finite_input_exits_two(self, capsys, path3, command, flag):
        argv = [arg.format(path3=path3) for arg in command]
        code, report = run(*argv, "--trials", "3", "--seed", "1")
        assert code == 2 and report is None
        assert capsys.readouterr().err.startswith(f"error: {flag} must be finite")

    def test_edge_speed_nan_horizon_exits_two_without_hanging(self):
        # a NaN horizon is never passed and a supercritical run never dies, so this
        # run once did not end: a fresh process bounds it by a timeout
        src = Path(cli.__file__).resolve().parents[1]
        argv = ["sim", "contact", "--lambda", "2", "--edge-speed", "--tmax", "nan",
                "--trials", "3", "--seed", "1"]
        out = subprocess.run([sys.executable, "-m", "stochlab.cli", *argv],
                             capture_output=True, text=True, env={"PYTHONPATH": str(src)},
                             timeout=60)
        assert out.returncode == 2
        assert "--tmax" in out.stderr

    def test_edge_speed_horizon_past_memory_exits_two_at_once(self):
        # the occupied span of a supercritical run grows with t: this run once
        # ran until killed, so a fresh process bounds it by a timeout
        src = Path(cli.__file__).resolve().parents[1]
        argv = ["sim", "contact", "--lambda", "3", "--tmax", "1e9", "--edge-speed",
                "--trials", "1", "--seed", "1"]
        out = subprocess.run([sys.executable, "-m", "stochlab.cli", *argv],
                             capture_output=True, text=True, env={"PYTHONPATH": str(src)},
                             timeout=60)
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith("error: --tmax 1e+09 lets a sparse-line run")

    def test_survival_without_an_interval_runs_on_the_sparse_line(self):
        code, report = run("sim", "contact", "--lambda", "1.5", "--tmax", "4", "--trials", "20",
                           "--seed", "1")
        want = ipslab.estimate_survival(ipslab.ContactConfig(1.5), 4.0, 20, seed=1)
        assert code == 0 and "L" not in report["inputs"]
        assert (report["fraction"], report["lane"]) == (want.fraction, "contact/5")

    def test_survival_at_an_overflowing_rate_exits_zero(self):
        code, report = run("sim", "contact", "--lambda", "1e308", "--L", "5", "--tmax", "1",
                           "--trials", "2", "--seed", "0")
        assert code == 0 and report["lane"] == "contact/0"

    def test_survival_horizon_past_memory_exits_two_at_once(self):
        # without --L the survival run is on the sparse line, whose span grows
        # with t: a fresh process bounds the run by a timeout
        src = Path(cli.__file__).resolve().parents[1]
        argv = ["sim", "contact", "--lambda", "3", "--tmax", "1e9", "--trials", "1", "--seed", "1"]
        out = subprocess.run([sys.executable, "-m", "stochlab.cli", *argv],
                             capture_output=True, text=True, env={"PYTHONPATH": str(src)},
                             timeout=60)
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith("error: --tmax 1e+09 lets a sparse-line run")

    def test_contact_csv(self, tmp_path):
        csv = tmp_path / "traj.csv"
        code, _ = run("sim", "contact", "--lambda", "1.0", "--L", "21", "--tmax", "3",
                      "--trials", "5", "--seed", "4", "--csv", str(csv))
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,right_edge"
        assert len(lines) > 2

    def test_contact_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("lam = 1.0\nL = 21\ntmax = 3\ntrials = 6\nseed = 4\n")
        code, report = run("sim", "contact", "--config", str(cfg))
        assert code == 0
        assert report["trials"] == 6

    @pytest.mark.parametrize("command", [CONTACT, DUALITY])
    def test_config_parallel_matches_flag(self, tmp_path, path3, command):
        argv = [arg.format(path3=path3) for arg in command]
        cfg = tmp_path / "workers.cfg"
        cfg.write_text("parallel = 2\n")
        code_c, via_config = run(*argv, "--config", str(cfg))
        code_f, via_flag = run(*argv, "--parallel", "2")
        assert code_c == code_f == 0
        via_config["inputs"].pop("config")
        assert stable(via_config) == stable(via_flag)

    @pytest.mark.parametrize("value", ["0", "two"])
    def test_config_parallel_rejected(self, tmp_path, capsys, value):
        cfg = tmp_path / "workers.cfg"
        cfg.write_text(f"parallel = {value}\n")
        code, report = run(*self.CONTACT, "--config", str(cfg))
        assert code == 2 and report is None
        assert "parallel" in capsys.readouterr().err

    def test_config_does_not_override_flags(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("lam=1.0\nL=21\ntmax=3\ntrials=6\nseed=4\n")
        code, report = run("sim", "contact", "--config", str(cfg), "--trials", "9")
        assert code == 0 and report["trials"] == 9

    def test_voter(self, path3, tmp_path):
        csv = tmp_path / "voter.csv"
        code, report = run("sim", "voter", "--graph", path3, "--rho", "0.5",
                           "--tmax", "50", "--trials", "20", "--seed", "2",
                           "--csv", str(csv))
        assert code == 0
        assert 0 <= report["consensusRate"] <= 1
        assert csv.read_text().startswith("t,ones_fraction")

    def test_duality(self, path3):
        code, report = run("sim", "duality", "--graph", path3, "--set", "0,1",
                           "--t", "1", "--rho", "0.5", "--trials", "400", "--seed", "3")
        assert code == 0
        assert abs(report["zScore"]) <= 6

    def test_duality_parallel_matches_serial(self, path3):
        base = ("sim", "duality", "--graph", path3, "--set", "0,2", "--t", "1",
                "--rho", "0.5", "--trials", "200", "--seed", "3")
        _, serial = run(*base)
        _, parallel = run(*base, "--parallel", "2")
        for key in ("lhs", "rhs", "zScore"):
            assert serial[key] == parallel[key]

    def test_missing_required_option(self, capsys):
        code, _ = run("sim", "contact", "--lambda", "1.0")
        assert code == 2
        assert "missing required option" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (("--lambda", "1", "--left-depth", "-5", "--tmax", "10"), "--left-depth"),
        (("--lambda", "0.3", "--left-depth", "2", "--tmax", "40"), "fitting window"),
    ])
    def test_edge_speed_without_a_fit_exits_two(self, capsys, argv, named):
        code, report = run("sim", "contact", "--edge-speed", *argv,
                           "--trials", "5", "--seed", "1")
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert named in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", [
        CONTACT,
        ("sim", "contact", "--lambda", "2", "--edge-speed", "--tmax", "3", "--trials", "8",
         "--seed", "4"),
        ("sim", "voter", "--graph", "{path3}", "--rho", "0.5", "--tmax", "5",
         "--trials", "8", "--seed", "4"),
        DUALITY,
    ])
    def test_trials_beyond_two_to_the_32_exit_two(self, monkeypatch, capsys, path3, command):
        for name in ("estimate_survival", "right_edge_speed", "consensus_rate",
                     "duality_check"):  # the check starts no work
            monkeypatch.setattr(ipslab, name, None)
        argv = [arg.format(path3=path3) for arg in command]
        code, report = run(*argv, "--trials", "4294967297")
        assert code == 2 and report is None
        assert capsys.readouterr().err.startswith("error: --trials must be in 1..2**32")

    def test_config_edge_speed_and_left_depth_take_effect(self, tmp_path):
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("lambda = 2\nedge_speed = true\nleft_depth = 5\n"
                       "tmax = 3\ntrials = 4\nseed = 4\n")
        code, via_config = run("sim", "contact", "--config", str(cfg))
        code_f, via_flags = run("sim", "contact", "--edge-speed", "--left-depth", "5",
                                "--lambda", "2", "--tmax", "3", "--trials", "4", "--seed", "4")
        assert code == code_f == 0
        assert "slope" in via_config and via_config["inputs"]["left_depth"] == 5
        via_config["inputs"].pop("config")
        assert stable(via_config) == stable(via_flags)

    def test_config_edge_speed_false_keeps_survival(self, tmp_path):
        cfg = tmp_path / "survival.cfg"
        cfg.write_text("edge_speed = no\n")
        code, report = run(*self.CONTACT, "--config", str(cfg))
        assert code == 0 and "fraction" in report and report["inputs"]["edge_speed"] is False

    def test_flags_override_config_edge_settings(self, tmp_path):
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("edge_speed = true\nleft_depth = 5\n")
        code, report = run("sim", "contact", "--config", str(cfg), "--left-depth", "7",
                           "--lambda", "2", "--tmax", "3", "--trials", "4", "--seed", "4")
        assert code == 0 and "slope" in report and report["inputs"]["left_depth"] == 7

    @pytest.mark.parametrize("line, key", [("edge_speed = maybe", "edge_speed"),
                                           ("left_depth = deep", "left_depth")])
    def test_config_bad_edge_value_exits_two(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, report = run(*self.CONTACT, "--config", str(cfg))
        assert code == 2 and report is None
        assert f"{key} must be" in capsys.readouterr().err

    def test_config_lambda_key(self, tmp_path):
        cfg = tmp_path / "lambda.cfg"
        cfg.write_text("lambda = 1.0\nL = 21\ntmax = 3\ntrials = 8\nseed = 4\n")
        code, via_config = run("sim", "contact", "--config", str(cfg))
        code_f, via_flags = run(*self.CONTACT)
        assert code == code_f == 0
        via_config["inputs"].pop("config")
        assert stable(via_config) == stable(via_flags)

    def test_config_lambda_key_unknown_without_lambda_flag(self, tmp_path, capsys, path3):
        cfg = tmp_path / "lambda.cfg"
        cfg.write_text("lambda = 1.0\n")
        code, _ = run("sim", "voter", "--graph", path3, "--rho", "0.5", "--tmax", "5",
                      "--trials", "3", "--seed", "1", "--config", str(cfg))
        assert code == 2
        assert "unknown option 'lambda'" in capsys.readouterr().err


class TestReportPlumbing:
    def test_out_file_and_round_trip(self, tmp_path, path3):
        out = tmp_path / "report.json"
        code, report = run("gap", "report", "--graph", path3, "--out", str(out))
        assert code == 0
        saved = json.loads(out.read_text())
        assert saved["op"] == "gap.report"
        code2, report2 = run(*argv_from_report(saved))
        assert code2 == 0
        for key in ("lambdaRW", "lambdaIP", "exclusionGaps"):
            assert report2[key] == report[key]

    def test_round_trip_color(self, tmp_path):
        code, report = run("color", "prob", "--q", "3", "--word", "12")
        code2, report2 = run(*argv_from_report(report))
        assert report2["value"] == report["value"] == "1/6"

    def test_round_trip_sim(self):
        code, report = run("sim", "contact", "--lambda", "1.2", "--L", "15",
                           "--tmax", "4", "--trials", "10", "--seed", "11")
        code2, report2 = run(*argv_from_report(report))
        assert report["fraction"] == report2["fraction"]

    def test_unknown_arguments_exit_two(self):
        code, _ = run("color", "prob", "--word", "12", "--bogus")
        assert code == 2

    def test_bad_expect_syntax(self, capsys):
        code, _ = run("color", "prob", "--word", "12", "--expect", "holds")
        assert code == 2

    def test_expect_on_nested_field(self):
        code, _ = run("color", "check-dep", "--q", "4", "--k", "0", "--nmax", "3",
                      "--expect", "witness.joint=0")
        assert code == 0

    @pytest.mark.parametrize("error", [
        colorlab.NormalizerMismatchError("normalizer mismatch at q=4, n=3"),
        MemoryError("cannot allocate"),
    ])
    def test_internal_failure_exits_three_in_one_line(self, monkeypatch, capsys, error):
        def fail(args):
            raise error

        _, help_text, options = cli._COMMANDS["color.prob"]
        monkeypatch.setitem(cli._COMMANDS, "color.prob", (fail, help_text, options))
        assert run("color", "prob", "--word", "12") == (3, None)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: {type(error).__name__}: {error}\n"


def strict_json(text):
    """json.loads that refuses the non-JSON constants NaN, Infinity and -Infinity."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


class TestDomains:
    """Every option is declared with a domain, and a value outside it exits 2
    naming the flag, whether it came from argv or from a --config file."""

    @pytest.fixture()
    def hyper(self, tmp_path):
        p = tmp_path / "hyper.g"
        p.write_text("n 3\nh 3 0 1 2 1.0\n")
        return str(p)

    @pytest.mark.parametrize("argv, flag", [
        (("gap", "reduce", "--graph", "{path3}", "--vertex", "-1"), "--vertex"),
        (TestSimCommands.CONTACT + ("--lambda", "-1"), "--lambda"),
        (TestSimCommands.CONTACT + ("--trials", "0"), "--trials"),
        (TestSimCommands.CONTACT + ("--tmax", "0"), "--tmax"),
        (TestSimCommands.DUALITY + ("--t", "-1"), "--t"),
        (("sim", "voter", "--graph", "{path3}", "--rho", "nan", "--tmax", "1", "--trials", "2",
          "--seed", "1"), "--rho"),
        (TestSimCommands.CONTACT + ("--L", "0"), "--L"),
        (TestSimCommands.CONTACT + ("--seed", "-1"), "--seed"),
        (TestSimCommands.DUALITY + ("--rho", "2"), "--rho"),
        (TestSimCommands.DUALITY + ("--set", "a,b"), "--set"),
        (("color", "sample", "--n", "3", "--seed", "-1"), "--seed"),
    ])
    def test_library_domain_errors_name_the_flag(self, capsys, path3, argv, flag):
        code, report = run(*(arg.format(path3=path3) for arg in argv))
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("gap", "report", "--graph", "{path3}", "--tol-zero", "1e-9"),
        ("gap", "shuffle", "--graph", "{hyper}", "--rtol", "0.1"),
    ])
    def test_gap_tolerances_are_not_options(self, capsys, path3, hyper, argv):
        # a tolerance that the command line could loosen would loosen the verdict
        code, report = run(*(arg.format(path3=path3, hyper=hyper) for arg in argv))
        assert code == 2 and report is None
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err

    def test_gap_reports_carry_the_fixed_tolerances(self, path3, hyper):
        for argv in (("gap", "report", "--graph", path3), ("gap", "shuffle", "--graph", hyper)):
            code, report = run(*argv)
            assert code == 0 and not {"tol_zero", "rtol"} & set(report["inputs"])
            assert (report["tolZero"], report["rtol"]) == (1e-9, 1e-8)

    @pytest.mark.parametrize("argv", [
        ("color", "sample", "--n", "3", "--seed", "18446744073709551615"),
        ("color", "prob", "--q", "2", "--word", "1"),
        ("sim", "voter", "--graph", "{path3}", "--rho", "0", "--tmax", "0", "--trials", "2",
         "--seed", "1"),
        ("sim", "duality", "--graph", "{path3}", "--set", " 2,,0", "--t", "0", "--rho", "1",
         "--trials", "2", "--seed", "18446744073709551615"),
    ])
    def test_domain_edges_the_library_accepts_still_run(self, path3, argv):
        assert run(*(arg.format(path3=path3) for arg in argv))[0] == 0

    EDGE = ("sim", "contact", "--lambda", "2", "--edge-speed", "--tmax", "3", "--trials", "2",
            "--seed", "4")

    @pytest.mark.parametrize("argv, message", [
        pytest.param(TestSimCommands.CONTACT + ("--left-depth", "-5"),
                     "--left-depth is not read without --edge-speed", id="survival-left-depth"),
        pytest.param(TestSimCommands.CONTACT + ("--left-depth", "7"),
                     "--left-depth is not read without --edge-speed", id="survival-left-depth-7"),
        pytest.param(EDGE + ("--L", "0"), "--L is not read with --edge-speed", id="edge-L-0"),
        pytest.param(EDGE + ("--mode", "threshold"), "--mode is not read with --edge-speed",
                     id="edge-mode"),
        pytest.param(EDGE + ("--parallel", "2"), "--parallel is not read with --edge-speed",
                     id="edge-parallel"),
        # the first of several is named
        pytest.param(EDGE + ("--mode", "threshold", "--L", "50", "--parallel", "2"),
                     "--L is not read with --edge-speed", id="edge-mode-L-parallel"),
        pytest.param(("color", "prob", "--q", "1", "--word", "1", "--source", "formula"),
                     "--q must be 4 with --source formula, got 1", id="formula-q-1"),
        pytest.param(("color", "prob", "--source", "formula", "--q", "7", "--word", "131"),
                     "--q must be 4 with --source formula, got 7", id="formula-q-7"),
    ])
    def test_options_the_run_would_ignore_are_refused(self, capsys, argv, message):
        code, report = run(*argv)
        assert code == 2 and report is None
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("line, argv, message", [
        ("left_depth = 5", TestSimCommands.CONTACT,
         "--left-depth is not read without --edge-speed"),
        ("mode = threshold", EDGE, "--mode is not read with --edge-speed"),
        ("parallel = 2", EDGE, "--parallel is not read with --edge-speed"),
    ], ids=["left-depth", "mode", "parallel"])
    def test_config_options_the_run_would_ignore_are_refused(self, tmp_path, capsys, line, argv,
                                                              message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(line + "\n")
        code, report = run(*argv, "--config", str(cfg))
        assert code == 2 and report is None
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_inputs_omit_the_options_of_the_other_mode(self):
        code, survival = run(*TestSimCommands.CONTACT)
        code_e, edge = run(*self.EDGE)
        assert code == code_e == 0
        assert "left_depth" not in survival["inputs"]
        assert not {"L", "mode", "parallel"} & set(edge["inputs"])
        assert edge["inputs"]["left_depth"] == ipslab.DEFAULT_LEFT_DEPTH

    @pytest.mark.parametrize("line, named", [
        ("mode = thresold", "--mode must be one of standard, threshold, got 'thresold'"),
        ("trials = 0", "--trials must be in 1..2**32"),
        ("lambda = nan", "--lambda must be finite"),
        ("seed = -1", "--seed must be in 0..2**64-1"),
        # a repeated key is refused, not read once
        ("trials = 8\ntrials = 0", "{cfg}:6: trials was already set on line 5"),
        ("lam = 1\nlambda = 2", "{cfg}:6: lambda was already set on line 5"),
    ])
    def test_config_values_are_checked_like_flags(self, tmp_path, capsys, line, named):
        cfg = tmp_path / "exp.cfg"
        valid = {"lambda": "1", "L": "21", "tmax": "3", "trials": "8", "seed": "4"}
        valid.pop(line.split("\n")[-1].split(" =")[0], None)  # the line under test sets its key
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in valid.items()) + line + "\n")
        code, report = run("sim", "contact", "--config", str(cfg))
        assert code == 2 and report is None
        assert capsys.readouterr().err.startswith(f"error: {named.format(cfg=cfg)}")

    @pytest.mark.parametrize("argv, message", [
        (("gap", "reduce", "--graph", "{path3}", "--vertex", "3"), "--vertex 3 outside 0..2"),
        (("gap", "octopus", "--graph", "{path3}", "--vertex", "3"), "--vertex 3 outside 0..2"),
        (("sim", "duality", "--graph", "{cycle10}", "--set", "0,12", "--t", "1", "--rho", "0.5",
          "--trials", "2", "--seed", "1"), "--set vertex 12 outside 0..9"),
    ])
    def test_vertex_past_the_graph_names_the_flag(self, tmp_path, capsys, path3, argv, message):
        cycle10 = tmp_path / "cycle10.g"
        cycle10.write_text("n 10\ne 0 9 1.0\n" + "".join(f"e {i} {i + 1} 1.0\n" for i in range(9)))
        code, report = run(*(arg.format(path3=path3, cycle10=cycle10) for arg in argv))
        assert code == 2 and report is None
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["reduce", "octopus"])
    def test_isolated_vertex_names_the_flag(self, tmp_path, capsys, command):
        graph = tmp_path / "isolated.g"
        graph.write_text("n 3\ne 0 1 1\n")
        code, report = run("gap", command, "--graph", str(graph), "--vertex", "2")
        assert code == 2 and report is None
        assert capsys.readouterr().err == "error: --vertex 2 is isolated\n"

    @pytest.mark.parametrize("argv", [
        ("color", "prob", "--word", "12"),
        ("gap", "reduce", "--graph", "{path3}", "--vertex", "1"),
    ])
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_exits_two(self, tmp_path, capsys, path3, argv, where):
        out = tmp_path / "no" / "such" / "x.json" if where == "missing-dir" else tmp_path
        code, report = run(*(arg.format(path3=path3) for arg in argv), "--out", str(out))
        assert code == 2 and report is None
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --out must be")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("argv, field", [
        # one fitted slope has no spread: the standard error is infinite
        (("sim", "contact", "--lambda", "2", "--edge-speed", "--tmax", "3", "--trials", "1",
          "--seed", "1"), "stderr"),
        # no spread on either side at t=0 and lhs != rhs: the z score is infinite
        (("sim", "duality", "--graph", "{path3}", "--set", "0", "--t", "0", "--rho", "0.5",
          "--trials", "1", "--seed", "1"), "zScore"),
    ])
    def test_reports_are_strict_json(self, tmp_path, capsys, path3, argv, field):
        out = tmp_path / "report.json"
        code, report = run(*(arg.format(path3=path3) for arg in argv), "--out", str(out))
        assert code == 0
        printed = strict_json(capsys.readouterr().out)
        saved = strict_json(out.read_text())
        assert printed[field] is None and saved[field] is None and report[field] is None

    @pytest.mark.parametrize("command", ["voter", "duality"])
    def test_weighted_graph_refused_by_voter_commands(self, tmp_path, capsys, command):
        p = tmp_path / "weighted.g"
        p.write_text("n 3\ne 0 1 1.0\ne 1 2 2.0\n")
        extra = ("--set", "0", "--t", "1") if command == "duality" else ("--tmax", "1")
        code, report = run("sim", command, "--graph", str(p), "--rho", "0.5", *extra,
                           "--trials", "2", "--seed", "1")
        assert code == 2 and report is None
        assert "edge (1, 2) has weight 2" in capsys.readouterr().err


def _subcommands(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


# every option of every subcommand that build_parser() makes, as (op, flag)
PARSER_OPTIONS = sorted(
    (f"{group}.{command}", flag)
    for group, group_parser in _subcommands(cli.build_parser()).items()
    for command, parser in _subcommands(group_parser).items()
    for action in parser._actions for flag in action.option_strings
    if flag not in ("-h", "--help"))

# a cheap run of each subcommand with every required option in its domain
VALID = {
    "color.prob": ["--word", "12"],
    "color.check-dep": ["--k", "1", "--nmax", "3"],
    "color.marginal": ["--pattern", "1."],
    "color.sample": ["--n", "2", "--seed", "1"],
    "color.pushforward": ["--n", "1"],
    "gap.report": ["--graph", "{path3}"],
    "gap.reduce": ["--graph", "{path3}", "--vertex", "1"],
    "gap.octopus": ["--graph", "{path3}", "--vertex", "1"],
    "gap.shuffle": ["--graph", "{path3}"],
    "sim.contact": ["--lambda", "1", "--L", "5", "--tmax", "1", "--trials", "2", "--seed", "1"],
    "sim.voter": ["--graph", "{path3}", "--rho", "0.5", "--tmax", "1", "--trials", "2",
                  "--seed", "1"],
    "sim.duality": ["--graph", "{path3}", "--set", "0", "--t", "1", "--rho", "0.5",
                    "--trials", "2", "--seed", "1"],
}

# arguments that put one option outside its domain, by flag or by (op, flag)
OUTSIDE = {
    "--q": ["--q", "1"], "--word": ["--word", "15"], "--source": ["--source", "exact"],
    "--k": ["--k", "-1"], "--nmax": ["--nmax", "2"], "--pattern": ["--pattern", "1*"],
    "--n": ["--n", "-1"], "--seed": ["--seed", "-1"], ("color.sample", "--seed"): ["--seed", "x"],
    "--count": ["--count", "-1"], "--graph": ["--graph", "{missing}"],
    "--vertex": ["--vertex", "-1"], "--shuffle": ["--shuffle=yes"],
    "--lambda": ["--lambda", "-1"], "--L": ["--L", "0"], "--tmax": ["--tmax", "-1"],
    "--trials": ["--trials", "0"], "--mode": ["--mode", "thresold"],
    "--edge-speed": ["--edge-speed=yes"], "--left-depth": ["--edge-speed", "--left-depth", "-1"],
    "--csv": ["--csv", "{missing}"], "--config": ["--config", "{missing}"],
    "--parallel": ["--parallel", "0"], "--rho": ["--rho", "2"], "--set": ["--set", "a,b"],
    "--t": ["--t", "-1"], "--out": ["--out", "{missing}"], "--expect": ["--expect", "holds"],
}


def test_every_option_is_declared_with_a_domain():
    declared = {(op, opt.flag): opt for op in cli._COMMANDS for opt in cli._options(op)}
    assert sorted(declared) == PARSER_OPTIONS
    assert all(callable(opt.check) for opt in declared.values())


@pytest.mark.parametrize("op, flag", PARSER_OPTIONS)
def test_each_domain_refuses_a_value_outside_it(tmp_path, capsys, path3, op, flag):
    outside = OUTSIDE.get((op, flag)) or OUTSIDE[flag]
    missing = str(tmp_path / "missing" / "file")
    argv = op.split(".") + [arg.format(path3=path3, missing=missing)
                            for arg in VALID[op] + outside]
    code, report = run(*argv)
    assert code == 2 and report is None
    assert flag in capsys.readouterr().err


# a run of each command in each mode ("op" or "op mode") that exits 0, with
# the options that mode may read set
READ = {
    **VALID,
    "color.prob": ["--q", "3", "--word", "12", "--source", "recursion"],
    "color.prob formula": ["--word", "12", "--source", "formula"],
    "color.sample": ["--n", "2", "--seed", "1", "--count", "2"],
    "gap.shuffle": ["--graph", "{hyper}"],
    "sim.contact": ["--lambda", "1", "--L", "5", "--tmax", "1", "--trials", "2", "--seed", "1",
                    "--mode", "standard", "--parallel", "1", "--csv", "{csv}"],
    "sim.contact edge-speed": ["--lambda", "2", "--edge-speed", "--left-depth", "5", "--tmax",
                               "3", "--trials", "4", "--seed", "4", "--csv", "{csv}"],
    "sim.voter": VALID["sim.voter"] + ["--csv", "{csv}", "--config", "{config}"],
    "sim.duality": VALID["sim.duality"] + ["--parallel", "1", "--config", "{config}"],
}


class ReadRecorder:
    """Passes attribute reads through to ``args`` and records their names."""

    def __init__(self, args, read: set):
        self._args, self._read = args, read

    def __getattr__(self, name):
        self._read.add(name)
        return getattr(self._args, name)


@pytest.mark.parametrize("case", sorted(READ))
def test_every_reported_input_is_read(tmp_path, monkeypatch, path3, case):
    hyper = tmp_path / "hyper.g"
    hyper.write_text("n 3\nh 3 0 1 2 1.0\n")
    config = tmp_path / "empty.cfg"
    config.write_text("# no keys\n")
    op, read = case.split()[0], set()
    handler, *rest = cli._COMMANDS[op]
    monkeypatch.setitem(cli._COMMANDS, op, (lambda args: handler(ReadRecorder(args, read)),
                                            *rest))
    argv = [arg.format(path3=path3, hyper=hyper, config=config, csv=tmp_path / "out.csv")
            for arg in READ[case]]
    code, report = run(*op.split("."), *argv)
    assert code == 0
    assert set(report["inputs"]) - {"config"} <= read


@pytest.mark.parametrize("expect, status, err", [
    ([], 141, b""),
    (["--expect", "seed=2"], 1, b"check failed: expected seed='2', report has '1'\n"),
])
def test_closed_stdout_ends_quietly_with_sigpipe_status(expect, status, err):
    # `stochlab color sample ... | head -c 10`: the reader leaves after 10 bytes;
    # a failed --expect still reports and exits 1
    src = Path(cli.__file__).resolve().parents[1]
    argv = [sys.executable, "-m", "stochlab.cli", "color", "sample", "--q", "4", "--n", "7",
            "--count", "50000", "--seed", "1", *expect]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={"PYTHONPATH": str(src)})
    head = proc.stdout.read(10)
    proc.stdout.close()
    got = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == status
    assert len(head) == 10 and got == err


def test_closed_stdout_in_process_leaves_the_descriptors_alone(monkeypatch):
    class Closed:
        def write(self, text):
            raise BrokenPipeError

        flush = write

    before = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", Closed())
    code, report = run("color", "prob", "--word", "12")
    monkeypatch.undo()
    assert code == 141 and report["op"] == "color.prob"
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


def test_cli_imports_no_scipy():
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, stochlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(src)}, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_readme_commands_parse_and_settle(tmp_path, monkeypatch):
    # every `stochlab ...` line in the README's sh blocks parses and passes
    # every option check against small graph files of the names it uses;
    # no handler runs
    files = {"path3.g": "n 3\ne 0 1 1.0\ne 1 2 1.0\n", "hyper.g": "n 3\nh 3 0 1 2 1.0\n"}
    for n in (10, 20):
        edges = "".join(f"e {i} {i + 1} 1\n" for i in range(n - 1))
        files[f"cycle{n}.g"] = f"n {n}\n{edges}e 0 {n - 1} 1\n"
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("stochlab ")]
    assert lines
    # and its prose names no flag that no command declares
    declared = {opt.flag for op in cli._COMMANDS for opt in cli._options(op)}
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", readme))
    assert named and named <= declared, sorted(named - declared)
    parser = cli.build_parser()
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        cli._settle(args)
