import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hhlab.cli
import hhlab.liouville as LV
from hhlab.cli import _COMMANDS, _FlagTable, command_parser, main
from hhlab.radial import HardyHenonParams, RadialGrid


def run_cli(args, tmp_path, name="out"):
    out_dir = tmp_path / name
    code = main(list(args) + ["--output-dir", str(out_dir), "--quiet"])
    return code, out_dir


def read_json(out_dir, name):
    with open(out_dir / name) as fh:
        return json.load(fh)


class TestKernelsSelftest:
    def test_passes_and_reports_gaps(self, tmp_path):
        code, out = run_cli(["kernels-selftest", "--n-configs", "6"],
                            tmp_path)
        assert code == 0
        payload = read_json(out, "kernels-selftest.json")
        assert payload["pass"]
        assert all(g["rel_gap"] < 1e-2 for g in payload["composition_gaps"])

    def test_seed_determinism(self, tmp_path):
        _, out1 = run_cli(["kernels-selftest", "--n-configs", "4",
                           "--seed", "3"], tmp_path, "a")
        _, out2 = run_cli(["kernels-selftest", "--n-configs", "4",
                           "--seed", "3"], tmp_path, "b")
        assert (out1 / "kernels-selftest.json").read_bytes() == \
            (out2 / "kernels-selftest.json").read_bytes()

    @pytest.mark.parametrize("flag,value", [
        ("--n-configs", "0"), ("--n-configs", "1"), ("--n-configs", "-4"),
        ("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"),
        ("--tol", "-0.01"), ("--budget", "0"), ("--budget", "-5"),
        ("--n-configs", "3"), ("--n-configs", "201")])
    def test_bad_input_exits_2(self, flag, value, tmp_path, capsys,
                               monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("a composition check was run")

        monkeypatch.setattr("hhlab.kernels.riesz_compose_check",
                            no_quadrature)
        out_dir = tmp_path / "k"
        with pytest.raises(SystemExit) as exc:
            main(["kernels-selftest", f"{flag}={value}",
                  "--output-dir", str(out_dir), "--quiet"])
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == 2 and flag in err["error"]
        assert not out_dir.exists()

    def test_smallest_config_count_runs(self, tmp_path):
        code, out = run_cli(["kernels-selftest", "--n-configs", "2"],
                            tmp_path)
        assert code == 0
        assert len(read_json(out, "kernels-selftest.json")
                   ["composition_gaps"]) == 2

    def test_first_failing_draw_is_the_json_error(self, tmp_path,
                                                  monkeypatch, capsys):
        """A QuadratureError at the last of 200 draws ends the command with
        exit 1 and that error as JSON, after every earlier draw was
        checked, and writes no artefact."""
        from hhlab.errors import QuadratureError
        drawn = []

        def recording(alpha1, alpha2, x, z, n):
            drawn.append(alpha1)
            return 1.0, 1.0

        argv = ["kernels-selftest", "--n-configs", "200"]
        monkeypatch.setattr("hhlab.kernels.riesz_compose_check", recording)
        assert run_cli(argv, tmp_path, "draws")[0] == 0
        last, checked = drawn[-1], []

        def failing_last(alpha1, alpha2, x, z, n):
            checked.append(alpha1)
            if alpha1 == last:
                raise QuadratureError("composition integral did not "
                                      "converge at the last draw")
            return 1.0, 1.0

        monkeypatch.setattr("hhlab.kernels.riesz_compose_check",
                            failing_last)
        capsys.readouterr()
        code, out = run_cli(argv, tmp_path, "failing")
        assert code == 1 and not out.exists()
        assert checked == drawn
        assert json.loads(capsys.readouterr().err) == {
            "error": "composition integral did not converge at the last "
                     "draw", "code": 1, "type": "QuadratureError"}


class TestSolve:
    def test_reference_problem(self, tmp_path):
        code, out = run_cli(["solve", "--n", "4", "--m", "2", "--p", "2",
                             "--R", "1", "--nodes", "257"], tmp_path)
        assert code == 0
        payload = read_json(out, "solve.json")
        assert payload["sup_norm"] >= 4.0
        assert payload["rho"] == pytest.approx(4.0)
        assert payload["pass"]
        tags = {c["tag"] for c in payload["checks"]}
        assert "eq:1.8" in tags and "eq:3-41" in tags
        header = (out / "solution.csv").read_text().splitlines()[0]
        assert header.startswith("r,u(")

    def test_invalid_exponent_is_config_error(self, tmp_path, capsys):
        code = main(["solve", "--p", "0.5",
                     "--output-dir", str(tmp_path / "x"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert json.loads(err.strip())["code"] == 2

    @pytest.mark.parametrize("args", [
        ["solve", "--t", "nan"], ["solve", "--R", "nan"],
        ["solve", "--p", "inf"], ["solve", "--nodes", "10"],
        ["eigen", "--nodes", "10"], ["eigen", "--R", "inf"]])
    def test_bad_input_exits_2(self, args, tmp_path, capsys):
        out_dir = tmp_path / "x"
        code = main(args + ["--output-dir", str(out_dir), "--quiet"])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["code"] == 2
        assert not out_dir.exists()

    def test_amplitude_bound_overflow_exits_1(self, tmp_path, capsys):
        code = main(["solve", "--p", "1.0001",
                     "--output-dir", str(tmp_path / "x"), "--quiet"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == 1 and err["type"] == "AmplitudeRangeError"

    @pytest.mark.parametrize("t,sup_norm", [
        ("380", 429.56), ("3000", 388.28), ("8500", 246.98)])
    def test_large_forcing_below_the_fold(self, t, sup_norm, tmp_path):
        code, out = run_cli(["solve", "--t", t], tmp_path)
        assert code == 0
        payload = read_json(out, "solve.json")
        assert payload["pass"] and len(payload["checks"]) == 6
        assert all(c["pass"] for c in payload["checks"])
        assert payload["sup_norm"] == pytest.approx(sup_norm, abs=0.005)

    def test_forcing_past_the_fold_exits_1(self, tmp_path, capsys):
        # no positive solution exists for t beyond the fold t* in
        # (8500, 9000)
        code = main(["solve", "--t", "9000", "--output-dir",
                     str(tmp_path / "x"), "--quiet"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == 1 and err["type"] == "ConvergenceError"

    def test_lambda1_is_the_solver_eigenpair(self, tmp_path):
        from hhlab.navier import NavierProblem, first_eigenpair
        from hhlab.radial import HardyHenonParams
        code, out = run_cli(["solve", "--nodes", "129"], tmp_path)
        assert code == 0
        problem = NavierProblem(HardyHenonParams(4, 2, 0.0, 2.0), 1.0)
        eig = first_eigenpair(problem, problem.default_grid(129))
        assert read_json(out, "solve.json")["lambda1"] == eig.lambda1


class TestErrorClasses:
    @pytest.mark.parametrize("args,numerics", [
        (["eigen", "--R", "nan"], "hhlab.navier.first_eigenpair"),
        (["solve", "--n", "6", "--m", "2"], "hhlab.navier.solve_positive"),
        (["shoot", "--init=-1,1"], "hhlab.liouville.shoot"),
        (["shoot", "--init", "1,1", "--r-max", "nan"],
         "hhlab.liouville.shoot"),
        (["scan", "--u0", "0,1,3"], "hhlab.liouville.scan"),
        (["scan", "--r-max", "nan"], "hhlab.liouville.scan"),
        (["ladder", "--l0=-3"], "hhlab.ladder.ladder_table"),
        (["ladder", "--alpha0", "0.5"], "hhlab.ladder.ladder_table"),
        (["ladder", "--M=-0.5"], "hhlab.ladder.ladder_table"),
        (["scan", "--a", "2.5"], "hhlab.liouville.scan"),
        (["scan", "--n", "2", "--m", "1", "--p", "3", "--u0", "0.5,2,3",
          "--u1", "1,2,3", "--r-max", "5"], "hhlab.liouville.scan"),
        (["scan", "--m", "2", "--u0", "0.5,2,2", "--u1", "1,2,2",
          "--higher", "7", "--r-max", "5"], "hhlab.liouville.scan")])
    def test_input_checked_before_numerics(self, args, numerics, tmp_path,
                                           capsys, monkeypatch):
        def no_numerics(*a, **k):
            raise AssertionError("numerics ran on invalid input")

        monkeypatch.setattr(numerics, no_numerics)
        out_dir = tmp_path / "x"
        code = main(args + ["--output-dir", str(out_dir), "--quiet"])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["code"] == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("args,field", [
        (["ladder", "--M=-2"], "path length M"),
        (["ladder", "--l0", "nan"], "amplitude l0"),
        (["ladder", "--l0", "inf"], "amplitude l0")],
        ids=["M-negative", "l0-nan", "l0-inf"])
    def test_ladder_error_names_the_field(self, args, field, tmp_path,
                                          capsys, monkeypatch):
        def no_numerics(*a, **k):
            raise AssertionError("numerics ran on invalid input")

        monkeypatch.setattr("hhlab.ladder.ladder_table", no_numerics)
        out_dir = tmp_path / "x"
        code = main(args + ["--output-dir", str(out_dir), "--quiet"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == 2 and field in err["error"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("args", [
        ["shoot", "--init", "2,1"],
        ["scan", "--u0", "1,3,3", "--u1=-1,1,3"]], ids=["shoot", "scan"])
    def test_guard_validates_and_the_entry_computes_once(
            self, args, tmp_path, liouville_calls):
        # the guard calls the entry's validator, and the entry validates
        # again; the Taylor starts are built once
        code, _ = run_cli(args + ["--r-max", "10"], tmp_path)
        assert code == 0
        assert liouville_calls == {"_check_run": 2,
                                   "_check_origin_weight": 2,
                                   "taylor_starts": 1}

    def test_strong_weight_is_the_same_error_for_scan_and_shoot(
            self, tmp_path, capsys):
        # origin data needs a < 2; scan reports it as shoot does
        errors = []
        for args in (["scan", "--a", "2.5"],
                     ["shoot", "--a", "2.5", "--init", "1,0"]):
            code = main(args + ["--output-dir", str(tmp_path / "x"),
                                "--quiet"])
            assert code == 2
            errors.append(json.loads(capsys.readouterr().err.strip()))
        assert errors[0] == errors[1]
        assert "a < 2" in errors[0]["error"]

    @pytest.mark.parametrize("args", [
        ["scan", "--u1", "-10,10,21"],
        ["scan", "--a", "-1e-3", "--u0", "1,2,2", "--u1", "-1,1,2"],
        ["ladder", "--a", "-1e-3", "--k-max", "5"]],
        ids=["scan-u1", "scan-a", "ladder-a"])
    def test_value_starting_with_minus_is_a_value(self, args, tmp_path):
        # a flag's value may begin with `-` and a digit, spelled with a
        # space as well as with `=`
        code, out = run_cli(args, tmp_path)
        assert code == 0
        name = f"{args[0]}.json"
        spaced = read_json(out, name)
        joined = [args[0]] + [f"{flag}={value}" for flag, value
                              in zip(args[1::2], args[2::2])]
        code, out = run_cli(joined, tmp_path, "joined")
        assert code == 0
        equals = read_json(out, name)
        assert spaced == equals

    def test_negative_origin_value_with_a_space(self, tmp_path, capsys):
        # `--init -1,2` is the value -1,2, rejected as u(0) <= 0
        code = main(["shoot", "--init", "-1,2", "--output-dir",
                     str(tmp_path / "x"), "--quiet"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == 2 and "u(0) must be positive" in err["error"]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["kernels-selftest", "report"])
    def test_negative_seed_exits_2(self, command, tmp_path, capsys):
        out_dir = tmp_path / "s"
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed=-1", "--output-dir", str(out_dir),
                  "--quiet"])
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == 2 and "--seed" in err["error"]
        assert not out_dir.exists()

    def test_value_error_in_numerics_exits_1(self, tmp_path, capsys,
                                             monkeypatch):
        def faulty(*args, **kwargs):
            raise ValueError("apply_K requires a nonnegative field")

        monkeypatch.setattr("hhlab.navier.solve_positive", faulty)
        code = main(["solve", "--output-dir", str(tmp_path / "x"),
                     "--quiet"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "apply_K requires a nonnegative field",
                       "code": 1, "type": "ValueError"}

    def test_projected_amplitude_out_of_range_exits_1(self, tmp_path, capsys):
        code = main(["solve", "--p", "1.005", "--nodes", "65",
                     "--output-dir", str(tmp_path / "x"), "--quiet"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == 1 and err["type"] == "AmplitudeRangeError"

    @pytest.mark.parametrize("command", ["eigen", "solve"])
    def test_failed_allocation_exits_1(self, command, tmp_path, capsys,
                                       monkeypatch):
        # a grid too large to allocate is a numerical fault; the failed
        # allocation is simulated, never made
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(RadialGrid, "graded", no_memory)
        out_dir = tmp_path / "x"
        code = main([command, "--nodes", "100000000000", "--output-dir",
                     str(out_dir), "--quiet"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == 1 and err["type"] == "MemoryError"
        assert not out_dir.exists()

    @pytest.mark.parametrize("args", [
        ["eigen", "--R", "1e60"],
        ["solve", "--R", "1e60"],
        ["eigen", "--n", "8", "--m", "4", "--R", "1e30"]],
        ids=["eigen-R1e60", "solve-R1e60", "eigen-n8-m4-R1e30"])
    def test_overflowing_grid_writes_only_json_to_stderr(self, args,
                                                         tmp_path, capsys):
        # the Green solve's weights overflow; the fault is one JSON line,
        # with no numpy warning before it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args + ["--output-dir", str(tmp_path / "x"),
                                "--quiet"])
        assert code == 1
        assert [str(w.message) for w in caught] == []
        lines = capsys.readouterr().err.splitlines()
        assert [json.loads(line)["type"] for line in lines] == ["GridError"]

    @pytest.mark.parametrize("R,kind", [
        ("1e-60", "ConvergenceError"), ("1e-150", None)],
        ids=["R1e-60", "R1e-150"])
    def test_underflowing_ball_is_one_json_error(self, R, kind, tmp_path,
                                                 capsys):
        # G^m phi underflows to 0 at R = 1e-60, and its weights leave the
        # float range at 1e-150; either way the fault is one JSON line
        code = main(["eigen", "--R", R, "--output-dir", str(tmp_path / "x"),
                     "--quiet"])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["code"] == 1
        if kind is not None:
            assert err["type"] == kind and f"R={R}" in err["error"]


class TestConfigAndFlags:
    def test_unknown_flag_exits_2_without_outputs(self, tmp_path):
        out_dir = tmp_path / "nothing"
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--does-not-exist", "1",
                  "--output-dir", str(out_dir)])
        assert exc.value.code == 2
        assert not out_dir.exists()

    # certificate bounds, numerical budgets and the classifier's tolerances
    # are constants, not flags; scans run in one process, so --workers is
    # gone too
    @pytest.mark.parametrize("args,ini,flag", [
        (["kernels-selftest", "--tol=0.5"], None, "--tol"),
        (["kernels-selftest", "--budget=1000"], None, "--budget"),
        (["solve", "--tol=1e-6"], None, "--tol"),
        (["eigen", "--tol=1e-6"], None, "--tol"),
        (["solve"], "[solve]\ntol = 1e-6\n", "--tol"),
        (["shoot", "--init", "2,1", "--rtol=1e-9"], None, "--rtol"),
        (["scan", "--atol=1e-13"], None, "--atol"),
        (["scan"], "[scan]\nrtol = 1e-9\n", "--rtol"),
        (["scan", "--workers=3"], None, "--workers")],
        ids=["selftest-tol", "selftest-budget", "solve-tol", "eigen-tol",
             "config-tol", "shoot-rtol", "scan-atol", "config-rtol",
             "scan-workers"])
    def test_removed_flag_exits_2(self, args, ini, flag, tmp_path, capsys):
        if ini is not None:
            cfg = tmp_path / "run.ini"
            cfg.write_text(ini)
            args = args + ["--config", str(cfg)]
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(args + ["--output-dir", str(out_dir), "--quiet"])
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == 2 and flag in err["error"]
        assert not out_dir.exists()

    def test_config_file_defaults_and_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[eigen]\nn = 4\nm = 1\nnodes = 257\n")
        code, out = run_cli(["eigen", "--config", str(cfg)], tmp_path, "c1")
        assert code == 0
        base = read_json(out, "eigen.json")
        assert base["lambda1"] == pytest.approx(14.682, rel=1e-3)
        # a CLI flag overrides the file value
        code, out = run_cli(["eigen", "--config", str(cfg), "--m", "2"],
                            tmp_path, "c2")
        assert code == 0
        over = read_json(out, "eigen.json")
        assert over["lambda1"] == pytest.approx(215.56, rel=1e-3)

    def test_config_file_named_with_equals(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[eigen]\nn = 4\nm = 1\nnodes = 257\n")
        code, out = run_cli(["eigen", f"--config={cfg}"], tmp_path, "c1")
        assert code == 0
        assert read_json(out, "eigen.json")["lambda1"] == pytest.approx(
            14.682, rel=1e-3)
        with pytest.raises(SystemExit) as exc:
            run_cli(["eigen", f"--config={tmp_path / 'missing.ini'}"],
                    tmp_path, "c2")
        assert exc.value.code == 2
        assert "not readable" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("command,content,field,value", [
        ("eigen", "[eigen]\nR = 2\n", "bessel_oracle",
         pytest.approx(215.56 / 16, rel=1e-3)),
        ("ladder", "[ladder]\nM = 0.5\nk_max = 3\n", "M", 0.5)],
        ids=["eigen-R", "ladder-M"])
    def test_config_keys_keep_their_case(self, command, content, field,
                                         value, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(content)
        code, out = run_cli([command, "--config", str(cfg)], tmp_path)
        assert code == 0
        assert read_json(out, f"{command}.json")[field] == value

    @pytest.mark.parametrize("word,quiet", [
        ("true", True), ("Yes", True), ("1", True), ("off", False),
        ("false", False)])
    def test_config_sets_a_flag_that_takes_no_value(self, word, quiet,
                                                    tmp_path, capsys):
        # `quiet = <boolean>` adds the bare --quiet or nothing
        cfg = tmp_path / "q.ini"
        cfg.write_text(f"[eigen]\nnodes = 257\nquiet = {word}\n")
        out_dir = tmp_path / "out"
        code = main(["eigen", "--config", str(cfg), "--output-dir",
                     str(out_dir)])
        assert code == 0
        stdout = capsys.readouterr().out
        if quiet:
            assert stdout == ""
        else:
            assert json.loads(stdout) == read_json(out_dir, "eigen.json")

    def test_config_flag_that_takes_no_value_needs_a_boolean(self, tmp_path,
                                                             capsys):
        cfg = tmp_path / "q.ini"
        cfg.write_text("[eigen]\nquiet = maybe\n")
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["eigen", "--config", str(cfg), "--output-dir",
                  str(out_dir)])
        assert exc.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["code"] == 2 and "'quiet'" in err["error"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("content", [
        b"n = 4\n",                          # no section header
        b"[ladder]\nk_max = 5%\n",           # bare % in a value
        b"[ladder]\nn = 4\nn = 5\n",         # repeated key
        b"[ladder]\nn = \xff\xfe4\n",        # not UTF-8
    ], ids=["no-section", "bare-percent", "duplicate-key", "not-utf8"])
    def test_malformed_config_exits_2(self, content, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(content)
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["ladder", "--config", str(cfg), "--output-dir",
                  str(out_dir), "--quiet"])
        assert exc.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["code"] == 2 and "malformed" in err["error"]
        assert not out_dir.exists()


class TestDispatch:
    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: hhlab ")
        for name, command in _COMMANDS.items():
            assert name in out and command.help in out
        assert len(_COMMANDS) == 8

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_command_help(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: hhlab {command} ")
        assert "--output-dir" in out and "--quiet" in out

    @pytest.mark.parametrize("argv,message", [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from "
                    + ", ".join(map(repr, _COMMANDS)) + ")"),
        # a flag before the command: only what solve does not know is named
        (["--quiet", "solve", "--p", "2"],
         "unrecognized arguments: --quiet")],
        ids=["empty", "unknown", "flag-first"])
    def test_no_command_exits_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": message, "code": 2}

    def test_only_the_chosen_parser_is_built(self, tmp_path, monkeypatch):
        def no_parser(sp):
            raise AssertionError("another command's parser was built")

        for name, command in list(_COMMANDS.items()):
            if name != "ladder":
                monkeypatch.setitem(_COMMANDS, name,
                                    command._replace(add_flags=no_parser))
        code, out = run_cli(["ladder", "--k-max", "3"], tmp_path)
        assert code == 0
        assert read_json(out, "ladder.json")["pass"]


# valid values of a flag by its type; strings include negative numbers,
# which start with `-`, an `=` and the empty string
_STRING_VALUES = ["-4,4,3", "-1e-3", "-.5", "0.5,2,2", "x=y", "", "a b"]


def _values(kind):
    if kind is None:
        return st.sampled_from(_STRING_VALUES)
    if kind is int:
        return st.integers(-10 ** 6, 10 ** 6).map(str)
    if kind is float:
        return st.floats(allow_nan=False, allow_infinity=False).map(repr)

    def valid(text):
        try:
            kind(text)
        except argparse.ArgumentTypeError:
            return False
        return True
    # a validating type (_int_at_least, _config_count): the ints it takes
    return st.integers(-5, 10 ** 4).map(str).filter(valid)


@st.composite
def _argvs(draw):
    """A command and an argv the flag table reads: some of its flags with
    valid values, as `--f v` or `--f=v`, shuffled and some repeated, and
    --quiet or not; shoot always gets its required --init."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    table = _FlagTable(command)
    valued = sorted(f for f, flag in table.flags.items()
                    if flag.takes_value)
    flags = draw(st.lists(st.sampled_from(valued), max_size=10))
    flags += [f for f, flag in table.flags.items()
              if flag.dest in table.required]
    pieces = []
    for name in flags:
        value = draw(_values(table.flags[name].type))
        pieces.append([f"{name}={value}"] if draw(st.booleans())
                      else [name, value])
    pieces += [["--quiet"]] * draw(st.integers(0, 2))
    pieces = draw(st.permutations(pieces))
    return command, [token for piece in pieces for token in piece]


class TestFlagTable:
    """`main` reads a command's argv from the flags its parser declares
    (`_FlagTable`) and builds the argparse parser only for what the table
    does not read: help, errors and the forms it leaves to argparse."""

    @settings(max_examples=400, deadline=None)
    @given(case=_argvs())
    def test_table_reads_what_argparse_reads(self, case):
        command, argv = case
        got = _FlagTable(command).parse(argv)
        assert got is not None, argv
        assert vars(got) == vars(command_parser(command).parse_args(argv))

    @pytest.mark.parametrize("argv,code,want", [
        (["solve", "-h"], 0, "usage: hhlab solve "),
        (["solve", "--help"], 0, "usage: hhlab solve "),
        (["solve", "--nod", "257"], None, {"nodes": 257}),   # abbreviation
        (["solve", "--p"], 2, "argument --p: expected one argument"),
        (["solve", "--p", "-inf"], 2,
         "argument --p: expected one argument"),
        (["solve", "--quiet=1"], 2,
         "argument --quiet: ignored explicit argument '1'"),
        (["solve", "--"], 2, "unrecognized arguments: --"),
        (["solve", "--n", "x"], 2, "argument --n: invalid int value: 'x'"),
        (["report", "--seed", "-1"], 2,
         "argument --seed: must be at least 0, got -1"),
        (["kernels-selftest", "--n-configs", "3"], 2,
         "argument --n-configs: must be even, got 3"),
        (["shoot", "--n", "4"], 2,
         "the following arguments are required: --init")],
        ids=["h", "help", "abbreviation", "missing-value", "minus-inf",
             "switch-value", "double-dash", "bad-int", "negative-seed",
             "odd-config-count", "no-init"])
    def test_what_the_table_leaves_to_argparse(self, argv, code, want,
                                               capsys, monkeypatch):
        assert _FlagTable(argv[0]).parse(argv[1:]) is None
        seen = []
        monkeypatch.setitem(_COMMANDS, argv[0], _COMMANDS[argv[0]]._replace(
            run=lambda args: seen.append(vars(args)) or 0))
        if code is None:
            assert main(argv) == 0
            parsed = vars(command_parser(argv[0]).parse_args(argv[1:]))
            assert seen == [parsed] and parsed.items() >= want.items()
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code and not seen
        out, err = capsys.readouterr()
        if code == 0:
            assert out.startswith(want) and err == ""
        else:
            assert json.loads(err) == {"error": want, "code": 2}

    @pytest.mark.parametrize("argv,config", [
        (["ladder", "--k-max", "3"], None),
        (["solve", "--nodes", "33"], None),
        (["eigen"], "[eigen]\nnodes = 33\nquiet = true\n"),
        (["scan", "--u0", "0.5,2,2", "--u1=-1,1,2", "--r-max", "5"], None)],
        ids=["ladder", "solve", "config-quiet", "scan-negative-axis"])
    def test_a_valid_command_builds_no_parser(self, argv, config, tmp_path,
                                              capsys, monkeypatch):
        # the same files and output as through argparse, with no argparse
        # parser built
        if config is not None:
            (tmp_path / "run.ini").write_text(config)
            argv = argv + ["--config", str(tmp_path / "run.ini")]
        runs = []
        for side in ("argparse", "table"):
            with monkeypatch.context() as mp:
                if side == "table":
                    def no_parser(name):
                        raise AssertionError("an argparse parser was built")
                    mp.setattr(hhlab.cli, "command_parser", no_parser)
                else:
                    mp.setattr(_FlagTable, "parse", lambda self, argv: None)
                out_dir = tmp_path / side
                code = main(argv + ["--output-dir", str(out_dir)])
            files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
            runs.append((code, files, capsys.readouterr()))
        assert runs[0][0] == 0 and runs[0] == runs[1]
        if config is not None:
            assert runs[1][2].out == ""

    def test_flag_table_records_what_the_parser_declares(self):
        # the table's flags and defaults are the parser's
        for name in _COMMANDS:
            table = _FlagTable(name)
            parser = command_parser(name)
            actions = [a for a in parser._actions if a.dest != "help"]
            assert list(table.flags) == [a.option_strings[0]
                                         for a in actions]
            assert table.defaults == {a.dest: a.default for a in actions}
            assert table.required == [a.dest for a in actions
                                      if a.required]


class TestLadderCommand:
    def test_csv_and_determinism(self, tmp_path):
        code, out1 = run_cli(["ladder", "--k-max", "12"], tmp_path, "l1")
        assert code == 0
        code, out2 = run_cli(["ladder", "--k-max", "12"], tmp_path, "l2")
        assert code == 0
        b1 = (out1 / "ladder.csv").read_bytes()
        assert b1 == (out2 / "ladder.csv").read_bytes()
        lines = b1.decode().splitlines()
        assert lines[0] == "k,log_l,alpha"
        assert len(lines) == 14

    @pytest.mark.parametrize("k_max", ["60", "100"])
    def test_default_start_diverges_past_k_60(self, k_max, tmp_path):
        # the default start lies e above the threshold, not on it, where
        # p^k amplified the rounding of a base of 1 into a failure
        code, out = run_cli(["ladder", "--k-max", k_max], tmp_path)
        report = read_json(out, "ladder.json")
        assert code == 0 and report["pass"]
        assert report["l0"] == pytest.approx(math.e * report["threshold"],
                                             rel=1e-15)

    def test_default_start_past_the_float_range_exits_2(self, tmp_path,
                                                        capsys):
        # at p = 1.0000001 the threshold is inf: the error names p and the
        # threshold, not an l0 that was never given
        out_dir = tmp_path / "l"
        code = main(["ladder", "--p", "1.0000001", "--output-dir",
                     str(out_dir), "--quiet"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == 2
        assert "p = 1.0000001" in err["error"]
        assert "threshold inf" in err["error"]
        assert "l0" not in err["error"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("k_max", ["520", "1000"])
    def test_table_past_the_float_range_of_alpha(self, k_max, tmp_path):
        # alpha_k = 4^(k+1) overflows at k = 511; the table goes on with
        # log alpha_k, and the last rows read alpha inf
        code, out = run_cli(["ladder", "--k-max", k_max], tmp_path)
        report = read_json(out, "ladder.json")
        assert code == 0 and report["pass"]
        assert [c["name"] for c in report["checks"]] == [
            "recurrence-vs-closed-form", "threshold-divergence"]
        lines = (out / "ladder.csv").read_text().splitlines()
        assert len(lines) == int(k_max) + 2
        k, log_l, alpha = lines[-1].split(",")
        assert k == k_max and math.isfinite(float(log_l)) and alpha == "inf"

    @pytest.mark.parametrize("p", ["1e100", "1.4e154", "1e308"])
    def test_closed_form_past_the_float_range_exits_2(self, p, tmp_path,
                                                      capsys):
        # the threshold is finite (about 1) at every huge p, but the
        # closed form the recurrence check needs overflows: an input the
        # command cannot certify, reported before any table is built
        out_dir = tmp_path / "l"
        code = main(["ladder", "--p", p, "--output-dir", str(out_dir),
                     "--quiet"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == 2 and "closed form" in err["error"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("args,p,k_max", [
        (["--k-max", "1100"], "2.0", "1100"),
        (["--p", "1e20"], "1e+20", "40")], ids=["k-max-1100", "p-1e20"])
    def test_log_amplitude_past_the_float_range_exits_2(self, args, p, k_max,
                                                        tmp_path, capsys):
        # log l_k grows like p^k: a bound on it over k <= k_max reports the
        # input before any table is built, naming p and k_max
        out_dir = tmp_path / "l"
        code = main(["ladder", *args, "--output-dir", str(out_dir),
                     "--quiet"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == 2 and "float range" in err["error"]
        assert f"k_max = {k_max}" in err["error"]
        assert f"p = {p}" in err["error"]
        assert not out_dir.exists()

    def test_huge_p_inside_the_float_range(self, tmp_path):
        code, out = run_cli(["ladder", "--p", "1e20", "--k-max", "10"],
                            tmp_path)
        report = read_json(out, "ladder.json")
        assert code == 0 and report["pass"]
        lines = (out / "ladder.csv").read_text().splitlines()
        assert len(lines) == 12 and math.isfinite(float(
            lines[-1].split(",")[1]))

    def test_huge_p_with_a_short_table(self, tmp_path):
        code, out = run_cli(["ladder", "--p", "1e100", "--k-max", "2"],
                            tmp_path)
        report = read_json(out, "ladder.json")
        assert code == 0 and report["pass"]
        assert report["threshold"] == pytest.approx(1.0, abs=1e-90)

    def test_negative_k_max_exits_2(self, tmp_path, capsys):
        out_dir = tmp_path / "l"
        with pytest.raises(SystemExit) as exc:
            main(["ladder", "--k-max", "-1", "--output-dir", str(out_dir),
                  "--quiet"])
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == 2 and "--k-max" in err["error"]
        assert not out_dir.exists()

    def test_henon_weight_with_huge_M(self, tmp_path):
        # C0 = 1 for a <= 0, where the float (1 + M)^2 would overflow
        code, out = run_cli(["ladder", "--a", "-2", "--M", "1e200",
                             "--k-max", "12"], tmp_path)
        report = read_json(out, "ladder.json")
        assert code == (0 if report["pass"] else 1)
        assert report["pass"]
        lines = (out / "ladder.csv").read_text().splitlines()
        assert lines[0] == "k,log_l,alpha" and len(lines) == 14

    @pytest.mark.parametrize("flag,field", [
        ("--alpha0", "exponent alpha"), ("--M", "path length M")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_input_exits_2(self, flag, field, value, tmp_path,
                                      capsys):
        out_dir = tmp_path / "l"
        code = main(["ladder", flag, value, "--output-dir", str(out_dir),
                     "--quiet"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == 2 and field in err["error"]
        assert not out_dir.exists()


class TestScanCommand:
    def test_small_scan_and_determinism(self, tmp_path):
        args = ["scan", "--u0", "0.5,4,3", "--u1=-4,4,3", "--r-max", "20"]
        code, out1 = run_cli(args, tmp_path, "s1")
        assert code == 0
        payload = read_json(out1, "scan.json")
        assert payload["tally"]["cells"] == 9
        assert payload["tally"]["all_positive_survivors"] == 0
        code, out2 = run_cli(args, tmp_path, "s2")
        assert (out1 / "scan.csv").read_bytes() == \
            (out2 / "scan.csv").read_bytes()

    @pytest.mark.parametrize("m,flags,replaced", [
        (2, [], {}),
        (3, ["--u0", "1,2,2", "--higher", "0.5"], {0: [1.0, 2.0], 2: [0.5]}),
        (3, ["--u1=-1,1,3"], {1: [-1.0, 0.0, 1.0]})],
        ids=["m2-default", "m3-u0-higher", "m3-u1"])
    def test_axis_flags_replace_reference_axes(self, m, flags, replaced,
                                               tmp_path, monkeypatch):
        # with no axis flag the scan is the reference grid, and each flag
        # replaces only its own axis
        seen, real_scan = [], LV.scan

        def recording(axes, params, r_max):
            seen.append([np.asarray(ax).tolist() for ax in axes])
            return real_scan(axes, params, r_max)

        monkeypatch.setattr(LV, "scan", recording)
        run_cli(["scan", "--m", str(m), "--r-max", "2", *flags], tmp_path)
        reference = LV.reference_axes(HardyHenonParams(4, m, 0.0, 2.0))
        assert seen == [[replaced.get(i, ax.tolist())
                         for i, ax in enumerate(reference)]]

    def test_one_cell_scan_writes_what_shoot_writes(self, tmp_path):
        # a one-cell scan finishes its lane in the float stepper, from the
        # lane's state: kind, layer and r* are the shoot's, to the last bit
        code, out = run_cli(["scan", "--u0", "2,2,1", "--u1", "1,1,1"],
                            tmp_path, "scan")
        assert code == 0
        with open(out / "scan.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        code, out = run_cli(["shoot", "--init", "2,1"], tmp_path, "shoot")
        assert code == 0
        shot = read_json(out, "shoot.json")
        layer = None if row["layer"] == "" else int(row["layer"])
        assert (row["kind"], layer, float(row["r_star"])) == \
            (shot["kind"], shot["layer_index"], shot["r_star"])

    @pytest.mark.parametrize("m,flag", [("1", "--u1"), ("2", "--higher")])
    def test_axis_flag_without_its_layer_exits_2(self, m, flag, tmp_path,
                                                 capsys):
        value = "1,2,2" if flag == "--u1" else "7"
        code = main(["scan", "--m", m, flag, value, "--output-dir",
                     str(tmp_path / "x"), "--quiet"])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["code"] == 2
        assert flag in err["error"] and f"m = {m}" in err["error"]

    @pytest.mark.parametrize("axis", [["--u0", "0.1,10,0"],
                                      ["--u1=-10,10,0"]])
    def test_empty_axis_exits_2(self, axis, tmp_path, capsys, monkeypatch):
        def no_numerics(*a, **k):
            raise AssertionError("a scan ran with no cells")

        monkeypatch.setattr("hhlab.liouville.scan", no_numerics)
        out_dir = tmp_path / "e"
        code = main(["scan", *axis, "--output-dir", str(out_dir), "--quiet"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == 2 and "at least one point" in err["error"]
        assert not out_dir.exists()

    def test_non_finite_origin_data_exits_2(self, tmp_path, capsys):
        code = main(["shoot", "--init", "nan,1", "--output-dir",
                     str(tmp_path / "x"), "--quiet"])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["code"] == 2


class TestOtherCommands:
    def test_shoot(self, tmp_path):
        code, out = run_cli(["shoot", "--init", "2.0,1.0"], tmp_path)
        assert code == 0
        payload = read_json(out, "shoot.json")
        assert payload["kind"] in ("SignLoss", "BlowUp", "Survived")

    @pytest.mark.parametrize("argv,kind", [
        (["--init", "2,1", "--p", "1e308"], "SignLoss"),
        (["--init", "1e308,1"], "SignLoss"),
        (["--m", "1", "--p", "3", "--init", "2.8284271247461903"],
         "Survived")], ids=["huge-p", "huge-u0", "bubble"])
    def test_shoot_growth_fit_only_for_survivors(self, argv, kind,
                                                  tmp_path):
        # as scan.csv: a number for a survivor, null for any other kind;
        # the file is strict JSON (no Infinity token)
        code, out = run_cli(["shoot", *argv], tmp_path)
        assert code == 0

        def reject(token):
            raise ValueError(f"non-JSON token {token}")
        payload = json.loads((out / "shoot.json").read_text(),
                             parse_constant=reject)
        assert payload["kind"] == kind
        if kind == "Survived":
            assert 0.0 < payload["growth_fit"] < 1e-2
        else:
            assert payload["growth_fit"] is None

    def test_shoot_at_a_strong_henon_weight(self, tmp_path):
        # the weight r^2000 overflows inside trial steps: read as inf, as
        # the scan reads it, not an OverflowError
        code, out = run_cli(["shoot", "--init", "2,1", "--a", "-2000"],
                            tmp_path)
        assert code == 0
        payload = read_json(out, "shoot.json")
        assert (payload["kind"], payload["layer_index"],
                payload["r_star"]) == ("SignLoss", 1, 1.0069919563093666)

    def test_singular_exists(self, tmp_path):
        code, out = run_cli(["singular"], tmp_path)
        assert code == 0
        payload = read_json(out, "singular.json")
        assert payload["exists"] and payload["sigma"] == pytest.approx(4.0)
        assert payload["amplitude"] == pytest.approx(192.0)

    def test_singular_none_case(self, tmp_path):
        code, out = run_cli(["singular", "--p", "3"], tmp_path)
        assert code == 0
        payload = read_json(out, "singular.json")
        assert payload["exists"] is False

    def test_singular_super_critical_order(self, tmp_path):
        # sigma = (2m - a)/(p - 1) = 2 at n = 3, m = 2, p = 3, and
        # C^2 = 2 (1 - 2) 4 (1 - 4) = 24
        code, out = run_cli(["singular", "--n", "3", "--m", "2", "--p", "3"],
                            tmp_path)
        assert code == 0
        payload = read_json(out, "singular.json")
        assert payload["sigma"] == pytest.approx(2.0)
        assert payload["amplitude"] == pytest.approx(24.0 ** 0.5)
        assert payload["checks"][0]["pass"]

    def test_singular_amplitude_overflow_exits_1(self, tmp_path, capsys):
        code = main(["singular", "--p", "1.0001",
                     "--output-dir", str(tmp_path / "x"), "--quiet"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == 1 and err["type"] == "AmplitudeRangeError"

    def test_singular_profile_overflow_exits_1(self, tmp_path, capsys):
        # log C = 653 is a float, but C r^(-sigma) at r = 0.45 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["singular", "--p", "1.03",
                         "--output-dir", str(tmp_path / "x"), "--quiet"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == 1 and err["type"] == "AmplitudeRangeError"

    def test_eigen_tagged(self, tmp_path):
        code, out = run_cli(["eigen", "--n", "3", "--m", "1",
                             "--nodes", "257"], tmp_path)
        assert code == 0
        payload = read_json(out, "eigen.json")
        assert payload["checks"][0]["tag"] == "lemma:3.1"


class TestReport:
    # a small run of each command; check names do not depend on the sizes
    COMMANDS = {
        "report": ["report"],
        "solve-p2-t0": ["solve", "--nodes", "129"],
        "eigen-nodes257": ["eigen", "--nodes", "129"],
        "scan-m2": ["scan", "--u0", "0.5,4,3", "--u1=-4,4,3",
                    "--r-max", "20"],
        "singular": ["singular"],
        "ladder": ["ladder"],
        "kernels-selftest": ["kernels-selftest", "--n-configs", "2"],
    }
    REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench"
                 / "reference.json")

    def test_check_names_match_the_benchmark_reference(self, tmp_path):
        reference = json.loads(self.REFERENCE.read_text())["commands"]
        for ref_id, args in self.COMMANDS.items():
            code, out = run_cli(args, tmp_path, ref_id)
            assert code == 0, ref_id
            payload = read_json(out, f"{args[0]}.json")
            assert payload["pass"], ref_id
            names = {c["name"] for c in payload["checks"]}
            assert names == set(reference[ref_id]["checks"]), ref_id


# Values every flag of every subcommand is driven through, one flag at a
# time; the other flags keep the cheap values below or their defaults.
_FUZZ_POOL = ["nan", "inf", "-inf", "-1", "0", "1", "1e308", "", "x"]
_FUZZ_CHEAP = {
    "kernels-selftest": {"--n-configs": "2"},
    "ladder": {"--k-max": "5"},
    "eigen": {"--nodes": "33"},
    "solve": {"--nodes": "33"},
    "shoot": {"--init": "2.0,1.0", "--r-max": "5"},
    "scan": {"--u0": "0.5,2,2", "--u1": "-1,1,2", "--r-max": "5"},
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_fuzzed_flags_exit_cleanly(command, tmp_path):
    """Any value of any flag exits 0, 1 or 2 with no traceback, and every
    line on standard error is a JSON object (a numpy warning is not)."""
    # every flag that takes a value, bar --output-dir
    flags = [action.option_strings[-1]
             for action in command_parser(command)._actions
             if action.option_strings and action.nargs is None
             and action.option_strings[-1] != "--output-dir"]
    assert flags
    faults = []
    for flag in flags:
        for value in _FUZZ_POOL:
            argv = {**_FUZZ_CHEAP.get(command, {}), flag: value}
            args = [command, *(f"{k}={v}" for k, v in argv.items()),
                    "--quiet", "--output-dir", str(tmp_path / "out")]
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                try:
                    code = main(args)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a traceback at the console
                    code = f"{type(exc).__name__}: {exc}"
            lines = err.getvalue().splitlines()
            lines += [f"{w.category.__name__}: {w.message}" for w in caught]
            not_json = []
            for line in lines:
                try:
                    json.loads(line)
                except ValueError:
                    not_json.append(line)
            if code not in (0, 1, 2) or not_json:
                faults.append((f"{flag}={value}", code, not_json[:2]))
    assert not faults


def test_console_script_entry_point(tmp_path):
    # the child imports the package the suite imported, whether that came
    # from an install, PYTHONPATH or pytest's pythonpath setting
    import hhlab
    paths = [str(Path(hhlab.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "hhlab.cli", "ladder", "--k-max", "3",
         "--quiet", "--output-dir", str(tmp_path / "entry")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
