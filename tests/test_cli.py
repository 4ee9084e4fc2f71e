import contextlib
import io
import json
import math
import multiprocessing
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hhlab.liouville as LV
from hhlab.cli import _COMMANDS, command_parser, main
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
        ("--tol", "-0.01"), ("--budget", "0"), ("--budget", "-5")])
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
        eig = first_eigenpair(problem, 1e-10, problem.default_grid(129))
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
        (["scan", "--a", "2.5"], "hhlab.liouville.scan")])
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
    # are constants, not flags
    @pytest.mark.parametrize("args,ini,flag", [
        (["kernels-selftest", "--tol=0.5"], None, "--tol"),
        (["kernels-selftest", "--budget=1000"], None, "--budget"),
        (["solve", "--tol=1e-6"], None, "--tol"),
        (["eigen", "--tol=1e-6"], None, "--tol"),
        (["solve"], "[solve]\ntol = 1e-6\n", "--tol"),
        (["shoot", "--init", "2,1", "--rtol=1e-9"], None, "--rtol"),
        (["scan", "--atol=1e-13"], None, "--atol"),
        (["scan"], "[scan]\nrtol = 1e-9\n", "--rtol")],
        ids=["selftest-tol", "selftest-budget", "solve-tol", "eigen-tol",
             "config-tol", "shoot-rtol", "scan-atol", "config-rtol"])
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

    # scans run in one process and --workers is gone: every value, the
    # former out-of-range ones included, exits 2 naming the flag, and no
    # worker pool is started
    @pytest.mark.parametrize("workers", ["0", "-3", "nan", "3"])
    def test_workers_out_of_range_exits_2(self, workers, tmp_path, capsys,
                                          monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        out_dir = tmp_path / "w"
        with pytest.raises(SystemExit) as exc:
            main(["scan", f"--workers={workers}", "--u0", "1,2,2",
                  "--u1=-1,1,2", "--output-dir", str(out_dir), "--quiet"])
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == 2 and "--workers" in err["error"]
        assert not out_dir.exists()

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


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hhlab.cli", "ladder", "--k-max", "3",
         "--quiet", "--output-dir", "/tmp/hhlab-entry-test"],
        capture_output=True, text=True)
    assert proc.returncode == 0
