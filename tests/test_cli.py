import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from hhlab.cli import main


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

    def test_lambda1_is_the_solver_eigenpair(self, tmp_path):
        from hhlab.navier import NavierProblem, first_eigenpair
        from hhlab.radial import HardyHenonParams
        code, out = run_cli(["solve", "--nodes", "129"], tmp_path)
        assert code == 0
        problem = NavierProblem(HardyHenonParams(4, 2, 0.0, 2.0), 1.0)
        eig = first_eigenpair(problem, 1e-10, problem.default_grid(129))
        assert read_json(out, "solve.json")["lambda1"] == eig.lambda1


class TestConfigAndFlags:
    def test_unknown_flag_exits_2_without_outputs(self, tmp_path):
        out_dir = tmp_path / "nothing"
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--does-not-exist", "1",
                  "--output-dir", str(out_dir)])
        assert exc.value.code == 2
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

    @pytest.mark.parametrize("workers", [
        "0", "-3", "nan", str((os.cpu_count() or 1) + 1)])
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

    def test_eigen_tagged(self, tmp_path):
        code, out = run_cli(["eigen", "--n", "3", "--m", "1",
                             "--nodes", "257"], tmp_path)
        assert code == 0
        payload = read_json(out, "eigen.json")
        assert payload["checks"][0]["tag"] == "lemma:3.1"


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hhlab.cli", "ladder", "--k-max", "3",
         "--quiet", "--output-dir", "/tmp/hhlab-entry-test"],
        capture_output=True, text=True)
    assert proc.returncode == 0
