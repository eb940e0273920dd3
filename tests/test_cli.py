"""Command-line interface: outputs, determinism, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from coupledcs import (QuadratureError, SeedingParams, build_seeding_spec, run_evolution,
                       spec_to_json)
from coupledcs import phase_analysis
from coupledcs.cli import main
from coupledcs.phase_analysis import DEFAULT_GRID_POINTS
from coupledcs.state_evolution import DEFAULT_MAX_ITER, DEFAULT_TOL
from coupledcs.replica_core import Ensemble


@pytest.fixture
def runner():
    return CliRunner()


def read_csv_rows(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestMmseCommand:
    def test_zero_precision_row(self, runner, tmp_path):
        out = tmp_path / "m.csv"
        res = runner.invoke(main, ["mmse", "--rho", "0.4", "--grid", "0",
                                   "--samples", "1000", "-o", str(out)])
        assert res.exit_code == 0, res.output
        header, rows = read_csv_rows(out)
        assert header == ["varsigma", "mmse", "mc_estimate", "mc_stderr"]
        assert len(rows) == 1 and float(rows[0][1]) == 0.4

    def test_malformed_grid_exits_2(self, runner, tmp_path):
        res = runner.invoke(main, ["mmse", "--rho", "0.4", "--grid", "nope",
                                   "-o", str(tmp_path / "m.csv")])
        assert res.exit_code == 2
        assert "--grid" in res.output

    def test_quadrature_within_mc_errorbars(self, runner, tmp_path):
        out = tmp_path / "m.csv"
        res = runner.invoke(main, ["mmse", "--rho", "0.4", "--grid", "0.1,1,10",
                                   "--samples", "200000", "-o", str(out)])
        assert res.exit_code == 0, res.output
        _, rows = read_csv_rows(out)
        for row in rows:
            exact, mc, err = float(row[1]), float(row[2]), float(row[3])
            assert abs(exact - mc) <= 3 * err

    def test_byte_identical_reruns(self, runner, tmp_path):
        args = ["mmse", "--rho", "0.3", "--grid", "0.5,2", "--samples", "10000"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert runner.invoke(main, args + ["-o", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["-o", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.json").read_text() == (tmp_path / "b.csv.json").read_text()


class TestFreeEntropyCommand:
    def test_bistable_window_lists_two_maxima(self, runner, tmp_path):
        out = tmp_path / "f.csv"
        res = runner.invoke(main, ["free-entropy", "--rho", "0.4", "--sigma2", "1e-4",
                                   "--alpha", "0.49", "--ensemble", "gaussian",
                                   "--points", "800", "-o", str(out)])
        assert res.exit_code == 0, res.output
        sidecar = json.loads((tmp_path / "f.csv.json").read_text())
        assert len(sidecar["maxima"]) == 2

    def test_high_rate_single_maximum(self, runner, tmp_path):
        out = tmp_path / "f.csv"
        res = runner.invoke(main, ["free-entropy", "--rho", "0.4", "--sigma2", "1e-4",
                                   "--alpha", "0.99", "--ensemble", "orthogonal",
                                   "--points", "800", "-o", str(out)])
        assert res.exit_code == 0, res.output
        sidecar = json.loads((tmp_path / "f.csv.json").read_text())
        assert len(sidecar["maxima"]) == 1

    def test_orthogonal_rate_above_one_exits_2(self, runner, tmp_path):
        res = runner.invoke(main, ["free-entropy", "--rho", "0.4", "--sigma2", "1e-4",
                                   "--alpha", "1.5", "--ensemble", "orthogonal",
                                   "-o", str(tmp_path / "f.csv")])
        assert res.exit_code == 2, res.output
        assert "alpha" in res.output

    @pytest.mark.parametrize("alpha", ["0", "-0.1"])
    def test_non_positive_rate_exits_2(self, runner, tmp_path, alpha):
        res = runner.invoke(main, ["free-entropy", "--rho", "0.4", "--sigma2", "1e-4",
                                   "--alpha", alpha, "--ensemble", "orthogonal",
                                   "-o", str(tmp_path / "f.csv")])
        assert res.exit_code == 2, res.output
        assert "alpha must be > 0" in res.output

    def test_points_default_is_the_library_default(self, runner, tmp_path):
        res = runner.invoke(main, ["free-entropy", "--rho", "0.4", "--sigma2", "1e-4",
                                   "--alpha", "0.49", "--ensemble", "gaussian",
                                   "-o", str(tmp_path / "f.csv")])
        assert res.exit_code == 0, res.output
        config = json.loads((tmp_path / "f.csv.json").read_text())["config"]
        assert config["points"] == DEFAULT_GRID_POINTS
        _, rows = read_csv_rows(tmp_path / "f.csv")
        assert len(rows) == DEFAULT_GRID_POINTS

    def test_deterministic_output(self, runner, tmp_path):
        args = ["free-entropy", "--rho", "0.4", "--sigma2", "1e-4", "--alpha", "0.45",
                "--ensemble", "gaussian", "--points", "400"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert runner.invoke(main, args + ["-o", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["-o", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()


class TestPhaseDiagramCommand:
    def test_empty_grid_exits_2(self, runner, tmp_path):
        res = runner.invoke(main, ["phase-diagram", "--rho", "0.4", "--sigma2-grid", ",",
                                   "--ensemble", "gaussian", "-o", str(tmp_path / "p.csv")])
        assert res.exit_code == 2

    def test_noise_free_point_exits_2(self, runner, tmp_path):
        # F diverges at sigma2 = 0: no row may claim the system has no transition
        out = tmp_path / "p.csv"
        res = runner.invoke(main, ["phase-diagram", "--rho", "0.4", "--sigma2-grid", "0",
                                   "--ensemble", "gaussian", "-o", str(out)])
        assert res.exit_code == 2, res.output
        assert "diverges at sigma2 = 0" in res.output
        assert not out.exists()

    def test_numeric_failure_exits_3_and_writes_nothing(self, runner, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise QuadratureError("stub failure", value=0.0, error_estimate=1.0)

        monkeypatch.setattr(phase_analysis, "mmse", fail)
        out = tmp_path / "p.csv"
        res = runner.invoke(main, ["phase-diagram", "--rho", "0.4", "--sigma2-grid", "1e-4,1e-3",
                                   "--ensemble", "gaussian", "-o", str(out)])
        assert res.exit_code == 3, res.output
        assert "numeric failure: stub failure" in res.output
        assert not out.exists() and not (tmp_path / "p.csv.json").exists()

    def test_threads_names_no_flag(self, runner, tmp_path):
        out, config = tmp_path / "p.csv", tmp_path / "c.json"
        config.write_text(json.dumps({"threads": 2}))
        args = ["phase-diagram", "--rho", "0.4", "--sigma2-grid", "1e-4", "--ensemble",
                "gaussian", "-o", str(out)]
        res = runner.invoke(main, args + ["--config", str(config)])
        assert res.exit_code == 2, res.output
        assert "key 'threads' names no flag" in res.output
        assert runner.invoke(main, args + ["--threads", "1"]).exit_code == 2
        assert not out.exists() and not (tmp_path / "p.csv.json").exists()
        assert "--threads" not in runner.invoke(main, ["phase-diagram", "--help"]).output

    def test_dense_signal_points_not_sharp(self, runner, tmp_path):
        # rho = 1 has no bistable window at any rate: alpha(v) is monotone
        out = tmp_path / "p.csv"
        res = runner.invoke(main, ["phase-diagram", "--rho", "1.0",
                                   "--sigma2-grid", "1e-3,2e-3",
                                   "--ensemble", "gaussian", "-o", str(out)])
        assert res.exit_code == 0, res.output
        header, rows = read_csv_rows(out)
        assert header == ["sigma2", "alpha_d", "alpha_c", "alpha_s", "sharp"]
        assert len(rows) == 2
        assert float(rows[0][0]) == 1e-3 and float(rows[1][0]) == 2e-3
        for row in rows:
            assert row[1:] == ["", "", "", "0"]
        meta = json.loads((tmp_path / "p.csv.json").read_text())
        assert set(meta) == {"tool", "version", "command", "config"}
        assert set(meta["config"]) == {"rho", "sigma2_grid", "ensemble"}


class TestEvolveCommand:
    def test_degenerate_chain_matches_uncoupled_library_run(self, runner, tmp_path):
        out = tmp_path / "t.csv"
        res = runner.invoke(main, ["evolve", "--L", "1", "--W", "1",
                                   "--alpha-seed", "0.6", "--alpha-bulk", "0.6",
                                   "--J", "0.5", "--rho", "0.4", "--sigma2", "1e-4",
                                   "--ensemble", "orthogonal", "-o", str(out)])
        assert res.exit_code == 0, res.output
        header, rows = read_csv_rows(out)
        assert header == ["t", "eps_1"]
        spec = build_seeding_spec(SeedingParams(L=1, W=1, alpha_seed=0.6, alpha_bulk=0.6, J=0.5),
                                  0.4, 1e-4)
        trace = run_evolution(spec, Ensemble.ROW_ORTHOGONAL)
        got = np.array([float(r[1]) for r in rows])
        assert np.array_equal(got, trace.history[:, 0])
        meta = json.loads((tmp_path / "t.csv.json").read_text())
        assert meta["converged"] is True

    def test_sidecar_keys(self, runner, tmp_path):
        out = tmp_path / "t.csv"
        res = runner.invoke(main, ["evolve", "--L", "2", "--W", "1",
                                   "--alpha-seed", "0.6", "--alpha-bulk", "0.5",
                                   "--J", "0.5", "--rho", "0.4", "--sigma2", "1e-4",
                                   "--ensemble", "orthogonal", "-o", str(out)])
        assert res.exit_code == 0, res.output
        meta = json.loads((tmp_path / "t.csv.json").read_text())
        assert set(meta) == {"tool", "version", "command", "config", "converged", "iterations",
                             "oscillating", "overall_rate", "final_eps"}

    def test_tol_and_max_iter_defaults_are_the_library_defaults(self, runner, tmp_path):
        res = runner.invoke(main, ["evolve", "--L", "2", "--W", "1",
                                   "--alpha-seed", "0.6", "--alpha-bulk", "0.5",
                                   "--J", "0.5", "--rho", "0.4", "--sigma2", "1e-4",
                                   "--ensemble", "gaussian", "-o", str(tmp_path / "t.csv")])
        assert res.exit_code == 0, res.output
        config = json.loads((tmp_path / "t.csv.json").read_text())["config"]
        assert config["tol"] == DEFAULT_TOL and config["max_iter"] == DEFAULT_MAX_ITER
        assert type(config["max_iter"]) is int

    def test_spec_file_with_bad_gamma_exits_2(self, runner, tmp_path):
        spec = build_seeding_spec(SeedingParams(L=2, W=1, alpha_seed=0.6, alpha_bulk=0.5, J=0.5),
                                  0.4, 1e-4)
        doc = json.loads(spec_to_json(spec))
        doc["gamma"] = [0.6, 0.6]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        res = runner.invoke(main, ["evolve", "--spec-file", str(spec_path),
                                   "--ensemble", "gaussian", "-o", str(tmp_path / "t.csv")])
        assert res.exit_code == 2
        assert "gamma" in res.output

    def test_spec_file_with_nan_exits_2(self, runner, tmp_path):
        spec = build_seeding_spec(SeedingParams(L=2, W=1, alpha_seed=0.6, alpha_bulk=0.5, J=0.5),
                                  0.4, 1e-4)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec_to_json(spec).replace('"sigma2": 0.0001', '"sigma2": NaN'))
        res = runner.invoke(main, ["evolve", "--spec-file", str(spec_path),
                                   "--ensemble", "gaussian", "-o", str(tmp_path / "t.csv")])
        assert res.exit_code == 2
        assert "sigma2 must be finite" in res.output

    @pytest.mark.parametrize("flag, content, message", [
        ("--spec-file", "[1, 2]", "JSON object"),
        ("--spec-file", {"L_r": None}, "L_r"),
        ("--spec-file", {"rho": None}, "rho"),
        ("--spec-file", {"L_c": 2.5}, "L_c"),
        # float() and a float array would coerce these to valid numbers
        ("--spec-file", {"rho": "0.4"}, "rho"),
        ("--spec-file", {"sigma2": True}, "sigma2"),
        ("--spec-file", {"gamma": ["0.5", "0.5"]}, "gamma"),
        ("--spec-file", {"J": [[True, 1.0], [2.0, 2.0]]}, "J"),
        # row rates M_q / N of 0.9 and -0.1
        ("--spec-file", {"alpha": [[1.8, 1.8], [-0.2, -0.2]], "J": [[2.0, 2.0], [2.0, 2.0]]},
         "alpha"),
        ("--config", "{bad", "--config"),
        ("--config", "[1]", "--config"),
    ], ids=["spec-not-object", "spec-L_r-null", "spec-rho-null", "spec-L_c-fractional",
            "spec-rho-string", "spec-sigma2-bool", "spec-gamma-strings", "spec-J-bool",
            "spec-negative-rate",
            "config-bad-json", "config-not-object"])
    def test_malformed_input_file_exits_2(self, runner, tmp_path, flag, content, message):
        if isinstance(content, dict):
            spec = build_seeding_spec(
                SeedingParams(L=2, W=1, alpha_seed=0.6, alpha_bulk=0.5, J=0.5), 0.4, 1e-4)
            content = json.dumps({**json.loads(spec_to_json(spec)), **content})
        path = tmp_path / "input.json"
        path.write_text(content)
        # complete seeding flags: a file the command ignored would run and exit 0
        res = runner.invoke(main, ["evolve", flag, str(path), "--L", "1", "--W", "1",
                                   "--alpha-seed", "0.6", "--alpha-bulk", "0.6", "--J", "0.5",
                                   "--rho", "0.4", "--sigma2", "1e-4", "--max-iter", "3",
                                   "--ensemble", "gaussian", "-o", str(tmp_path / "t.csv")])
        assert res.exit_code == 2, res.output
        assert message in res.output

    def test_non_convergence_is_exit_0(self, runner, tmp_path):
        out = tmp_path / "t.csv"
        res = runner.invoke(main, ["evolve", "--L", "1", "--W", "1",
                                   "--alpha-seed", "0.6", "--alpha-bulk", "0.6",
                                   "--J", "0.5", "--rho", "0.4", "--sigma2", "1e-4",
                                   "--ensemble", "gaussian", "--max-iter", "3",
                                   "-o", str(out)])
        assert res.exit_code == 0, res.output
        meta = json.loads((tmp_path / "t.csv.json").read_text())
        assert meta["converged"] is False and meta["iterations"] == 3

    @pytest.mark.parametrize("ensemble", ["gaussian", "orthogonal"])
    def test_zero_sparsity_exits_2(self, runner, tmp_path, ensemble):
        res = runner.invoke(main, ["evolve", "--L", "2", "--W", "1",
                                   "--alpha-seed", "0.6", "--alpha-bulk", "0.5",
                                   "--J", "0.5", "--rho", "0", "--sigma2", "1e-4",
                                   "--ensemble", ensemble, "-o", str(tmp_path / "t.csv")])
        assert res.exit_code == 2, res.output
        assert "rho" in res.output and "init" not in res.output

    def test_missing_flags_exit_2(self, runner, tmp_path):
        res = runner.invoke(main, ["evolve", "--ensemble", "gaussian",
                                   "-o", str(tmp_path / "t.csv")])
        assert res.exit_code == 2
        assert "--L" in res.output


class TestGenMatrixCommand:
    def _spec_file(self, tmp_path, L=2, alpha=0.5):
        spec = build_seeding_spec(SeedingParams(L=L, W=1, alpha_seed=alpha, alpha_bulk=alpha, J=0.5),
                                  0.4, 1e-4)
        path = tmp_path / "spec.json"
        path.write_text(spec_to_json(spec))
        return path

    def test_orthogonal_variance_ratio_exactly_one(self, runner, tmp_path):
        spec_path = self._spec_file(tmp_path)
        res = runner.invoke(main, ["gen-matrix", "--spec-file", str(spec_path),
                                   "--N", "128", "--seed", "0", "--ensemble", "orthogonal",
                                   "-o", str(tmp_path / "inst")])
        assert res.exit_code == 0, res.output
        stats = json.loads((tmp_path / "inst.stats.json").read_text())
        for entry in stats["blocks"].values():
            assert entry["ratio"] == 1.0

    def test_gaussian_variance_within_five_percent(self, runner, tmp_path):
        spec_path = self._spec_file(tmp_path, L=1)
        res = runner.invoke(main, ["gen-matrix", "--spec-file", str(spec_path),
                                   "--N", "4096", "--seed", "0", "--ensemble", "gaussian",
                                   "-o", str(tmp_path / "inst")])
        assert res.exit_code == 0, res.output
        stats = json.loads((tmp_path / "inst.stats.json").read_text())
        for entry in stats["blocks"].values():
            assert abs(entry["ratio"] - 1.0) <= 0.05

    def test_too_small_dimension_exits_2(self, runner, tmp_path):
        spec_path = self._spec_file(tmp_path, L=2, alpha=1.4)
        res = runner.invoke(main, ["gen-matrix", "--spec-file", str(spec_path),
                                   "--N", "64", "--seed", "0", "--ensemble", "orthogonal",
                                   "-o", str(tmp_path / "inst")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
    def test_non_finite_noise_exits_2(self, runner, tmp_path, sigma):
        spec_path = self._spec_file(tmp_path)
        res = runner.invoke(main, ["gen-matrix", "--spec-file", str(spec_path),
                                   "--N", "128", "--seed", "0", "--ensemble", "orthogonal",
                                   "--sigma", sigma, "-o", str(tmp_path / "inst")])
        assert res.exit_code == 2, res.output
        assert "sigma must be finite" in res.output
        assert not list(tmp_path.glob("inst*"))


class TestConfigAndVersion:
    def test_config_file_supplies_flags(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": 0.4, "grid": "0", "samples": 1000,
                                   "output": str(tmp_path / "m.csv")}))
        res = runner.invoke(main, ["mmse", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("command", ["mmse", "free-entropy", "phase-diagram", "evolve",
                                         "gen-matrix"])
    def test_unknown_config_key_exits_2(self, runner, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        # every command has --output; none has --rhoo
        cfg.write_text(json.dumps({"output": str(tmp_path / "x"), "rhoo": 0.4}))
        res = runner.invoke(main, [command, "--config", str(cfg)])
        assert res.exit_code == 2, res.output
        assert "'rhoo'" in res.output
        assert not (tmp_path / "x").exists()

    def test_misspelled_optional_key_is_not_a_default(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": 0.4, "grid": "0", "sampels": 10}))
        res = runner.invoke(main, ["mmse", "--config", str(cfg), "-o", str(tmp_path / "m.csv")])
        assert res.exit_code == 2
        assert "'sampels'" in res.output

    def test_two_keys_for_one_flag_exit_2(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": 0.4, "grid": "0", "grid_text": "1"}))
        res = runner.invoke(main, ["mmse", "--config", str(cfg), "-o", str(tmp_path / "m.csv")])
        assert res.exit_code == 2
        assert "same flag" in res.output

    def test_config_keys_take_flag_or_parameter_names(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": 1, "W": 1, "alpha-seed": 0.6, "alpha_bulk": 0.6,
                                   "J": 0.5, "rho": 0.4, "sigma2": 1e-4, "max-iter": 3,
                                   "ensemble": "gaussian"}))
        res = runner.invoke(main, ["evolve", "--config", str(cfg), "-o", str(tmp_path / "t.csv")])
        assert res.exit_code == 0, res.output
        meta = json.loads((tmp_path / "t.csv.json").read_text())
        assert meta["config"]["alpha_seed"] == 0.6 and meta["config"]["max_iter"] == 3

    def test_version(self, runner):
        res = runner.invoke(main, ["--version"])
        assert res.exit_code == 0


def test_public_names_resolve_without_loading_the_cli():
    code = ("import sys, coupledcs; "
            "assert all(hasattr(coupledcs, n) for n in coupledcs.__all__); "
            "sys.exit(any(m.split('.')[0] == 'click' or m == 'coupledcs.cli' "
            "for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
