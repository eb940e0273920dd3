"""Command-line interface: outputs, determinism, exit codes."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from coupledcs import SeedingParams, build_seeding_spec, run_evolution, spec_to_json
from coupledcs.cli import main
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

    def test_dense_signal_points_not_sharp(self, runner, tmp_path):
        # rho = 1 has no bistable window at any rate; channel term is closed
        # form there so the scan-based search stays fast
        out = tmp_path / "p.csv"
        res = runner.invoke(main, ["phase-diagram", "--rho", "1.0",
                                   "--sigma2-grid", "1e-3,2e-3", "--threads", "2",
                                   "--ensemble", "gaussian", "-o", str(out)])
        assert res.exit_code == 0, res.output
        header, rows = read_csv_rows(out)
        assert header == ["sigma2", "alpha_d", "alpha_c", "alpha_s", "sharp", "status"]
        assert len(rows) == 2
        assert float(rows[0][0]) == 1e-3 and float(rows[1][0]) == 2e-3
        for row in rows:
            assert row[4] == "0" and row[5] == "ok"
            assert row[1] == "" and row[2] == "" and row[3] == ""


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


class TestConfigAndVersion:
    def test_config_file_supplies_flags(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": 0.4, "grid": "0", "samples": 1000,
                                   "output": str(tmp_path / "m.csv")}))
        res = runner.invoke(main, ["mmse", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "m.csv").exists()

    def test_version(self, runner):
        res = runner.invoke(main, ["--version"])
        assert res.exit_code == 0
