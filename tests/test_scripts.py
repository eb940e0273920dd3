"""The experiment scripts write the same bytes as the matching CLI commands."""

import importlib.util
import json
from pathlib import Path

from click.testing import CliRunner

from coupledcs.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
ENSEMBLES = ("orthogonal", "gaussian")


def run_script(name, tmp_path, monkeypatch, **constants):
    """Run scripts/<name>.py in tmp_path with some of its constants replaced."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for key, value in constants.items():
        setattr(module, key, value)
    monkeypatch.chdir(tmp_path)
    module.main()
    return tmp_path / "results"


def run_cli(args, out):
    res = CliRunner().invoke(main, args + ["-o", str(out)])
    assert res.exit_code == 0, res.output
    return out.read_bytes()


def test_coupled_evolution_matches_evolve(tmp_path, monkeypatch):
    results = run_script("coupled_evolution", tmp_path, monkeypatch)
    for ensemble in ENSEMBLES:
        cli = run_cli(["evolve", "--L", "10", "--W", "2", "--alpha-seed", "0.70",
                       "--alpha-bulk", "0.49", "--J", "0.5", "--rho", "0.4",
                       "--sigma2", "1e-6", "--ensemble", ensemble], tmp_path / "t.csv")
        assert (results / f"coupled_trace_{ensemble}.csv").read_bytes() == cli


def test_free_entropy_curves_match_free_entropy(tmp_path, monkeypatch):
    results = run_script("free_entropy_curves", tmp_path, monkeypatch, ALPHAS=(0.49,))
    for ensemble in ENSEMBLES:
        out = tmp_path / "f.csv"
        cli = run_cli(["free-entropy", "--rho", "0.4", "--sigma2", "1e-4", "--alpha", "0.49",
                       "--ensemble", ensemble], out)
        base = f"free_entropy_{ensemble}_alpha0.49"
        assert (results / f"{base}.csv").read_bytes() == cli
        maxima = json.loads((tmp_path / "f.csv.json").read_text())["maxima"]
        rows = (results / f"{base}.maxima.csv").read_text().splitlines()
        assert rows[0] == "eps,free_entropy"
        assert [[float(v) for v in r.split(",")] for r in rows[1:]] == \
            [[m["eps"], m["free_entropy"]] for m in maxima]


def test_phase_diagram_matches_phase_diagram(tmp_path, monkeypatch):
    # rho = 1 has no bistable window and a closed-form channel term: one fast point
    results = run_script("phase_diagram", tmp_path, monkeypatch, RHO=1.0, SIGMA2_GRID=[1e-3])
    for ensemble in ENSEMBLES:
        cli = run_cli(["phase-diagram", "--rho", "1.0", "--sigma2-grid", "1e-3",
                       "--ensemble", ensemble], tmp_path / "p.csv")
        assert (results / f"phase_{ensemble}.csv").read_bytes() == cli
