"""Command-line frontend emitting figure-ready CSV data with JSON sidecars.

This module holds every file format the package writes; the experiment
scripts write through the same functions.  Exit codes: 0 success,
2 parameter/validation failure, 3 numeric failure.  Every command is
deterministic for a fixed flag set; output files carry no timestamps so
repeated runs are byte-identical.
"""

import functools
import json
import sys

import click
import numpy as np

from . import __version__
from .coupling import SeedingParams, build_seeding_spec, spec_from_json, spec_to_json
from .measurement_ops import block_variance_report, build_coupled_operator, gen_instance
from .phase_analysis import DEFAULT_GRID_POINTS, scan_curve, sweep_phase_diagram
from .replica_core import Ensemble, single_block_spec
from .scalar_channel import BernoulliGaussianPrior, mmse, mmse_mc_oracle
from .state_evolution import DEFAULT_MAX_ITER, DEFAULT_TOL, run_evolution

EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
_ensemble_option = click.option("--ensemble", required=True,
                                type=click.Choice([kind.value for kind in Ensemble]))


def _parse_grid(text, flag):
    """Comma list ("0.1,1,10") or log range ("1e-3:1e2:25")."""
    try:
        if ":" in text:
            lo, hi, num = text.split(":")
            lo, hi, num = float(lo), float(hi), int(num)
            if num < 1 or lo <= 0 or hi <= 0:
                raise ValueError
            return list(np.geomspace(lo, hi, num))
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
        if not values:
            raise ValueError
        return values
    except ValueError:
        raise click.BadParameter(f"could not parse grid {text!r}", param_hint=flag)


def _num(v):
    return repr(float(v))


def _write_csv(path, header, rows):
    """One header line, then one comma-joined line per row of formatted cells."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_curve_csv(path, points):
    """(eps, F) pairs: a free-entropy curve or its maxima."""
    _write_csv(path, "eps,free_entropy", ((_num(e), _num(f)) for e, f in points))


def write_trace_csv(path, history):
    """Per-block MSE of a state-evolution run, one row per iteration."""
    header = "t," + ",".join(f"eps_{p + 1}" for p in range(history.shape[1]))
    _write_csv(path, header, ((str(t), *map(_num, eps)) for t, eps in enumerate(history)))


def write_phase_csv(path, points):
    """One row per sweep point; rates of a point without them are empty cells."""
    def row(pt):
        rates = ("" if v is None else _num(v) for v in (pt.alpha_d, pt.alpha_c, pt.alpha_s))
        return (_num(pt.sigma2), *rates, str(int(pt.sharp)))
    _write_csv(path, "sigma2,alpha_d,alpha_c,alpha_s,sharp", map(row, points))


def write_complex_csv(path, values):
    """(re, im) column pairs, one complex entry per row."""
    _write_csv(path, "re,im", ((_num(v.real), _num(v.imag)) for v in values))


def export_instance(op, inst, prefix):
    """Write <prefix>.json plus <prefix>_x.csv / <prefix>_y.csv."""
    header = {"N": op.N, "M": op.M, "ensemble": op.kind.value, "sigma": inst.sigma,
              "seed": inst.seed, "spec": json.loads(spec_to_json(op.spec))}
    with open(f"{prefix}.json", "w") as fh:
        json.dump(header, fh, indent=2)
    write_complex_csv(f"{prefix}_x.csv", inst.x)
    write_complex_csv(f"{prefix}_y.csv", inst.y)


def _sidecar(path, command, config, extra=None):
    doc = {"tool": "coupledcs", "version": __version__, "command": command,
           "config": config}
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _apply_config(ctx, param, value):
    """--config JSON supplies defaults for any flag not given explicitly.

    A key is a flag's long name without the dashes ("sigma2-grid") or its
    parameter name ("sigma2_text"); any other key is an error.
    """
    if value is None:
        return None
    try:
        with open(value) as fh:
            defaults = json.load(fh)
    except (OSError, ValueError) as exc:
        raise click.BadParameter(f"unreadable JSON: {exc}") from None
    if not isinstance(defaults, dict):
        raise click.BadParameter("must hold a JSON object of flag defaults")
    names = {key: p.name for p in ctx.command.params if p is not param
             for key in (p.name, *(opt[2:] for opt in p.opts if opt.startswith("--")))}
    unknown = [key for key in defaults if key not in names]
    if unknown:
        raise click.BadParameter(f"key {unknown[0]!r} names no flag of this command")
    ctx.default_map = {names[key]: v for key, v in defaults.items()}
    if len(ctx.default_map) < len(defaults):
        raise click.BadParameter("two keys name the same flag")
    return value


def _config_option(fn):
    return click.option("--config", type=click.Path(exists=True), callback=_apply_config,
                        is_eager=True, expose_value=False,
                        help="JSON file supplying defaults for any flag.")(fn)


def _run_guarded(fn):
    """Map library errors onto the exit-code contract."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ArithmeticError as exc:  # QuadratureError and ConvergenceError included
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(EXIT_NUMERIC)
        except (ValueError, OSError) as exc:
            click.echo(f"invalid input: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
    return wrapper


@click.group()
@click.version_option(version=__version__)
def main():
    """Replica analysis of compressed sensing with coupled orthogonal matrices."""


@main.command("mmse")
@click.option("--rho", type=float, required=True, help="Signal density in [0, 1].")
@click.option("--grid", "grid_text", default="1e-2:1e2:25", show_default=True,
              help="Precision grid: comma list or lo:hi:n (log-spaced).")
@click.option("--samples", type=int, default=10 ** 6, show_default=True,
              help="Monte-Carlo samples per grid point.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("-o", "--output", type=click.Path(), required=True)
@_config_option
@_run_guarded
def cmd_mmse(rho, grid_text, samples, seed, output):
    """Scalar-channel mmse with its Monte-Carlo cross-check, one row per precision."""
    grid = _parse_grid(grid_text, "--grid")
    prior = BernoulliGaussianPrior(rho)
    rows = []
    for i, vs in enumerate(grid):
        exact = mmse(vs, prior)
        if vs > 0:
            mc, err = mmse_mc_oracle(vs, prior, samples, seed + i)
        else:
            mc, err = rho, 0.0
        rows.append((vs, exact, mc, err))
    _write_csv(output, "varsigma,mmse,mc_estimate,mc_stderr", (map(_num, r) for r in rows))
    _sidecar(f"{output}.json", "mmse",
             {"rho": rho, "grid": grid, "samples": samples, "seed": seed})


@main.command("free-entropy")
@click.option("--rho", type=float, required=True)
@click.option("--sigma2", type=float, required=True)
@click.option("--alpha", type=float, required=True)
@_ensemble_option
@click.option("--points", type=int, default=DEFAULT_GRID_POINTS, show_default=True)
@click.option("--eps-floor", type=float, default=None)
@click.option("-o", "--output", type=click.Path(), required=True)
@_config_option
@_run_guarded
def cmd_free_entropy(rho, sigma2, alpha, ensemble, points, eps_floor, output):
    """F(eps) on a log grid, with the refined local maxima in the sidecar."""
    curve = scan_curve(rho, sigma2, alpha, Ensemble(ensemble),
                       n_points=points, eps_floor=eps_floor)
    write_curve_csv(output, zip(curve.eps_grid, curve.values))
    _sidecar(f"{output}.json", "free-entropy",
             {"rho": rho, "sigma2": sigma2, "alpha": alpha, "ensemble": ensemble,
              "points": points, "eps_floor": eps_floor},
             {"maxima": [{"eps": e, "free_entropy": f} for e, f in curve.maxima]})


@main.command("phase-diagram")
@click.option("--rho", type=float, required=True)
@click.option("--sigma2-grid", "sigma2_text", required=True,
              help="Noise grid: comma list or lo:hi:n (log-spaced).")
@_ensemble_option
@click.option("-o", "--output", type=click.Path(), required=True)
@_config_option
@_run_guarded
def cmd_phase_diagram(rho, sigma2_text, ensemble, output):
    """Transition rates alpha_d, alpha_c, alpha_s per noise level; a numeric failure exits 3."""
    grid = _parse_grid(sigma2_text, "--sigma2-grid")
    points = sweep_phase_diagram(rho, grid, Ensemble(ensemble))
    write_phase_csv(output, points)
    _sidecar(f"{output}.json", "phase-diagram",
             {"rho": rho, "sigma2_grid": grid, "ensemble": ensemble})


@main.command("evolve")
@click.option("--spec-file", type=click.Path(exists=True), default=None,
              help="CouplingSpec JSON document (overrides the seeding flags).")
@click.option("--L", "L", type=int, default=None)
@click.option("--W", "W", type=int, default=2, show_default=True)
@click.option("--alpha-seed", type=float, default=None)
@click.option("--alpha-bulk", type=float, default=None)
@click.option("--J", "J", type=float, default=None)
@click.option("--rho", type=float, default=None)
@click.option("--sigma2", type=float, default=None)
@_ensemble_option
@click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True)
@click.option("--max-iter", type=int, default=DEFAULT_MAX_ITER, show_default=True)
@click.option("--damping", type=float, default=0.0, show_default=True)
@click.option("-o", "--output", type=click.Path(), required=True)
@_config_option
@_run_guarded
def cmd_evolve(spec_file, L, W, alpha_seed, alpha_bulk, J, rho, sigma2, ensemble,
               tol, max_iter, damping, output):
    """Run the coupled state evolution; trace CSV plus convergence metadata.

    Non-convergence at the iteration cap is an analysis outcome, recorded
    in the sidecar, not a failure.
    """
    if spec_file is not None:
        with open(spec_file) as fh:
            spec = spec_from_json(fh.read())
        config_spec = {"spec_file": spec_file}
    else:
        needed = {"--L": L, "--alpha-seed": alpha_seed, "--alpha-bulk": alpha_bulk,
                  "--J": J, "--rho": rho, "--sigma2": sigma2}
        missing = [flag for flag, v in needed.items() if v is None]
        if missing:
            raise click.UsageError(f"missing {', '.join(missing)} (or pass --spec-file)")
        params = SeedingParams(L=L, W=min(W, L), alpha_seed=alpha_seed,
                               alpha_bulk=alpha_bulk, J=J)
        spec = build_seeding_spec(params, rho, sigma2)
        config_spec = {"L": L, "W": W, "alpha_seed": alpha_seed,
                       "alpha_bulk": alpha_bulk, "J": J, "rho": rho, "sigma2": sigma2}
    trace = run_evolution(spec, Ensemble(ensemble), tol=tol, max_iter=max_iter,
                          damping=damping)
    write_trace_csv(output, trace.history)
    _sidecar(f"{output}.json", "evolve",
             {**config_spec, "ensemble": ensemble, "tol": tol,
              "max_iter": max_iter, "damping": damping},
             {"converged": trace.converged, "iterations": trace.iterations,
              "oscillating": trace.oscillating,
              "overall_rate": spec.total_rate,
              "final_eps": trace.final_eps.tolist()})


@main.command("gen-matrix")
@click.option("--spec-file", type=click.Path(exists=True), required=True,
              help="CouplingSpec JSON document.")
@click.option("--N", "N", type=int, required=True, help="Total signal dimension.")
@click.option("--seed", type=int, default=0, show_default=True)
@_ensemble_option
@click.option("--sigma", type=float, default=0.0, show_default=True,
              help="Measurement noise magnitude.")
@click.option("-o", "--output", "prefix", type=click.Path(), required=True,
              help="Output prefix for .json / _x.csv / _y.csv / .stats.json.")
@_config_option
@_run_guarded
def cmd_gen_matrix(spec_file, N, seed, ensemble, sigma, prefix):
    """Draw an operator and a synthetic instance; report per-block statistics."""
    with open(spec_file) as fh:
        spec = spec_from_json(fh.read())
    op = build_coupled_operator(spec, N, seed, Ensemble(ensemble))
    inst = gen_instance(op, spec.prior, sigma, seed)
    export_instance(op, inst, prefix)
    _sidecar(f"{prefix}.stats.json", "gen-matrix",
             {"spec_file": spec_file, "N": N, "seed": seed, "ensemble": ensemble,
              "sigma": sigma},
             {"blocks": block_variance_report(op)})


if __name__ == "__main__":
    main()
