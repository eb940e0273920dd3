#!/usr/bin/env python3
"""Benchmark of the coupledcs package, one workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload phase-point --seed 0 --seconds 10 --trace 0

The package is imported from ./src.  Each run first times three
fresh interpreters that import coupledcs and call every kernel once
(setup_s), then runs passes of the workload's operations, one process,
sequentially, until --seconds have been measured (at least one pass).
Every operation's output is checked after its timed region; an
operation that raises or fails its check counts as failed.  Times are in
reference seconds (speed.py), with wall seconds beside them in the
readable lines.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics; with --trace 1 the same operations run under the
outside-in tracer (tracer.py) and the object carries the per-layer
metrics instead.  Lines before it report the same numbers under the
names of the workload, the parameters the seed drew and the BLAS thread
setting.  Spans of a traced run are written to .perfbench/.
"""

import os

# one process, one thread: set before numpy loads its BLAS
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 120
# do not start another pass once this much of a run has gone
PASS_BUDGET_S = 120
# headline operation of each workload, and the names its times go by
HEADLINE = {"phase-point": ("phase_point", "phase_point_s", 1.0),
            "coupled-evolution": ("evolution", "evolution_s", 1.0),
            "instances": ("roundtrip", "roundtrip_ms", 1e3)}
END_TO_END = (("setup_s", "s"), ("op_s.orthogonal", "s"), ("op_s.gaussian", "s"),
              ("peak_rss_mb", "MB"))


@dataclass
class OpRecord:
    index: int
    kind: str
    ensemble: str | None
    pass_index: int
    start: float = 0.0
    end: float = 0.0
    ref_seconds: float = 0.0    # the same interval in reference seconds (speed.py)
    warnings: int = 0
    failed: bool = False

    @property
    def seconds(self):
        return self.end - self.start


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup():
    """(start, end) of fresh interpreters running setup_probe.py, one after another."""
    spans = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], cwd=ROOT,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        spans.append((start, time.perf_counter()))
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
    return spans


def run_op(op, record, tracer, integration_warning):
    """Time one operation, then check its output outside the timed region."""
    result = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", integration_warning)
        if tracer is not None:
            tracer.op = record.index
        record.start = time.perf_counter()
        try:
            result = op.run()
        except Exception:
            record.failed = True
            print(f"{op.kind} {op.ensemble}: raised\n{traceback.format_exc()}", file=sys.stderr)
        finally:
            record.end = time.perf_counter()
            if tracer is not None:
                tracer.op = None
    record.warnings = sum(issubclass(w.category, integration_warning) for w in caught)
    if record.failed:
        return
    try:
        problems = op.check(result)
    except Exception:
        problems = [f"check raised\n{traceback.format_exc()}"]
    if problems:
        record.failed = True
        print(f"{op.kind} {op.ensemble}: " + "; ".join(problems), file=sys.stderr)


def tail(values):
    """(label, value) of the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    return f"p{100 * (n - 10) // n}", sorted(values)[n - 11]


def run_passes(workload, seconds, tracer, integration_warning):
    """Passes of the workload's operations until `seconds` are measured."""
    records, pass_wall = [], []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if pass_wall and (elapsed >= seconds or elapsed + max(pass_wall) > PASS_BUDGET_S):
            return records
        first = len(records)
        for op in workload.pass_ops():
            record = OpRecord(len(records), op.kind, op.ensemble, len(pass_wall))
            records.append(record)
            run_op(op, record, tracer, integration_warning)
        pass_wall.append(sum(r.seconds for r in records[first:]))


def report(args, workload, records, setup, sampler, peak_rss_mb):
    """Human-readable lines: operation times as measured, wall time beside them."""
    failed = sum(r.failed for r in records)
    n_pass = 1 + records[-1].pass_index
    headline, alias, scale = HEADLINE[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {n_pass}  "
          f"operations {len(records)}  failed {failed}")
    print("blas threads " + " ".join(f"{k}={v}" for k, v in BLAS_THREADS.items()))
    print("parameters " + json.dumps(workload.describe()))
    speeds = sampler.speeds
    print(f"machine speed {statistics.mean(speeds):.3f} of reference (samples {len(speeds)}, "
          f"min {min(speeds):.3f}, max {max(speeds):.3f})")
    print(f"setup_s {statistics.median(setup[1]):.4f} s (median of {len(setup[1])}; "
          f"wall {statistics.median(setup[0]):.4f})")
    passes = [sum(r.ref_seconds for r in records if r.pass_index == p) for p in range(n_pass)]
    print(f"pass_s {statistics.median(passes):.4f} s (median of {n_pass})")
    groups = {}
    for r in records:
        if not r.failed:
            groups.setdefault((r.kind, r.ensemble), []).append(r)
    for (kind, ens), group in groups.items():
        name = (alias if kind == headline else kind + "_s") + (f".{ens}" if ens else "")
        factor = scale if kind == headline else 1.0
        unit = "ms" if factor == 1e3 else "s"
        ref = [r.ref_seconds * factor for r in group]
        line = (f"{name} {statistics.median(ref):.6g} {unit} (median of {len(ref)}; "
                f"wall {statistics.median(r.seconds * factor for r in group):.6g})")
        extra = tail(ref)
        if extra:
            line += f", {name}.{extra[0]} {extra[1]:.6g} {unit}"
        print(line)
    print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    print(f"failed_frac {failed / len(records):.4g} ({failed} of {len(records)})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(HEADLINE))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "coupledcs" / "__init__.py").is_file():
        fail(f"no coupledcs package under {ROOT / 'src'}; run from the root of a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import coupledcs
    from scipy.integrate import IntegrationWarning
    if Path(coupledcs.__file__).resolve().parent != (ROOT / "src" / "coupledcs").resolve():
        fail(f"coupledcs imported from {coupledcs.__file__}, not from ./src")

    from speed import SpeedSampler
    from tracer import PER_LAYER, Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    with SpeedSampler() as sampler:
        setup_spans = measure_setup()
        if tracer is not None:
            tracer.install(coupledcs)
        records = run_passes(workload, args.seconds, tracer, IntegrationWarning)
        if tracer is not None:
            tracer.uninstall()
    setup = ([end - start for start, end in setup_spans],
             [sampler.reference_seconds(start, end) for start, end in setup_spans])
    for r in records:
        r.ref_seconds = sampler.reference_seconds(r.start, r.end)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report(args, workload, records, setup, sampler, peak_rss_mb)

    if tracer is not None:
        metrics = layer_metrics(tracer, records)
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.dump(spans_path, records)
        print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        units = dict(PER_LAYER)
    else:
        headline = HEADLINE[args.workload][0]
        metrics = {"setup_s": statistics.median(setup[1]), "peak_rss_mb": peak_rss_mb}
        for ens in ("orthogonal", "gaussian"):
            ops = [r for r in records if (r.kind, r.ensemble) == (headline, ens)]
            # a failed operation is no sample of the operation's cost
            ops = [r for r in ops if not r.failed] or ops
            metrics[f"op_s.{ens}"] = statistics.median(r.ref_seconds for r in ops)
        units = dict(END_TO_END)
    failed = sum(r.failed for r in records)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
