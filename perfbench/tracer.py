"""Outside-in tracer: spans and counts at the public functions of coupledcs.

The package is not edited.  `Tracer.install` replaces each traced function
with a recording wrapper under every name a module of the package binds it
to, because modules import each other by name (`from .scalar_channel
import mmse` gives `state_evolution` its own binding).  `uninstall` puts
the originals back.

A span is (name, start, end, parent span, operation id, detail).  Spans
are only recorded while an operation is open, so the output checks that
run between operations leave no trace.  `detail` carries what a layer
metric needs: the batch size of a channel-term or free-entropy call, the
arguments of a curve scan, the iterations and chain length of an
evolution, the bytes an operator application touches.
"""

import importlib
import inspect
import pkgutil
import statistics
import time
from collections import defaultdict

import numpy as np

# layer -> traced public functions; the defining module is coupledcs.<layer>
TRACED = {
    "scalar_channel": ("mmse", "mmse_mc_oracle", "posterior_mean"),
    "replica_core": ("channel_term_batch", "free_entropy_grid", "conjugate_fixed_point"),
    "state_evolution": ("run_evolution",),
    "phase_analysis": ("sweep_phase_diagram", "scan_curve",
                       "find_alpha_d", "find_alpha_s", "find_alpha_c"),
    "measurement_ops": ("build_coupled_operator", "gen_instance", "apply", "adjoint_apply"),
}
ENSEMBLES = ("orthogonal", "gaussian")
STAGES = ("find_alpha_d", "find_alpha_s", "find_alpha_c")


def _apply_bytes(op):
    """Bytes the blocks of one application read and write, computed from array sizes.

    DFT block: input slice, scattered copy, FFT output (n each), gathered
    rows and their accumulation into y (m each).  Gaussian block: the
    m x n matrix, the input slice, the product and its accumulation.
    """
    elements = 0
    for block in op.blocks.values():
        if hasattr(block, "matrix"):
            m, n = block.matrix.shape
            elements += m * n + n + 2 * m
        else:
            elements += 3 * block.n + 2 * block.m
    return 16 * elements  # complex128


# name -> f(bound arguments): the span's detail, read before the call
_DETAIL_IN = {
    "channel_term_batch": lambda a: int(np.size(a["varsigma"])),
    "free_entropy_grid": lambda a: len(a["eps_grid"]),
    "scan_curve": lambda a: (a["alpha"], bool(a["refine"]), a["rho"], a["sigma2"],
                             a["kind"], a["n_points"], a["eps_floor"]),
    "apply": lambda a: _apply_bytes(a["op"]),
}
# name -> f(result): the span's detail, read after the call
_DETAIL_OUT = {
    "run_evolution": lambda trace: (trace.iterations, trace.history.shape[1]),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "detail")

    def __init__(self, name, parent, op, detail):
        self.name = name
        self.parent = parent
        self.op = op
        self.detail = detail


class Tracer:
    """Records spans of the traced functions while an operation is open."""

    def __init__(self):
        self.spans = []
        self.op = None      # index of the open operation, None between operations
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)
        detail_in = _DETAIL_IN.get(name)
        detail_out = _DETAIL_OUT.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            detail = None
            if detail_in is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                detail = detail_in(bound.arguments)
            span = Span(name, self._stack[-1] if self._stack else None, self.op, detail)
            self.spans.append(span)
            self._stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            if detail_out is not None:
                span.detail = detail_out(result)
            return result

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap every traced function under every name the package binds it to."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m.name}")
                               for m in pkgutil.iter_modules(package.__path__)]
        wrappers = {}
        for layer, names in TRACED.items():
            home = importlib.import_module(f"{package.__name__}.{layer}")
            for name in names:
                fn = getattr(home, name)
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def dump(self, path, ops):
        """Write the spans as CSV, times in seconds from the first span."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op,op_kind,ensemble,pass,detail\n")
            for i, s in enumerate(self.spans):
                parent = "" if s.parent is None else index[id(s.parent)]
                op = ops[s.op]
                detail = "" if s.detail is None else str(s.detail).replace(",", ";")
                fh.write(f"{i},{s.name},{s.start - t0:.9f},{s.end - t0:.9f},{parent},{s.op},"
                         f"{op.kind},{op.ensemble or ''},{op.pass_index},{detail}\n")


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

# (name, unit); each is reported once per ensemble, with the ensemble appended
SPLIT_METRICS = (
    ("scalar_channel.mmse.calls", "count"),
    ("scalar_channel.mmse.self_s", "s"),
    ("scalar_channel.mmse.ms", "ms"),
    ("replica_core.channel_term_batch.calls", "count"),
    ("replica_core.channel_term_batch.calls_single", "count"),
    ("replica_core.channel_term_batch.points", "count"),
    ("replica_core.channel_term_batch.self_s", "s"),
    ("replica_core.channel_term_batch.ms_single", "ms"),
    ("replica_core.channel_term_batch.ms_batch", "ms"),
    ("replica_core.free_entropy_grid.calls", "count"),
    ("replica_core.free_entropy_grid.points", "count"),
    ("replica_core.free_entropy_grid.self_s", "s"),
    ("replica_core.conjugate_fixed_point.calls", "count"),
    ("replica_core.conjugate_fixed_point.self_s", "s"),
    ("state_evolution.iterations", "count"),
    ("state_evolution.run_evolution.self_s", "s"),
    ("state_evolution.s_per_iteration", "s"),
    ("state_evolution.run_evolution.s_L10", "s"),
    ("phase_analysis.scan_curve.calls", "count"),
    ("phase_analysis.scan_curve.refined_calls", "count"),
    ("phase_analysis.scan_curve.repeat_frac", "ratio"),
    ("phase_analysis.scan_curve.self_s", "s"),
    ("phase_analysis.scan_curve.s_refined", "s"),
    ("phase_analysis.scan_curve.s_unrefined", "s"),
    *((f"phase_analysis.{stage}.{stat}", unit) for stage in STAGES
      for stat, unit in (("s", "s"), ("scans", "count"))),
    ("measurement_ops.build_coupled_operator.s", "s"),
    ("measurement_ops.gen_instance.s", "s"),
    ("measurement_ops.apply.ms", "ms"),
    ("measurement_ops.adjoint_apply.ms", "ms"),
    ("measurement_ops.apply.bytes_computed", "B"),
)
UNSPLIT_METRICS = (
    ("scalar_channel.mmse_mc_oracle.self_s", "s"),
    ("scalar_channel.posterior_mean.self_s", "s"),
    ("scalar_channel.integration_warnings", "count"),
    ("trace.pass_s", "s"),
    ("trace.spans", "count"),
)
PER_LAYER = tuple((f"{name}.{ens}", unit) for name, unit in SPLIT_METRICS for ens in ENSEMBLES) \
    + UNSPLIT_METRICS

def _self_times(spans):
    """Span duration minus the time its direct child spans cover."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[id(s.parent)] += s.end - s.start
    return {id(s): (s.end - s.start) - covered[id(s)] for s in spans}


def _stage(span):
    p = span.parent
    while p is not None and p.name not in STAGES:
        p = p.parent
    return None if p is None else p.name


def layer_metrics(tracer, ops):
    """Per-layer metrics: per pass, then the median over passes.

    Counts repeat exactly from pass to pass; times are summed over a pass
    unless they are per-call medians (ms metrics, s_L10, s_refined, ...).
    """
    self_t = _self_times(tracer.spans)
    n_pass = 1 + max(op.pass_index for op in ops)
    sums = [defaultdict(float) for _ in range(n_pass)]
    samples = [defaultdict(list) for _ in range(n_pass)]
    scans_seen = defaultdict(set)
    for s in tracer.spans:
        op = ops[s.op]
        e = op.ensemble
        acc, lists = sums[op.pass_index], samples[op.pass_index]
        dur, own = s.end - s.start, self_t[id(s)]
        acc["trace.spans"] += 1
        if s.name == "mmse":
            acc[f"scalar_channel.mmse.calls.{e}"] += 1
            acc[f"scalar_channel.mmse.self_s.{e}"] += own
            lists[f"scalar_channel.mmse.ms.{e}"].append(dur * 1e3)
        elif s.name in ("mmse_mc_oracle", "posterior_mean"):
            acc[f"scalar_channel.{s.name}.self_s"] += own
        elif s.name == "channel_term_batch":
            key = f"replica_core.channel_term_batch.%s.{e}"
            acc[key % "calls"] += 1
            acc[key % "calls_single"] += s.detail == 1
            acc[key % "points"] += s.detail
            acc[key % "self_s"] += own
            lists[key % ("ms_single" if s.detail == 1 else "ms_batch")].append(dur * 1e3)
        elif s.name in ("free_entropy_grid", "conjugate_fixed_point"):
            acc[f"replica_core.{s.name}.calls.{e}"] += 1
            acc[f"replica_core.{s.name}.self_s.{e}"] += own
            if s.name == "free_entropy_grid":
                acc[f"replica_core.free_entropy_grid.points.{e}"] += s.detail
        elif s.name == "run_evolution":
            iterations, chain_length = s.detail
            acc[f"state_evolution.iterations.{e}"] += iterations
            acc[f"state_evolution.run_evolution.self_s.{e}"] += own
            acc[f"state_evolution.run_evolution.s.{e}"] += dur
            if chain_length == 10:
                lists[f"state_evolution.run_evolution.s_L10.{e}"].append(dur)
        elif s.name == "scan_curve":
            refined = s.detail[1]
            acc[f"phase_analysis.scan_curve.calls.{e}"] += 1
            acc[f"phase_analysis.scan_curve.refined_calls.{e}"] += refined
            acc[f"phase_analysis.scan_curve.self_s.{e}"] += own
            acc[f"phase_analysis.scan_curve.repeats.{e}"] += s.detail in scans_seen[s.op]
            scans_seen[s.op].add(s.detail)
            lists[f"phase_analysis.scan_curve.s_{'refined' if refined else 'unrefined'}.{e}"] \
                .append(dur)
            stage = _stage(s)
            if stage is not None:
                acc[f"phase_analysis.{stage}.scans.{e}"] += 1
        elif s.name in STAGES:
            acc[f"phase_analysis.{s.name}.s.{e}"] += dur
        elif s.name in ("build_coupled_operator", "gen_instance"):
            acc[f"measurement_ops.{s.name}.s.{e}"] += dur
        elif s.name in ("apply", "adjoint_apply"):
            lists[f"measurement_ops.{s.name}.ms.{e}"].append(dur * 1e3)
            if s.name == "apply":
                acc[f"measurement_ops.apply.bytes_computed.{e}"] = s.detail
    for op in ops:
        sums[op.pass_index]["trace.pass_s"] += op.ref_seconds
        sums[op.pass_index]["scalar_channel.integration_warnings"] += op.warnings
    for acc, lists in zip(sums, samples):
        for key, values in lists.items():
            acc[key] = statistics.median(values)
        for e in ENSEMBLES:
            iterations = acc[f"state_evolution.iterations.{e}"]
            if iterations:
                acc[f"state_evolution.s_per_iteration.{e}"] = \
                    acc[f"state_evolution.run_evolution.s.{e}"] / iterations
            scans = acc[f"phase_analysis.scan_curve.calls.{e}"]
            if scans:
                acc[f"phase_analysis.scan_curve.repeat_frac.{e}"] = \
                    acc[f"phase_analysis.scan_curve.repeats.{e}"] / scans
    return {name: float(statistics.median(acc.get(name, 0.0) for acc in sums))
            for name, _ in PER_LAYER}
