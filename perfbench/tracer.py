"""In-memory spans around the public functions of each abeluniv layer.

The wrappers are installed from outside the package: `install` replaces a
function in every abeluniv module namespace that binds it, because
`builder`, `probe` and `compacta` import `evaluate`, `fit_until`,
`apply_automorphism`, `sup_distance` and others by name, and patching only
the defining module would miss those callers.

A span is (name, start, end, parent span, op). Spans are recorded only
while an op is open; the per-layer metrics are per-op means over the ops
traced.
"""

from __future__ import annotations

import functools
import importlib
import math
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("geometry", "compacta", "polyfit", "builder", "probe", "cli")
MODULES = ["abeluniv"] + [f"abeluniv.{m}" for m in LAYERS]
ROOT = "cli.op"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters = defaultdict(float)
        self._stack = [-1]
        self.op_id = -1   # -1: no op open, nothing is recorded
        self.ops = 0

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    def wrap(self, name: str, fn, hook=None):
        """fn with a span named `name`; hook(counters, args, result, dur)
        runs after every traced call, with result None when fn raised."""
        nid = self._nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            sid = self._open(nid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                self._close(sid, t0, t1)
                if hook is not None:
                    hook(self.counters, args, result, t1 - t0)

        traced.__wrapped_by_perfbench__ = fn
        return traced

    def run_op(self, fn, *args):
        """Call fn(*args) as one op under a root span."""
        self.op_id = self.ops
        sid = self._open(self._nid(ROOT))
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(sid, t0, perf_counter())
            self.op_id = -1
            self.ops += 1

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.op, dtype=np.int32))

    def save(self, path) -> None:
        name_id, start, end, parent, op = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, start=start,
                 end=end, parent=parent, op=op)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent and their union is taken, so
    overlapping children are not subtracted twice.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    out = end - start
    kids = np.flatnonzero(parent >= 0)
    order = kids[np.lexsort((start[kids], parent[kids]))]
    cur, reach = -1, -math.inf
    for k in order.tolist():
        p = int(parent[k])
        lo, hi = max(start[k], start[p]), min(end[k], end[p])
        if p != cur:
            cur, reach = p, -math.inf
        lo = max(lo, reach)
        if hi > lo:
            out[p] -= hi - lo
            reach = hi
    return out


# counters taken at the same boundaries as the spans

def _count_fit_polynomial(c, args, result, dur):
    n = sum(len(comp.points) for comp in args[0].components)
    c["polyfit.fit_polynomial.nd2"] += n * (args[1] + 1) ** 2


def _count_fit_until(c, args, result, dur):
    if result is not None:
        c["polyfit.fit_until.results"] += 1


def _count_evaluate(c, args, result, dur):
    z = args[1]
    if isinstance(z, (complex, float, int)):
        c["polyfit.evaluate.scalar_calls"] += 1
        c["polyfit.evaluate.scalar_time"] += dur
        pts = 1
    else:
        pts = np.size(z)
    c["polyfit.evaluate.points"] += pts
    c["polyfit.evaluate.point_degrees"] += pts * (len(args[0].coeffs) - 1)


def _count_union(c, args, result, dur):
    sizes = [len(comp.points) for comp in args]
    total = sum(sizes)
    c["compacta.union.points"] += total
    c["compacta.union.pairs"] += (total * total - sum(s * s for s in sizes)) // 2


def _count_apply_automorphism(c, args, result, dur):
    c["geometry.apply_automorphism.points"] += np.size(args[1])


def _count_build(c, args, result, dur):
    if result is None:
        return
    series = result[0] if isinstance(result, tuple) else result
    c["builder.stages_built"] += len(series.stages)
    c["builder.degree_sum"] += sum(s.fit.degree for s in series.stages)
    if series.failure is not None:
        c["builder.failure_stage"] += series.failure.n


def _count_lift(c, args, result, dur):
    if result is not None:
        c["probe.lift_path.samples"] += len(result.t)


def _count_scan(c, args, result, dur):
    if result is not None:
        c["probe.universality_scan.rows"] += len(result.rows)


# (span name, defining module, function, counter hook)
WRAPPED = [
    ("polyfit.fit_polynomial", "polyfit", "fit_polynomial", _count_fit_polynomial),
    ("polyfit.fit_until", "polyfit", "fit_until", _count_fit_until),
    ("polyfit.evaluate", "polyfit", "evaluate", _count_evaluate),
    ("compacta.sample", "compacta", "sample_dilated_arc", None),
    ("compacta.sample", "compacta", "sample_disc_constraint", None),
    ("compacta.sample", "compacta", "sample_radial_curve", None),
    ("compacta.union", "compacta", "union", _count_union),
    ("compacta.sup_distance", "compacta", "sup_distance", None),
    ("geometry.solve_level_radius", "geometry", "solve_level_radius", None),
    ("geometry.apply_automorphism", "geometry", "apply_automorphism",
     _count_apply_automorphism),
    ("geometry.radial_monotone_threshold", "geometry", "radial_monotone_threshold", None),
    ("builder.build", "builder", "build_membership_series", _count_build),
    ("builder.build", "builder", "build_counterexample_series", _count_build),
    ("builder.compute_witness", "builder", "compute_witness", None),
    ("builder.min_modulus_sweep", "builder", "min_modulus_sweep", None),
    ("builder.telescoping_errors", "builder", "telescoping_errors", None),
    ("builder.series_to_dict", "builder", "series_to_dict", None),
    ("builder.series_from_dict", "builder", "series_from_dict", None),
    ("probe.lift_path", "probe", "lift_path", _count_lift),
    ("probe.universality_scan", "probe", "universality_scan", _count_scan),
    ("probe.dilate_distance", "probe", "dilate_distance", None),
    ("probe.compose", "probe", "compose_left", None),
    ("probe.compose", "probe", "compose_right", None),
]


def install(tracer: Tracer) -> int:
    """Wrap every WRAPPED function wherever an abeluniv module binds it.
    Returns the number of namespace entries replaced."""
    mods = [importlib.import_module(m) for m in MODULES]
    replaced = 0
    for span, home, attr, hook in WRAPPED:
        orig = getattr(importlib.import_module(f"abeluniv.{home}"), attr)
        if hasattr(orig, "__wrapped_by_perfbench__"):
            raise RuntimeError(f"abeluniv.{home}.{attr} is already traced")
        wrapper = tracer.wrap(span, orig, hook)
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    replaced += 1
    return replaced


def uninstall() -> None:
    for mod in (importlib.import_module(m) for m in MODULES):
        for key, value in list(vars(mod).items()):
            orig = getattr(value, "__wrapped_by_perfbench__", None)
            if orig is not None:
                setattr(mod, key, orig)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-op means of every per-layer metric the spans and counters give."""
    ops = max(tracer.ops, 1)
    name_id, start, end, parent, _ = tracer.arrays()
    dur = end - start
    own = self_times(start, end, parent)
    ids = {n: i for i, n in enumerate(tracer.names)}
    c = tracer.counters

    def mask(name):
        return name_id == ids.get(name, -1)

    def calls(name):
        return int(np.count_nonzero(mask(name))) / ops

    def secs(name):
        return float(dur[mask(name)].sum()) / ops

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    layer_of = np.array([n.split(".", 1)[0] for n in tracer.names] or [""])
    span_layer = layer_of[name_id] if len(name_id) else np.array([], dtype=str)

    def layer_self(layer):
        return float(own[span_layer == layer].sum()) / ops

    def per(key):
        return c.get(key, 0.0) / ops

    m = {}
    fp_self = float(own[mask("polyfit.fit_polynomial")].sum()) / ops
    m["polyfit.fit_polynomial.calls"] = calls("polyfit.fit_polynomial")
    m["polyfit.fit_polynomial.self_s"] = fp_self
    m["polyfit.fit_polynomial.nd2"] = per("polyfit.fit_polynomial.nd2")
    m["polyfit.fit_polynomial.ns_per_nd2"] = ratio(
        fp_self, per("polyfit.fit_polynomial.nd2"), 1e9)
    m["polyfit.fit_until.calls"] = calls("polyfit.fit_until")
    m["polyfit.fit_until.s"] = secs("polyfit.fit_until")
    m["polyfit.fit_until.useful_ratio"] = ratio(
        c.get("polyfit.fit_until.results", 0.0),
        np.count_nonzero(mask("polyfit.fit_polynomial")))
    ev_s = secs("polyfit.evaluate")
    m["polyfit.evaluate.calls"] = calls("polyfit.evaluate")
    m["polyfit.evaluate.scalar_calls"] = per("polyfit.evaluate.scalar_calls")
    m["polyfit.evaluate.points"] = per("polyfit.evaluate.points")
    m["polyfit.evaluate.s"] = ev_s
    m["polyfit.evaluate.scalar_us"] = ratio(
        c.get("polyfit.evaluate.scalar_time", 0.0),
        c.get("polyfit.evaluate.scalar_calls", 0.0), 1e6)
    m["polyfit.evaluate.ns_per_point_degree"] = ratio(
        ev_s, per("polyfit.evaluate.point_degrees"), 1e9)

    m["compacta.sample.calls"] = calls("compacta.sample")
    m["compacta.sample.s"] = secs("compacta.sample")
    m["compacta.union.calls"] = calls("compacta.union")
    m["compacta.union.s"] = secs("compacta.union")
    m["compacta.union.points"] = per("compacta.union.points")
    m["compacta.union.pairs"] = per("compacta.union.pairs")
    m["compacta.sup_distance.s"] = secs("compacta.sup_distance")

    m["geometry.solve_level_radius.calls"] = calls("geometry.solve_level_radius")
    m["geometry.solve_level_radius.s"] = secs("geometry.solve_level_radius")
    m["geometry.apply_automorphism.calls"] = calls("geometry.apply_automorphism")
    m["geometry.apply_automorphism.points"] = per("geometry.apply_automorphism.points")
    m["geometry.apply_automorphism.s"] = secs("geometry.apply_automorphism")
    m["geometry.radial_monotone_threshold.s"] = secs("geometry.radial_monotone_threshold")

    m["builder.build.s"] = secs("builder.build")
    m["builder.self_s"] = layer_self("builder")
    m["builder.stages_built"] = per("builder.stages_built")
    m["builder.degree_sum"] = per("builder.degree_sum")
    m["builder.failure_stage"] = per("builder.failure_stage")
    for fn in ("compute_witness", "min_modulus_sweep", "telescoping_errors",
               "series_to_dict", "series_from_dict"):
        m[f"builder.{fn}.s"] = secs(f"builder.{fn}")

    lift_s = secs("probe.lift_path")
    samples = per("probe.lift_path.samples")
    in_lift = np.isin(parent, np.flatnonzero(mask("probe.lift_path")))
    lift_evals = np.count_nonzero(in_lift & mask("polyfit.evaluate")) / ops
    m["probe.lift_path.s"] = lift_s
    m["probe.lift_path.samples"] = samples
    m["probe.lift_path.us_per_sample"] = ratio(lift_s, samples, 1e6)
    m["probe.lift_path.evaluate_per_sample"] = ratio(lift_evals, samples)
    scan_s = secs("probe.universality_scan")
    rows = per("probe.universality_scan.rows")
    m["probe.universality_scan.s"] = scan_s
    m["probe.universality_scan.rows"] = rows
    m["probe.universality_scan.ms_per_row"] = ratio(scan_s, rows, 1e3)
    m["probe.dilate_distance.calls"] = calls("probe.dilate_distance")
    m["probe.compose.s"] = secs("probe.compose")

    m["cli.self_s"] = float(own[mask(ROOT)].sum()) / ops
    return m


# name -> unit of every metric layer_metrics returns, plus the two the
# worker adds (cli.payload_bytes, trace.overhead_s)
UNITS = {
    "polyfit.fit_polynomial.calls": "count",
    "polyfit.fit_polynomial.self_s": "s",
    "polyfit.fit_polynomial.nd2": "count",
    "polyfit.fit_polynomial.ns_per_nd2": "ns",
    "polyfit.fit_until.calls": "count",
    "polyfit.fit_until.s": "s",
    "polyfit.fit_until.useful_ratio": "ratio",
    "polyfit.evaluate.calls": "count",
    "polyfit.evaluate.scalar_calls": "count",
    "polyfit.evaluate.points": "points",
    "polyfit.evaluate.s": "s",
    "polyfit.evaluate.scalar_us": "us",
    "polyfit.evaluate.ns_per_point_degree": "ns",
    "compacta.sample.calls": "count",
    "compacta.sample.s": "s",
    "compacta.union.calls": "count",
    "compacta.union.s": "s",
    "compacta.union.points": "points",
    "compacta.union.pairs": "pairs",
    "compacta.sup_distance.s": "s",
    "geometry.solve_level_radius.calls": "count",
    "geometry.solve_level_radius.s": "s",
    "geometry.apply_automorphism.calls": "count",
    "geometry.apply_automorphism.points": "points",
    "geometry.apply_automorphism.s": "s",
    "geometry.radial_monotone_threshold.s": "s",
    "builder.build.s": "s",
    "builder.self_s": "s",
    "builder.stages_built": "count",
    "builder.degree_sum": "degrees",
    "builder.failure_stage": "count",
    "builder.compute_witness.s": "s",
    "builder.min_modulus_sweep.s": "s",
    "builder.telescoping_errors.s": "s",
    "builder.series_to_dict.s": "s",
    "builder.series_from_dict.s": "s",
    "probe.lift_path.s": "s",
    "probe.lift_path.samples": "count",
    "probe.lift_path.us_per_sample": "us",
    "probe.lift_path.evaluate_per_sample": "ratio",
    "probe.universality_scan.s": "s",
    "probe.universality_scan.rows": "count",
    "probe.universality_scan.ms_per_row": "ms",
    "probe.dilate_distance.calls": "count",
    "probe.compose.s": "s",
    "cli.self_s": "s",
    "cli.payload_bytes": "bytes",
    "trace.overhead_s": "s",
}
