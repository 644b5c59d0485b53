"""Self-tests of the benchmark: span arithmetic, seeded inputs, the output
checks, and that every per-layer counter is live on the workload that
exercises it.

    python3 -m pytest perfbench/test_perfbench.py

The last test runs one traced op of each workload (about a minute).
"""

import copy
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from abeluniv import cli  # noqa: E402


# span arithmetic

def test_self_time_subtracts_the_union_of_children():
    # 0: root [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] runs past
    # the root and is clipped to it; 4 is a grandchild inside child 1
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.0]
    parent = [-1, 0, 0, 0, 1]
    own = tracer.self_times(start, end, parent)
    assert own[0] == pytest.approx(10 - (4 + 2))
    assert own[1] == pytest.approx(2 - 0.5)
    assert list(own[2:]) == pytest.approx([3.0, 4.0, 0.5])


def test_spans_are_recorded_only_inside_ops():
    tr = tracer.Tracer()
    seen = []
    leaf = tr.wrap("polyfit.leaf", lambda x: x + 1,
                   hook=lambda c, args, result, dur: seen.append((args, result)))
    mid = tr.wrap("builder.mid", lambda x: leaf(leaf(x)))
    assert mid(1) == 3 and tr.ops == 0 and len(tr.start) == 0
    assert tr.run_op(mid, 1) == 3
    name_id, start, end, parent, op = tr.arrays()
    assert [tr.names[i] for i in name_id] == [
        tracer.ROOT, "builder.mid", "polyfit.leaf", "polyfit.leaf"]
    assert list(parent) == [-1, 0, 1, 1]
    assert list(op) == [0, 0, 0, 0]
    assert seen == [((1,), 2), ((2,), 3)]
    assert all(e >= s for s, e in zip(start, end))


def test_install_replaces_every_binding_and_uninstall_restores():
    import importlib
    mods = [importlib.import_module(m) for m in tracer.MODULES]
    originals = {(home, attr): getattr(importlib.import_module(f"abeluniv.{home}"), attr)
                 for _, home, attr, _ in tracer.WRAPPED}
    bound = sum(1 for m in mods for v in vars(m).values()
                if any(v is o for o in originals.values()))
    tr = tracer.Tracer()
    try:
        assert tracer.install(tr) == bound
        for m in mods:
            for v in vars(m).values():
                assert not any(v is o for o in originals.values()), m.__name__
        # the by-name imports the wrappers must reach
        from abeluniv import builder, polyfit, probe
        for fn in (builder.fit_until, builder.evaluate, probe.evaluate,
                   polyfit.evaluate, builder.sup_distance, probe.apply_automorphism):
            assert hasattr(fn, "__wrapped_by_perfbench__")
    finally:
        tracer.uninstall()
    for (home, attr), orig in originals.items():
        assert getattr(importlib.import_module(f"abeluniv.{home}"), attr) is orig


# seeded inputs

def test_seed_zero_is_the_acceptance_config():
    assert workloads.Inputs("membership-d8", 0).op_argv(0, None)[1] == [
        "build", "membership", "--targets", "[[[0.2,0]],[[0,-0.3]]]",
        "--arcs", "[[0.3,0.32],[3.6,3.62]]", "--stages", "8",
        "--density", "512", "--max-degree", "512"]
    assert workloads.Inputs("counterexample-d6", 0).op_argv(0, None)[1] == [
        "build", "counterexample", "--a=0.5", "--zeta1", "0", "--zeta2", "1.5708",
        "--stages", "6", "--targets", "[[[10,0]]]",
        "--arcs", "[[3.1316,3.1516],[0.3,0.32]]", "--density", "512",
        "--max-degree", "512"]
    assert workloads.Inputs("lift-sqrt", 0).op_argv(0, None)[1] == [
        "lift", "--g", "square", "--path=1,0:4,0", "--start=1,0", "--tol", "1e-10"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seeds_rotate_without_crossing_two_pi(workload):
    base = workloads.Inputs(workload, 0)
    for seed in range(1, 40):
        inp = workloads.Inputs(workload, seed)
        assert 0 < inp.theta < workloads.TWO_PI
        assert inp.op_argv(0, "s.json") == workloads.Inputs(workload, seed).op_argv(0, "s.json")
        for (a, b), (a0, b0) in zip(inp.arcs, base.arcs):
            assert 0 <= a < b < workloads.TWO_PI
            assert b - a == pytest.approx(b0 - a0, abs=1e-12)
            assert (a - a0 - inp.theta) / workloads.TWO_PI == pytest.approx(
                round((a - a0 - inp.theta) / workloads.TWO_PI), abs=1e-12)


def test_probe_variants_come_in_balanced_seeded_blocks():
    inp = workloads.Inputs("probe-scan", 7)
    n = len(workloads.VARIANTS) * len(workloads.SCAN_DENSITIES)
    first = [inp.variant(i) for i in range(3 * n)]
    for k in range(3):
        assert len(set(first[k * n:(k + 1) * n])) == n
    assert first[:n] != [workloads.Inputs("probe-scan", 8).variant(i) for i in range(n)]


# output checks reject doctored payloads

@pytest.fixture(scope="module")
def small_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("outputs")
    series = str(root / "series")
    code = worker.quiet(cli.main, [
        "build", "membership", "--targets", "[[[0.2,0]]]", "--arcs",
        "[[0.3,0.32],[3.6,3.62]]", "--stages", "2", "--density", "128",
        "--max-degree", "128", "--out", series])
    check = str(root / "check")
    check_code = worker.quiet(cli.main, ["probe", "--series", series + ".json",
                                         "--check", "--out", check])
    scan = str(root / "scan")
    scan_code = worker.quiet(cli.main, ["probe", "--series", series + ".json",
                                        "--scan", "--check", "--out", scan])
    lift = str(root / "lift")
    lift_code = worker.quiet(cli.main, ["lift", "--g", "square", "--path=1,0:4,0",
                                        "--start=1,0", "--tol", "1e-8", "--out", lift])
    load = lambda p: json.loads(Path(p + ".json").read_text())  # noqa: E731
    return {"build": (code, load(series), check_code, load(check)),
            "scan": (scan_code, load(scan), load(series)),
            "lift": (lift_code, load(lift))}


def test_build_check_rejects_a_stage_above_tol(small_outputs):
    code, payload, check_code, check_payload = small_outputs["build"]
    assert workloads.check_build(code, payload, check_code, check_payload) == []
    bad = copy.deepcopy(payload)
    bad["stages"][1]["fit"]["sup_error"] = bad["eps"][2]  # tol is eps_n / 2
    assert workloads.check_build(code, bad, check_code, check_payload)
    assert workloads.check_build(2, payload, check_code, check_payload)
    violated = copy.deepcopy(check_payload)
    violated["telescoping"]["violations"] = 1
    assert workloads.check_build(code, payload, check_code, violated)


def test_lift_check_rejects_a_moved_endpoint(small_outputs):
    code, payload = small_outputs["lift"]
    assert workloads.check_lift(code, payload, 2.0) == []
    bad = copy.deepcopy(payload)
    bad["endpoint"][1] += 1e-7
    assert workloads.check_lift(code, bad, 2.0)
    assert workloads.check_lift(code, payload, 2.0 * complex(math.cos(0.1), math.sin(0.1)))


def test_scan_check_rejects_a_removed_row(small_outputs):
    code, payload, series = small_outputs["scan"]
    assert workloads.check_scan(code, payload, series, plain=True) == []
    bad = copy.deepcopy(payload)
    del bad["scan"]["rows"][-1]
    assert workloads.check_scan(code, bad, series, plain=True)
    wrong_best = copy.deepcopy(payload)
    wrong_best["scan"]["best"][0]["best_n"] += 1
    assert workloads.check_scan(code, wrong_best, series, plain=True)
    # every row above its telescoped bound, `best` still the argmin
    over = copy.deepcopy(payload)
    for row in over["scan"]["rows"]:
        row["sup_error"] = 1.0 + row["n"]
    for b in over["scan"]["best"]:
        b["best_n"], b["best_error"] = 1, 2.0
    assert workloads.check_scan(code, over, series, plain=True)
    assert workloads.check_scan(code, over, series, plain=False) == []


def test_identical_argv_must_give_identical_payloads(tmp_path):
    runner = worker.Runner(cli, workloads.Inputs("lift-sqrt", 0), tmp_path, None, None)
    out = tmp_path / "x"
    Path(str(out) + ".json").write_text(json.dumps(
        {"status": {"kind": "complete"}, "endpoint": [2.0, 0.0], "max_defect": 0.0,
         "config": {"tol": 1e-10}, "samples": []}))
    assert runner.check("op", 0, out)["problems"] == []
    Path(str(out) + ".json").write_text(json.dumps(
        {"status": {"kind": "complete"}, "endpoint": [2.0, 0.0], "max_defect": 1e-16,
         "config": {"tol": 1e-10}, "samples": []}))
    assert runner.check("op", 0, out)["problems"] == [
        "payload differs from an earlier op with identical argv"]


@pytest.mark.parametrize("workload,op_s,seconds,ops", [
    ("lift-sqrt", 7.0, 30.0, 4),       # 28 s lies nearer 30 than 35 s
    ("lift-sqrt", 27.0, 30.0, 1),      # at least one op
    ("probe-scan", 0.25, 30.0, 120),   # whole blocks of ten
])
def test_loop_ends_on_the_edge_nearest_the_window(monkeypatch, workload, op_s, seconds, ops):
    clock = [0.0]
    monkeypatch.setattr(worker.time, "monotonic", lambda: clock[0])
    runner = worker.Runner(cli, workloads.Inputs(workload, 0), None, None, None)

    def op(tracer):
        clock[0] += op_s
        return {}
    monkeypatch.setattr(runner, "op", op)
    assert len(runner.loop(seconds)) == ops


# every counter is live on the workload the README's per-layer table maps it to

LIVE = {
    "membership-d8": [
        "polyfit.fit_polynomial.calls", "polyfit.fit_polynomial.self_s",
        "polyfit.fit_polynomial.nd2", "polyfit.fit_polynomial.ns_per_nd2",
        "polyfit.fit_until.calls", "polyfit.fit_until.s",
        "polyfit.fit_until.useful_ratio", "builder.build.s", "builder.self_s",
        "builder.stages_built", "builder.degree_sum", "builder.failure_stage",
        "builder.series_to_dict.s", "compacta.sup_distance.s", "cli.self_s",
        "cli.payload_bytes"],
    # stage 1 fails by construction: no stage is built, no fit is useful, and
    # the per-component sups (sup_distance) of a built stage are never taken
    "counterexample-d6": [
        "polyfit.fit_polynomial.calls", "polyfit.fit_polynomial.self_s",
        "polyfit.fit_polynomial.nd2", "polyfit.fit_polynomial.ns_per_nd2",
        "polyfit.fit_until.calls", "polyfit.fit_until.s",
        "compacta.sample.calls", "compacta.sample.s", "compacta.union.calls",
        "compacta.union.s", "compacta.union.points", "compacta.union.pairs",
        "geometry.solve_level_radius.calls",
        "geometry.solve_level_radius.s", "geometry.apply_automorphism.calls",
        "geometry.apply_automorphism.points", "geometry.apply_automorphism.s",
        "geometry.radial_monotone_threshold.s", "builder.build.s", "builder.self_s",
        "builder.failure_stage", "builder.compute_witness.s",
        "builder.min_modulus_sweep.s", "builder.series_to_dict.s", "cli.self_s",
        "cli.payload_bytes"],
    "lift-sqrt": [
        "polyfit.evaluate.calls", "polyfit.evaluate.scalar_calls",
        "polyfit.evaluate.points", "polyfit.evaluate.s", "polyfit.evaluate.scalar_us",
        "polyfit.evaluate.ns_per_point_degree", "probe.lift_path.s",
        "probe.lift_path.samples", "probe.lift_path.us_per_sample",
        "probe.lift_path.evaluate_per_sample", "cli.self_s", "cli.payload_bytes"],
    "probe-scan": [
        "polyfit.evaluate.calls", "polyfit.evaluate.points", "polyfit.evaluate.s",
        "polyfit.evaluate.ns_per_point_degree", "geometry.apply_automorphism.calls",
        "geometry.apply_automorphism.points", "geometry.apply_automorphism.s",
        "builder.telescoping_errors.s", "builder.series_from_dict.s",
        "probe.universality_scan.s", "probe.universality_scan.rows",
        "probe.universality_scan.ms_per_row", "probe.dilate_distance.calls",
        "probe.compose.s", "cli.self_s", "cli.payload_bytes"],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_are_live_on_their_workload(workload, tmp_path):
    inputs = workloads.Inputs(workload, 0)
    runner = worker.prepare(cli, inputs, tmp_path)
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        # probe-scan cycles through its ten (variant, density) pairs
        ops = [runner.op(tr) for _ in range(10 if workload == "probe-scan" else 1)]
    finally:
        tracer.uninstall()
    assert all(o["problems"] == [] for o in ops), ops
    m = tracer.layer_metrics(tr)
    m["cli.payload_bytes"] = ops[0]["bytes"]
    assert set(m) | {"trace.overhead_s"} == set(tracer.UNITS)
    dead = [k for k in LIVE[workload] if not m[k] > 0]
    assert dead == []
