"""Dilate-distance scans, composition wrappers, and inverse-branch lifting."""

import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import abeluniv
from abeluniv import (
    BuildConfig,
    CertificateFailure,
    ComplexPolynomial,
    ConfigError,
    EpsilonSchedule,
    RadiiSchedule,
    TargetEnumeration,
    UnitCircleArc,
    as_expr,
    branch_obstructions,
    build_membership_series,
    compose_left,
    compose_right,
    derivative,
    dilate_distance,
    evaluate,
    lift_path,
    liftable_target,
    polynomial_roots,
    rotation,
    telescoping_errors,
    universality_scan,
)
from abeluniv import probe
from abeluniv.probe import (DilateReport, LiftResult, LiftStatus,
                            dilate_report_to_csv, write_lift_result)

SQUARE = ComplexPolynomial([0, 0, 1])
IDENT = ComplexPolynomial([0, 1])

RNG = np.random.default_rng(20240817)


# labelled functions


def test_as_expr_accepts_scalars_and_polys():
    assert as_expr(2.0)(0.3 + 0.1j) == 2.0
    assert as_expr(1j)(0.5) == 1j
    e = as_expr(IDENT)
    assert e is as_expr(e)  # idempotent on expressions
    with pytest.raises(ConfigError):
        as_expr({"not": "a function"})


def test_expr_scalar_and_array_calls():
    e = as_expr(SQUARE)
    assert e(0.5j) == -0.25 + 0j
    arr = e(np.array([0.1, 0.2j]))
    assert arr.shape == (2,) and abs(arr[1] + 0.04) < 1e-15


def test_compose_left_exp_and_poly():
    one = compose_left("exp", 0.0)
    assert one(0.7j) == 1.0
    sq = compose_left(SQUARE, IDENT)
    z = 0.3 + 0.4j
    assert abs(sq(z) - z * z) < 1e-15
    assert "exp" in one.label and "poly" in sq.label


def test_compose_left_reciprocal_certificate():
    f = ComplexPolynomial([-0.5, 1.0])  # z - 1/2
    ring = 0.2 * np.exp(2j * math.pi * np.arange(64) / 64)
    inv = compose_left("reciprocal", f, probe_grid=ring)
    assert inv.certified_min >= 0.3 - 1e-12
    assert abs(inv(0j) + 2.0) < 1e-15  # 1/(0 - 0.5)
    # the certificate is re-checked on every evaluation grid
    with pytest.raises(CertificateFailure):
        inv(np.array([0.5 + 0j]))
    # and refused outright when the probe grid already dips
    with pytest.raises(CertificateFailure):
        compose_left("reciprocal", f, probe_grid=np.array([0.5 + 1e-9j]))


def test_compose_left_validation():
    with pytest.raises(ConfigError):
        compose_left("reciprocal", IDENT)  # no probe grid
    with pytest.raises(ConfigError):
        compose_left("reciprocal", IDENT, probe_grid=np.array([]))
    with pytest.raises(ConfigError):
        compose_left("cosh", IDENT)


def test_cli_composition_labels_are_exact():
    # the scan payload's "function" field writes these labels out
    from types import SimpleNamespace
    from abeluniv.cli import _compose_for_probe
    series = SimpleNamespace(total=lambda: ComplexPolynomial([0.1, 0.5, 0.25]))
    grid = 0.5 * np.exp(2j * math.pi * np.arange(16) / 16)
    expected = {
        (): "poly(degree=2)",
        ("exp",): "exp(poly(degree=2))",
        ("reciprocal",): "reciprocal(poly(degree=2))",
        ("pre_automorphism",): "(poly(degree=2))oPhi[a=(0.3+0.1j),theta=0.0]",
        ("poly",): "poly(degree=2)o(poly(degree=2))",
        ("pre_automorphism", "exp"):
            "exp((poly(degree=2))oPhi[a=(0.3+0.1j),theta=0.0])",
    }
    for flags, label in expected.items():
        args = SimpleNamespace(
            exp="exp" in flags, reciprocal="reciprocal" in flags,
            poly="[[0,0],[1,0],[0.5,0]]" if "poly" in flags else None,
            pre_automorphism="0.3,0.1" if "pre_automorphism" in flags else None)
        assert _compose_for_probe(series, args, grid).label == label


def test_dilate_distance_reads_numpy_scalars_and_scalar_only_callables():
    arc = UnitCircleArc(0.2, 0.9)
    assert dilate_distance(np.int64(2), arc, 2.0, 0.5) == 0.0
    assert dilate_distance(2.0, arc, np.int64(2), 0.5) == 0.0

    def square_scalar(z):
        return complex(z) ** 2  # complex() of a long array raises TypeError

    # |(r zeta)^2 - zeta^2| = 1 - r^2 everywhere on the circle
    assert dilate_distance(square_scalar, arc, SQUARE, 0.5) == pytest.approx(0.75)
    assert dilate_distance(SQUARE, arc, square_scalar, 0.5) == pytest.approx(0.75)
    # a callable returning one value for the whole array is called per point
    assert dilate_distance(IDENT, arc, lambda z: 0.0, 0.5) == pytest.approx(0.5)
    assert dilate_distance(lambda z: np.int64(3), arc, 3.0, 0.5) == 0.0


def test_compose_right_moves_argument_first():
    from abeluniv import DiscAutomorphism
    g = compose_right(IDENT, DiscAutomorphism(0.5))
    assert abs(g(0j) - 0.5) < 1e-15


# dilate distance and scans


def test_dilate_distance_trivials():
    assert abs(dilate_distance(IDENT, UnitCircleArc(0.3, 1.2), IDENT, 0.9) - 0.1) < 1e-12
    assert dilate_distance(2.0, UnitCircleArc(0, 1), 2.0, 0.42) == 0.0


def test_dilate_distance_validation():
    arc = UnitCircleArc(0, 1)
    with pytest.raises(ConfigError):
        dilate_distance(IDENT, arc, 0.0, 1.0)
    with pytest.raises(ConfigError):
        dilate_distance(IDENT, arc, 0.0, 0.5, density=1)


def test_dilate_distance_callable_target():
    # scalar-only callables fall back to pointwise evaluation
    d = dilate_distance(IDENT, UnitCircleArc(0, 0.5), lambda z: complex(z) * 0.9, 0.9)
    assert d < 1e-15


def test_scan_bounded_function_misses_distant_target():
    rep = universality_scan(IDENT, [5.0], [UnitCircleArc(0.2, 0.7)],
                            RadiiSchedule.default(5), 4)
    assert all(row["sup_error"] >= 4.0 for row in rep.rows)
    assert rep.best_for(0, 0)["best_error"] >= 4.0
    with pytest.raises(ConfigError):
        rep.best_for(1, 0)


def test_scan_report_best_is_min():
    rows = [{"target_id": 0, "arc_id": 0, "n": n, "r": 0.5, "sup_error": e}
            for n, e in enumerate([0.5, 0.2, 0.9], start=1)]
    rep = DilateReport.from_rows(rows)
    b = rep.best_for(0, 0)
    assert b["best_n"] == 2 and b["best_error"] == 0.2
    assert b["best_error"] == min(row["sup_error"] for row in rep.rows)


def test_scan_validation():
    with pytest.raises(ConfigError):
        universality_scan(IDENT, [0.0], [UnitCircleArc(0, 1)],
                          RadiiSchedule.default(3), 0)
    with pytest.raises(ConfigError):
        universality_scan(IDENT, [0.0], [UnitCircleArc(0, 1)], [0.5, 0.75], 2)
    # a bare radii list works
    rep = universality_scan(IDENT, [0.0], [UnitCircleArc(0, 1)], [0.5, 0.75, 0.875], 2)
    assert len(rep.rows) == 2


def test_scan_rotation_reindexing():
    # pre-rotating the argument is the same scan on the rotated arc
    f = ComplexPolynomial([0.3, 0.5, 0.2j])
    rho = RadiiSchedule.default(4)
    for theta in RNG.uniform(0.0, 2 * math.pi - 1.5, size=8):
        arc = UnitCircleArc(1.0, 1.4)
        shifted = UnitCircleArc(1.0 + theta, 1.4 + theta)
        if shifted.beta > 2 * math.pi:
            continue
        left = universality_scan(compose_right(f, rotation(theta)),
                                 [2.0], [arc], rho, 3)
        right = universality_scan(f, [2.0], [shifted], rho, 3)
        for a, b in zip(left.rows, right.rows):
            assert abs(a["sup_error"] - b["sup_error"]) < 1e-11


@pytest.fixture(scope="module")
def log2_build():
    cfg = BuildConfig(RadiiSchedule.default(4), EpsilonSchedule.default(4),
                      TargetEnumeration.cyclic([ComplexPolynomial([math.log(2)])],
                                               [UnitCircleArc(0.3, 0.5)], 2))
    series = build_membership_series(cfg, 2)
    assert series.succeeded
    return cfg, series


def test_log2_build_degrees_do_not_depend_on_blas_threads(log2_build):
    # the same build in a child process at another OpenBLAS thread count
    # must choose the same stage degrees (measured: [24, 164])
    _, series = log2_build
    threads = "2" if os.environ.get("OPENBLAS_NUM_THREADS") == "1" else "1"
    src = os.path.dirname(os.path.dirname(abeluniv.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", """
import math
from abeluniv import (BuildConfig, ComplexPolynomial, EpsilonSchedule,
                      RadiiSchedule, TargetEnumeration, UnitCircleArc,
                      build_membership_series)
cfg = BuildConfig(RadiiSchedule.default(4), EpsilonSchedule.default(4),
                  TargetEnumeration.cyclic([ComplexPolynomial([math.log(2)])],
                                           [UnitCircleArc(0.3, 0.5)], 2))
print([rec.fit.degree for rec in build_membership_series(cfg, 2).stages])
"""], env=env, capture_output=True, text=True, timeout=600, check=True)
    assert json.loads(child.stdout) == [rec.fit.degree for rec in series.stages]


def test_scan_of_own_build_meets_telescoped_bounds(log2_build):
    cfg, series = log2_build
    rep = universality_scan(series.total(), [ComplexPolynomial([math.log(2)])],
                            [UnitCircleArc(0.3, 0.5)], cfg.rho, 2)
    bounds = {row["n"]: row["bound"] for row in telescoping_errors(series)}
    for row in rep.rows:
        assert row["sup_error"] <= bounds[row["n"]]
    assert rep.best_for(0, 0)["best_n"] == 2


def test_scan_and_telescoping_read_the_target_at_the_same_points():
    # phi(z) = z tells phi(zeta) from phi(r zeta): the builder's own audit
    # and the black-box scan must both measure |F(r_n zeta) - phi(zeta)|
    cfg = BuildConfig(RadiiSchedule.default(3), EpsilonSchedule.default(3),
                      TargetEnumeration.cyclic([IDENT], [UnitCircleArc(0.3, 0.5)], 1))
    series = build_membership_series(cfg, 1)
    assert series.succeeded
    rep = universality_scan(series.total(), [IDENT], [UnitCircleArc(0.3, 0.5)],
                            cfg.rho, 1, density=cfg.density)
    rows = telescoping_errors(series)
    assert len(rows) == len(rep.rows) == 1
    for tel, scan in zip(rows, rep.rows):
        assert tel["n"] == scan["n"]
        assert abs(tel["sup"] - scan["sup_error"]) <= 1e-12
        assert scan["sup_error"] <= tel["bound"]


def test_exp_composition_transfer(log2_build):
    # pushing the build through exp turns the log-2 approximation into a
    # 2-approximation, degraded by at most e^B on a grid where |F| <= B
    cfg, series = log2_build
    F = series.total()
    E = compose_left("exp", F)
    arc = UnitCircleArc(0.3, 0.5)
    zeta = np.exp(1j * np.linspace(arc.alpha, arc.beta, 256))
    for n in (1, 2):
        r = cfg.rho.r[n]
        delta = dilate_distance(F, arc, math.log(2), r)
        B = float(np.max(np.abs(as_expr(F)(r * zeta))))
        lhs = dilate_distance(E, arc, 2.0, r)
        assert lhs <= math.exp(B) * delta


def test_scan_counterexample_two_point_arcs():
    # along the two witness directions the composed series stays under the
    # budget, so a constant target 1 above it is missed by at least ~1 on
    # both hairline arcs
    from abeluniv import (DiscAutomorphism, build_counterexample_series,
                          compute_witness)
    phi = DiscAutomorphism(0.5)
    cfg = BuildConfig(RadiiSchedule.default(3), EpsilonSchedule.default(3),
                      TargetEnumeration.cyclic([ComplexPolynomial([0.3])],
                                               [UnitCircleArc(3.1316, 3.1516)], 1))
    w = compute_witness(phi, 1 + 0j, 1j, RadiiSchedule.default(3), 1)
    s, budget = build_counterexample_series(cfg, phi, w, 1)
    comp = compose_right(s.total(), phi)
    arcs = [UnitCircleArc(0.0, 1e-4),
            UnitCircleArc(math.pi / 2 - 1e-4, math.pi / 2)]
    rep = universality_scan(comp, [budget + 1.0], arcs, cfg.rho, 1)
    for arc_id in (0, 1):
        assert rep.best_for(0, arc_id)["best_error"] >= 1.0
    r1 = cfg.rho.r[1]
    for arc in arcs:
        t = np.linspace(arc.alpha, arc.beta, 64)
        assert float(np.max(np.abs(comp(r1 * np.exp(1j * t))))) <= budget


# inverse-branch continuation


def test_lift_square_root_branch():
    res = lift_path(SQUARE, [1, 4], 1, 1e-8)
    assert res.status.complete
    assert abs(res.endpoint - 2.0) < 1e-8
    assert res.max_defect <= 1e-8
    # linear 10x resampling stays within 10x the tolerance of the path
    t10 = np.linspace(0.0, 1.0, 10 * len(res.t))
    h = np.interp(t10, res.t, res.values.real) + \
        1j * np.interp(t10, res.t, res.values.imag)
    wt = np.interp(t10, res.t, res.targets.real) + \
        1j * np.interp(t10, res.t, res.targets.imag)
    assert float(np.max(np.abs(h * h - wt))) <= 1e-7


def test_lift_principal_log():
    res = lift_path("exp", [1, math.e], 0, 1e-8)
    assert res.status.complete and abs(res.endpoint - 1.0) < 1e-8


def test_lift_hits_critical_point():
    # the path runs through 0, the critical value of the square; the branch
    # walks into the vanishing derivative and stops there
    res = lift_path(SQUARE, [1, -1], 1, 1e-8)
    assert res.status.kind == "critical-point"
    assert res.status.index > 0
    assert abs(res.values[-1]) < 0.05
    assert res.max_defect <= 1e-8  # recorded samples are all accepted steps


def test_lift_diverges_on_runaway_path():
    # a branch that starts just under the divergence ceiling crosses it on
    # the first accepted step
    start = 1.0000005e6
    res = lift_path(SQUARE, [start ** 2, 1.1 * start ** 2], start, 1.0)
    assert res.status.kind == "diverged"
    assert abs(res.values[-1]) > 1e6
    # a path too steep for the relative step control stalls instead
    stuck = lift_path(SQUARE, [1, 1e13], 1, 1e-3)
    assert stuck.status.kind == "critical-point"


def test_lift_accepts_list_outer_and_degenerate_path():
    res = lift_path([0, 0, 1], [4, 4], 2, 1e-10)  # zero-length path
    assert res.status.complete and res.endpoint == 2
    assert len(res.t) == 1


def test_lift_validation():
    with pytest.raises(ConfigError):
        lift_path(SQUARE, [1], 1, 1e-8)
    with pytest.raises(ConfigError):
        lift_path(SQUARE, [1, 4], 1, 0.0)
    with pytest.raises(ConfigError):
        lift_path(SQUARE, [1, 4], 3, 1e-8)  # start not a branch point
    with pytest.raises(ConfigError):
        lift_path({"bad": 1}, [1, 4], 1, 1e-8)


@pytest.mark.parametrize("path,start,tol", [
    ([1, 4], complex(math.nan, 0), 1e-8), ([1, complex(math.nan, 0)], 1, 1e-8),
    ([1, math.inf], 1, 1e-8), ([1, 4], 1, math.nan), ([1, 4], 1, math.inf)])
def test_lift_rejects_non_finite_input(path, start, tol):
    # a NaN start passes the branch-point test (a NaN distance is not
    # > tol), and a NaN path point makes the path length NaN
    with pytest.raises(ConfigError, match="must be finite"):
        lift_path(SQUARE, path, start, tol)


def test_lift_steps_are_sized_from_the_midpoint_defect(monkeypatch):
    calls = []
    advance = probe._advance

    def counted(*args):
        calls.append(1)
        return advance(*args)
    monkeypatch.setattr(probe, "_advance", counted)
    tol = 1e-10
    res = lift_path(SQUARE, [1, 4], 1, tol)
    assert res.status.complete
    # doubling and rejecting took two steps per sample
    assert len(calls) <= 1.05 * (len(res.t) - 1)
    mid_h = 0.5 * (res.values[1:] + res.values[:-1])
    mid_w = 0.5 * (res.targets[1:] + res.targets[:-1])
    mid_defect = np.abs(evaluate(SQUARE, mid_h) - mid_w)
    assert float(np.max(mid_defect)) <= 3 * tol * (1 + 1e-6)


def test_lift_steps_stay_above_the_minimum_near_a_critical_point():
    # at this tol the curvature near the critical value 0 asks for steps
    # below the minimum (1e-6 of the path length); the lift stops instead
    res = lift_path(SQUARE, [1, -1], 1, 1e-10)
    assert res.status.kind == "critical-point"
    assert float(np.min(np.diff(res.t))) >= 1e-6 * (1 - 1e-9)


def test_inverse_pair_horner_matches_evaluate():
    rng = np.random.default_rng(5)
    g = ComplexPolynomial(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    gf, dg = probe._as_inverse_pair(g)
    pts = 2.0 * (rng.uniform(-1, 1, 1000) + 1j * rng.uniform(-1, 1, 1000))
    ulp = np.finfo(float).eps
    for fn, p in ((gf, g), (dg, derivative(g))):
        got = np.array([fn(z) for z in map(complex, pts)])
        scale = sum(abs(c) * np.abs(pts) ** k for k, c in enumerate(p.coeffs))
        assert np.all(np.abs(got - evaluate(p, pts)) <= 8 * ulp * scale)


def test_branch_obstructions():
    assert np.array_equal(branch_obstructions("exp"), np.array([0j]))
    assert np.allclose(branch_obstructions(SQUARE), [0j])
    vals = sorted(branch_obstructions([0, -3, 0, 1]), key=lambda z: z.real)
    assert abs(vals[0] + 2) < 1e-12 and abs(vals[1] - 2) < 1e-12
    assert branch_obstructions(IDENT).size == 0
    with pytest.raises(ConfigError):
        branch_obstructions(3.5)


def test_polynomial_roots_match_reference():
    for _ in range(20):
        c = RNG.normal(size=6) + 1j * RNG.normal(size=6)
        mine = np.sort_complex(polynomial_roots(c))
        ref = np.sort_complex(np.roots(c[::-1]))
        assert np.max(np.abs(mine - ref)) < 1e-10


def test_polynomial_roots_edges():
    assert polynomial_roots([5.0]).size == 0
    assert polynomial_roots([0.0, 0.0]).size == 0
    r = polynomial_roots([1.0, 1.0, 0.0])  # trailing zero trimmed
    assert r.size == 1 and abs(r[0] + 1) < 1e-12
    with pytest.raises(ConfigError):
        polynomial_roots(np.ones(66))


def test_liftable_constant_through_exp():
    lifted, defect = liftable_target("exp", UnitCircleArc(0, math.pi / 2),
                                     2.0, 0.01, 8)
    assert defect < 1e-12
    assert abs(lifted(np.exp(0.3j)) - math.log(2)) < 1e-9
    assert lifted.node_targets.shape[0] >= 8


def test_liftable_identity_through_square():
    # h(e^{it}) = e^{it} lifts to a half-angle branch; which sign shows up
    # is fixed by the start node
    lifted, defect = liftable_target(SQUARE, UnitCircleArc(0.1, math.pi / 2),
                                     IDENT, 0.01, 8)
    assert defect == pytest.approx(1.641514e-3, rel=1e-3)
    z = np.exp(0.7j)
    branch = np.exp(0.35j)
    assert min(abs(lifted(z) - branch), abs(lifted(z) + branch)) < 2e-3
    assert abs(lifted(z) ** 2 - z) < 0.01


def test_liftable_zero_target_leaves_critical_value():
    # 0 is the critical value of the square, so nodes shift off it by
    # eps/8 and the realized defect is exactly that offset
    lifted, defect = liftable_target(SQUARE, UnitCircleArc(0, 1), 0.0, 0.01, 8)
    assert defect == pytest.approx(0.01 / 8, abs=1e-9)
    th = np.linspace(0, 1, 99)
    assert float(np.max(np.abs(lifted(np.exp(1j * th)) ** 2))) < 0.01


def test_liftable_validation():
    arc = UnitCircleArc(0, 1)
    with pytest.raises(ConfigError):
        liftable_target("exp", arc, 2.0, 0.01, 1)
    with pytest.raises(ConfigError):
        liftable_target("exp", arc, 2.0, 0.0, 8)


# report emitters


def test_dilate_report_emitters_deterministic():
    rep = universality_scan(IDENT, [5.0], [UnitCircleArc(0.2, 0.7)],
                            RadiiSchedule.default(4), 3)
    config = {"targets": 1, "arcs": 1, "N": 3}
    csv1 = dilate_report_to_csv(rep, config)
    csv2 = dilate_report_to_csv(rep, config)
    assert csv1 == csv2
    lines = csv1.strip().split("\n")
    assert lines[0].startswith("# config ")
    assert lines[1] == "target_id,arc_id,n,r_n,sup_error"
    assert len(lines) == 2 + len(rep.rows)


def _lift_texts(res, config):
    json_out, csv_out = io.StringIO(), io.StringIO()
    write_lift_result(res, config, json_out, csv_out)
    return json_out.getvalue(), csv_out.getvalue()


def test_lift_result_emitters():
    res = lift_path(SQUARE, [1, 4], 1, 1e-6)
    config = {"outer": "square", "tol": 1e-6}
    blob, csv = _lift_texts(res, config)
    lines = csv.strip().split("\n")
    assert len(lines) == 2 + len(res.t)
    assert (blob, csv) == _lift_texts(res, config)
    payload = json.loads(blob)
    assert payload["status"]["kind"] == "complete"
    assert abs(payload["endpoint"][0] - 2.0) < 1e-6
    assert len(payload["samples"]) == len(res.t)


def test_write_lift_result_matches_per_sample_formatting():
    # the streamed writer formats each float once for both texts; its bytes
    # must be those of json.dumps of the payload and of a per-sample CSV,
    # across chunk boundaries and for the non-finite values json spells
    # NaN and Infinity
    n = 2 * probe._LIFT_CHUNK + 37
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 1.0, n) ** 1.5
    values = rng.normal(size=n) * 1e3 + 1j * rng.normal(size=n) * 1e-7
    targets = values ** 2 + 1j * rng.uniform(0.5, 2.0, n)
    values[5] = complex(math.nan, -0.0)
    values[probe._LIFT_CHUNK] = complex(-math.inf, math.inf)
    res = LiftResult(t, values, targets, 3.25e-11, LiftStatus("critical-point", n - 1))
    config = {"command": "lift", "g": "square", "tol": 1e-10, "path": [[1.0, 0.5]]}
    want_json = json.dumps({
        "config": config,
        "status": {"kind": "critical-point", "index": n - 1},
        "max_defect": 3.25e-11,
        "endpoint": [values[-1].real, values[-1].imag],
        "samples": [[t[j], values[j].real, values[j].imag] for j in range(n)],
    }, sort_keys=True, separators=(",", ":")) + "\n"
    lines = ["# config " + json.dumps(config, sort_keys=True, separators=(",", ":")),
             "j,t,h_re,h_im,target_re,target_im"]
    for j in range(n):
        lines.append(f"{j},{float(t[j])!r},{float(values[j].real)!r},"
                     f"{float(values[j].imag)!r},{float(targets[j].real)!r},"
                     f"{float(targets[j].imag)!r}")
    got_json, got_csv = _lift_texts(res, config)
    assert got_json == want_json
    # compared as lines: pytest's diff of two long texts takes minutes
    assert got_csv.split("\n") == lines + [""]
