"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Each test prints a single ``criterion N: PASS/FAIL`` line before asserting,
so the printed transcript doubles as the acceptance report.  Tolerances and
runtime caps are pinned in the asserts.

Two criteria are expected to fail on this implementation and are left
failing on purpose rather than loosened:

* criterion 3: the eight-stage membership build dies at stage 4.  The
  degree-205 stage-3 correction, fit at radius 0.875, grows by orders of
  magnitude at radius 0.9375, and no polynomial under the degree cap can
  cancel that growth back down to the stage-4 budget of 0.0078: the
  failure is bracketed by [26.88, 519.65], a certified lower bound for
  every polynomial of degree at most 512 on the stage-4 grid and the
  best fit measured.
* criterion 5: a constant-10 target over a hairline arc needs a jump of
  height 10 at the arc endpoints.  The failure is bracketed by
  [0.3252, 6.8186]: no polynomial of degree at most 512 gets under 0.3252
  on the stage-1 grid, and the best fit measured, round 1's at degree 8,
  reaches 6.818584631925382 at one BLAS thread as at two, far above the
  stage-1 budget of 0.0625, so the counterexample build cannot complete
  even one stage.  The residual traces to curve 1's case-II window, which
  opposite_pin_gap/3 clips using curve 2's stage-3 pin; the paper's
  abstract does not say whether clipping across stages is required.

README.md discusses both in detail.
"""

import json
import math
import time

import numpy as np
import pytest

from abeluniv import (
    BuildConfig,
    DiscAutomorphism,
    EpsilonSchedule,
    EuclideanCircle,
    RadiiSchedule,
    TargetEnumeration,
    UnitCircleArc,
    apply_automorphism,
    build_counterexample_series,
    build_membership_series,
    circle_through_three,
    compute_witness,
    dilate_distance,
    find_invariant_delta,
    fixed_point_radius,
    image_circle,
    is_origin_shift_circle,
    lift_path,
    liftable_target,
    min_modulus_sweep,
    shifted_stage_chain,
    telescoping_errors,
    universality_scan,
)
from abeluniv.builder import _tau_samples
from abeluniv.cli import main as cli_main
from abeluniv.polyfit import ComplexPolynomial
from abeluniv.probe import as_expr, compose_left, compose_right
from abeluniv.geometry import rotation

SQUARE = ComplexPolynomial([0, 0, 1])


def report(k: int, ok: bool, detail: str) -> None:
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'}  {detail}")


def const(c):
    return ComplexPolynomial([complex(c)])


def random_disc(rng, count, rmax=0.95):
    r = rmax * np.sqrt(rng.uniform(size=count))
    t = rng.uniform(0.0, 2 * math.pi, size=count)
    return r * np.exp(1j * t)


# 1. automorphism identities at scale


def test_criterion_01_mobius_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst_identity = 0.0
    worst_involution = 0.0
    for a in random_disc(rng, 100, rmax=0.9):
        phi = DiscAutomorphism(complex(a))
        z = random_disc(rng, 100)
        w = apply_automorphism(phi, z)
        left = 1.0 - np.abs(w) ** 2
        right = ((1.0 - abs(a) ** 2) * (1.0 - np.abs(z) ** 2)
                 / np.abs(1.0 - np.conj(a) * z) ** 2)
        worst_identity = max(worst_identity, float(np.max(np.abs(left - right))))
        back = apply_automorphism(phi, w)
        worst_involution = max(worst_involution, float(np.max(np.abs(back - z))))
    elapsed = time.monotonic() - t0
    ok = worst_identity <= 1e-11 and worst_involution <= 1e-11 and elapsed < 1.0
    report(1, ok, f"10000 samples: identity residual {worst_identity:.2e}, "
                  f"involution {worst_involution:.2e} (tol 1e-11), {elapsed:.2f}s")
    assert worst_identity <= 1e-11
    assert worst_involution <= 1e-11
    assert elapsed < 1.0


# 2. image circles against a least-squares fit oracle


def fit_circle(pts):
    # algebraic fit: x^2 + y^2 + Dx + Ey + F = 0 solved in least squares
    x, y = pts.real, pts.imag
    A = np.column_stack([x, y, np.ones_like(x)])
    b = -(x * x + y * y)
    (D, E, F), *_ = np.linalg.lstsq(A, b, rcond=None)
    center = complex(-D / 2, -E / 2)
    return center, math.sqrt(abs(center) ** 2 - F)


def test_criterion_02_image_circles():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    ts = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
    worst_fit = 0.0
    worst_three = 0.0
    for a in random_disc(rng, 100, rmax=0.9):
        R = float(rng.uniform(0.05, 0.95))
        pts = apply_automorphism(DiscAutomorphism(complex(a)), R * np.exp(1j * ts))
        center, radius = fit_circle(pts)
        got = image_circle(complex(a), R)
        worst_fit = max(worst_fit, abs(got.center - center),
                        abs(got.radius - radius))
        three = circle_through_three(pts[0], pts[240], pts[480])
        worst_three = max(worst_three, abs(three.center - center),
                          abs(three.radius - radius))
    elapsed = time.monotonic() - t0
    ok = worst_fit <= 1e-9 and worst_three <= 1e-9 and elapsed < 5.0
    report(2, ok, f"100 circles: closed form vs 720-point fit {worst_fit:.2e}, "
                  f"three-point recovery {worst_three:.2e} (tol 1e-9), {elapsed:.1f}s")
    assert worst_fit <= 1e-9
    assert worst_three <= 1e-9
    assert elapsed < 5.0


# 3. full-depth membership build (expected to fail at stage 4)


def test_criterion_03_membership_depth_8():
    t0 = time.monotonic()
    cfg = BuildConfig(RadiiSchedule.default(10), EpsilonSchedule.default(10),
                      TargetEnumeration.cyclic(
                          [const(0.2), const(-0.3j)],
                          [UnitCircleArc(0.30, 0.32), UnitCircleArc(3.60, 3.62)],
                          8),
                      density=512, max_degree=512)
    series = build_membership_series(cfg, 8)
    elapsed = time.monotonic() - t0
    if series.succeeded:
        eps = cfg.eps.eps
        sup_ok = all(rec.fit.sup_error <= 0.5 * eps[rec.n] for rec in series.stages)
        tel_ok = all(row["sup"] <= row["bound"] for row in telescoping_errors(series))
        ok = sup_ok and tel_ok and elapsed < 120.0
        report(3, ok, f"8 stages built, sup<=eps_n/2 {sup_ok}, "
                      f"telescoping {tel_ok}, {elapsed:.0f}s")
    else:
        f = series.failure
        best = min(e for _, e in f.detail["history"])
        report(3, False,
               f"build died at stage {f.n} ({f.reason}): best fit {best:.3g} "
               f"vs budget {f.detail['tol']:.3g}; the degree-"
               f"{series.stages[-1].fit.degree} stage-{series.stages[-1].n} "
               f"polynomial grows too fast past its build radius for any "
               f"capped-degree correction to cancel ({elapsed:.0f}s)")
    assert series.succeeded, (
        f"stage {series.failure.n} unreachable: best "
        f"{min(e for _, e in series.failure.detail['history']):.3g} vs "
        f"budget {series.failure.detail['tol']:.3g}")
    for rec in series.stages:
        assert rec.fit.sup_error <= 0.5 * cfg.eps.eps[rec.n]
    for row in telescoping_errors(series):
        assert row["sup"] <= row["bound"]
    assert elapsed < 120.0


# 4. left composition transfer: exp and reciprocal


def test_criterion_04_left_composition_transfer():
    t0 = time.monotonic()
    L = math.log(2)
    arcs = [UnitCircleArc(0.30, 0.32), UnitCircleArc(3.60, 3.62)]
    enum = TargetEnumeration([const(L), const(-L)], arcs, [0, 1], [0, 1])
    cfg = BuildConfig(RadiiSchedule.default(4), EpsilonSchedule.default(3), enum)
    series = build_membership_series(cfg, 2)
    assert series.succeeded
    F = series.total()
    E = compose_left("exp", F)
    h0 = {1: L, 2: -L}
    tgt = {1: 2.0, 2: 0.5}
    stage_arc = {1: arcs[0], 2: arcs[1]}
    grids = {}
    exp_err = {}
    transfer_ok = True
    for n in (1, 2):
        r = cfg.rho.r[n]
        arc = stage_arc[n]
        zeta = np.exp(1j * np.linspace(arc.alpha, arc.beta, 256))
        grids[n] = r * zeta
        delta = dilate_distance(F, arc, h0[n], r)
        B = max(float(np.max(np.abs(as_expr(F)(r * zeta)))), abs(h0[n]))
        exp_err[n] = dilate_distance(E, arc, tgt[n], r)
        transfer_ok = transfer_ok and exp_err[n] <= math.exp(B) * delta
    grid = np.concatenate([grids[1], grids[2]])
    certified = float(np.min(np.abs(as_expr(E)(grid))))
    R = compose_left("reciprocal", E, probe_grid=grid)  # raises if refused
    recip_ok = True
    for n in (1, 2):
        lhs = dilate_distance(R, stage_arc[n], 1.0 / tgt[n], cfg.rho.r[n])
        bound = exp_err[n] / (certified * abs(tgt[n]))
        recip_ok = recip_ok and lhs <= bound * (1 + 1e-9) + 1e-12
    elapsed = time.monotonic() - t0
    ok = transfer_ok and recip_ok and elapsed < 60.0
    report(4, ok, f"exp errors {exp_err[1]:.3e}/{exp_err[2]:.3e} within e^B*delta, "
                  f"reciprocal certified at min {certified:.3f}, {elapsed:.1f}s")
    assert transfer_ok
    assert recip_ok
    assert elapsed < 60.0


# 5. pre-composition counterexample (expected to fail at stage 1)


def test_criterion_05_precomposition_counterexample():
    t0 = time.monotonic()
    phi = DiscAutomorphism(0.5, 0.0)
    rho = RadiiSchedule.default(10)
    witness = compute_witness(phi, 1 + 0j, 1j, rho, 6)
    cfg = BuildConfig(rho, EpsilonSchedule.default(10),
                      TargetEnumeration.cyclic(
                          [const(10.0)],
                          [UnitCircleArc(3.1316, 3.1516), UnitCircleArc(0.30, 0.32)],
                          6),
                      density=512, max_degree=512)
    series, budget = build_counterexample_series(cfg, phi, witness, 6)
    elapsed = time.monotonic() - t0
    if series.succeeded:
        sweep_value, _ = min_modulus_sweep(series, phi, witness)
        bounds = {row["n"]: row["bound"] for row in telescoping_errors(series)}
        plain = universality_scan(series.total(), [const(10.0)],
                                  [UnitCircleArc(3.1316, 3.1516)], cfg.rho, 6)
        plain_ok = all(row["sup_error"] <= bounds[row["n"]]
                       for row in plain.rows if row["n"] in bounds)
        ok = sweep_value <= budget and plain_ok and elapsed < 300.0
        report(5, ok, f"sweep {sweep_value:.3e} vs budget {budget:.3f}, "
                      f"plain dilates within telescoped bounds {plain_ok}, "
                      f"{elapsed:.0f}s")
        assert sweep_value <= budget
        assert plain_ok
    else:
        f = series.failure
        best = min(e for _, e in f.detail["history"])
        report(5, False,
               f"build died at stage {f.n} ({f.reason}): a constant-10 target "
               f"over a 0.02-radian arc forces a height-10 jump, and with "
               f"curve 1's case-II window clipped by curve 2's stage-3 pin "
               f"no degree <= {f.detail['bound_degree']} gets under "
               f"{f.detail['lower_bound']:.3g}; best fit {best:.3g} "
               f"vs stage budget {f.detail['tol']:.3g} ({elapsed:.0f}s)")
        assert series.succeeded, (
            f"stage {f.n} unreachable: best {best:.3g} vs budget "
            f"{f.detail['tol']:.3g}")
    assert elapsed < 300.0


# 6. rotation is the invariant right composition


def test_criterion_06_rotation_reindexing():
    t0 = time.monotonic()
    f = ComplexPolynomial([0.3, 0.5, 0.2j])
    rho = RadiiSchedule.default(4)
    rng = np.random.default_rng(606)
    worst = 0.0
    done = 0
    while done < 100:
        theta = float(rng.uniform(0.0, 2 * math.pi))
        a0 = float(rng.uniform(0.0, 2 * math.pi - 0.4))
        if a0 + 0.4 + theta > 2 * math.pi:
            continue  # keep the re-indexed arc inside [0, 2pi)
        composed = universality_scan(compose_right(f, rotation(theta)), [2.0],
                                     [UnitCircleArc(a0, a0 + 0.4)], rho, 3)
        direct = universality_scan(f, [2.0],
                                   [UnitCircleArc(a0 + theta, a0 + 0.4 + theta)],
                                   rho, 3)
        for lhs, rhs in zip(composed.rows, direct.rows):
            worst = max(worst, abs(lhs["sup_error"] - rhs["sup_error"]))
        done += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-11 and elapsed < 30.0
    report(6, ok, f"100 rotations: worst scan mismatch {worst:.2e} "
                  f"(tol 1e-11), {elapsed:.1f}s")
    assert worst <= 1e-11
    assert elapsed < 30.0


# 7. inverse-branch lifting


def test_criterion_07_lifting():
    t0 = time.monotonic()
    sq = lift_path(SQUARE, [1, 4], 1, 1e-8)
    log = lift_path("exp", [1, math.e], 0, 1e-8)
    end_sq = abs(sq.values[-1] - 2.0)
    end_log = abs(log.values[-1] - 1.0)
    _, d_exp = liftable_target("exp", UnitCircleArc(0, math.pi / 2), 2.0, 0.01, 8)
    _, d_sq = liftable_target(SQUARE, UnitCircleArc(0.1, math.pi / 2),
                              ComplexPolynomial([0, 1]), 0.01, 8)
    _, d_zero = liftable_target(SQUARE, UnitCircleArc(0, 1), 0.0, 0.01, 8)
    elapsed = time.monotonic() - t0
    ok = (end_sq <= 1e-8 and end_log <= 1e-8
          and max(d_exp, d_sq, d_zero) < 0.01 and elapsed < 10.0)
    report(7, ok, f"endpoints off by {end_sq:.1e}/{end_log:.1e} (tol 1e-8); "
                  f"arc defects {d_exp:.1e}, {d_sq:.1e}, {d_zero:.1e} "
                  f"(all < 0.01), {elapsed:.1f}s")
    assert sq.status.kind == "complete" and log.status.kind == "complete"
    assert end_sq <= 1e-8
    assert end_log <= 1e-8
    assert d_exp < 0.01
    assert d_sq < 0.01
    assert d_zero < 0.01  # target pinned at the critical value of z^2
    assert elapsed < 10.0


# 8. shifted-origin circle families separate


def test_criterion_08_shift_family_separation():
    t0 = time.monotonic()
    rng = np.random.default_rng(808)
    false_positives = 0
    for _ in range(1000):
        while True:
            w1 = complex(*rng.uniform(-0.65, 0.65, 2))
            w2 = complex(*rng.uniform(-0.65, 0.65, 2))
            if abs(w1) < 0.9 and abs(w2) < 0.9 and abs(w1 - w2) >= 1e-3:
                break
        r = float(rng.uniform(0.05, 0.95))
        circle = EuclideanCircle((1 - r) * w1, r)
        assert is_origin_shift_circle(circle, w1, 1e-9) is not None
        if is_origin_shift_circle(circle, w2, 1e-9) is not None:
            false_positives += 1
    worst = 0.0
    for _ in range(1000):
        w = complex(*rng.uniform(-0.6, 0.6, 2))
        a = complex(*rng.uniform(-0.6, 0.6, 2))
        if abs(a) < 1e-3:
            continue
        direct = (w - a) / (a - abs(a) ** 2 * w)
        worst = max(worst, abs(fixed_point_radius(w, a) - direct))
    elapsed = time.monotonic() - t0
    ok = false_positives == 0 and worst <= 1e-12 and elapsed < 5.0
    report(8, ok, f"1000 cross-family circles: {false_positives} false "
                  f"positives; fixed-point radius deviation {worst:.1e} "
                  f"(tol 1e-12), {elapsed:.1f}s")
    assert false_positives == 0
    assert worst <= 1e-12
    assert elapsed < 5.0


# 9. invariant stage with a shrinking parameter disc


def test_criterion_09_invariant_stage():
    t0 = time.monotonic()
    m = 4
    targets = [ComplexPolynomial([0j, 1.0])] * 4 + [ComplexPolynomial([0j, 0.5, 1.0])]
    arc = UnitCircleArc(0.3, 1.0)
    delta, poly, rep = find_invariant_delta(0.2, 0.3, 0.5, arc, m, targets)
    halvings = round(math.log2(0.3 / delta))
    chain_ok = True
    worst_total = 0.0
    for tau in _tau_samples(0.2, delta, 50):
        fit_leg, dev_leg, total = shifted_stage_chain(poly, 0.2, tau, 0.5,
                                                      targets[m], arc=arc)
        worst_total = max(worst_total, total)
        chain_ok = chain_ok and dev_leg < 1.0 / m and total < 3.0 / m
    elapsed = time.monotonic() - t0
    ok = (abs(delta - 0.3 / 2 ** halvings) < 1e-15 and rep.sup_error <= 1.0 / m
          and chain_ok and elapsed < 60.0)
    report(9, ok, f"delta {delta} after {halvings} halvings, fit sup "
                  f"{rep.sup_error:.4f} <= 0.25, worst chained error "
                  f"{worst_total:.4f} < 0.75 over 50 parameters, {elapsed:.1f}s")
    assert abs(delta - 0.3 / 2 ** halvings) < 1e-15
    assert rep.sup_error <= 1.0 / m
    assert chain_ok
    assert elapsed < 60.0


# 10. determinism of the two heavyweight reports


def run_cli_pair(tmp_path, name, argv):
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"{name}_{tag}")
        code = cli_main(argv + ["--out", out])
        outs.append((code, out))
    (code_a, out_a), (code_b, out_b) = outs
    assert code_a == code_b
    same = all(open(out_a + ext, "rb").read() == open(out_b + ext, "rb").read()
               for ext in (".json", ".csv"))
    return code_a, same


def test_criterion_10_determinism(tmp_path):
    t0 = time.monotonic()
    code3, same3 = run_cli_pair(
        tmp_path, "depth8",
        ["build", "membership", "--targets", "[[[0.2,0]],[[0,-0.3]]]",
         "--arcs", "[[0.3,0.32],[3.6,3.62]]", "--stages", "8",
         "--density", "512", "--max-degree", "512", "--seed", "0"])
    code5, same5 = run_cli_pair(
        tmp_path, "counter",
        ["build", "counterexample", "--a", "0.5", "--zeta1", "0",
         "--zeta2", "1.5708", "--stages", "6", "--targets", "[[[10,0]]]",
         "--arcs", "[[3.1316,3.1516],[0.3,0.32]]",
         "--density", "512", "--max-degree", "512", "--seed", "0"])
    elapsed = time.monotonic() - t0
    ok = same3 and same5
    report(10, ok, f"rerun payloads byte-identical: depth-8 build {same3} "
                   f"(exit {code3}), counterexample {same5} (exit {code5}), "
                   f"{elapsed:.0f}s")
    assert same3
    assert same5
