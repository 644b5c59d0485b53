"""Staged builds: schedules, witnesses, case handling, and the shifted family.

Level-crossing radii for the a = 0.5 witness have closed forms that the
tests derive on their own:
  curve 1 (direction 1):  |(0.5 - p)/(1 - 0.5 p)| = L  =>  p = (L + 1/2)/(1 + L/2)
  curve 2 (direction i):  |(0.5 - ip)/(1 - 0.5 ip)|^2 = (1/4 + p^2)/(1 + p^2/4)
                          = L^2  =>  p = sqrt((L^2 - 1/4)/(1 - L^2/4))
Both are exercised against compute_witness below.
"""

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
    ComplexPolynomial,
    ConfigError,
    DiscAutomorphism,
    EpsilonSchedule,
    InterleavingViolated,
    ParameterDiscTooLarge,
    RadiiSchedule,
    TargetEnumeration,
    UnitCircleArc,
    WitnessCriterionError,
    apply_automorphism,
    build_counterexample_series,
    build_invariant_stage,
    build_membership_series,
    classify_stage,
    compute_witness,
    evaluate,
    find_invariant_delta,
    min_modulus_sweep,
    sample_dilated_arc,
    schedule_pairs,
    shift_deviation,
    shifted_stage_chain,
    telescoping_errors,
)
from abeluniv.builder import (CounterexampleWitness, _check_interleaving,
                              _curve_component, _tau_samples, series_from_dict,
                              series_to_dict, witness_from_dict, witness_to_dict)

PHI = DiscAutomorphism(0.5)


def crossing_1(level):
    return (level + 0.5) / (1.0 + 0.5 * level)


def crossing_2(level):
    return math.sqrt((level * level - 0.25) / (1.0 - 0.25 * level * level))


def const(c):
    return ComplexPolynomial([c])


# schedules


def test_radii_schedule_validation():
    for bad in ([], [0.5, 0.5], [0.7, 0.6], [0.5, 1.0], [-0.1, 0.5]):
        with pytest.raises(ConfigError):
            RadiiSchedule(bad)


def test_radii_schedule_default():
    r = RadiiSchedule.default(4).r
    assert r == (0.5, 0.75, 0.875, 0.9375)


def test_epsilon_schedule_validation():
    for bad in ([], [0.0], [-0.1], [0.05, 0.3, 0.15], [0.3, 0.3]):
        with pytest.raises(ConfigError):
            EpsilonSchedule(bad)


def test_epsilon_schedule_default_summable():
    eps = EpsilonSchedule.default(20).eps
    assert eps[:3] == (0.25, 0.125, 0.0625)
    assert sum(eps) <= 0.5
    assert all(b <= a for a, b in zip(eps, eps[1:]))


def test_schedule_pairs_cyclic_cover():
    alpha, beta = schedule_pairs(2, 3, 7)
    pairs = list(zip(alpha, beta))
    assert pairs[:6] == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert pairs[6] == (0, 0)  # wraps


def test_schedule_pairs_validation():
    with pytest.raises(ConfigError):
        schedule_pairs(2, 3, 5)  # cannot cover the grid
    with pytest.raises(ConfigError):
        schedule_pairs(0, 3, 5)


def test_target_enumeration_validation():
    t = [const(1.0)]
    a = [UnitCircleArc(0, 1)]
    with pytest.raises(ConfigError):
        TargetEnumeration(t, a, [0, 1], [0, 0])  # alpha out of range
    with pytest.raises(ConfigError):
        TargetEnumeration(t, a, [0], [0, 0])  # length mismatch
    e = TargetEnumeration.cyclic(t, a, 3)
    assert e.alpha == (0, 0, 0) and e.beta == (0, 0, 0)


# witnesses


@pytest.fixture(scope="module")
def witness6():
    return compute_witness(PHI, 1 + 0j, 1j, RadiiSchedule.default(8), 6)


def test_witness_frozen_crossings(witness6):
    w = witness6
    r = RadiiSchedule.default(8).r
    assert w.first_stage == 1 and w.last_stage == 6
    assert abs(w.r_minus1 - 0.5) < 1e-9
    assert len(w.R1) == len(w.R2) == 6
    for k in range(6):
        assert abs(w.R1[k] - crossing_1(r[k + 1])) < 1e-9
        assert abs(w.R2[k] - crossing_2(r[k + 1])) < 1e-9
    # spot values
    assert abs(w.R1[0] - 10.0 / 11.0) < 1e-9
    assert abs(w.R2[0] - 2.0 / math.sqrt(11.0)) < 1e-9
    # half levels sit strictly between consecutive crossings on each curve
    for lst, R in ((w.s1, w.R1), (w.s2, w.R2)):
        for k in range(6):
            assert lst[k] < R[k] < lst[k + 1]


def test_witness_half_levels_against_oracle(witness6):
    w = witness6
    r = RadiiSchedule.default(8).r
    for k in range(7):
        half = 0.5 * (r[k] + r[k + 1])
        assert abs(w.s1[k] - crossing_1(half)) < 1e-9
        if k == 0:
            continue  # fallback entry, checked separately
        assert abs(w.s2[k] - crossing_2(half)) < 1e-9
    assert abs(w.s1[0] - 6.0 / 7.0) < 1e-9


def test_witness_fallback_flag(witness6):
    # the lowest half level 0.625 sits below |PHI(0.5 i)| ~ 0.686, so the
    # curve-2 entry clamps to the curve start instead of solving
    w = witness6
    assert w.s2_fallback and not w.s1_fallback
    assert w.s2[0] == w.r_minus1


def test_witness_accessors(witness6):
    w = witness6
    assert w.R(1, 1) == w.R1[0] and w.R(2, 6) == w.R2[5]
    assert w.s(1, 0) == w.s1[0] and w.s(2, 6) == w.s2[6]
    with pytest.raises(ConfigError):
        w.R(1, 7)
    with pytest.raises(ConfigError):
        w.s(2, -1)
    gap = w.opposite_pin_gap(1, 1)
    assert abs(gap - min(abs(w.R1[0] - q) for q in w.R2)) < 1e-15
    assert abs(gap - 0.011312) < 1e-5  # the nearest pin is R2 two stages up


def test_witness_criterion_error():
    with pytest.raises(WitnessCriterionError):
        compute_witness(PHI, 1j, -1j, RadiiSchedule.default(4), 2)
    z = complex(math.cos(0.25), math.sin(0.25))
    with pytest.raises(WitnessCriterionError):
        compute_witness(PHI, z, z.conjugate(), RadiiSchedule.default(4), 2)


def test_witness_config_errors():
    rho = RadiiSchedule.default(4)
    with pytest.raises(ConfigError):
        compute_witness(DiscAutomorphism(0.0, 0.3), 1, 1j, rho, 2)  # rotation
    with pytest.raises(ConfigError):
        compute_witness(PHI, 0.5, 1j, rho, 2)  # direction off the circle
    with pytest.raises(ConfigError):
        compute_witness(PHI, 1, 1j, rho, 0)
    with pytest.raises(ConfigError):
        compute_witness(PHI, 1, 1j, RadiiSchedule.default(5), 6)  # too short
    with pytest.raises(ConfigError):
        # every level at or below the curve start moduli
        compute_witness(PHI, 1, 1j, RadiiSchedule([0.1, 0.2, 0.3, 0.4]), 2)


def test_witness_interleaving_checker():
    def make(R1, R2, s1, s2):
        return CounterexampleWitness(1, 1j, 0.5, 1, len(R1), R1, R2, s1, s2)

    _check_interleaving(make([0.7], [0.8], [0.6, 0.75], [0.65, 0.85]))
    with pytest.raises(InterleavingViolated):
        _check_interleaving(make([0.75], [0.8], [0.6, 0.7], [0.65, 0.85]))
    with pytest.raises(InterleavingViolated):  # cross-curve collision
        _check_interleaving(make([0.7], [0.7 + 1e-12], [0.6, 0.75], [0.65, 0.85]))


def test_witness_dict_round_trip(witness6):
    d = witness_to_dict(witness6)
    w2 = witness_from_dict(json.loads(json.dumps(d)))
    assert w2.R1 == witness6.R1 and w2.s2 == witness6.s2
    assert w2.zeta1 == witness6.zeta1 and w2.s2_fallback
    assert json.dumps(witness_to_dict(w2)) == json.dumps(d)


# stage classification


def dense_curves(phi, zeta1, zeta2, p_lo=0.5, p_hi=0.999, n=4096):
    p = np.linspace(p_lo, p_hi, n)
    return (apply_automorphism(phi, p * zeta1), apply_automorphism(phi, p * zeta2))


def test_classify_far_arc_is_case_one(witness6):
    curves = dense_curves(PHI, 1, 1j)
    arc = sample_dilated_arc(UnitCircleArc(0.0, 0.1), 0.75, 256)
    case = classify_stage(1, arc, witness6, curves)
    assert case.kind == "I" and case.label == "I"
    # empty curve samples never intersect anything
    case0 = classify_stage(1, arc, witness6, (np.array([]), np.array([])))
    assert case0.kind == "I"


def test_classify_case_two_sides(witness6):
    curves = dense_curves(PHI, 1, 1j)
    # curve 1 crosses modulus 0.75 on the negative real axis
    near1 = sample_dilated_arc(UnitCircleArc(3.1316, 3.1516), 0.75, 256)
    c1 = classify_stage(1, near1, witness6, curves)
    assert c1.kind == "II" and c1.crossing == (True, False) and c1.label == "II-1"
    # curve 2 crosses it near angle 5.7
    near2 = sample_dilated_arc(UnitCircleArc(5.63, 5.72), 0.75, 256)
    c2 = classify_stage(1, near2, witness6, curves)
    assert c2.kind == "II" and c2.crossing == (False, True) and c2.label == "II-2"


def test_classify_case_three_order(witness6):
    curves = dense_curves(PHI, 1, 1j)
    wide = sample_dilated_arc(UnitCircleArc(3.1, 5.75), 0.75, 1024)
    case = classify_stage(1, wide, witness6, curves)
    assert case.kind == "III" and case.label == "III"
    assert case.order == 1  # R_1 for curve 1 lies above curve 2's


# membership builds


@pytest.fixture(scope="module")
def two_target_cfg():
    targets = [const(0.2), const(-0.3j)]
    arcs = [UnitCircleArc(0.30, 0.32), UnitCircleArc(3.60, 3.62)]
    return BuildConfig(RadiiSchedule.default(5), EpsilonSchedule.default(5),
                       TargetEnumeration.cyclic(targets, arcs, 4))


@pytest.fixture(scope="module")
def membership3(two_target_cfg):
    return build_membership_series(two_target_cfg, 3)


def test_membership_zero_target_build():
    cfg = BuildConfig(RadiiSchedule.default(4), EpsilonSchedule.default(4),
                      TargetEnumeration.cyclic([const(0.0)],
                                               [UnitCircleArc(0, math.pi / 2)], 3))
    s = build_membership_series(cfg, 3)
    assert s.succeeded
    assert all(max(abs(c) for c in rec.poly.coeffs) == 0 for rec in s.stages)


def test_membership_build_frozen(membership3, two_target_cfg):
    s = membership3
    assert s.succeeded and s.failure is None
    assert [rec.n for rec in s.stages] == [1, 2, 3]
    assert [rec.fit.degree for rec in s.stages] == [3, 29, 205]
    eps = two_target_cfg.eps.eps
    for rec in s.stages:
        assert rec.fit.sup_error <= 0.5 * eps[rec.n]
        assert rec.case == "I"
        assert rec.info["r_disc"] == two_target_cfg.rho.r[rec.n - 1]
        assert rec.info["r_arc"] == two_target_cfg.rho.r[rec.n]
    assert [rec.info["alpha"] for rec in s.stages] == [0, 0, 1]
    assert [rec.info["beta"] for rec in s.stages] == [0, 1, 0]


def test_membership_partial_sums(membership3):
    s = membership3
    f2 = s.partial_sum(2)
    z = 0.3 + 0.2j
    direct = sum(evaluate(rec.poly, z) for rec in s.stages[:2])
    assert abs(evaluate(f2, z) - direct) < 1e-12
    assert len(s.total().coeffs) == max(len(r.poly.coeffs) for r in s.stages)


def test_membership_telescoping(membership3):
    rows = telescoping_errors(membership3)
    assert [row["n"] for row in rows] == [1, 2, 3]
    for row in rows:
        assert row["sup"] <= row["bound"]


def test_membership_failure_is_data():
    # degree cap far below what stage 3 needs: the build stops there and
    # hands back the two finished stages plus the ladder it climbed
    targets = [const(0.2), const(-0.3j)]
    arcs = [UnitCircleArc(0.30, 0.32), UnitCircleArc(3.60, 3.62)]
    cfg = BuildConfig(RadiiSchedule.default(5), EpsilonSchedule.default(5),
                      TargetEnumeration.cyclic(targets, arcs, 4), max_degree=64)
    s = build_membership_series(cfg, 4)
    assert not s.succeeded
    assert s.failure.n == 3 and s.failure.reason == "tolerance-unreachable"
    assert len(s.stages) == 2
    assert [d for d, _ in s.failure.detail["history"]] == [8, 16, 32, 64]
    assert s.failure.detail["tol"] == 0.5 * cfg.eps.eps[3]
    # the failure is bracketed: no degree <= 64 gets under the lower bound
    # on the grid, and the best fit measured lies above it
    assert s.failure.detail["bound_degree"] == 64
    bound = s.failure.detail["lower_bound"]
    assert 0 < bound <= min(e for _, e in s.failure.detail["history"])
    assert bound <= s.failure.detail["best_sup"]


def test_build_validation(two_target_cfg):
    with pytest.raises(ConfigError):
        build_membership_series(two_target_cfg, 3, tol_factor=0.0)
    with pytest.raises(ConfigError):
        build_membership_series(two_target_cfg, 5)  # enumeration too short
    short = BuildConfig(RadiiSchedule.default(3), EpsilonSchedule.default(3),
                        TargetEnumeration.cyclic([const(0.1)],
                                                 [UnitCircleArc(0, 1)], 3))
    with pytest.raises(ConfigError):
        build_membership_series(short, 3)  # needs radii through index N


# shifted-center builds


def test_shifted_center_zero_matches_plain(two_target_cfg):
    plain = build_membership_series(two_target_cfg, 2)
    shifted = build_membership_series(two_target_cfg, 2, w=0j)
    for a, b in zip(plain.stages, shifted.stages):
        assert tuple(a.poly.coeffs) == tuple(b.poly.coeffs)


def test_shifted_center_validation(two_target_cfg):
    with pytest.raises(ConfigError):
        build_membership_series(two_target_cfg, 1, w=1.0 + 0j)


@pytest.fixture(scope="module")
def shifted_build():
    cfg = BuildConfig(RadiiSchedule.default(3), EpsilonSchedule.default(3),
                      TargetEnumeration.cyclic([const(0.2 + 0.2j)],
                                               [UnitCircleArc(0.2, 0.4)], 2))
    return cfg, build_membership_series(cfg, 2, w=0.3)


def test_shifted_build_converges_on_shifted_arcs(shifted_build):
    cfg, s = shifted_build
    assert s.succeeded and s.extras["w"] == 0.3
    assert [rec.fit.degree for rec in s.stages] == [19, 117]
    for rec in s.stages:
        assert rec.fit.sup_error <= 0.5 * cfg.eps.eps[rec.n]
    for row in telescoping_errors(s):
        assert row["sup"] <= row["bound"]


def test_shifted_build_fails_plain_dilation_probe(shifted_build):
    # the same series probed with plain (origin-centered) dilates misses the
    # target beyond its own telescoped budget at every stage: the two
    # dilation families separate classes
    cfg, s = shifted_build
    F = s.total()
    zeta = np.exp(1j * np.linspace(0.2, 0.4, 128))
    built = len(s.stages)
    for rec in s.stages:
        sup = float(np.max(np.abs(evaluate(F, cfg.rho.r[rec.n] * zeta) - (0.2 + 0.2j))))
        bound = cfg.eps.eps[rec.n] + sum(cfg.eps.eps[rec.n + 1:built + 1])
        assert sup > bound


def test_shifted_wide_arc_stalls_honestly():
    # jump of size |1+i| from the zero constraint up to a quarter-circle arc:
    # the ringing floor of the weighted fit sits above eps_1/2 at any degree,
    # so stage 1 reports an unreachable tolerance instead of succeeding
    cfg = BuildConfig(RadiiSchedule.default(7), EpsilonSchedule.default(7),
                      TargetEnumeration.cyclic([const(1 + 1j)],
                                               [UnitCircleArc(0, math.pi / 2)], 6))
    s = build_membership_series(cfg, 6, w=0.3)
    assert not s.succeeded
    assert s.failure.n == 1 and s.failure.reason == "tolerance-unreachable"


def test_shifted_build_round_trip():
    cfg = BuildConfig(RadiiSchedule.default(3), EpsilonSchedule.default(3),
                      TargetEnumeration.cyclic([const(0.2)], [UnitCircleArc(0.2, 0.4)], 1),
                      density=128)
    s = build_membership_series(cfg, 1, w=0.3 + 0.1j)
    d = series_to_dict(s)
    assert (d["kind"], d["w"], d["density"]) == ("shifted", [0.3, 0.1], 128)
    blob = json.dumps(d, sort_keys=True)
    s2 = series_from_dict(json.loads(blob))
    assert json.dumps(series_to_dict(s2), sort_keys=True) == blob
    assert (s2.kind, s2.extras["w"], s2.config.density) == ("shifted", 0.3 + 0.1j, 128)


# serialization of whole builds


def test_series_dict_round_trip(membership3):
    d = series_to_dict(membership3)
    blob = json.dumps(d, sort_keys=True)
    s2 = series_from_dict(json.loads(blob))
    assert json.dumps(series_to_dict(s2), sort_keys=True) == blob
    assert s2.succeeded
    for a, b in zip(membership3.stages, s2.stages):
        assert tuple(a.poly.coeffs) == tuple(b.poly.coeffs)
        assert a.fit.sup_error == b.fit.sup_error


# counterexample builds


def case_ii_config(target=const(0.3)):
    cfg = BuildConfig(RadiiSchedule.default(3), EpsilonSchedule.default(3),
                      TargetEnumeration.cyclic([target],
                                               [UnitCircleArc(3.1316, 3.1516)], 1))
    return cfg, compute_witness(PHI, 1, 1j, RadiiSchedule.default(3), 1)


def test_counterexample_case_one_reduction():
    # the tiny arc near angle 0 avoids both witness curves, so every stage
    # is a plain membership stage with two extra zero-target curves
    cfg = BuildConfig(RadiiSchedule.default(4), EpsilonSchedule.default(4),
                      TargetEnumeration.cyclic([const(0.3)],
                                               [UnitCircleArc(0.0, 0.1)], 2))
    w = compute_witness(PHI, 1, 1j, RadiiSchedule.default(4), 2)
    s, budget = build_counterexample_series(cfg, PHI, w, 2)
    assert s.succeeded
    assert [rec.case for rec in s.stages] == ["I", "I"]
    assert all(win is None for rec in s.stages for win in rec.info["windows"])
    assert abs(budget - (sum(cfg.eps.eps[1:3])
                         + sum(r.fit.sup_error for r in s.stages))) < 1e-15


def test_counterexample_case_two_frozen():
    cfg, w = case_ii_config()
    s, budget = build_counterexample_series(cfg, PHI, w, 1)
    rec = s.stages[0]
    assert s.succeeded and rec.case == "II-1"
    assert rec.fit.degree == 34
    lo, pin, hi = rec.info["windows"][0]
    assert rec.info["windows"][1] is None
    # window = half-level band, unclipped here (the opposite pin is far)
    assert abs(lo - w.s(1, 0)) < 1e-12
    assert abs(pin - w.R(1, 1)) < 1e-12
    assert abs(hi - w.s(1, 1)) < 1e-12
    # the fit honored the bridging target at the pinned point
    z_pin = apply_automorphism(PHI, pin * 1)
    assert abs(evaluate(s.total(), z_pin) - 0.3) <= cfg.eps.eps[1]
    val, arg = min_modulus_sweep(s, PHI, w)
    assert val <= budget
    assert abs(val - 5.125037609e-3) < 1e-9
    assert abs(budget - 0.1854819006) < 1e-9


def test_counterexample_pin_reads_target_on_the_circle():
    # at the pin the witness curve meets the stage arc r_1 K, so its ramp
    # peaks at the arc's own target phi(zeta), zeta = z_pin/|z_pin|; a
    # non-constant target tells that apart from phi(z_pin)
    phi_t = ComplexPolynomial([0.3, 1.0])
    cfg, w = case_ii_config(phi_t)
    s, _ = build_counterexample_series(cfg, PHI, w, 1)
    assert s.succeeded and s.stages[0].case == "II-1"
    z_pin = complex(*s.stages[0].info["pins"][0])
    miss = abs(evaluate(s.total(), z_pin) - evaluate(phi_t, z_pin / abs(z_pin)))
    assert miss <= cfg.eps.eps[1]


def test_counterexample_case_three_frozen():
    cfg = BuildConfig(RadiiSchedule.default(3), EpsilonSchedule([0.3, 0.15, 0.05]),
                      TargetEnumeration.cyclic([const(0.1)],
                                               [UnitCircleArc(3.1, 5.75)], 1))
    w = compute_witness(PHI, 1, 1j, RadiiSchedule.default(3), 1)
    s, budget = build_counterexample_series(cfg, PHI, w, 1)
    rec = s.stages[0]
    assert s.succeeded and rec.case == "III"
    assert rec.info["case_order"] == 1
    assert abs(rec.info["eta"] - 1.912926e-2) < 1e-7
    assert w.eta[1] == rec.info["eta"]
    # both windows pinned, symmetric half-width eta
    for i in (1, 2):
        lo, pin, hi = rec.info["windows"][i - 1]
        assert abs(pin - w.R(i, 1)) < 1e-12
        assert abs((hi - lo) / 2 - rec.info["eta"]) < 1e-12
    val, _ = min_modulus_sweep(s, PHI, w)
    assert val <= budget
    assert abs(val - 3.780840939e-2) < 1e-9


def test_counterexample_role_swap_symmetric():
    # swapping the two directions flips the recorded order and nothing else
    cfg = BuildConfig(RadiiSchedule.default(3), EpsilonSchedule([0.3, 0.15, 0.05]),
                      TargetEnumeration.cyclic([const(0.1)],
                                               [UnitCircleArc(3.1, 5.75)], 1))
    w12 = compute_witness(PHI, 1, 1j, RadiiSchedule.default(3), 1)
    w21 = compute_witness(PHI, 1j, 1, RadiiSchedule.default(3), 1)
    s12, _ = build_counterexample_series(cfg, PHI, w12, 1)
    s21, _ = build_counterexample_series(cfg, PHI, w21, 1)
    assert s12.stages[0].info["case_order"] == 1
    assert s21.stages[0].info["case_order"] == -1
    v12, _ = min_modulus_sweep(s12, PHI, w12)
    v21, _ = min_modulus_sweep(s21, PHI, w21)
    assert abs(v12 - v21) < 1e-12


def test_counterexample_below_witness_range():
    # with directions 1 and -1 the curve starts reach 0.8, so stage levels
    # begin at stage 2; an arc that meets a curve at stage 1 cannot be
    # bridged and the build stops with the geometry diagnosis
    w = compute_witness(PHI, 1, -1, RadiiSchedule.default(4), 2)
    assert w.first_stage == 2
    cfg = BuildConfig(RadiiSchedule.default(4), EpsilonSchedule.default(4),
                      TargetEnumeration.cyclic([const(0.3)],
                                               [UnitCircleArc(3.1316, 3.1516)], 1))
    s, budget = build_counterexample_series(cfg, PHI, w, 1)
    assert not s.succeeded and len(s.stages) == 0
    assert s.failure.n == 1
    assert s.failure.reason == "arc-meets-curve-below-witness-range"
    assert budget == cfg.eps.eps[1]


def test_counterexample_stage_cap():
    cfg, w = case_ii_config()
    with pytest.raises(ConfigError):
        build_counterexample_series(cfg, PHI, w, w.last_stage + 1)


def test_min_modulus_sweep_recomputes():
    cfg, w = case_ii_config()
    s, _ = build_counterexample_series(cfg, PHI, w, 1)
    val, arg = min_modulus_sweep(s, PHI, w, num=333)
    assert w.r_minus1 <= arg <= cfg.rho.r[1]
    F = s.total()
    direct = min(abs(evaluate(F, apply_automorphism(PHI, arg * w.zeta1))),
                 abs(evaluate(F, apply_automorphism(PHI, arg * w.zeta2))))
    assert abs(val - direct) < 1e-15


def test_counterexample_series_round_trip():
    cfg = BuildConfig(RadiiSchedule.default(3), EpsilonSchedule([0.3, 0.15, 0.05]),
                      TargetEnumeration.cyclic([const(0.1)],
                                               [UnitCircleArc(3.1, 5.75)], 1))
    w = compute_witness(PHI, 1 + 0j, 1j, RadiiSchedule.default(3), 1)
    s, _ = build_counterexample_series(cfg, PHI, w, 1)
    blob = json.dumps(series_to_dict(s), sort_keys=True)
    s2 = series_from_dict(json.loads(blob))
    assert json.dumps(series_to_dict(s2), sort_keys=True) == blob
    assert s2.extras["witness"].eta[1] == w.eta[1]


def test_case_two_curve_samples_the_map_at_its_window_knots():
    # the stage-1 case-II window on curve 1, as the counterexample build sets it
    w = compute_witness(PHI, 1 + 0j, 1j, RadiiSchedule.default(3), 1)
    pin, gap3 = w.R(1, 1), w.opposite_pin_gap(1, 1) / 3.0
    window = (max(w.s(1, 0), pin - gap3), pin, min(w.s(1, 1), pin + gap3))
    c = _curve_component(PHI, 1 + 0j, 1, w.r_minus1, 0.999, 64, 0.0, window, 0.5j)
    params = np.unique(np.concatenate([np.linspace(w.r_minus1, 0.999, 64), window]))
    assert len(params) == 67
    assert np.array_equal(c.points, apply_automorphism(PHI, params * 1))
    assert c.target[np.searchsorted(params, pin)] == 0.5j


_CRITERION_5_BUILD = """
import json
from abeluniv import *
rho = RadiiSchedule.default(10)
cfg = BuildConfig(rho, EpsilonSchedule.default(10), TargetEnumeration.cyclic(
    [ComplexPolynomial([10.0])], [UnitCircleArc(3.1316, 3.1516), UnitCircleArc(0.30, 0.32)], 6),
    density=512, max_degree=512)
w = compute_witness(DiscAutomorphism(0.5, 0.0), 1 + 0j, 1j, rho, 6)
f = build_counterexample_series(cfg, DiscAutomorphism(0.5, 0.0), w, 6)[0].failure
print(json.dumps([f.n, [d for d, _ in f.detail["history"]], f.detail["best_sup"]]))
"""


def test_counterexample_failure_does_not_depend_on_the_blas_thread_count():
    # the criterion-5 build fails at stage 1 with round-1 values, which
    # agree at 1 and 2 BLAS threads; the thread count is read once, when
    # the BLAS library loads, so each count runs in a process of its own
    src = os.path.dirname(os.path.dirname(abeluniv.__file__))
    runs = [subprocess.Popen(
        [sys.executable, "-c", _CRITERION_5_BUILD], stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS=t,
                 PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])))
        for t in ("1", "2")]
    (n1, hist1, best1), (n2, hist2, best2) = (json.loads(p.communicate()[0]) for p in runs)
    assert n1 == n2 == 1
    assert hist1 == hist2
    assert best1 == pytest.approx(best2, rel=1e-12)


# parameter-invariant stage (shift family pulled back through the center)


INVARIANT_TARGETS = [ComplexPolynomial([0j, 1.0])] * 4 + [ComplexPolynomial([0j, 0.5, 1.0])]


def test_tau_samples_cover_disc():
    taus = _tau_samples(0.2, 0.075, 50)
    assert taus[0] == 0.2  # center first
    assert all(abs(t - 0.2) <= 0.075 + 1e-15 for t in taus)
    assert abs(abs(taus[-1] - 0.2) - 0.075) < 1e-15  # boundary included
    assert np.array_equal(taus, _tau_samples(0.2, 0.075, 50))
    with pytest.raises(ConfigError):
        _tau_samples(0.2, 0.075, 0)


def test_shift_deviation_zero_delta_is_zero():
    assert shift_deviation(0j, 0.0, 0.5, INVARIANT_TARGETS[4]) == 0.0
    # and it grows with the parameter radius
    d_small = shift_deviation(0.2, 0.075, 0.5, INVARIANT_TARGETS[4])
    d_big = shift_deviation(0.2, 0.3, 0.5, INVARIANT_TARGETS[4])
    assert 0 < d_small < d_big


def test_invariant_stage_rejects_large_parameter_disc():
    with pytest.raises(ParameterDiscTooLarge):
        build_invariant_stage(0.2, 0.3, 0.5, UnitCircleArc(0.3, 1.0), 4,
                              INVARIANT_TARGETS)


def test_find_invariant_delta_frozen():
    delta, poly, rep = find_invariant_delta(0.2, 0.3, 0.5, UnitCircleArc(0.3, 1.0),
                                            4, INVARIANT_TARGETS)
    assert delta == 0.075  # two halvings from 0.3
    assert rep.degree == 2
    assert rep.sup_error <= 0.25
    assert abs(rep.sup_error - 0.2449677) < 1e-4


def test_find_invariant_delta_measures_each_delta_once(monkeypatch):
    tried = []

    def counted(w_center, delta, r_k, phi_m):
        tried.append(delta)
        return shift_deviation(w_center, delta, r_k, phi_m)

    monkeypatch.setattr(abeluniv.builder, "shift_deviation", counted)
    delta, _, _ = find_invariant_delta(0.2, 0.3, 0.5, UnitCircleArc(0.3, 1.0),
                                       4, INVARIANT_TARGETS)
    assert delta == 0.075
    assert tried == [0.3, 0.15, 0.075]


def test_invariant_chain_legs_bounded():
    m = 4
    delta, poly, rep = find_invariant_delta(0.2, 0.3, 0.5, UnitCircleArc(0.3, 1.0),
                                            m, INVARIANT_TARGETS)
    arc = UnitCircleArc(0.3, 1.0)
    for tau in _tau_samples(0.2, delta, 50):
        fit_leg, dev_leg, total = shifted_stage_chain(
            poly, 0.2, tau, 0.5, INVARIANT_TARGETS[m], arc=arc)
        assert total <= fit_leg + dev_leg + 1e-12
        assert dev_leg < 1.0 / m
        assert total < 3.0 / m


def test_invariant_stage_validation():
    arc = UnitCircleArc(0.3, 1.0)
    with pytest.raises(ConfigError):
        build_invariant_stage(0.2, 0.05, 0.5, arc, 0, INVARIANT_TARGETS)
    with pytest.raises(ConfigError):
        build_invariant_stage(0.2, 0.05, 0.5, arc, 9, INVARIANT_TARGETS)
    with pytest.raises(ConfigError):
        find_invariant_delta(0.2, 1.5, 0.5, arc, 4, INVARIANT_TARGETS,
                             max_halvings=1)
