"""Staged constructions of dilation-universal series.

A build runs stage by stage: stage n fits a polynomial P_n that is small on
the closed disc of radius r_{n-1} (sampled on its boundary circle) while
F_n = P_1 + ... + P_n matches the scheduled target on the stage's dilated
arc, F_n(r_n zeta) ~ phi(zeta) for zeta on the arc (the target is read at
the boundary point, as in the Abel definition f(r zeta) -> phi(zeta)), to
tolerance tol_factor * eps_n. Because eps_n is summable, the
partial sums converge locally uniformly and every scheduled (target, arc)
pair keeps its telescoped error bound at the end.

The pre-composition counterexample build adds two radial witness curves on
which the accumulated series must stay small except in narrow bridging
windows around the level-crossing radii; the window bookkeeping follows
the three-way case split on whether the stage arc meets neither, one, or
both curves. A failed stage (tolerance unreachable, or window geometry
unsatisfiable) is data, not an exception: the partial series is returned
with a failure marker attached.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import compacta
from .compacta import OverlapWarning, SampledComponent, sup_distance
from .errors import (ConfigError, InterleavingViolated, InvariantViolation,
                     ParameterDiscTooLarge, ToleranceUnreachable,
                     WitnessCriterionError)
from .geometry import (DiscAutomorphism, UnitCircleArc, apply_automorphism,
                       mobius_shift, radial_monotone_threshold, solve_level_radius)
from .polyfit import (ComplexPolynomial, FitReport, accumulate, evaluate,
                      fit_until, poly_from_pairs, poly_to_pairs)


@dataclass(frozen=True)
class RadiiSchedule:
    """Strictly increasing radii in [0, 1). Default r_n = 1 - 2^{-(n+1)}."""

    r: tuple

    def __init__(self, r):
        vals = tuple(float(x) for x in r)
        if not vals:
            raise ConfigError("radii schedule must be nonempty")
        if any(not (0 <= x < 1) for x in vals):
            raise ConfigError("radii must lie in [0, 1)")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ConfigError("radii must be strictly increasing")
        object.__setattr__(self, "r", vals)

    @staticmethod
    def default(n: int) -> "RadiiSchedule":
        return RadiiSchedule([1.0 - 2.0 ** (-(k + 1)) for k in range(n)])


@dataclass(frozen=True)
class EpsilonSchedule:
    """Positive nonincreasing tolerances with partial sum <= 1/2.
    Default eps_n = 2^{-(n+2)}."""

    eps: tuple

    def __init__(self, eps):
        vals = tuple(float(x) for x in eps)
        if not vals:
            raise ConfigError("epsilon schedule must be nonempty")
        if not all(0 < x < math.inf for x in vals):
            raise ConfigError(f"tolerances must be positive and finite, got {vals}")
        if any(b > a for a, b in zip(vals, vals[1:])):
            raise ConfigError("tolerances must be nonincreasing")
        if sum(vals) > 0.5 + 1e-12:
            raise ConfigError(f"tolerance sum {sum(vals)} exceeds 1/2")
        object.__setattr__(self, "eps", vals)

    @staticmethod
    def default(n: int) -> "EpsilonSchedule":
        return EpsilonSchedule([2.0 ** (-(k + 2)) for k in range(n)])


def schedule_pairs(n_targets: int, n_arcs: int, n_stages: int) -> Tuple[list, list]:
    """Cyclic enumeration of the (target, arc) pair grid over n_stages."""
    if n_targets < 1 or n_arcs < 1:
        raise ConfigError("need at least one target and one arc")
    if n_stages < n_targets * n_arcs:
        raise ConfigError(
            f"{n_stages} stages cannot cover {n_targets * n_arcs} pairs at least once")
    alpha = [(k % (n_targets * n_arcs)) // n_arcs for k in range(n_stages)]
    beta = [k % n_arcs for k in range(n_stages)]
    return alpha, beta


@dataclass(frozen=True)
class TargetEnumeration:
    targets: tuple
    arcs: tuple
    alpha: tuple
    beta: tuple

    def __init__(self, targets, arcs, alpha, beta):
        targets = tuple(targets)
        arcs = tuple(arcs)
        alpha = tuple(int(i) for i in alpha)
        beta = tuple(int(i) for i in beta)
        if not targets or not arcs:
            raise ConfigError("need at least one target and one arc")
        if len(alpha) != len(beta):
            raise ConfigError("alpha and beta must have equal length")
        if any(not (0 <= i < len(targets)) for i in alpha):
            raise ConfigError("alpha index out of range")
        if any(not (0 <= i < len(arcs)) for i in beta):
            raise ConfigError("beta index out of range")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @staticmethod
    def cyclic(targets, arcs, n_stages: int) -> "TargetEnumeration":
        alpha, beta = schedule_pairs(len(targets), len(arcs), n_stages)
        return TargetEnumeration(targets, arcs, alpha, beta)


@dataclass
class BuildConfig:
    rho: RadiiSchedule
    eps: EpsilonSchedule
    enumeration: TargetEnumeration
    density: int = 512      # samples per arc, disc circle and witness curve
    max_degree: int = 512


@dataclass
class StageRecord:
    n: int
    case: str
    poly: ComplexPolynomial
    fit: FitReport
    info: dict = field(default_factory=dict)


@dataclass
class StageFailure:
    n: int
    reason: str
    detail: dict = field(default_factory=dict)


@dataclass
class UniversalSeries:
    kind: str
    config: BuildConfig
    n_stages: int
    stages: List[StageRecord] = field(default_factory=list)
    failure: Optional[StageFailure] = None
    extras: dict = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return self.failure is None and len(self.stages) == self.n_stages

    def partial_sum(self, upto: int) -> ComplexPolynomial:
        return accumulate([s.poly for s in self.stages if s.n <= upto])

    def total(self) -> ComplexPolynomial:
        return accumulate([s.poly for s in self.stages])


@dataclass
class CounterexampleWitness:
    """Level-crossing bookkeeping for two boundary directions.

    R{i}[k] is the radius where curve i reaches level r_n, s{i}[k] where it
    reaches the half level (r_n + r_{n+1})/2, both stored for stages
    n = first_stage + k (R) and n = first_stage - 1 + k (s). The lowest s
    entry falls back to the curve start r_minus1 when its level sits below
    the curve's starting modulus; fallback entries are parameter clamps,
    not level solutions, and are excluded from the disjointness check.
    """

    zeta1: complex
    zeta2: complex
    r_minus1: float
    first_stage: int
    last_stage: int
    R1: list
    R2: list
    s1: list
    s2: list
    s1_fallback: bool = False
    s2_fallback: bool = False
    eta: dict = field(default_factory=dict)

    def R(self, i: int, n: int) -> float:
        lst = self.R1 if i == 1 else self.R2
        if not (self.first_stage <= n <= self.last_stage):
            raise ConfigError(f"no crossing radius stored for stage {n}")
        return lst[n - self.first_stage]

    def s(self, i: int, n: int) -> float:
        lst = self.s1 if i == 1 else self.s2
        if not (self.first_stage - 1 <= n <= self.last_stage):
            raise ConfigError(f"no half-level radius stored for stage {n}")
        return lst[n - self.first_stage + 1]

    def opposite_pin_gap(self, i: int, n: int) -> float:
        """Distance from R_n^i to the nearest crossing radius of the other
        curve; bridging windows are clipped to a third of this so windows
        on different curves can never share a parameter."""
        pin = self.R(i, n)
        other = self.R2 if i == 1 else self.R1
        return min(abs(pin - q) for q in other)


def compute_witness(phi: DiscAutomorphism, zeta1: complex, zeta2: complex,
                    rho: RadiiSchedule, N: int) -> CounterexampleWitness:
    """Crossing and half-level radii for both curves through stage N.

    Needs radii through index N+1 (the stage-N half level), hence
    len(rho.r) >= N + 2.
    """
    if abs(phi.a) <= 1e-14:
        raise ConfigError("witness needs a non-rotation automorphism (a != 0)")
    for name, z in (("zeta1", zeta1), ("zeta2", zeta2)):
        if not (abs(abs(z) - 1.0) <= 1e-12):
            raise ConfigError(f"{name} must lie on the unit circle")
    c1 = (phi.a.conjugate() * zeta1).real
    c2 = (phi.a.conjugate() * zeta2).real
    if abs(c1 - c2) <= 1e-12:
        raise WitnessCriterionError(
            f"Re(conj(a) zeta) coincide ({c1} vs {c2}); the two curves share "
            "every level, pick different directions")
    if N < 1:
        raise ConfigError("need at least one stage")
    if len(rho.r) < N + 2:
        raise ConfigError(f"radii schedule too short: need {N + 2} entries, got {len(rho.r)}")

    r = rho.r
    zetas = (zeta1, zeta2)
    r_minus1 = max(radial_monotone_threshold(phi, z) for z in zetas)
    starts = [abs(apply_automorphism(phi, r_minus1 * z)) for z in zetas]
    first = next((n for n in range(1, N + 1) if r[n] > max(starts) + 1e-12), None)
    if first is None:
        raise ConfigError(
            f"no stage level exceeds the curve start moduli (max {max(starts):.6f}); "
            "the radii schedule sits below the witness range")

    R, s, fb = [], [], []
    for i, (zeta, start) in enumerate(zip(zetas, starts), 1):
        R.append([solve_level_radius(phi, zeta, r[n], r_minus1) for n in range(first, N + 1)])
        halves, fallback = [], False
        for n in range(first - 1, N + 1):
            half = 0.5 * (r[n] + r[n + 1])
            if half > start + 1e-15:
                halves.append(solve_level_radius(phi, zeta, half, r_minus1))
            elif n == first - 1:
                halves.append(r_minus1)
                fallback = True
            else:
                raise InterleavingViolated(f"half level at stage {n} below curve {i} start")
        s.append(halves)
        fb.append(fallback)

    w = CounterexampleWitness(zeta1, zeta2, r_minus1, first, N, *R, *s, *fb)
    _check_interleaving(w)
    return w


def _check_interleaving(w: CounterexampleWitness) -> None:
    for i, R, s, fb in ((1, w.R1, w.s1, w.s1_fallback), (2, w.R2, w.s2, w.s2_fallback)):
        seq = [s[0]]
        for k in range(len(R)):
            seq.extend([R[k], s[k + 1]])
        if any(b <= a + 1e-12 for a, b in zip(seq, seq[1:])):
            # the fallback clamp may tie with nothing below it, everything
            # else must interleave strictly
            if not (fb and seq[0] == w.r_minus1 and
                    all(b > a + 1e-12 for a, b in zip(seq[1:], seq[2:]))):
                raise InterleavingViolated(f"curve {i} radii out of order: {seq}")
    pools = {"R1": w.R1, "R2": w.R2,
             "s1": [x for x in w.s1 if not (w.s1_fallback and x == w.r_minus1)],
             "s2": [x for x in w.s2 if not (w.s2_fallback and x == w.r_minus1)]}
    names = list(pools)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            for x in pools[names[i]]:
                for y in pools[names[j]]:
                    if abs(x - y) < 1e-9:
                        raise InterleavingViolated(
                            f"{names[i]} and {names[j]} collide at {x} vs {y}")


@dataclass(frozen=True)
class StageCase:
    kind: str              # "I" | "II" | "III"
    crossing: tuple        # bools (curve 1, curve 2)
    order: int = 0         # case III: sign of R_n^1 - R_n^2

    @property
    def label(self) -> str:
        if self.kind == "II":
            return "II-1" if self.crossing[0] else "II-2"
        return self.kind


def classify_stage(n: int, arc_component: SampledComponent,
                   witness: CounterexampleWitness,
                   curve_points: Tuple[np.ndarray, np.ndarray]) -> StageCase:
    """Decide the stage case by minimum grid distance (< 1e-3) between the
    dilated arc and each truncated witness curve. Empty curve samples count
    as no intersection."""
    hits = []
    for pts in curve_points:
        if len(pts) == 0:
            hits.append(False)
            continue
        d = compacta._min_distance(arc_component.points, pts)
        hits.append(bool(d < 1e-3))
    if not any(hits):
        return StageCase("I", (False, False))
    if all(hits):
        order = 0
        if witness.first_stage <= n <= witness.last_stage:
            order = 1 if witness.R(1, n) > witness.R(2, n) else -1
        return StageCase("III", (True, True), order)
    return StageCase("II", tuple(hits))


def _ramp_values(params: np.ndarray, lo: float, pin: float, hi: float,
                 value: complex) -> np.ndarray:
    re = np.interp(params, [lo, pin, hi], [0.0, value.real, 0.0], left=0.0, right=0.0)
    im = np.interp(params, [lo, pin, hi], [0.0, value.imag, 0.0], left=0.0, right=0.0)
    return re + 1j * im


def _curve_component(phi: DiscAutomorphism, zeta: complex, which: int,
                     p_from: float, p_to: float, density: int, trim_below: float,
                     window: Optional[tuple], pin_value: complex) -> Optional[SampledComponent]:
    """Radial witness curve sampled on [p_from, p_to] with a zero target
    except the optional (lo, pin, hi) ramp window. Samples with modulus
    below trim_below carry target 0 and are already controlled through the
    disc constraint by the maximum principle, so they are dropped."""
    params = np.linspace(p_from, p_to, density)
    if window is not None:
        knots = np.array([x for x in window if p_from <= x <= p_to])
        params = np.unique(np.concatenate([params, knots]))
    pts = compacta.sample_radial_curve(phi, zeta, params).points
    if window is None:
        tgt = np.zeros(len(params), dtype=complex)
    else:
        tgt = _ramp_values(params, *window, pin_value)
    keep = np.abs(pts) >= trim_below
    if not np.any(keep):
        return None
    return SampledComponent("RadialCurve", pts[keep], tgt[keep], which)


def _stage_arc(cfg: BuildConfig, n: int, w: complex) -> SampledComponent:
    """The stage-n dilated arc with target phi_alpha(n)(zeta), read at the
    boundary point zeta, not at the dilated point."""
    arc = cfg.enumeration.arcs[cfg.enumeration.beta[n - 1]]
    comp = compacta.sample_dilated_arc(arc, cfg.rho.r[n], cfg.density, center=w)
    phi_t = cfg.enumeration.targets[cfg.enumeration.alpha[n - 1]]
    return comp.with_target(evaluate(phi_t, arc.sample(cfg.density)))


def _membership_stage_compactum(cfg: BuildConfig, n: int, f_prev: ComplexPolynomial,
                                w: complex = 0j):
    disc = compacta.sample_disc_constraint(cfg.rho.r[n - 1], cfg.density, center=w)
    arc_comp = _stage_arc(cfg, n, w)
    return disc, arc_comp.with_target(arc_comp.target - evaluate(f_prev, arc_comp.points))


def _component_sups(cc, poly) -> dict:
    return {c.kind + (f"#{c.which}" if c.kind == "RadialCurve" else ""):
            sup_distance(c, lambda z: evaluate(poly, z))
            for c in cc.components}


def _run_stages(series: UniversalSeries, cfg: BuildConfig, N: int,
                tol_factor: float, make_compactum) -> None:
    eps = cfg.eps.eps
    if N < 0:
        raise ConfigError("stage count must be >= 0")
    if N > 0 and (len(cfg.rho.r) < N + 1 or len(eps) < N + 1):
        raise ConfigError(f"schedules too short for {N} stages")
    if N > 0 and len(cfg.enumeration.alpha) < N:
        raise ConfigError("enumeration shorter than the stage count")
    if not (0 < tol_factor <= 1):
        raise ConfigError("tol_factor must be in (0, 1]")
    for n in range(1, N + 1):
        f_prev = series.total()
        built = make_compactum(n, f_prev)
        if isinstance(built, StageFailure):
            series.failure = built
            return
        cc, case_label, info = built
        tol = tol_factor * eps[n]
        try:
            poly, rep = fit_until(cc, tol, cfg.max_degree)
        except ToleranceUnreachable as exc:
            series.failure = StageFailure(
                n, "tolerance-unreachable",
                {"tol": tol, "history": list(exc.history),
                 "best_sup": exc.report.sup_error if exc.report else None,
                 "lower_bound": exc.lower_bound, "bound_degree": exc.bound_degree})
            return
        sups = _component_sups(cc, poly)
        if sups.get("DiscBoundary", 0.0) > eps[n]:
            series.failure = StageFailure(
                n, "disc-constraint-violated",
                {"sup": sups["DiscBoundary"], "eps": eps[n]})
            return
        info = dict(info)
        info.update({"eps": eps[n], "tol": tol, "component_sup": sups,
                     "r_disc": cfg.rho.r[n - 1], "r_arc": cfg.rho.r[n],
                     "alpha": cfg.enumeration.alpha[n - 1],
                     "beta": cfg.enumeration.beta[n - 1]})
        series.stages.append(StageRecord(n, case_label, poly, rep, info))


def build_membership_series(cfg: BuildConfig, N: int, tol_factor: float = 0.5,
                            w: Optional[complex] = None) -> UniversalSeries:
    """Stage n: fit P_n with target 0 on C(0, r_{n-1}) and target
    phi_alpha(n)(zeta) - F_{n-1}(r_n zeta) at the points r_n zeta of the
    dilated arc r_n K_beta(n), so that F_n(r_n zeta) ~ phi_alpha(n)(zeta).

    Given a center w, the dilation is centered at w instead and the series
    is of kind "shifted": approximation on {w + r_n(zeta - w)} with target
    phi(zeta), smallness on the shifted circle {w + r_{n-1}(zeta - w)}."""
    if w is None:
        series, center = UniversalSeries("membership", cfg, N), 0j
    elif abs(w) >= 1:
        raise ConfigError("need |w| < 1")
    else:
        center = complex(w)
        series = UniversalSeries("shifted", cfg, N, extras={"w": center})

    def make(n, f_prev):
        return compacta.union(*_membership_stage_compactum(cfg, n, f_prev, center)), "I", {}
    _run_stages(series, cfg, N, tol_factor, make)
    return series


_ETA_MARGIN = 1e-4     # slack each link of the case-III inequality chain must keep
_ETA_HALVINGS = 60


def _case3_eta(phi, witness, n, r_n) -> Optional[float]:
    """Largest halving-ladder eta for which the stage-n double-window
    inequality chain holds; None when _ETA_HALVINGS halvings do not reach one."""
    lo_i, hi_i = (1, 2) if witness.R(1, n) < witness.R(2, n) else (2, 1)
    R_lo, R_hi = witness.R(lo_i, n), witness.R(hi_i, n)
    z_lo = witness.zeta1 if lo_i == 1 else witness.zeta2
    z_hi = witness.zeta2 if lo_i == 1 else witness.zeta1

    def lev(zeta, p):
        return abs(apply_automorphism(phi, p * zeta))

    s_lo_prev, s_lo_next = witness.s(lo_i, n - 1), witness.s(lo_i, n)
    s_hi_prev, s_hi_next = witness.s(hi_i, n - 1), witness.s(hi_i, n)
    cap = min(witness.opposite_pin_gap(1, n), witness.opposite_pin_gap(2, n)) / 3.0
    eta = min((R_hi - R_lo) / 4.0, cap)
    for _ in range(_ETA_HALVINGS):
        ok = (max(lev(z_hi, s_hi_prev), lev(z_hi, R_lo + eta)) + _ETA_MARGIN
              <= lev(z_hi, R_hi - eta)
              and lev(z_hi, R_hi - eta) + _ETA_MARGIN <= r_n
              and r_n + _ETA_MARGIN <= lev(z_lo, R_lo + eta)
              and lev(z_lo, R_lo + eta) + _ETA_MARGIN
              <= min(lev(z_lo, s_lo_next), lev(z_lo, R_hi - eta))
              and lev(z_lo, R_lo - eta) >= lev(z_lo, s_lo_prev)
              and lev(z_hi, R_hi + eta) <= lev(z_hi, s_hi_next))
        if ok:
            return eta
        eta *= 0.5
    return None


def _pin_value(phi_t, f_prev, z_pin: complex) -> complex:
    """Curve target at a pin, where the curve meets the stage arc: the arc's
    own target, phi read at the boundary point z_pin/|z_pin|, less F_{n-1}."""
    return evaluate(phi_t, z_pin / abs(z_pin)) - evaluate(f_prev, z_pin)


def build_counterexample_series(cfg: BuildConfig, phi: DiscAutomorphism,
                                witness: CounterexampleWitness, N: int,
                                tol_factor: float = 0.5
                                ) -> Tuple[UniversalSeries, float]:
    """Membership staging plus the two witness curves, with bridging windows
    where the stage arc meets a curve. Returns (series, budget): budget is
    the tolerance sum plus the measured per-stage fit residuals, the bound
    the final min-modulus sweep is checked against."""
    if N > witness.last_stage:
        raise ConfigError(f"witness only covers stages up to {witness.last_stage}")
    series = UniversalSeries("counterexample", cfg, N, extras={
        "a": phi.a, "theta": phi.theta, "witness": witness})
    r = cfg.rho.r
    kappa_edge = 1.0 - 1e-3
    p_end = min(max(r[N], kappa_edge, witness.s(1, N), witness.s(2, N)), 1.0 - 1e-6) \
        if N >= witness.first_stage else min(max(r[N], kappa_edge), 1.0 - 1e-6)
    dense = np.linspace(witness.r_minus1, p_end, 4096)
    curve_dense = (apply_automorphism(phi, dense * witness.zeta1),
                   apply_automorphism(phi, dense * witness.zeta2))
    zetas = (witness.zeta1, witness.zeta2)

    def make(n, f_prev):
        phi_t = cfg.enumeration.targets[cfg.enumeration.alpha[n - 1]]
        disc, arc_comp = _membership_stage_compactum(cfg, n, f_prev)
        case = classify_stage(n, arc_comp, witness, curve_dense)
        if case.kind != "I" and n < witness.first_stage:
            # the arc level sits below the witness range, so no crossing
            # radii are tabulated for this stage
            return StageFailure(n, "arc-meets-curve-below-witness-range",
                                {"case": case.label, "first_stage": witness.first_stage})
        info = {"case_order": case.order}
        windows = [None, None]
        starts = [witness.r_minus1, witness.r_minus1]
        if case.kind == "II":
            # the half-level band, clipped to a third of the gap to the
            # nearest opposite-curve pin
            i = 1 if case.crossing[0] else 2
            pin = witness.R(i, n)
            gap3 = witness.opposite_pin_gap(i, n) / 3.0
            windows[i - 1] = (max(witness.s(i, n - 1), pin - gap3), pin,
                              min(witness.s(i, n), pin + gap3))
        elif case.kind == "III":
            eta = _case3_eta(phi, witness, n, r[n])
            if eta is None:
                return StageFailure(n, "eta-not-found",
                                    {"R1": witness.R(1, n), "R2": witness.R(2, n)})
            witness.eta[n] = info["eta"] = eta
            windows = [(pin - eta, pin, pin + eta) for pin in (witness.R(1, n), witness.R(2, n))]
            # the first-crossing curve is restricted to start at its
            # previous half level, which keeps the complement connected
            lo_i = 1 if case.order < 0 else 2
            starts[lo_i - 1] = witness.s(lo_i, n - 1)
        comps = [disc, arc_comp]
        for i, (zeta, start, window) in enumerate(zip(zetas, starts, windows), 1):
            pin_value = 0j
            if window is not None:
                # the window ramps up to the arc's own target at the pin
                z_pin = apply_automorphism(phi, window[1] * zeta)
                pin_value = _pin_value(phi_t, f_prev, z_pin)
                info.setdefault("pins", []).append([z_pin.real, z_pin.imag])
            c = _curve_component(phi, zeta, i, start, p_end, cfg.density, r[n - 1],
                                 window, pin_value)
            if c is not None:
                comps.append(c)
        info["windows"] = [list(w) if w else None for w in windows]
        with warnings.catch_warnings():
            # arc/curve and disc/curve contact is part of the construction;
            # the assembled targets agree at every contact point
            warnings.simplefilter("ignore", OverlapWarning)
            cc = compacta.union(*comps)
        return cc, case.label, info

    _run_stages(series, cfg, N, tol_factor, make)
    budget = sum(cfg.eps.eps[1:N + 1]) + sum(s.fit.sup_error for s in series.stages)
    series.extras["budget"] = budget
    return series, budget


def min_modulus_sweep(series: UniversalSeries, phi: DiscAutomorphism,
                      witness: CounterexampleWitness, num: int = 200
                      ) -> Tuple[float, float]:
    """max over sampled r in [r_minus1, r_N] of
    min(|F(phi(r zeta1))|, |F(phi(r zeta2))|); returns (value, argmax r)."""
    F = series.total()
    r_top = series.config.rho.r[series.n_stages] if series.n_stages >= 1 \
        else witness.r_minus1
    grid = np.linspace(witness.r_minus1, max(r_top, witness.r_minus1), num)
    v1 = np.abs(evaluate(F, apply_automorphism(phi, grid * witness.zeta1)))
    v2 = np.abs(evaluate(F, apply_automorphism(phi, grid * witness.zeta2)))
    both = np.minimum(v1, v2)
    k = int(np.argmax(both))
    return float(both[k]), float(grid[k])


def telescoping_errors(series: UniversalSeries) -> List[dict]:
    """For each built stage n: the grid sup over the stage arc's fit points
    of |F_N(r_n zeta) - phi_alpha(n)(zeta)| against the bound eps_n + sum of
    later tolerances."""
    cfg = series.config
    F = series.total()
    eps = cfg.eps.eps
    built = len(series.stages)
    w = series.extras.get("w", 0j)
    rows = []
    for rec in series.stages:
        n = rec.n
        sup = sup_distance(_stage_arc(cfg, n, w), lambda z: evaluate(F, z))
        bound = eps[n] + sum(eps[n + 1:built + 1])
        rows.append({"n": n, "sup": sup, "bound": bound,
                     "alpha": rec.info["alpha"], "beta": rec.info["beta"]})
    return rows


_INVARIANT_DISC_DENSITY = 512
_INVARIANT_MAX_DEGREE = 512
_SHIFT_CHECKS = 50              # parameters tau sampled by shift_deviation
_SHIFT_CIRCLE_DENSITY = 256


def build_invariant_stage(w_center: complex, delta: float, r_k: float,
                          arc: UnitCircleArc, target_index: int, targets
                          ) -> Tuple[ComplexPolynomial, FitReport]:
    """One shifted-family stage: fit P to tolerance 1/m, small on an inner
    circle and close to phi_m composed with the inverse shift on the
    parameter-union compactum.

    Before fitting, verifies on _SHIFT_CHECKS sampled parameters tau that
    replacing the plain dilation by the tau-shifted automorphism moves
    phi_m by less than 1/m on the whole closed disc (checked on the unit
    circle, where the holomorphic difference attains its maximum).
    """
    from .geometry import build_F_compactum

    m = target_index
    if not (0 <= m < len(targets)):
        raise ConfigError("target_index out of range")
    if m < 1:
        raise ConfigError("target_index must be >= 1 (it sets the 1/m bound)")
    phi_m = targets[m]
    bound = 1.0 / m
    dev = shift_deviation(w_center, delta, r_k, phi_m)
    if dev >= bound:
        raise ParameterDiscTooLarge(
            f"shift family moves the target by {dev:.3e} >= 1/m = {bound:.3e}; "
            "shrink delta")

    cc = build_F_compactum(w_center, delta, r_k, arc)
    fpts = cc.components[0].points
    want = evaluate(phi_m, mobius_shift(-w_center, fpts))
    fcomp = cc.components[0].with_target(want)
    inner = 0.9 * float(np.min(np.abs(fpts)))
    disc = compacta.sample_disc_constraint(inner, _INVARIANT_DISC_DENSITY)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OverlapWarning)
        stage = compacta.union(disc, fcomp)
    return fit_until(stage, bound, _INVARIANT_MAX_DEGREE)


def _tau_samples(w_center: complex, delta: float, n: int) -> np.ndarray:
    """Deterministic golden-angle spiral over the closed parameter disc,
    center first, boundary included."""
    if n < 1:
        raise ConfigError("need at least one parameter sample")
    j = np.arange(n)
    rad = delta * np.sqrt(j / max(n - 1, 1))
    ang = j * (math.pi * (3.0 - math.sqrt(5.0)))
    return w_center + rad * np.exp(1j * ang)


def _unit_circle() -> np.ndarray:
    return np.exp(2j * math.pi * np.arange(_SHIFT_CIRCLE_DENSITY) / _SHIFT_CIRCLE_DENSITY)


def shift_deviation(w_center: complex, delta: float, r_k: float,
                    phi_m: ComplexPolynomial) -> float:
    """max over sampled tau and over the unit circle of
    |phi_m(shift_inv(shift_tau(r_k z))) - phi_m(r_k z)|."""
    z = _unit_circle()
    base = evaluate(phi_m, r_k * z)
    worst = 0.0
    for tau in _tau_samples(w_center, delta, _SHIFT_CHECKS):
        moved = evaluate(phi_m, mobius_shift(-w_center, mobius_shift(tau, r_k * z)))
        worst = max(worst, float(np.max(np.abs(moved - base))))
    return worst


def find_invariant_delta(w_center: complex, delta0: float, r_k: float,
                         arc: UnitCircleArc, target_index: int, targets,
                         max_halvings: int = 40):
    """Halve delta from delta0 until the shift-deviation bound 1/m holds,
    then build the stage; returns (delta, polynomial, report)."""
    delta = delta0
    for _ in range(max_halvings):
        if abs(w_center) + delta < 1:
            try:
                poly, rep = build_invariant_stage(w_center, delta, r_k, arc,
                                                  target_index, targets)
                return delta, poly, rep
            except ParameterDiscTooLarge:
                pass
        delta /= 2
    raise ConfigError(f"no workable delta found below {delta0}")


def shifted_stage_chain(poly: ComplexPolynomial, w_center: complex, tau: complex,
                        r_k: float, phi_m: ComplexPolynomial,
                        arc: Optional[UnitCircleArc] = None) -> Tuple[float, float, float]:
    """The three measured legs of |P(shift_tau(r_k z)) - phi_m(r_k z)|:
    (fit leg, shift-deviation leg, their sum).

    Probed on the dilated arc when one is given (the set the stage fit
    actually constrains); the full circle otherwise."""
    z = _unit_circle() if arc is None else arc.sample(_SHIFT_CIRCLE_DENSITY)
    moved = mobius_shift(tau, r_k * z)
    pulled = evaluate(phi_m, mobius_shift(-w_center, moved))
    fit_leg = float(np.max(np.abs(evaluate(poly, moved) - pulled)))
    dev_leg = float(np.max(np.abs(pulled - evaluate(phi_m, r_k * z))))
    total = float(np.max(np.abs(evaluate(poly, moved) - evaluate(phi_m, r_k * z))))
    return fit_leg, dev_leg, total


# serialization

def witness_to_dict(w: CounterexampleWitness) -> dict:
    return _json_safe(asdict(w))


def witness_from_dict(d: dict) -> CounterexampleWitness:
    return CounterexampleWitness(
        complex(*d["zeta1"]), complex(*d["zeta2"]), d["r_minus1"],
        d["first_stage"], d["last_stage"], list(d["R1"]), list(d["R2"]),
        list(d["s1"]), list(d["s2"]), d.get("s1_fallback", False),
        d.get("s2_fallback", False), {int(k): v for k, v in d.get("eta", {}).items()})


def series_to_dict(series: UniversalSeries) -> dict:
    cfg = series.config
    d = {
        "kind": series.kind,
        "n_stages": series.n_stages,
        "rho": list(cfg.rho.r),
        "eps": list(cfg.eps.eps),
        "targets": [poly_to_pairs(p) for p in cfg.enumeration.targets],
        "arcs": [[a.alpha, a.beta] for a in cfg.enumeration.arcs],
        "alpha": list(cfg.enumeration.alpha),
        "beta": list(cfg.enumeration.beta),
        "density": cfg.density,
        "max_degree": cfg.max_degree,
        "stages": [{
            "n": s.n, "case": s.case, "coeffs": poly_to_pairs(s.poly),
            "fit": {"degree": s.fit.degree, "sup_error": s.fit.sup_error,
                    "rms_error": s.fit.rms_error,
                    "basis_condition": s.fit.basis_condition,
                    "escalations": s.fit.escalations},
            "info": _json_safe(s.info)} for s in series.stages],
    }
    if series.failure is not None:
        d["failure"] = {"n": series.failure.n, "reason": series.failure.reason,
                        "detail": _json_safe(series.failure.detail)}
    ex = series.extras
    if "w" in ex:
        d["w"] = [ex["w"].real, ex["w"].imag]
    if "a" in ex:
        d["a"] = [ex["a"].real, ex["a"].imag]
        d["theta"] = ex["theta"]
    if "witness" in ex:
        d["witness"] = witness_to_dict(ex["witness"])
    if "budget" in ex:
        d["budget"] = ex["budget"]
    return d


def series_from_dict(d: dict) -> UniversalSeries:
    cfg = BuildConfig(
        rho=RadiiSchedule(d["rho"]), eps=EpsilonSchedule(d["eps"]),
        enumeration=TargetEnumeration(
            [poly_from_pairs(p) for p in d["targets"]],
            [UnitCircleArc(a, b) for a, b in d["arcs"]],
            d["alpha"], d["beta"]),
        density=d["density"], max_degree=d["max_degree"])
    series = UniversalSeries(d["kind"], cfg, d["n_stages"])
    for s in d["stages"]:
        rep = FitReport(s["fit"]["degree"], s["fit"]["sup_error"],
                        s["fit"]["rms_error"], s["fit"]["basis_condition"],
                        s["fit"]["escalations"])
        series.stages.append(StageRecord(s["n"], s["case"],
                                         poly_from_pairs(s["coeffs"]), rep,
                                         dict(s["info"])))
    if "failure" in d:
        f = d["failure"]
        series.failure = StageFailure(f["n"], f["reason"], dict(f.get("detail", {})))
    if "w" in d:
        series.extras["w"] = complex(*d["w"])
    if "a" in d:
        series.extras["a"] = complex(*d["a"])
        series.extras["theta"] = d["theta"]
    if "witness" in d:
        series.extras["witness"] = witness_from_dict(d["witness"])
    if "budget" in d:
        series.extras["budget"] = d["budget"]
    return series


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj
