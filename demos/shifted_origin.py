"""Dilations toward an interior point other than the origin.

Replacing r*z with w + r*(z - w) re-centers the whole ladder at w.  The
same staged builder works (a membership build given the center w), but
the fits get much harder: the natural basis is still powers of z, and
off-center level circles force high degrees.  The circle families for different centers are genuinely
different objects, and a halving search finds how large a parameter disc
around w keeps a single stage valid for every center inside it.
"""

import numpy as np

from abeluniv import (BuildConfig, EpsilonSchedule, EuclideanCircle,
                      RadiiSchedule, TargetEnumeration, UnitCircleArc,
                      build_membership_series, find_invariant_delta,
                      is_origin_shift_circle, shifted_stage_chain)
from abeluniv.builder import _tau_samples
from abeluniv.polyfit import ComplexPolynomial

w = 0.3
cfg = BuildConfig(RadiiSchedule.default(4), EpsilonSchedule.default(4),
                  TargetEnumeration.cyclic([ComplexPolynomial([0.2 + 0.2j])],
                                           [UnitCircleArc(0.2, 0.4)], 2))
series = build_membership_series(cfg, 2, w=w)
print(f"shifted build at w = {w}: succeeded = {series.succeeded}")
for rec in series.stages:
    print(f"  stage {rec.n}: degree {rec.fit.degree:>3} "
          f"(an origin-centered build of the same target needs degree 3)")

# each center owns its own family of level circles
r = 0.6
circle = EuclideanCircle((1 - r) * w, r)
print("\ncircle of w's family recognized:", is_origin_shift_circle(circle, w, 1e-9))
print("rejected for a different center:", is_origin_shift_circle(circle, 0.1j, 1e-9))

# one stage, a whole disc of centers: shrink delta until the stage's fit
# transfers to every center tau with |tau - w| <= delta
m = 4
targets = [ComplexPolynomial([0j, 1.0])] * 4 + [ComplexPolynomial([0j, 0.5, 1.0])]
arc = UnitCircleArc(0.3, 1.0)
delta, poly, rep = find_invariant_delta(0.2, 0.3, 0.5, arc, m, targets)
print(f"\ninvariant stage for target z^2 + z/2 (index {m}):")
print(f"  delta shrank to {delta} with fit degree {rep.degree}, "
      f"sup {rep.sup_error:.4f} <= 1/m = {1 / m}")

worst = 0.0
for tau in _tau_samples(0.2, delta, 50):
    fit_leg, dev_leg, total = shifted_stage_chain(poly, 0.2, tau, 0.5,
                                                  targets[m], arc=arc)
    worst = max(worst, total)
print(f"  worst chained error over 50 centers in that disc: {worst:.4f} "
      f"< 3/m = {3 / m}")
