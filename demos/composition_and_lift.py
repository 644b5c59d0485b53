"""Left composition survives; the tool for proving it is branch lifting.

Post-composing a universal series with an entire function (or 1/z away
from zeros) preserves the approximation property: if F is close to log 2
on a dilated arc then exp(F) is close to 2, up to a measured e^B factor.
The converse direction needs local inverses of the outer map continued
along paths, which `lift_path` and `liftable_target` provide.
"""

import math

import numpy as np

from abeluniv import (BuildConfig, EpsilonSchedule, RadiiSchedule,
                      TargetEnumeration, UnitCircleArc,
                      build_membership_series, dilate_distance, lift_path,
                      liftable_target)
from abeluniv.polyfit import ComplexPolynomial
from abeluniv.probe import as_expr, compose_left

L = math.log(2)
arcs = [UnitCircleArc(0.30, 0.32), UnitCircleArc(3.60, 3.62)]
enum = TargetEnumeration([ComplexPolynomial([L + 0j]), ComplexPolynomial([-L + 0j])],
                         arcs, [0, 1], [0, 1])
cfg = BuildConfig(RadiiSchedule.default(4), EpsilonSchedule.default(3), enum)
series = build_membership_series(cfg, 2)
F = series.total()
E = compose_left("exp", F)

for n, h0, target, arc in ((1, L, 2.0, arcs[0]), (2, -L, 0.5, arcs[1])):
    r = cfg.rho.r[n]
    zeta = np.exp(1j * np.linspace(arc.alpha, arc.beta, 256))
    delta = dilate_distance(F, arc, h0, r)
    B = max(float(np.max(np.abs(as_expr(F)(r * zeta)))), abs(h0))
    err = dilate_distance(E, arc, target, r)
    print(f"stage {n}: |F - {h0:+.3f}| = {delta:.3e}  ->  "
          f"|exp(F) - {target}| = {err:.3e} (bound e^B*delta = {math.exp(B) * delta:.3e})")

# reciprocals need a certificate that the series stays away from 0
grid = np.concatenate([cfg.rho.r[n] * np.exp(1j * np.linspace(a.alpha, a.beta, 128))
                       for n, a in ((1, arcs[0]), (2, arcs[1]))])
R = compose_left("reciprocal", E, probe_grid=grid)
print("reciprocal granted; 1/exp(F) near 1/2 at stage 1:",
      f"{dilate_distance(R, arcs[0], 0.5, cfg.rho.r[1]):.3e}")

# lifting: continue the sqrt branch from 1 along the segment [1, 4]
res = lift_path(ComplexPolynomial([0, 0, 1]), [1, 4], 1, 1e-10)
print(f"\nsqrt lift: endpoint {res.values[-1]:.10f}, defect {res.max_defect:.1e}")

# the log branch through 0 follows exp backwards
res = lift_path("exp", [1, math.e], 0, 1e-10)
print(f"log lift: endpoint {res.values[-1]:.10f}")

# a path into the critical value stalls at the step floor and says so
res = lift_path(ComplexPolynomial([0, 0, 1]), [1, -1], 1, 1e-8)
print(f"path into the branch point: status {res.status.kind} "
      f"at |h| = {abs(res.values[-1]):.3f}")

# lifted targets on arcs: a continuous h with g(h0) = h
lifted, defect = liftable_target(ComplexPolynomial([0, 0, 1]),
                                 UnitCircleArc(0.1, math.pi / 2),
                                 ComplexPolynomial([0, 1]), 0.01, 8)
z = np.exp(0.7j)
print(f"\nhalf-angle branch through the square: h0({z:.3f}) = {lifted(z):.4f}, "
      f"defect {defect:.2e}")
