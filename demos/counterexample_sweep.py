"""Why pre-composing with a non-rotation automorphism breaks universality.

Fix phi with phi(0) = 0.5.  Along the two boundary directions 1 and i
there are interleaved witness radii where the pulled-back circles cross
each dilation level.  Scheduling the builder on compacta that include
those crossing curves pins the series to stay small along one of the two
directions at every radius, so min(|F(phi(r))|, |F(phi(ri))|) can never
exceed the telescoped budget: constants above it are unreachable by any
dilate of F∘phi.
"""

import math

import numpy as np

from abeluniv import (BuildConfig, DiscAutomorphism, EpsilonSchedule,
                      RadiiSchedule, TargetEnumeration, UnitCircleArc,
                      build_counterexample_series, compute_witness,
                      min_modulus_sweep, universality_scan)
from abeluniv.probe import compose_right
from abeluniv.polyfit import ComplexPolynomial

phi = DiscAutomorphism(0.5, 0.0)
rho = RadiiSchedule.default(3)
witness = compute_witness(phi, 1 + 0j, 1j, rho, 1)

print("witness radii (direction 1):", [f"{x:.4f}" for x in witness.R1])
print("witness radii (direction i):", [f"{x:.4f}" for x in witness.R2])
print("interleaving half-levels s1:", [f"{x:.4f}" for x in witness.s1[:2]])
print("first usable stage:", witness.first_stage)

# one stage on an arc straddling angle pi, where the pulled-back circle of
# direction 1 crosses the dilation level: a Case II stage.  A build has one
# grid density: the arc, the disc circle and both witness curves are each
# sampled at 256 points here (512 by default)
cfg = BuildConfig(rho, EpsilonSchedule.default(3),
                  TargetEnumeration.cyclic([ComplexPolynomial([0.3 + 0j])],
                                           [UnitCircleArc(3.1316, 3.1516)], 1),
                  density=256)
series, budget = build_counterexample_series(cfg, phi, witness, 1)
print("\nbuild succeeded:", series.succeeded)
for rec in series.stages:
    print(f"  stage {rec.n}: case {rec.case}, degree {rec.fit.degree}")

value, argmax_r = min_modulus_sweep(series, phi, witness)
print(f"\nsweep of min(|F(phi(r))|, |F(phi(ri))|) over 200 radii:")
print(f"  max {value:.4e} at r = {argmax_r:.4f}, budget {budget:.4f}")

# the flip side: a constant sitting above the budget is unreachable along
# hairline arcs at the two witness directions, by at least ~1
comp = compose_right(series.total(), phi)
arcs = [UnitCircleArc(0.0, 1e-4), UnitCircleArc(math.pi / 2 - 1e-4, math.pi / 2)]
rep = universality_scan(comp, [budget + 1.0], arcs, cfg.rho, 1)
for ai in range(2):
    best = rep.best_for(0, ai)
    print(f"target budget+1 on direction-{ai} arc: best error {best['best_error']:.3f}")
