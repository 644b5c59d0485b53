"""Dilation-universality toolkit for holomorphic functions on the unit disc.

Staged polynomial constructions whose dilates f_r(z) = f(r z) chase
prescribed targets on circle arcs, Moebius geometry for the disc, a
least-squares surrogate for Mergelyan-style approximation on sampled
compacta, and probes that measure how universal a constructed or composed
function actually is.
"""

from .errors import (BasisBreakdown, CertificateFailure, ConfigError,
                     EscapesDisc, InterleavingViolated, InvariantViolation,
                     ParameterDiscTooLarge, ToleranceUnreachable,
                     UnderdeterminedFit, WitnessCriterionError)
from .geometry import (CollinearLine, DiscAutomorphism, EuclideanCircle,
                       UnitCircleArc, apply_automorphism, build_F_compactum,
                       circle_through_three, fixed_point_radius, image_circle,
                       is_origin_shift_circle, mobius_shift,
                       modulus_identity_residual, radial_monotone_threshold,
                       rotation, solve_level_radius)
from .compacta import (CompoundCompactum, OverlapWarning, SampledComponent,
                       sample_dilated_arc, sample_disc_constraint,
                       sample_radial_curve, sup_distance, union)
from .polyfit import (ComplexPolynomial, FitReport, accumulate, derivative,
                      evaluate, fit_polynomial, fit_until, poly_from_pairs,
                      poly_to_pairs)
from .builder import (BuildConfig, CounterexampleWitness, EpsilonSchedule,
                      RadiiSchedule, StageFailure, StageRecord,
                      TargetEnumeration, UniversalSeries,
                      build_counterexample_series, build_invariant_stage,
                      build_membership_series, classify_stage,
                      compute_witness, find_invariant_delta,
                      min_modulus_sweep, schedule_pairs, series_from_dict,
                      series_to_dict, shift_deviation, shifted_stage_chain,
                      telescoping_errors)
from .probe import (DilateReport, FunctionExpr, LiftResult, LiftStatus,
                    LiftedTarget, as_expr, branch_obstructions, compose_left,
                    compose_right, dilate_distance, lift_path, liftable_target,
                    polynomial_roots, universality_scan)

__version__ = "0.1.0"
