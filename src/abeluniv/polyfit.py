"""Constructive polynomial approximation on compound compacta.

Weighted least squares in a grid-orthogonalized basis, with iterative
component reweighting to push the l2 solution toward the sup-norm target,
and degree escalation with measured (never assumed) grid residuals.

The returned object is always a plain coefficient vector evaluated by
nested multiplication, and FitReport.sup_error is the exact grid residual
of that vector. At high degree on near-boundary grids the synthesized
coefficients can grow until double-precision evaluation noise dominates;
because the residual is measured on the returned representation, that
failure mode shows up honestly as a plateau instead of a fake success.

Synthesis noise must not hide a degree that works, though, so each fit
also measures the grid residual of the orthogonal-basis fit before
synthesis (FitReport.basis_sup). The degree ladder of fit_until treats a
rung as a bracket when either residual meets the tolerance, and then
bisects below it; only a returned polynomial whose own measured residual
meets the tolerance is ever accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

from .compacta import CompoundCompactum
from .errors import BasisBreakdown, ConfigError, ToleranceUnreachable, UnderdeterminedFit


@dataclass(frozen=True)
class ComplexPolynomial:
    """Coefficients c0..cd, degree an upper bound (trailing zeros allowed)."""

    coeffs: tuple

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if arr.ndim != 1 or arr.size == 0:
            raise ConfigError("coeffs must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr.view(float))):
            raise ConfigError("coefficients must be finite")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in arr))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        return evaluate(self, z)


@dataclass(frozen=True)
class FitReport:
    """Measured outcome of one fit.

    sup_error and rms_error are grid residuals of the returned coefficient
    vector; basis_condition is the largest synthesis column growth and
    escalations the index of the ladder rung that produced the fit.
    basis_sup is the lowest grid sup residual of the orthogonal-basis fit
    Q.d, before monomial synthesis, over the reweighting rounds run: where
    it sits far below sup_error, synthesis noise dominates the returned
    vector. It is nan when not measured (a report read back from a series
    payload, which does not store it).
    """

    degree: int
    sup_error: float
    rms_error: float
    basis_condition: float
    escalations: int
    basis_sup: float = math.nan


def evaluate(p: ComplexPolynomial, z):
    """Nested multiplication; scalar and batch go through the same ops so
    they agree bit for bit."""
    zz = np.asarray(z, dtype=complex)
    out = np.full(zz.shape, p.coeffs[-1], dtype=complex)
    for c in p.coeffs[-2::-1]:
        out = out * zz + c
    if np.isscalar(z) or zz.shape == ():
        return out.item()
    return out


def accumulate(series: List[ComplexPolynomial]) -> ComplexPolynomial:
    """Coefficientwise sum; empty input gives the zero polynomial."""
    if not series:
        return ComplexPolynomial([0j])
    n = max(len(p.coeffs) for p in series)
    total = np.zeros(n, dtype=complex)
    for p in series:
        total[:len(p.coeffs)] += p.coeffs
    return ComplexPolynomial(total)


def derivative(p: ComplexPolynomial) -> ComplexPolynomial:
    if p.degree == 0:
        return ComplexPolynomial([0j])
    return ComplexPolynomial([k * c for k, c in enumerate(p.coeffs)][1:])


def poly_to_pairs(p: ComplexPolynomial):
    return [[c.real, c.imag] for c in p.coeffs]


def poly_from_pairs(pairs) -> ComplexPolynomial:
    return ComplexPolynomial([complex(a, b) for a, b in pairs])


def grid_weights(cc: CompoundCompactum) -> np.ndarray:
    """Per-point weights: component.weight split evenly over the component's
    samples, normalized to sum 1, so a short arc and a dense circle have
    equal voice by default."""
    parts = [np.full(len(c.points), c.weight / len(c.points)) for c in cc.components]
    w = np.concatenate(parts)
    return w / w.sum()


def _arnoldi_lsq(z: np.ndarray, y: np.ndarray, w: np.ndarray, degree: int
                 ) -> Tuple[np.ndarray, float, float]:
    """Least squares min sum w |p(z) - y|^2 over polynomials of degree <= degree.

    Basis columns are built by the shift recurrence v = z * q_{k-1} and
    modified Gram-Schmidt with one reorthogonalization pass against the
    weighted inner product; monomial coefficients of each basis vector are
    synthesized alongside. Raw monomial normal equations are never formed.
    Returns (monomial coefficients, max synthesis column growth, grid sup
    residual of the orthogonal-basis fit Q.d before synthesis).
    """
    n = len(z)
    sw = np.sqrt(w)
    Q = np.zeros((n, degree + 1), dtype=complex)
    C = np.zeros((degree + 1, degree + 1), dtype=complex)
    q = np.ones(n, dtype=complex)
    nrm = float(np.linalg.norm(sw * q))
    if nrm < 1e-150:
        raise BasisBreakdown("empty weighted grid")
    Q[:, 0] = q / nrm
    C[0, 0] = 1.0 / nrm
    for k in range(degree):
        v = z * Q[:, k]
        c = np.roll(C[:, k], 1)
        c[0] = 0.0
        before = float(np.linalg.norm(sw * v))
        for _ in range(2):
            h = Q[:, :k + 1].conj().T @ (w * v)
            v = v - Q[:, :k + 1] @ h
            c = c - C[:, :k + 1] @ h
        nv = float(np.linalg.norm(sw * v))
        if nv < 1e-14 * max(before, 1e-300):
            raise BasisBreakdown(
                f"orthogonalization norm underflow at column {k + 1}; degenerate grid")
        Q[:, k + 1] = v / nv
        C[:, k + 1] = c / nv
    d = Q.conj().T @ (w * y)
    growth = float(np.max(np.sum(np.abs(C), axis=0)))
    return C @ d, growth, float(np.max(np.abs(Q @ d - y)))


def fit_polynomial(cc: CompoundCompactum, degree: int, reweight_rounds: int = 8
                   ) -> Tuple[ComplexPolynomial, FitReport]:
    """Weighted least-squares fit of all component targets at the given degree.

    Up to reweight_rounds passes multiply each component's weight by its
    share of the sup residual (floored at 1e-4) to push the l2 fit toward
    the sup-norm target; the round with the smallest measured sup residual
    wins, and the loop stops as soon as a round fails to improve. The
    report's basis_sup is the lowest synthesis-free residual over the rounds
    run; it does not steer the reweighting.
    """
    if degree < 0:
        raise ConfigError("degree must be >= 0")
    if reweight_rounds < 1:
        raise ConfigError("reweight_rounds must be >= 1")
    for c in cc.components:
        if c.target is None:
            raise ConfigError(f"component {c.kind} has no target")
    pts = np.concatenate([c.points for c in cc.components])
    tgt = np.concatenate([c.target for c in cc.components])
    if len(pts) < degree + 1:
        raise UnderdeterminedFit(f"{len(pts)} samples cannot determine degree {degree}")

    slices = []
    start = 0
    for c in cc.components:
        slices.append(slice(start, start + len(c.points)))
        start += len(c.points)
    base = grid_weights(cc)

    best = None
    basis_sup = math.inf
    scale = np.ones(len(cc.components))
    for _ in range(reweight_rounds):
        w = base.copy()
        for i, sl in enumerate(slices):
            w[sl] *= scale[i]
        w = w / w.sum()
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            coeffs, growth, round_basis_sup = _arnoldi_lsq(pts, tgt, w, degree)
        basis_sup = min(basis_sup, round_basis_sup)
        if not (np.all(np.isfinite(coeffs.view(float))) and math.isfinite(growth)):
            # monomial synthesis overflowed: the orthogonal fit exists but
            # cannot be carried back to coefficient form at this degree
            if best is None:
                raise BasisBreakdown(
                    f"monomial synthesis overflow at degree {degree}")
            break
        poly = ComplexPolynomial(coeffs)
        res = np.abs(evaluate(poly, pts) - tgt)
        comp_sup = np.array([float(res[sl].max()) for sl in slices])
        sup = float(comp_sup.max())
        if best is None or sup < best[0]:
            rms = float(np.sqrt(np.mean(res ** 2)))
            best = (sup, rms, growth, poly)
        else:
            break
        if sup == 0.0:
            break
        scale = scale * np.maximum(comp_sup / sup, 1e-4)

    sup, rms, growth, poly = best
    return poly, FitReport(degree, sup, rms, growth, 0, basis_sup)


def fit_until(cc: CompoundCompactum, tol: float, max_degree: int = 512
              ) -> Tuple[ComplexPolynomial, FitReport]:
    """Escalate degree (doubling from 8) until a fit meets tol or the budget
    runs out; the budget case raises with the best attempt and the full
    (degree, sup) plateau history of the rungs attached.

    A rung is a bracket when either its returned polynomial's sup residual
    or its synthesis-free residual (FitReport.basis_sup) is <= tol. The
    ladder then bisects down to the previous rung, accepting only a degree
    whose returned polynomial's own measured residual is <= tol, so
    sup_error is always true; if no degree in the bracket passes, the
    ladder moves on to the next rung."""
    if tol <= 0:
        raise ConfigError("tol must be positive")
    if max_degree < 0:
        raise ConfigError("max_degree must be >= 0")
    cap = sum(len(c.points) for c in cc.components) - 1
    raw = []
    d = 8
    while d < max_degree:
        raw.append(d)
        d *= 2
    raw.append(max_degree)
    ladder = []
    for deg in raw:
        e = min(deg, cap)
        if not ladder or e > ladder[-1]:
            ladder.append(e)

    history = []
    best = None
    # (degree, basis_sup) of the best rung whose orthogonal-basis fit met
    # tol while its returned polynomial did not
    noisy = None
    for i, deg in enumerate(ladder):
        try:
            poly, rep = fit_polynomial(cc, deg)
        except BasisBreakdown:
            history.append((deg, math.inf))
            continue
        history.append((rep.degree, rep.sup_error))
        if best is None or rep.sup_error < best[1].sup_error:
            best = (poly, replace(rep, escalations=i))
        passed = rep.sup_error <= tol
        if not passed and rep.basis_sup > tol:
            continue
        if not passed and (noisy is None or rep.basis_sup < noisy[1]):
            noisy = (rep.degree, rep.basis_sup)
        # refine downward to the smallest passing degree: every extra
        # coefficient inflates later evaluations of the running sum
        found = (poly, rep) if passed else None
        lo = (ladder[i - 1] + 1) if i > 0 else 0
        hi = deg
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                p_mid, r_mid = fit_polynomial(cc, mid)
            except BasisBreakdown:
                r_mid = None
            if r_mid is not None and r_mid.sup_error <= tol:
                found = (p_mid, r_mid)
                hi = mid
            else:
                lo = mid + 1
        if found is not None:
            return found[0], replace(found[1], escalations=i)
    plateau = ", ".join(f"{d}:{s:.3e}" for d, s in history)
    if noisy is None:
        why = f"tolerance {tol:.3e} unreachable within degree {max_degree}"
    else:
        why = (f"tolerance {tol:.3e} met only before monomial synthesis: the "
               f"orthogonal-basis fit reached {noisy[1]:.3e} at degree "
               f"{noisy[0]}, but no returned polynomial up to degree "
               f"{max_degree} did")
    raise ToleranceUnreachable(
        f"{why}; residual plateau [{plateau}]",
        polynomial=best[0] if best else None,
        report=best[1] if best else None, history=history)
