"""Unit-disc Moebius geometry: automorphisms, circle images, level solvers.

Everything here is exact formulas, the witness level radii and the
radial monotone threshold included. The automorphism convention is

    phi(z) = e^{i theta} (a - z) / (1 - conj(a) z),    |a| < 1,

an involution for theta = 0. The shifted family (z + w) / (1 + conj(w) z),
which sends 0 to w, is kept as a separate helper because the two sign folds
are easy to mix up.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, EscapesDisc, InvariantViolation

_DENOM_FLOOR = 1e-14


def _require_finite(z: complex, name: str) -> None:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ConfigError(f"{name} must have finite components, got {z!r}")


@dataclass(frozen=True)
class DiscAutomorphism:
    """z -> e^{i theta} (a - z)/(1 - conj(a) z) with |a| < 1."""

    a: complex
    theta: float = 0.0

    def __post_init__(self):
        a = complex(self.a)
        _require_finite(a, "a")
        if abs(a) >= 1:
            raise ConfigError(f"automorphism parameter needs |a| < 1, got |a|={abs(a)}")
        if not math.isfinite(self.theta):
            raise ConfigError("theta must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "theta", float(self.theta) % (2 * math.pi))


def rotation(mu: float) -> DiscAutomorphism:
    """The automorphism acting as z -> e^{i mu} z.

    With a = 0 the defining formula gives -e^{i theta} z, so the rotation
    angle picks up a pi offset.
    """
    return DiscAutomorphism(0j, (mu + math.pi) % (2 * math.pi))


@dataclass(frozen=True)
class UnitCircleArc:
    """{e^{it}: t in [alpha, beta]} with 0 <= alpha < beta <= 2*pi, proper."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0 <= self.alpha < self.beta <= 2 * math.pi):
            raise ConfigError(f"arc needs 0 <= alpha < beta <= 2*pi, got [{self.alpha}, {self.beta}]")
        if self.beta - self.alpha >= 2 * math.pi:
            raise ConfigError("arc must be a proper subset of the circle")

    def sample(self, density: int) -> np.ndarray:
        """density equally spaced boundary points exp(i t), endpoints included."""
        return np.exp(1j * np.linspace(self.alpha, self.beta, density))


@dataclass(frozen=True)
class EuclideanCircle:
    center: complex
    radius: float

    def __post_init__(self):
        _require_finite(complex(self.center), "center")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ConfigError(f"radius must be positive and finite, got {self.radius}")
        object.__setattr__(self, "center", complex(self.center))


@dataclass(frozen=True)
class CollinearLine:
    """Degenerate circle-through-three-points result: a line through `point`
    with unit `direction`."""

    point: complex
    direction: complex


def apply_automorphism(phi: DiscAutomorphism, z):
    """Evaluate phi at z (scalar or array); maps the closed disc to itself."""
    zz = np.asarray(z, dtype=complex)
    den = 1.0 - np.conj(phi.a) * zz
    if np.min(np.abs(den)) < _DENOM_FLOOR:
        raise ConfigError("automorphism denominator vanished; inputs outside the closed disc?")
    out = cmath.exp(1j * phi.theta) * (phi.a - zz) / den
    return out.item() if np.isscalar(z) or zz.shape == () else out


def mobius_shift(w: complex, z):
    """The companion family (z + w)/(1 + conj(w) z): sends 0 to w, inverse is -w."""
    zz = np.asarray(z, dtype=complex)
    den = 1.0 + np.conj(w) * zz
    if np.min(np.abs(den)) < _DENOM_FLOOR:
        raise ConfigError("shift denominator vanished; inputs outside the closed disc?")
    out = (zz + w) / den
    return out.item() if np.isscalar(z) or zz.shape == () else out


def modulus_identity_residual(a: complex, z) -> float:
    """|(1 - |phi_a(z)|^2) - (1-|a|^2)(1-|z|^2)/|1-conj(a)z|^2|, the largest
    over z when z is an array.

    The left side goes through apply_automorphism so the identity check
    exercises the same code path everything else uses.
    """
    if abs(a) >= 1:
        raise ConfigError("need |a| < 1")
    left = 1.0 - np.abs(apply_automorphism(DiscAutomorphism(a), z)) ** 2
    right = (1.0 - abs(a) ** 2) * (1.0 - np.abs(z) ** 2) / np.abs(1.0 - np.conj(a) * z) ** 2
    return float(np.max(np.abs(left - right)))


def radial_monotone_threshold(phi: DiscAutomorphism, zeta: complex) -> float:
    """Smallest r0 in [0, 1) with r -> |phi(r zeta)| nondecreasing on (r0, 1).

    By the modulus identity, d/dr |phi(r zeta)| has the sign of
    -(c r^2 - (1+m) r + c), c = Re(conj(a) zeta), m = |a|^2. For c <= 0 that
    is negative on (0, 1); otherwise r0 is the smaller root, whose
    discriminant (1+m)^2 - 4c^2 factors as |zeta - a|^2 |zeta + a|^2.
    """
    if not (abs(abs(zeta) - 1.0) <= 1e-12):
        raise ConfigError(f"zeta must lie on the unit circle, |zeta|={abs(zeta)}")
    a = phi.a
    c = (a.conjugate() * zeta).real
    if c <= 0.0:
        return 0.0
    return 2.0 * c / (1.0 + abs(a) ** 2 + abs(zeta - a) * abs(zeta + a))


def solve_level_radius(phi: DiscAutomorphism, zeta: complex, t: float, r_low: float) -> float:
    """R >= r_low with |phi(R zeta)| = t, using the monotone tail.

    |phi(R zeta)| = t is (1 - t^2 m) R^2 - 2 c (1 - t^2) R + (m - t^2) = 0
    with c, m as in radial_monotone_threshold. On |zeta| = 1 its
    discriminant is p^2 - q^2 with p = t(1 - m), q = |Im(conj(a) zeta)|(1 - t^2).
    R is the larger root, in the form without cancellation, clamped to r_low.
    """
    if not (0.0 <= t < 1.0):
        raise ConfigError(f"level must be in [0, 1), got {t}")
    if not (0.0 <= r_low < 1.0):
        raise ConfigError(f"r_low must be finite and in [0, 1), got {r_low}")
    thresh = radial_monotone_threshold(phi, zeta)
    if r_low < thresh - 1e-9:
        raise ConfigError(f"r_low={r_low} is below the monotone threshold {thresh}")
    f_low = abs(apply_automorphism(phi, r_low * zeta))
    if t < f_low - 1e-12:
        raise ConfigError(f"target level {t} below attainable range (starts at {f_low})")
    a = phi.a
    w, m, tt = a.conjugate() * zeta, abs(a) ** 2, t * t
    b, p, q = w.real * (1.0 - tt), t * (1.0 - m), abs(w.imag) * (1.0 - tt)
    root = math.sqrt(max((p - q) * (p + q), 0.0))
    R = max((b + root) / (1.0 - tt * m) if b >= 0.0 else (m - tt) / (b - root), r_low)
    level = abs(apply_automorphism(phi, R * zeta))
    if abs(level - t) > 1e-12:
        raise InvariantViolation(f"level solve missed: |phi({R} zeta)| = {level} vs target {t}")
    return R


def image_circle(a: complex, R: float) -> EuclideanCircle:
    """Image of C(0, R) under any automorphism sending 0 to a.

    Pre-rotations only spin the source circle, so the image depends on a
    and R alone.
    """
    if abs(a) >= 1:
        raise ConfigError("need |a| < 1")
    if not (0 < R < 1):
        raise ConfigError(f"need 0 < R < 1, got {R}")
    m = abs(a) ** 2
    den = 1.0 - m * R * R
    return EuclideanCircle(a * (1.0 - R * R) / den, (1.0 - m) * R / den)


def circle_through_three(p1: complex, p2: complex, p3: complex
                         ) -> Union[EuclideanCircle, CollinearLine]:
    pts = [complex(p1), complex(p2), complex(p3)]
    dists = [abs(pts[i] - pts[j]) for i in range(3) for j in range(i + 1, 3)]
    if min(dists) <= 1e-12:
        raise ConfigError("points must be pairwise distinct")
    u = pts[1] - pts[0]
    v = pts[2] - pts[0]
    cross = (u.conjugate() * v).imag
    if abs(cross) * 0.5 < 1e-14 * max(dists) ** 2:
        return CollinearLine(pts[0], u / abs(u))
    # Circumcenter relative to p1: solve 2 Re(z conj(u)) = |u|^2 and the
    # same with v; 2x2 real system with determinant 4 * cross.
    b1, b2 = abs(u) ** 2, abs(v) ** 2
    x = (b1 * v.imag - b2 * u.imag) / (2.0 * cross)
    y = (b2 * u.real - b1 * v.real) / (2.0 * cross)
    center = pts[0] + complex(x, y)
    return EuclideanCircle(center, abs(complex(x, y)))


def is_origin_shift_circle(c: EuclideanCircle, w: complex, tol: float) -> Optional[float]:
    """r if c equals the circle {w + r(zeta - w)} for some r (center (1-r)w),
    else None."""
    if abs(w) >= 1:
        raise ConfigError("need |w| < 1")
    r = c.radius
    if abs(c.center - (1.0 - r) * w) <= tol:
        return r
    return None


def fixed_point_radius(w: complex, a: complex) -> complex:
    """(w - a)/(a - |a|^2 w).

    The caller decides validity: only values in (0, 1) on the real axis can
    be radii, so anything else certifies that no admissible radius exists.
    """
    if abs(a) <= _DENOM_FLOOR:
        raise ConfigError("formula requires a != 0")
    den = a - abs(a) ** 2 * w
    if abs(den) <= _DENOM_FLOOR:
        raise ConfigError("degenerate denominator a - |a|^2 w")
    return (w - a) / den


_F_PARAM_DENSITY = 12   # radii and angles of the polar parameter grid
_F_ARC_DENSITY = 64


def build_F_compactum(w_center: complex, delta: float, r_k: float, arc: UnitCircleArc):
    """Union over parameters tau in the closed disc D(w_center, delta) of the
    curves (z + tau)/(1 + conj(tau) z) applied to the dilated arc r_k * arc.

    The parameter disc is sampled on a polar grid including the boundary
    circle; every sample must stay strictly inside the unit disc.
    """
    from . import compacta  # imported here to avoid an import cycle

    if delta < 0:
        raise ConfigError("delta must be >= 0")
    if abs(w_center) + delta >= 1:
        raise EscapesDisc(f"parameter disc leaves the unit disc: |w|+delta = {abs(w_center) + delta}")
    if not (0 < r_k < 1):
        raise ConfigError(f"need 0 < r_k < 1, got {r_k}")

    taus = []
    seen = set()
    radii = np.linspace(0.0, delta, _F_PARAM_DENSITY) if delta > 0 else np.array([0.0])
    angles = 2.0 * math.pi * np.arange(_F_PARAM_DENSITY) / _F_PARAM_DENSITY
    for rad in radii:
        for ang in angles:
            tau = w_center + rad * cmath.exp(1j * ang)
            key = (tau.real, tau.imag)
            if key not in seen:
                seen.add(key)
                taus.append(tau)

    base = r_k * arc.sample(_F_ARC_DENSITY)
    chunks = [mobius_shift(tau, base) for tau in taus]
    points = np.concatenate(chunks)
    if np.max(np.abs(points)) >= 1.0 - 1e-9:
        raise EscapesDisc("sampled union reaches the unit circle")

    return compacta.union(compacta.SampledComponent("ParamUnion", points))
