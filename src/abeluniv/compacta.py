"""Sampled compact sets: dilated arcs, circle constraints, radial curves,
and labeled unions of them.

A SampledComponent is a point grid inside the open unit disc with an
optional complex target per point. CompoundCompactum
bundles components and records the true minimum pairwise distance between
them, recomputed on construction. Grid suprema certify grid suprema only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .geometry import DiscAutomorphism, UnitCircleArc, apply_automorphism

KINDS = ("DilatedArc", "DiscBoundary", "RadialCurve", "ParamUnion")


class OverlapWarning(UserWarning):
    """Two components sit closer than 1e-6; fatal only where the assembled
    targets require disjointness."""


@dataclass
class SampledComponent:
    kind: str
    points: np.ndarray
    target: Optional[np.ndarray] = None
    which: Optional[int] = None   # witness curve index, for RadialCurve

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown component kind {self.kind!r}")
        pts = np.asarray(self.points, dtype=complex)
        if pts.ndim != 1 or pts.size == 0:
            raise ConfigError("points must be a nonempty 1-d array")
        if not np.all(np.isfinite(pts.view(float))):
            raise ConfigError("points must be finite")
        if np.max(np.abs(pts)) >= 1.0:
            raise ConfigError("all sample moduli must be < 1")
        self.points = pts
        if self.target is not None:
            tgt = np.asarray(self.target, dtype=complex)
            if tgt.shape != pts.shape:
                raise ConfigError("target length must equal points length")
            self.target = tgt

    def with_target(self, values) -> "SampledComponent":
        return SampledComponent(self.kind, self.points.copy(), np.asarray(values, dtype=complex),
                                self.which)


@dataclass
class CompoundCompactum:
    components: list
    separation: float = math.inf


def _min_distance(x: np.ndarray, y: np.ndarray) -> float:
    best = math.inf
    step = max(1, 65536 // max(len(y), 1))   # rows per block: about 1 MB of differences
    for i in range(0, len(x), step):
        d = np.abs(x[i:i + step, None] - y[None, :])
        best = min(best, float(d.min()))
    return best


def union(*components: SampledComponent) -> CompoundCompactum:
    """Bundle components; separation is the exact min pairwise grid distance."""
    if not components:
        raise ConfigError("union needs at least one component")
    comps = list(components)
    sep = math.inf
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            sep = min(sep, _min_distance(comps[i].points, comps[j].points))
    if sep < 1e-6:
        warnings.warn(f"components overlap (separation {sep:.3e})", OverlapWarning)
    return CompoundCompactum(comps, sep)


def sample_dilated_arc(arc: UnitCircleArc, r: float, density: int,
                       center: complex = 0j) -> SampledComponent:
    """density equally spaced samples of {center + r(e^{it} - center)},
    endpoints included; center=0 is the plain dilated arc."""
    if not (0 < r < 1):
        raise ConfigError(f"need 0 < r < 1, got {r}")
    if density < 2:
        raise ConfigError("density must be >= 2")
    return SampledComponent("DilatedArc", center + r * (arc.sample(density) - center))


def sample_disc_constraint(r: float, density: int, center: complex = 0j) -> SampledComponent:
    """Zero-target samples on the circle center + r(T - center). Sampling the
    boundary is enough: a polynomial's max modulus over the enclosed disc is
    attained there."""
    if not (0 < r < 1):
        raise ConfigError(f"need 0 < r < 1, got {r}")
    if density < 2:
        raise ConfigError("density must be >= 2")
    t = 2.0 * math.pi * np.arange(density) / density
    pts = center + r * (np.exp(1j * t) - center)
    return SampledComponent("DiscBoundary", pts, np.zeros(density, dtype=complex))


def sample_radial_curve(phi: DiscAutomorphism, zeta: complex,
                        radii: np.ndarray) -> SampledComponent:
    """Images phi(r zeta) for the given radii r, each in [0, 1)."""
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0 or not np.all((radii >= 0) & (radii < 1)):
        raise ConfigError("need a nonempty array of radii in [0, 1)")
    return SampledComponent("RadialCurve", apply_automorphism(phi, radii * zeta))


def sup_distance(component: SampledComponent, f) -> float:
    """max over the grid of |f(point) - target|, f taking the array of points."""
    if component.target is None:
        raise ConfigError("component has no target")
    return float(np.max(np.abs(f(component.points) - component.target)))
