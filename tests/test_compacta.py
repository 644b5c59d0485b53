"""Sampled compacta: grids, unions, separation bookkeeping."""

import math

import numpy as np
import pytest

from abeluniv import (
    ComplexPolynomial,
    ConfigError,
    DiscAutomorphism,
    OverlapWarning,
    UnitCircleArc,
    apply_automorphism,
    sample_dilated_arc,
    sample_disc_constraint,
    sample_radial_curve,
    sup_distance,
    union,
)
from abeluniv.compacta import SampledComponent


def test_arc_samples_on_circle():
    arc = UnitCircleArc(0.3, 1.2)
    comp = sample_dilated_arc(arc, 0.8, 64)
    assert len(comp.points) == 64
    assert np.allclose(np.abs(comp.points), 0.8)
    ang = np.angle(comp.points)
    assert abs(ang[0] - 0.3) < 1e-12 and abs(ang[-1] - 1.2) < 1e-12


def test_arc_validation():
    with pytest.raises(ConfigError):
        UnitCircleArc(1.0, 0.5)
    with pytest.raises(ConfigError):
        sample_dilated_arc(UnitCircleArc(0.0, 1.0), 1.0, 16)
    with pytest.raises(ConfigError):
        sample_dilated_arc(UnitCircleArc(0.0, 1.0), 0.5, 1)


def test_disc_constraint_zero_target():
    comp = sample_disc_constraint(0.5, 128)
    assert np.allclose(np.abs(comp.points), 0.5)
    assert comp.target is not None
    assert np.all(comp.target == 0)


def test_shifted_arc_center():
    # w + r(e^{it} - w) sweeps a circle of radius r around w(1-r)
    w = 0.2 + 0.1j
    comp = sample_dilated_arc(UnitCircleArc(0.0, 6.0), 0.5, 256, center=w)
    assert np.allclose(np.abs(comp.points - w * (1 - 0.5)), 0.5, atol=1e-12)


def test_radial_curve_matches_map():
    phi = DiscAutomorphism(0.5, 0.0)
    comp = sample_radial_curve(phi, 1j, np.linspace(0.0, 0.9, 33))
    rs = np.linspace(0.0, 0.9, 33)
    assert np.allclose(comp.points, apply_automorphism(phi, rs * 1j))


@pytest.mark.parametrize("radii", [[-0.1, 0.5], [0.5, 1.0], [0.2, math.nan], []])
def test_radial_curve_rejects_radii_outside_the_disc(radii):
    with pytest.raises(ConfigError):
        sample_radial_curve(DiscAutomorphism(0.5, 0.0), 1j, radii)


def test_union_separation_single_component_infinite():
    cc = union(sample_disc_constraint(0.5, 32))
    assert cc.separation == math.inf


def test_union_separation_two_circles():
    cc = union(sample_disc_constraint(0.3, 256), sample_disc_constraint(0.6, 256))
    # grid min distance slightly above the radial gap is impossible; slightly
    # below is expected from angular discretization
    assert 0.29 < cc.separation <= 0.3 + 1e-9


def test_union_overlap_warns():
    a = sample_disc_constraint(0.5, 64)
    b = sample_disc_constraint(0.5, 64)
    with pytest.warns(OverlapWarning):
        union(a, b)


def test_sup_distance_against_manual():
    comp = sample_disc_constraint(0.4, 64)
    p = ComplexPolynomial([0.0, 1.0])  # z
    # target 0, |z| = 0.4 on the grid
    assert abs(sup_distance(comp, p) - 0.4) < 1e-12


def test_component_rejects_outside_disc():
    with pytest.raises(ConfigError):
        SampledComponent("DilatedArc", np.array([1.2 + 0j]))
    with pytest.raises(ConfigError):
        SampledComponent("NoSuchKind", np.array([0.1 + 0j]))
