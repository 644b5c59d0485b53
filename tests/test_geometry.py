"""Disc-automorphism geometry: frozen oracles first, then properties.

Oracle values in this file were computed independently (closed forms,
scipy.optimize.brentq root finding, least-squares circle fits) before the
package code was written, and are asserted as exact-to-tolerance constants.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from abeluniv import geometry
from abeluniv import (
    CollinearLine,
    ConfigError,
    DiscAutomorphism,
    EuclideanCircle,
    apply_automorphism,
    circle_through_three,
    fixed_point_radius,
    image_circle,
    is_origin_shift_circle,
    mobius_shift,
    modulus_identity_residual,
    radial_monotone_threshold,
    rotation,
    solve_level_radius,
)

RNG = np.random.default_rng(20240817)


def random_disc_point(rng, rmax=0.95):
    r = rmax * math.sqrt(rng.uniform())
    t = rng.uniform(0, 2 * math.pi)
    return r * cmath.exp(1j * t)


# ---------------------------------------------------------------- automorphism


def test_apply_frozen_value():
    # (0.5 - 0.5i)/(1 - 0.25i) = (10 - 6i)/17, by hand
    phi = DiscAutomorphism(0.5, 0.0)
    got = apply_automorphism(phi, 0.5j)
    assert abs(got - (10 / 17 - 6j / 17)) < 1e-15


def test_apply_is_involution_at_theta_zero():
    phi = DiscAutomorphism(0.35 - 0.2j, 0.0)
    for _ in range(50):
        z = random_disc_point(RNG)
        assert abs(apply_automorphism(phi, apply_automorphism(phi, z)) - z) < 1e-12


def test_apply_array_matches_scalar():
    phi = DiscAutomorphism(0.3 + 0.4j, 1.1)
    zs = np.array([random_disc_point(RNG) for _ in range(16)])
    arr = apply_automorphism(phi, zs)
    for z, w in zip(zs, arr):
        assert abs(apply_automorphism(phi, z) - w) < 1e-15


def test_modulus_identity_residual_small_everywhere():
    # 1 - |phi_a(z)|^2 == (1-|a|^2)(1-|z|^2)/|1-conj(a)z|^2
    for _ in range(200):
        a = random_disc_point(RNG)
        z = random_disc_point(RNG)
        assert modulus_identity_residual(a, z) < 1e-13


def test_identity_sides_frozen_value():
    # a=0.5, z=0.5i: both sides equal 9/17... squared form 1-|w|^2 = 0.75*0.75/|1-0.25i|^2
    phi = DiscAutomorphism(0.5, 0.0)
    w = apply_automorphism(phi, 0.5j)
    lhs = 1 - abs(w) ** 2
    rhs = (1 - 0.25) * (1 - 0.25) / abs(1 - 0.25j) ** 2
    assert abs(lhs - rhs) < 1e-15
    assert abs(lhs - 9 / 17) < 1e-15


def test_automorphism_parameter_validation():
    with pytest.raises(ConfigError):
        DiscAutomorphism(1.0, 0.0)
    with pytest.raises(ConfigError):
        DiscAutomorphism(0.5, math.inf)


def test_rotation_is_origin_automorphism():
    mu = 0.8
    rot = rotation(mu)
    assert rot.a == 0
    for _ in range(10):
        z = random_disc_point(RNG)
        assert abs(apply_automorphism(rot, z) - cmath.exp(1j * mu) * z) < 1e-14


def test_mobius_shift_inverse():
    w = 0.3 - 0.1j
    for _ in range(20):
        z = random_disc_point(RNG)
        assert abs(mobius_shift(-w, mobius_shift(w, z)) - z) < 1e-13


def test_mobius_shift_fixes_unit_circle():
    w = 0.25 + 0.55j
    for t in np.linspace(0, 2 * math.pi, 17):
        assert abs(abs(mobius_shift(w, cmath.exp(1j * t))) - 1) < 1e-12


# ---------------------------------------------------------------- level radii


def test_solve_level_frozen_rational():
    # (r - 1/2)/(1 - r/2) = 9/10 solves to r = 28/29
    phi = DiscAutomorphism(0.5, 0.0)
    r = solve_level_radius(phi, 1.0 + 0j, 0.9, 0.5)
    assert abs(r - 28 / 29) < 1e-12


def test_solve_level_frozen_imaginary_direction():
    # |0.5 - ri|^2 = 0.81 |1 - 0.5ri|^2 -> r^2 (1 - 0.2025) = 0.56
    phi = DiscAutomorphism(0.5, 0.0)
    r = solve_level_radius(phi, 1j, 0.9, 0.0)
    assert abs(r - math.sqrt(0.56 / 0.7975)) < 1e-10


def test_solve_level_against_brentq():
    phi = DiscAutomorphism(0.4 - 0.1j, 0.0)
    for zeta in (1.0 + 0j, 1j, cmath.exp(2.1j)):
        r0 = radial_monotone_threshold(phi, zeta)

        for t in (0.8, 0.9, 0.97):
            got = solve_level_radius(phi, zeta, t, r0)
            ref = brentq(
                lambda r: abs(apply_automorphism(phi, r * zeta)) - t, r0, 1 - 1e-14
            )
            assert abs(got - ref) < 1e-10


def test_closed_form_solves_match_a_50_digit_reference(monkeypatch):
    # seeded |a| <= 0.7 and levels t >= |phi(r0 zeta)| + 1e-6, against the
    # 50-digit roots of the same quadratics for the float inputs as given;
    # each level solve evaluates phi at most three times
    calls = []
    real = geometry.apply_automorphism
    monkeypatch.setattr(geometry, "apply_automorphism",
                        lambda phi, z: calls.append(z) or real(phi, z))
    rng = np.random.default_rng(20261020)
    worst = {"threshold": 0.0, "radius": 0.0, "level": 0.0}
    with mpmath.workdps(50):
        for _ in range(2000):
            a = 0.7 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            zeta = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            A, Z = mpmath.mpc(a.real, a.imag), mpmath.mpc(zeta.real, zeta.imag)
            c, m = mpmath.re(mpmath.conj(A) * Z), abs(A) ** 2
            ref0 = ((1 + m) - mpmath.sqrt((1 + m) ** 2 - 4 * c * c)) / (2 * c) if c > 0 else 0
            start = abs((A - ref0 * Z) / (1 - mpmath.conj(A) * ref0 * Z))
            t = float(rng.uniform(float(start) + 1e-6, 1.0))
            # larger root of |a - R zeta|^2 = t^2 |1 - conj(a) R zeta|^2
            T = mpmath.mpf(t)
            qa, qb, qc = abs(Z) ** 2 * (1 - T * T * m), c * (1 - T * T), m - T * T
            ref = (qb + mpmath.sqrt(qb * qb - qa * qc)) / qa

            phi = DiscAutomorphism(a, 0.0)
            r0 = radial_monotone_threshold(phi, zeta)
            calls.clear()
            R = solve_level_radius(phi, zeta, t, r0)
            assert len(calls) <= 3
            for key, err in (("threshold", abs(r0 - ref0)), ("radius", abs(R - ref)),
                             ("level", abs(abs(real(phi, R * zeta)) - t))):
                worst[key] = max(worst[key], float(err))
    assert worst["threshold"] <= 2e-15, worst
    assert worst["radius"] <= 2e-14, worst
    assert worst["level"] <= 4e-15, worst


def test_threshold_closed_form():
    # c r^2 - (1+m) r + c with c = Re(conj(a) zeta), m = |a|^2; smaller root
    phi = DiscAutomorphism(0.5, 0.0)
    assert abs(radial_monotone_threshold(phi, 1.0 + 0j) - 0.5) < 1e-9
    # c = 0 for zeta = i: modulus increasing from r = 0 already
    assert radial_monotone_threshold(phi, 1j) == 0.0


def test_threshold_monotone_beyond():
    phi = DiscAutomorphism(0.45 + 0.2j, 0.0)
    for _ in range(25):
        zeta = cmath.exp(1j * RNG.uniform(0, 2 * math.pi))
        r0 = radial_monotone_threshold(phi, zeta)
        rs = np.linspace(r0 + 1e-9, 1 - 1e-9, 200)
        mods = np.abs(apply_automorphism(phi, rs * zeta))
        assert np.all(np.diff(mods) >= -1e-12)


def test_threshold_rejects_a_direction_off_the_circle():
    for zeta in (complex(math.nan, 0.0), complex(0.0, math.inf), 0.5 + 0j):
        with pytest.raises(ConfigError, match="unit circle"):
            radial_monotone_threshold(DiscAutomorphism(0.5, 0.0), zeta)


@pytest.mark.parametrize("r_low", [math.nan, math.inf, -0.1, 1.0])
def test_solve_level_rejects_r_low_outside_the_unit_interval(r_low):
    with pytest.raises(ConfigError, match="r_low"):
        solve_level_radius(DiscAutomorphism(0.5, 0.0), 1j, 0.9, r_low)


# -------------------------------------------------------------------- circles


def fit_circle(points):
    """Least-squares (Kasa) circle through sampled points; independent oracle."""
    x, y = points.real, points.imag
    A = np.column_stack([2 * x, 2 * y, np.ones_like(x)])
    b = x * x + y * y
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    cx, cy, c = sol
    return complex(cx, cy), math.sqrt(c + cx * cx + cy * cy)


def test_image_circle_frozen():
    c = image_circle(0.5, 0.5)
    assert abs(c.center - 0.4) < 1e-14
    assert abs(c.radius - 0.4) < 1e-14


def test_image_circle_matches_circle_fit():
    for _ in range(40):
        a = random_disc_point(RNG, 0.8)
        R = RNG.uniform(0.1, 0.95)
        got = image_circle(a, R)
        t = np.linspace(0, 2 * math.pi, 720, endpoint=False)
        pts = apply_automorphism(DiscAutomorphism(a, 0.0), R * np.exp(1j * t))
        center, radius = fit_circle(pts)
        assert abs(got.center - center) < 1e-9
        assert abs(got.radius - radius) < 1e-9


def test_circle_through_three_recovers():
    for _ in range(40):
        center = random_disc_point(RNG, 0.5)
        radius = RNG.uniform(0.05, 0.4)
        ts = RNG.uniform(0, 2 * math.pi, 3)
        if np.min(np.abs(np.diff(np.sort(ts)))) < 1e-3:
            continue
        p = center + radius * np.exp(1j * ts)
        got = circle_through_three(*p)
        assert isinstance(got, EuclideanCircle)
        assert abs(got.center - center) < 1e-9
        assert abs(got.radius - radius) < 1e-9


def test_circle_through_three_collinear():
    got = circle_through_three(0j, 0.3 + 0.3j, 0.6 + 0.6j)
    assert isinstance(got, CollinearLine)


# --------------------------------------------------------- origin-shift family


def test_fixed_point_radius_frozen():
    assert abs(fixed_point_radius(0.5, 0.25) - 8 / 7) < 1e-14
    assert abs(fixed_point_radius(0.8, 0.5) - 1.0) < 1e-14


def test_fixed_point_radius_direct_formula():
    for _ in range(100):
        w = random_disc_point(RNG, 0.9)
        a = random_disc_point(RNG, 0.9)
        if abs(a - abs(a) ** 2 * w) < 1e-3:
            continue
        got = fixed_point_radius(w, a)
        ref = (w - a) / (a - abs(a) ** 2 * w)
        assert abs(got - ref) < 1e-12


def test_is_origin_shift_circle_accepts_own_family():
    for _ in range(50):
        w = random_disc_point(RNG, 0.6)
        r = RNG.uniform(0.05, 0.9)
        t = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        pts = w + r * (np.exp(1j * t) - w)
        center, radius = fit_circle(pts)
        got = is_origin_shift_circle(EuclideanCircle(center, radius), w, 1e-9)
        assert got is not None
        assert abs(got - r) < 1e-7
