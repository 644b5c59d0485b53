"""Polynomial fitting on compound compacta.

The compensated-summation reference evaluator and the plateau constants were
produced before the fitter existed and are frozen here as oracles.
"""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import abeluniv
from abeluniv import (
    BasisBreakdown,
    BuildConfig,
    ComplexPolynomial,
    ConfigError,
    DiscAutomorphism,
    EpsilonSchedule,
    RadiiSchedule,
    TargetEnumeration,
    ToleranceUnreachable,
    UnderdeterminedFit,
    UnitCircleArc,
    accumulate,
    build_membership_series,
    derivative,
    evaluate,
    fit_polynomial,
    fit_until,
    poly_from_pairs,
    poly_to_pairs,
    sample_dilated_arc,
    sample_disc_constraint,
    union,
)
from abeluniv import polyfit
from abeluniv.builder import _membership_stage_compactum
from abeluniv.compacta import SampledComponent, sample_radial_curve
from abeluniv.cli import main as cli_main
from abeluniv.polyfit import _Pass, _conj_matvec, _gram, _inverse_cholesky, grid_weights

RNG = np.random.default_rng(991)


def circle_grid(r, n):
    return r * np.exp(2j * np.pi * np.arange(n) / n)


def comp_with_values(pts, vals, kind="DilatedArc"):
    return SampledComponent(kind, np.asarray(pts), np.asarray(vals, dtype=complex))


def kahan_eval(coeffs, z):
    """Compensated-summation reference evaluation of sum c_k z^k."""
    s = 0j
    c = 0j
    p = 1.0 + 0j
    for ck in coeffs:
        term = ck * p
        y = term - c
        t = s + y
        c = (t - s) - y
        s = t
        p = p * z
    return s


# ----------------------------------------------------------------- evaluation


def test_evaluate_trivials():
    p = ComplexPolynomial([1.0, 0.0, 1.0])
    assert evaluate(p, 2j) == 1 + (2j) ** 2
    z = ComplexPolynomial([0.0])
    assert evaluate(z, 0.7 + 0.1j) == 0


def test_evaluate_batch_matches_pointwise_bitwise():
    coeffs = (RNG.normal(size=21) + 1j * RNG.normal(size=21)).tolist()
    p = ComplexPolynomial(coeffs)
    zs = np.array([0.9 * (RNG.normal() + 1j * RNG.normal()) / 3 for _ in range(64)])
    batch = evaluate(p, zs)
    for z, w in zip(zs, batch):
        assert evaluate(p, complex(z)) == w


def test_evaluate_against_compensated_reference():
    coeffs = (RNG.normal(size=51) + 1j * RNG.normal(size=51)).tolist()
    p = ComplexPolynomial(coeffs)
    for _ in range(200):
        z = 0.95 * math.sqrt(RNG.uniform()) * np.exp(2j * np.pi * RNG.uniform())
        ref = kahan_eval(coeffs, complex(z))
        got = evaluate(p, complex(z))
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))


def test_accumulate():
    p = ComplexPolynomial([1.0, 2.0, 3.0])
    q = ComplexPolynomial([-1.0, -2.0, -3.0])
    assert tuple(accumulate([p, q]).coeffs) == (0j, 0j, 0j)
    s = accumulate([ComplexPolynomial([1.0]), ComplexPolynomial([0.0, 1.0]),
                    ComplexPolynomial([0.0, 0.0, 1.0])])
    assert tuple(s.coeffs) == (1 + 0j, 1 + 0j, 1 + 0j)


def test_accumulate_evaluation_order():
    polys = [ComplexPolynomial((RNG.normal(size=k + 1) + 1j * RNG.normal(size=k + 1)).tolist())
             for k in range(6)]
    total = accumulate(polys)
    for _ in range(100):
        z = 0.9 * math.sqrt(RNG.uniform()) * np.exp(2j * np.pi * RNG.uniform())
        direct = sum(evaluate(p, complex(z)) for p in polys)
        got = evaluate(total, complex(z))
        assert abs(got - direct) <= 1e-10 * max(1.0, abs(direct))


def test_derivative():
    p = ComplexPolynomial([5.0, 1.0, 2.0, 3.0])
    d = derivative(p)
    assert tuple(d.coeffs) == (1 + 0j, 4 + 0j, 9 + 0j)


def test_pairs_round_trip():
    p = ComplexPolynomial([1 + 2j, 0j, -0.5j])
    assert poly_from_pairs(poly_to_pairs(p)).coeffs == p.coeffs


# -------------------------------------------------------------- fit_polynomial


def test_fit_exact_quadratic():
    pts = circle_grid(0.7, 100)
    q = ComplexPolynomial([1.0, 0.0, 1.0])
    cc = union(comp_with_values(pts, evaluate(q, pts)))
    poly, rep = fit_polynomial(cc, 2)
    assert max(abs(c - e) for c, e in zip(poly.coeffs, [1, 0, 1])) < 1e-11
    assert rep.sup_error <= 1e-11


def test_fit_zero_target():
    pts = circle_grid(0.5, 64)
    cc = union(comp_with_values(pts, np.zeros(64)))
    poly, rep = fit_polynomial(cc, 10)
    assert rep.sup_error == 0
    assert all(c == 0 for c in poly.coeffs)


def test_fit_conjugate_ladder_decreases():
    # conj(zeta) sampled on a quarter arc at r = 0.9; not representable, but
    # approximable with strictly decreasing residual up to degree 20.  Beyond
    # that the monomial synthesis noise on an off-center arc grid swamps the
    # shrinking approximation error (degree 40 lands near 2e-5, above the
    # 6e-9 floor at 20), so the ladder is only asserted where it is clean.
    arc = UnitCircleArc(0.0, math.pi / 2)
    comp = sample_dilated_arc(arc, 0.9, 200)
    zeta = comp.points / 0.9
    cc = union(comp.with_target(np.conj(zeta)))
    sups = []
    for deg in (5, 10, 20):
        _, rep = fit_polynomial(cc, deg)
        sups.append(rep.sup_error)
    assert all(a > b for a, b in zip(sups, sups[1:]))
    assert sups[-1] < 1e-6


def test_fit_requires_targets_and_samples():
    pts = circle_grid(0.5, 8)
    with pytest.raises(ConfigError):
        fit_polynomial(union(sample_dilated_arc(UnitCircleArc(0, 1), 0.5, 8)), 3)
    with pytest.raises(UnderdeterminedFit):
        fit_polynomial(union(comp_with_values(pts, np.zeros(8))), 8)


def test_fit_reproducible_bitwise():
    pts = circle_grid(0.8, 120)
    vals = np.exp(pts)  # entire target, nice decay
    cc = union(comp_with_values(pts, vals))
    p1, r1 = fit_polynomial(cc, 17)
    p2, r2 = fit_polynomial(cc, 17)
    assert p1.coeffs == p2.coeffs
    assert r1.sup_error == r2.sup_error


def test_fit_report_scaling_consistency():
    pts = circle_grid(0.6, 90)
    cc = union(comp_with_values(pts, np.conj(pts)))
    _, rep = fit_polynomial(cc, 6)
    assert rep.sup_error >= rep.rms_error / math.sqrt(90) - 1e-15


def test_fit_report_rms_of_a_huge_residual_is_finite():
    # a residual near 5e159 squares past the double range; its rms is
    # still about 5e159, and the fit must not warn
    pts = circle_grid(0.5, 64)
    cc = union(comp_with_values(pts, 1e160 * pts))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, rep = fit_polynomial(cc, 0)
    assert math.isfinite(rep.rms_error)
    assert abs(rep.rms_error / 5e159 - 1) < 1e-12


def test_least_squares_optimality_under_perturbation():
    # one pass of the fit core at the documented default weights is the
    # weighted l2 minimizer at that degree
    disc = sample_disc_constraint(0.5, 64)
    arc = sample_dilated_arc(UnitCircleArc(0.2, 0.9), 0.8, 48)
    cc = union(disc, arc.with_target(np.full(48, 0.7 + 0.2j)))

    pts = np.concatenate([c.points for c in cc.components])
    tgt = np.concatenate([c.target for c in cc.components])
    w = np.concatenate([np.full(len(c.points), 1.0 / len(c.points))
                        for c in cc.components])
    w = w / w.sum()
    assert np.array_equal(w, grid_weights(cc))
    coeffs = _Pass(pts, tgt, w).fit(12)[0]
    assert len(coeffs) == 13

    def wrms(coeffs):
        vals = evaluate(ComplexPolynomial(list(coeffs)), pts)
        return math.sqrt(float(np.sum(w * np.abs(vals - tgt) ** 2)))

    base = wrms(coeffs)
    for _ in range(20):
        delta = RNG.normal(size=13) + 1j * RNG.normal(size=13)
        delta = 1e-6 * delta / np.linalg.norm(delta)
        perturbed = coeffs + delta
        assert wrms(perturbed) >= base - 1e-18


def test_conj_matvec_matches_the_conjugated_copy_bitwise():
    # the fit core reads the basis in place; its bits must stay those of the
    # conjugated prefix copy at every width, or payloads drift silently
    # (row-major, and column-major as the Arnoldi pass stores it). A tall
    # row-major single column rounds differently and the core passes none:
    # a round's row-major L^{-1} reaches it at degree 0 as a 1 x 1 prefix
    n, width = 1024, 80
    for order in "CF":
        Q = np.asarray(RNG.normal(size=(n, width)) + 1j * RNG.normal(size=(n, width)),
                       order=order)
        x = RNG.normal(size=n) + 1j * RNG.normal(size=n)
        for m in range(65):
            if order == "C" and m == 1:
                Q1, x1 = Q[:1], x[:1]
                got, want = _conj_matvec(Q1, 1, x1), Q1[:, :1].conj().T @ x1
            else:
                got, want = _conj_matvec(Q, m, x), Q[:, :m].conj().T @ x
            assert got.shape == want.shape == (m,)
            assert np.array_equal(got.view(float), want.view(float)), (order, m)


def _disc_and_arc_compactum():
    disc = sample_disc_constraint(0.5, 512)
    arc = sample_dilated_arc(UnitCircleArc(0.0, math.pi / 2), 0.9, 512)
    return union(*(c.with_target(1 / (c.points - 1.5)) for c in (disc, arc)))


DISC_AND_ARC = [slice(0, 512), slice(512, 1024)]   # the components' rows


def _disc_and_arc_fit_data():
    cc = _disc_and_arc_compactum()
    pts = np.concatenate([c.points for c in cc.components])
    tgt = np.concatenate([c.target for c in cc.components])
    return pts, tgt, grid_weights(cc)


@pytest.mark.parametrize("tol", [None, 1e-9])
def test_grown_pass_matches_a_fresh_pass_bitwise(tol):
    # round 1 of every fit in a degree search goes through one growing
    # pass; at every ladder target it must return the bits of a fresh pass
    # to that target. At tol 1e-9 the pass stops at degree 31, and the
    # targets above read the fit there, as a fresh pass would stop there.
    pts, tgt, w = _disc_and_arc_fit_data()
    grown = _Pass(pts, tgt, w)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for d in (8, 16, 32, 64, 128, 256):
            fresh = _Pass(pts, tgt, w)
            got, want = grown.fit(d, tol), fresh.fit(d, tol)
            m = len(got[0]) - 1
            assert np.array_equal(got[0].view(float), want[0].view(float)), d
            assert (got[2], got[4]) == (want[2], want[4]), d
            assert grown.growth(got[1], m) == fresh.growth(want[1], m), d
            assert m == (d if tol is None or d < 32 else 31)


@pytest.mark.parametrize("tol", [None, 1e-9])
def test_grown_pass_matches_a_fresh_pass_off_block_boundaries(tol):
    # the pass builds whole blocks of 8 columns, so a target inside a block
    # leaves columns built past it. Grown up through targets on and off the
    # block boundaries and read back down, it must return the bits of a
    # fresh pass to each target (at tol 1e-9 both stop at degree 31)
    pts, tgt, w = _disc_and_arc_fit_data()
    grown = _Pass(pts, tgt, w)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for d in (8, 12, 16, 20, 32, 64, 100, 128, 219, 256, 219, 100, 20, 12):
            fresh = _Pass(pts, tgt, w)
            got, want = grown.fit(d, tol), fresh.fit(d, tol)
            m = len(got[0]) - 1
            assert np.array_equal(got[0].view(float), want[0].view(float)), d
            assert (got[2], got[4]) == (want[2], want[4]), d
            assert grown.growth(got[1], m) == fresh.growth(want[1], m), d
            assert m == (d if tol is None or d < 32 else 31)


def test_blocks_pass_their_test_on_the_disc_and_arc_data():
    # every block of the disc-and-arc pass keeps lambda_min >= 1/2 of its
    # projected Gram matrix: none is rebuilt column by column
    core = _Pass(*_disc_and_arc_fit_data())
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        core.fit(512)
    assert core.fallbacks == []
    G = core.Q.conj().T @ (core.w[:, None] * core.Q)
    assert np.max(np.abs(G - np.eye(513))) <= 2e-15


def test_a_block_holding_a_dependent_column_is_built_column_by_column():
    # 20 points on a circle hold columns 0..19 only, so the block 17-24
    # fails the block test and is rebuilt one column at a time: fit(19)
    # succeeds with the breakdown at column 20 recorded, and fit(20), grown
    # or fresh, raises it and leaves the pass as it was
    pts = circle_grid(0.5, 20)
    w = np.full(20, 1 / 20)
    core = _Pass(pts, np.exp(pts), w)
    core.fit(19)
    assert core.fallbacks == [17]
    G = core.Q.conj().T @ (w[:, None] * core.Q)
    assert np.max(np.abs(G - np.eye(20))) <= 1e-14
    Q = core.Q.copy()
    for grown in (core, _Pass(pts, np.exp(pts), w)):
        with pytest.raises(BasisBreakdown, match="at column 20"):
            grown.fit(20)
    assert np.array_equal(core.Q, Q) and len(core.sups) == 20


def test_grown_pass_synthesis_stays_exactly_upper_triangular():
    # the column loop reads only rows 0..m-1 of C[:, :m] when it shifts and
    # orthogonalizes the monomial coefficients, which is exact only while
    # every entry below the diagonal is a true zero
    grown = _Pass(*_disc_and_arc_fit_data())
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for d in (8, 16, 32, 64, 128, 256):
            grown.fit(d)
            assert grown.C.shape == (d + 1, d + 1)
            assert not np.any(np.tril(grown.C, -1)), d


@pytest.mark.parametrize("degree", [6, 10, 14, 20, 30])
def test_pass_stays_orthonormal_on_a_lone_short_arc(degree):
    # on a 0.02-radian arc the shifted column lies almost in the span of the
    # columns before it, so the first projection cancels most of it and the
    # second must run: one projection per column leaves |Q^H W Q - I| at
    # 1.4e-3 by degree 6 and 1.0 by degree 10. In blocks of 8 the same holds
    # for the projection against the 8 columns before the block: projected
    # only once, a block's Gram matrix is singular, and only the column by
    # column rebuild keeps the pass orthonormal
    z = sample_dilated_arc(UnitCircleArc(0.30, 0.32), 0.99, 256).points
    w = np.full(256, 1 / 256)
    core = _Pass(z, np.exp(z), w)
    core.fit(degree)
    G = core.Q.conj().T @ (w[:, None] * core.Q)
    assert np.max(np.abs(G - np.eye(degree + 1))) <= 1e-14


def test_pass_sups_match_two_projections_on_every_column():
    # a column projected once, where the first projection keeps at least
    # 1/sqrt(2) of its weighted norm, gives the residuals of a pass that
    # projects every column twice
    pts, tgt, w = _disc_and_arc_fit_data()
    Q = np.zeros((len(pts), 257), dtype=complex)
    r, want = tgt.copy(), np.zeros(257)
    for m in range(257):
        v = pts * Q[:, m - 1] if m else np.ones(len(pts), dtype=complex)
        for _ in range(2):
            v = v - Q[:, :m] @ (Q[:, :m].conj().T @ (w * v))
        Q[:, m] = v / np.sqrt(w @ np.abs(v) ** 2)
        r = r - np.vdot(Q[:, m], w * tgt) * Q[:, m]
        want[m] = np.max(np.abs(r))
    core = _Pass(pts, tgt, w)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        core.fit(256)
    assert np.max(np.abs(core.sups - want)) <= 1e-11 * np.max(np.abs(tgt))


def test_basis_breakdown_leaves_the_pass_as_it_was():
    # 20 points on a circle hold no independent column past degree 19
    pts = circle_grid(0.5, 20)
    core = _Pass(pts, np.exp(pts), np.full(20, 1 / 20))
    core.fit(16)
    for d in (25, 30):
        with pytest.raises(BasisBreakdown, match="at column 20"):
            core.fit(d)
        assert len(core.sups) == 17


@pytest.mark.parametrize("tol", [None, 1e-6])
@pytest.mark.parametrize("spread,sup_rtol,passing", [(1e4, 1e-9, 24), (1e5, 1e-7, 25)])
def test_reweighted_round_matches_a_fresh_pass(tol, spread, sup_rtol, passing):
    # a reweighting round re-orthonormalizes the base-weight columns at its
    # own weights, which in exact arithmetic is the fit of a fresh pass
    # there. With the arc weighted `spread` times the disc the weighted Gram
    # matrix has condition about `spread`: both return the same degree
    # (`passing` at tol 1e-6), max|r| agrees to sup_rtol of max|y| (the
    # largest gap is 7.7e-11 at 1e4 and 4.6e-9 at 1e5, the widest spread
    # factored), and the coefficients to 1e-12 of the synthesis growth,
    # the size of their own noise past degree 32
    pts, tgt, base = _disc_and_arc_fit_data()
    w = base.copy()
    w[512:] *= spread
    w /= w.sum()
    core = _Pass(pts, tgt, base, DISC_AND_ARC)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        core.fit(256)
        for d in (8, 16, 32, 64, 128, 256):
            got = core.reweighted(np.array([1.0, spread]), d, tol)
            fresh = _Pass(pts, tgt, w)
            want = fresh.fit(d, tol)
            m = len(got[0]) - 1
            assert m == len(want[0]) - 1 == (d if tol is None or d < 32 else passing)
            assert got[2] != want[2], d   # the factorization ran, not a fresh pass
            assert abs(got[2] - want[2]) <= sup_rtol * np.max(np.abs(tgt)), d
            growth = fresh.growth(want[1], m)
            assert np.max(np.abs(got[0] - want[0])) <= 1e-12 * growth, d
            assert core.growth(got[1], m) == pytest.approx(growth, rel=1e-9), d
    assert len(core.sups) == 257


@pytest.mark.parametrize("spread", [1e6, 1e8, 1e16])
def test_reweighted_round_past_the_spread_limit_breaks_down(monkeypatch, spread):
    # factored, weights that spread this far would cost max|r| digits:
    # 3.7e-5 where a fresh pass reaches 3.7e-8 at degree 32 and spread
    # 1e8. So the round raises BasisBreakdown and leaves the pass as it
    # was, and the fit keeps the best round before it
    pts, tgt, base = _disc_and_arc_fit_data()
    core = _Pass(pts, tgt, base, DISC_AND_ARC)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        core.fit(128)
        Q, C, sups = core.Q.copy(), core.C.copy(), core.sups.copy()
        for d in (16, 32, 64, 128):
            for tol in (None, 1e-6):
                with pytest.raises(BasisBreakdown, match=r"spread past 1e\+05"):
                    core.reweighted(np.array([1.0, spread]), d, tol)
    assert np.array_equal(core.Q, Q) and np.array_equal(core.C, C)
    assert np.array_equal(core.sups, sups)
    # a second round spread this far from the first: the fit is round 1's
    cc = _disc_and_arc_compactum()
    first, _ = fit_polynomial(cc, 32)
    reweighted, rounds = polyfit._Pass.reweighted, []

    def spread_out(self, a, degree, tol=None):
        rounds.append(degree)
        return reweighted(self, np.array([1.0, spread]), degree, tol)

    monkeypatch.setattr(polyfit._Pass, "reweighted", spread_out)
    poly, rep = fit_polynomial(cc, 32)
    assert rounds == [32]
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        want = _Pass(pts, tgt, base / base.sum()).fit(32)
    assert poly.coeffs == ComplexPolynomial(want[0]).coeffs != first.coeffs
    assert rep.sup_error == float(want[3].max()) > 0


def test_weighted_residual_bounds_every_sup_from_below():
    # the pass's ||r_m||_w, with w summing to 1, is at most max|y - p| on
    # the grid for every p of degree <= m: its own orthogonal fit's, and
    # the fits of reweighting rounds at other weights, before and after
    # monomial synthesis
    pts, tgt, base = _disc_and_arc_fit_data()
    core = _Pass(pts, tgt, base, DISC_AND_ARC)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        core.fit(256)
        bound = np.sqrt(core.lows)
        assert len(bound) == 257 and np.all(bound <= core.sups)
        for a in ([1.0, 40.0], [300.0, 1.0]):
            for d in (8, 16, 32, 64, 128, 256):
                _, _, sup, res, low = core.reweighted(np.array(a), d)
                assert bound[d] <= sup and bound[d] <= res.max(), (a, d)
                # and so does the round's own residual at its own weights
                assert math.sqrt(low) <= sup and math.sqrt(low) <= res.max(), (a, d)


def test_gram_tiles_give_the_lower_triangle_of_the_direct_product():
    # a round's Gram matrix is built in row tiles of 128: in the lower
    # triangle, with zeros above, at one column, one short of a tile,
    # exactly one, one past, and the widest a fit reaches
    pts, tgt, base = _disc_and_arc_fit_data()
    core = _Pass(pts, tgt, base)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        core.fit(512)
    w = base * np.repeat([1.0, 40.0], 512)
    for width in (1, 127, 128, 129, 513):
        Q = core.Q[:, :width]
        G = _gram(Q, w)
        assert np.array_equal(G, np.tril(G)), width
        assert np.max(np.abs(G - np.tril(Q.conj().T @ (w[:, None] * Q)))) <= 1e-14 * 40, width


@pytest.mark.parametrize("width", [1, 127, 128, 129, 513])
def test_blocked_inverse_cholesky_matches_lapack(width):
    # the factor is read from the lower triangle alone, as _gram fills it,
    # and inverted by halves: at one column, across the Gram tiles of 128
    # (one short, exactly one, one past), and the widest a fit reaches
    n = 2 * width + 8
    Q = RNG.normal(size=(n, width)) + 1j * RNG.normal(size=(n, width))
    w = RNG.uniform(0.5, 2.0, size=n)
    G = Q.conj().T @ (w[:, None] * Q)
    X = _inverse_cholesky(np.tril(G))
    want = np.linalg.inv(np.linalg.cholesky(G))
    assert np.array_equal(X, np.tril(X))
    assert np.max(np.abs(X - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 128, 129, 513])
def test_triangular_inverse_matches_lapack(n):
    # a round inverts its whole factor by halves down to LU inverses of at
    # most 32 columns: a leaf, the widest leaf, one split, and factors up
    # to the widest a fit reaches
    A = RNG.normal(size=(2 * n, n)) + 1j * RNG.normal(size=(2 * n, n))
    L = np.linalg.cholesky(A.conj().T @ A)
    X = polyfit._tril_inverse(L)
    want = np.linalg.inv(L)
    assert np.array_equal(X, np.tril(X))
    assert np.max(np.abs(X - want)) <= 1e-13 * np.max(np.abs(want))


def _round_gram(core, a, degree):
    """A round's Gram matrix, formed by the code reweighted runs: s_ref I plus each
    other component's part at scale s - s_ref, the reference being the largest
    component and, of equal sizes, the one of least scale."""
    return core.gram(a, degree + 1)[1]


def _counterexample_shaped_components():
    # the criterion-5 stage-1 compactum's shape: the disc, the dilated arc
    # and two radial witness curves of 207 and 512 samples
    phi = DiscAutomorphism(0.5, 0.0)
    return [sample_disc_constraint(0.5, 512),
            sample_dilated_arc(UnitCircleArc(3.1316, 3.1516), 0.75, 512),
            sample_radial_curve(phi, 1, np.linspace(0.0015, 0.994, 207)),
            sample_radial_curve(phi, 1j, np.linspace(0.5, 0.999, 512))]


@pytest.mark.parametrize("components,a", [
    (1, [3.0]), (2, [1.0, 40.0]), (2, [300.0, 1.0]), (4, [1.0, 40.0, 3.0, 0.5]),
    (4, [2.0, 0.5, 30.0, 1.0])], ids=["1", "2-arc-heavy", "2-disc-heavy", "4-a", "4-b"])
def test_round_gram_without_the_largest_component_matches_the_direct_product(components, a):
    # the base pass is w0-orthonormal, so Q^H diag(w0 s) Q = s_ref I +
    # Q^H diag(w0 (s - s_ref)) Q: the largest component's rows drop out of
    # a round's Gram matrix, which stays the direct _gram(Q, w) to 1e-13,
    # at every width a fit reaches, on one, two and four components
    disc = sample_disc_constraint(0.5, 512)
    comps = {1: [sample_dilated_arc(UnitCircleArc(0.3, 0.32), 0.9, 512)],
             2: [disc, sample_dilated_arc(UnitCircleArc(0.0, math.pi / 2), 0.9, 512)],
             4: _counterexample_shaped_components()}[components]
    cc = union(*(c.with_target(1 / (c.points - 1.5)) for c in comps))
    core = polyfit._base_pass(cc)
    top = 256 if components == 1 else 512   # 512 arc points hold columns 0..511 only
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        core.fit(top)
    s = np.repeat(a, [len(c.points) for c in cc.components])
    w = core.w * s / (core.w @ s)
    for degree in (1, 64, 128, top):
        G = _gram(core.Q[:, :degree + 1], w)
        got = _round_gram(core, np.array(a), degree)
        assert np.max(np.abs(got - G)) <= 1e-13 * np.max(np.abs(G)), degree


@pytest.mark.parametrize("a", [[1.0, 1.0], [10.0, 1.0]])
def test_reweighted_round_matches_a_brute_force_reference(a):
    # the round measures max|r_m| on every row only where its bound on the
    # 128 rows of largest |r_degree| lets m meet tol. Against the factor of
    # the direct _gram(Q, w) and max|r_m| on every row at every m it returns
    # the same degree, with coefficients and sup to 1e-12. A pole near the
    # disc keeps the disc's residual above the arc's at low m, while the
    # arc's rows are the worst at degree 256: there the bound admits m that
    # every row rejects, as the count shows. tol sits 1e-9 above sups[k],
    # far over the bits the two factors differ in, far under a sup's step
    disc = sample_disc_constraint(0.5, 512)
    arc = sample_dilated_arc(UnitCircleArc(0.0, math.pi / 2), 0.9, 512)
    cc = union(disc.with_target(1 / (disc.points - 0.55)), arc.with_target(1 / (arc.points - 1.5)))
    core = polyfit._base_pass(cc)
    a, y = np.array(a), core.y
    w = core.w * np.repeat(a, 512)
    w /= w.sum()
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        core.fit(256)
        X = _inverse_cholesky(_gram(core.Q, w))
        K = np.cumsum(X.conj().T * (X @ (core.Q.conj().T @ (w * y))), axis=1)
        R = np.abs(y[:, None] - core.Q @ K)
        sups, rejected = R.max(axis=0), 0
        low = R[np.argsort(R[:, 256])[-128:]].max(axis=0)
        for tol in (sups[60] * (1 + 1e-9), sups[200] * (1 + 1e-9), None):
            for m in range(257):
                if m == 256 or tol is not None and sups[m] <= tol:
                    coeffs = core.C[:m + 1, :m + 1] @ K[:m + 1, m]
                    res = core._residual(coeffs)
                    if m == 256 or (res is not None and res.max() <= tol):
                        break
            rejected += tol is not None and int(np.sum((low[:m] <= tol) & (sups[:m] > tol)))
            got = core.reweighted(a, 256, tol)
            assert len(got[0]) - 1 == m, tol
            assert np.max(np.abs(got[0] - coeffs)) <= 1e-12 * np.max(np.abs(coeffs)), tol
            assert got[2] == pytest.approx(sups[m], rel=1e-12), tol
    assert rejected > 0


@pytest.mark.parametrize("a", [[1.0, 1.0], [1.0, 40.0], [300.0, 1.0]])
def test_growth_is_the_synthesis_column_sum_at_the_returned_degree(log2_stage2_compactum, a):
    # a round's growth is the largest column sum of the synthesis
    # C_m L_m^{-H} at the degree m it returns, for rounds that stop low,
    # in the middle and at the degree asked
    cc = log2_stage2_compactum
    core = polyfit._base_pass(cc)
    a = np.array(a)
    s = np.repeat(a, [len(c.points) for c in cc.components])
    w = core.w * s / (core.w @ s)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        core.fit(256)
        # the round's own factor, formed as reweighted forms it
        X = _inverse_cholesky(_round_gram(core, a, 256))
        d = X @ (core.Q.conj().T @ (w * core.y))
        sups = np.abs(core.y[:, None] - core.Q @ np.cumsum(X.conj().T * d, axis=1)).max(axis=0)
        full = np.abs(core.C @ X.conj().T).sum(0)
        for tol, lo, hi in ((sups[60], 0, 127), (sups[200], 128, 255), (None, 256, 256)):
            got = core.reweighted(a, 256, tol)
            m = len(got[0]) - 1
            assert lo <= m <= hi, tol
            want = np.abs(core.C[:m + 1, :m + 1] @ X[:m + 1, :m + 1].T.conj()).sum(0)
            assert core.growth(got[1], m) == float(want.max()), tol
            # columns 0..m of the whole C L^{-H} are C_m L_m^{-H} and zeros
            assert core.growth(got[1], m) == pytest.approx(full[:m + 1].max(), rel=1e-13), tol


def test_rank_deficient_gram_raises_and_leaves_the_pass_as_it_was():
    # 31 columns weighted on 10 of the 40 points hold rank 10 at most: the
    # factorization meets a pivot that is not positive, and a round
    # weighting one of four 10-point components (an unbounded spread) breaks
    # down
    pts = circle_grid(0.5, 40)
    core = _Pass(pts, np.exp(pts), np.full(40, 1 / 40),
                 [slice(i, i + 10) for i in range(0, 40, 10)])
    core.fit(30)
    Q, C, sups = core.Q.copy(), core.C.copy(), core.sups.copy()
    w = np.zeros(40)
    w[::4] = 0.1
    with pytest.raises(BasisBreakdown, match="not positive definite"):
        _inverse_cholesky(np.tril(core.Q.conj().T @ (w[:, None] * core.Q)))
    with pytest.raises(BasisBreakdown):
        core.reweighted(np.array([1.0, 0.0, 0.0, 0.0]), 30)
    assert np.array_equal(core.Q, Q) and np.array_equal(core.C, C)
    assert np.array_equal(core.sups, sups)


def test_fit_keeps_the_best_round_when_a_reweighting_round_breaks_down(monkeypatch):
    # a later round that breaks down ends the rounds, as an overflow does:
    # the fit returns the best round in hand, round 1's here
    cc = _disc_and_arc_compactum()
    pts, tgt, base = _disc_and_arc_fit_data()
    rounds = []

    def broken(self, a, degree, tol=None):
        rounds.append(degree)
        raise BasisBreakdown("no positive pivot")

    full, full_rep = fit_polynomial(cc, 16)
    monkeypatch.setattr(polyfit._Pass, "reweighted", broken)
    poly, rep = fit_polynomial(cc, 16)
    assert rounds == [16]
    want = _Pass(pts, tgt, base / base.sum()).fit(16)
    assert poly.coeffs == ComplexPolynomial(want[0]).coeffs
    assert rep.sup_error == float(want[3].max()) > full_rep.sup_error


def _depth_8_config():
    # the criterion-3 depth-8 build's configuration
    return BuildConfig(RadiiSchedule.default(10), EpsilonSchedule.default(10),
                       TargetEnumeration.cyclic(
                           [ComplexPolynomial([0.2]), ComplexPolynomial([-0.3j])],
                           [UnitCircleArc(0.30, 0.32), UnitCircleArc(3.60, 3.62)], 8),
                       density=512, max_degree=512)


def _logged_rounds(monkeypatch):
    """From here on, (max|p(z) - y|, ||r_degree|| at the round's weights) of
    every round, the base-weight ones and the reweighting ones, in order."""
    log = []
    for name in ("fit", "reweighted"):
        def logged(self, *args, _f=getattr(polyfit._Pass, name)):
            got = _f(self, *args)
            log.append((float(got[3].max()), math.sqrt(got[4])))
            return got
        monkeypatch.setattr(polyfit._Pass, name, logged)
    return log


def test_rounds_end_on_a_gain_of_at_most_1e_6(monkeypatch):
    # the depth-8 build's stage-1 fit at degree 2, from base weights: round
    # 5 gains 2.7e-9 relative on round 4 and ends the rounds, where each
    # round before it gained more than 1e-6. Rounds 6 and 7, which ran
    # before this stop, moved the sup only in its last bits, so whether a
    # change in rounding ran them or not moved the round count. No round's
    # own weighted residual exceeds tol: the gain alone ends the rounds
    cfg = _depth_8_config()
    cc = union(*_membership_stage_compactum(cfg, 1, ComplexPolynomial([0j])))
    tol = 0.5 * cfg.eps.eps[1]
    log = _logged_rounds(monkeypatch)
    poly, rep = fit_polynomial(cc, 2, tol=tol)
    sups = [sup for sup, _ in log]
    gains = [1 - b / a for a, b in zip(sups, sups[1:])]
    assert len(sups) == 5
    assert min(gains[:-1]) > 1e-6 >= gains[-1] > 0
    assert all(low <= tol for _, low in log)
    assert rep.sup_error == sups[-1] == min(sups) > tol
    # the sup seven rounds reached, to 1e-10
    assert rep.sup_error == pytest.approx(7.274366255533475e-02, rel=1e-10)


def test_rounds_end_where_a_round_rules_tol_out(monkeypatch):
    # the depth-8 build's stage-2 fit at degree 8, tol 0.03125: round 1's
    # ||r_8||_w0 = 0.03124 lets tol be met, so round 2 runs; at its own
    # weights, which sum to 1, ||r_8|| = 0.0381 > tol rules out every
    # polynomial of degree 8, so the rounds end with the best fit so far,
    # round 2's (seven rounds reached 0.0864, still far above tol)
    cfg = _depth_8_config()
    first = build_membership_series(cfg, 1)
    cc = union(*_membership_stage_compactum(cfg, 2, first.total()))
    tol = 0.5 * cfg.eps.eps[2]
    log = _logged_rounds(monkeypatch)
    poly, rep = fit_polynomial(cc, 8, tol=tol)
    assert len(log) == 2
    (sup1, low1), (sup2, low2) = log
    assert low1 <= tol < low2 < sup2 < sup1
    assert rep.sup_error == sup2 and rep.scales is not None


@pytest.mark.parametrize("tol", [None, 1e-6])
def test_start_scales_past_the_spread_limit_fall_back_to_the_base_weight_round(
        monkeypatch, tol):
    # a round at start scales 1e6 apart would cost digits, so it breaks
    # down before it reads the pass, and round 1 is the fit on the pass
    # itself: the same rounds and bits as a fit without start
    cc = _disc_and_arc_compactum()
    _, _, rounds = count_passes(monkeypatch)
    want, want_rep = fit_polynomial(cc, 32, tol=tol)
    plain = list(rounds)
    got, got_rep = fit_polynomial(cc, 32, tol=tol, start=(1.0, 1e6))
    assert rounds[len(plain):] == [32] + plain
    assert got.coeffs == want.coeffs and got_rep == want_rep


# ------------------------------------------------------------------ fit_until


def test_fit_until_representable_target():
    coeffs = (RNG.normal(size=8) + 1j * RNG.normal(size=8)).tolist()
    p = ComplexPolynomial(coeffs)
    pts = circle_grid(0.75, 160)
    cc = union(comp_with_values(pts, evaluate(p, pts)))
    got, rep = fit_until(cc, 1e-9, 64)
    assert rep.degree <= 8
    assert rep.sup_error <= 1e-9
    with pytest.raises(ConfigError):
        fit_until(cc, 1e-9, -1)


def test_fit_until_rejects_a_negative_degree_cap_before_any_fit(monkeypatch):
    # the cap is the search's own argument: it is checked before the grid is
    # read, not reported as a negative degree by the first fit
    targets, _, rounds = count_passes(monkeypatch)
    pts = circle_grid(0.75, 16)
    for cc in (union(comp_with_values(pts, pts ** 2)),
               union(SampledComponent("DilatedArc", pts, None))):
        with pytest.raises(ConfigError, match="^max_degree must be >= 0$"):
            fit_until(cc, 1e-9, -1)
    assert targets == rounds == []


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
def test_fit_until_rejects_a_tol_that_is_not_finite_and_positive(monkeypatch, tol):
    # a NaN tol fails every comparison, so only a finiteness check stops it
    targets, _, rounds = count_passes(monkeypatch)
    pts = circle_grid(0.75, 16)
    with pytest.raises(ConfigError, match="^tol must be positive and finite"):
        fit_until(union(comp_with_values(pts, pts ** 2)), tol, 16)
    assert targets == rounds == []


def test_fit_until_refines_to_smallest_passing_degree():
    # degree-3 target: first passing rung is 8, refinement must come back down
    p = ComplexPolynomial([0.3, 0.0, 0.0, 1.0])
    pts = circle_grid(0.7, 64)
    cc = union(comp_with_values(pts, evaluate(p, pts)))
    _, rep = fit_until(cc, 1e-10, 64)
    assert rep.degree == 3


def test_fit_until_reciprocal_plateau():
    # 1/z winds once around 0 on |z| = 0.5: no uniform polynomial limit, and
    # the best-approximation distance is 1/r = 2.  The grid must stay denser
    # than the degree cap or the ladder simply interpolates the samples.
    pts = circle_grid(0.5, 1024)
    cc = union(comp_with_values(pts, 1.0 / pts))
    with pytest.raises(ToleranceUnreachable) as err:
        fit_until(cc, 0.1, 256)
    plateau = min(e for _, e in err.value.history)
    assert abs(plateau - 2.0) < 1e-6


def _wide_arc_jump_compactum():
    disc = sample_disc_constraint(0.5, 512)
    arc = sample_dilated_arc(UnitCircleArc(0.0, math.pi / 2), 0.9, 512)
    return union(disc, arc.with_target(np.full(512, 5.0 + 0j)))


def test_fit_until_wide_arc_jump_unreachable():
    # 0 on C(0,0.5), constant 5 on a quarter arc at 0.9: the compound target
    # needs resolution this grid/degree budget cannot deliver; the honest
    # outcome is a recorded plateau, not success, bracketed from below by
    # the base pass's weighted residual at the cap
    with pytest.raises(ToleranceUnreachable) as err:
        fit_until(_wide_arc_jump_compactum(), 0.05, 512)
    hist = dict(err.value.history)
    assert min(hist.values()) > 0.05
    assert err.value.bound_degree == 512
    assert err.value.lower_bound <= min(hist.values())


def test_fit_until_history_rungs():
    pts = circle_grid(0.5, 40)
    cc = union(comp_with_values(pts, 1.0 / pts))
    with pytest.raises(ToleranceUnreachable) as err:
        fit_until(cc, 1e-6, 32)
    degrees = [d for d, _ in err.value.history]
    assert degrees == [8, 16, 32]


def count_passes(monkeypatch):
    """From here on, in order: the target degree of every fit-core call that
    builds Arnoldi columns and the number of columns each built, and the
    target degree of every reweighting round, which builds none."""
    targets, columns, rounds = [], [], []
    fit, reweighted = polyfit._Pass.fit, polyfit._Pass.reweighted

    def counted(self, degree, tol=None):
        before = len(self.sups)
        try:
            return fit(self, degree, tol)
        finally:
            if len(self.sups) > before:
                targets.append(degree)
                columns.append(len(self.sups) - before)

    def counted_round(self, a, degree, tol=None):
        rounds.append(degree)
        return reweighted(self, a, degree, tol)

    monkeypatch.setattr(polyfit._Pass, "fit", counted)
    monkeypatch.setattr(polyfit._Pass, "reweighted", counted_round)
    return targets, columns, rounds


def test_fit_until_runs_no_round_where_the_weighted_residual_rules_tol_out(monkeypatch):
    # on the wide-arc compactum ||r_m||_w falls from 1.47 at rung 8 to 0.142
    # at rung 512, above tol 0.05 at every rung: no polynomial of the rung's
    # degree meets tol, so no rung runs a reweighting round, the ladder
    # climbs the same rungs, and each fit is round 1's, the bits of a fresh
    # base-weight pass
    cc = _wide_arc_jump_compactum()
    pts = np.concatenate([c.points for c in cc.components])
    tgt = np.concatenate([c.target for c in cc.components])
    base = grid_weights(cc)
    rungs = [8, 16, 32, 64, 128, 256, 512]
    core = _Pass(pts, tgt, base / base.sum())
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        core.fit(512)
    assert all(core.lows[d] > 0.05 ** 2 for d in rungs)
    _, _, rounds = count_passes(monkeypatch)
    with pytest.raises(ToleranceUnreachable) as err:
        fit_until(cc, 0.05, 512)
    assert rounds == []
    assert [d for d, _ in err.value.history] == rungs
    for d in (8, 64, 512):
        poly, _ = fit_polynomial(cc, d, tol=0.05)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            want = _Pass(pts, tgt, base / base.sum()).fit(d, 0.05)
        assert poly.coeffs == ComplexPolynomial(want[0]).coeffs, d
    assert rounds == []


@pytest.fixture(scope="module")
def log2_stage2_compactum():
    # stage 2 of the two-stage log-2 membership build on the arc [0.3, 0.5]
    cfg = BuildConfig(RadiiSchedule.default(4), EpsilonSchedule.default(4),
                      TargetEnumeration.cyclic([ComplexPolynomial([math.log(2)])],
                                               [UnitCircleArc(0.3, 0.5)], 2))
    series = build_membership_series(cfg, 1)
    assert series.succeeded
    return union(*_membership_stage_compactum(cfg, 2, series.total()))


def test_fit_until_brackets_on_synthesis_free_residual(log2_stage2_compactum):
    # At target 256 the full-degree monomial vector's residual is synthesis
    # noise (0.018 or 0.033 depending on BLAS rounding) while the
    # orthogonal-basis fit reaches about 0.013; target 512 is noise at 1e14.
    # The pass up to 256 must still stop at a lower degree whose returned
    # polynomial itself meets the tolerance.
    cc = log2_stage2_compactum
    poly, rep = fit_until(cc, 0.016, 512)
    assert 128 < rep.degree < 256
    assert rep.sup_error <= 0.016
    pts = np.concatenate([c.points for c in cc.components])
    tgt = np.concatenate([c.target for c in cc.components])
    assert float(np.max(np.abs(evaluate(poly, pts) - tgt))) == rep.sup_error
    # where only the synthesis-free fit meets the tolerance, the failure
    # says so instead of calling the tolerance unreachable
    with pytest.raises(ToleranceUnreachable) as err:
        fit_until(cc, 0.01, 512)
    msg = str(err.value)
    assert "unreachable" not in msg
    assert "met only before monomial synthesis" in msg
    assert "at degree 512" in msg
    assert min(e for _, e in err.value.history) > 0.01


def test_fit_until_returns_the_refit_at_the_smallest_passing_degree(
        log2_stage2_compactum, monkeypatch):
    # the step-down search ends where the fit one degree lower misses tol,
    # and hands back the tol-free fit_polynomial result at the degree it
    # found. Each lower target and that refit start their rounds from the
    # scales that won the passing fit above them
    cc = log2_stage2_compactum
    targets, _, rounds = count_passes(monkeypatch)
    calls, fit = [], polyfit.fit_polynomial

    def logged(cc, degree, **kw):
        result = fit(cc, degree, **kw)
        calls.append((kw, result[1]))
        return result

    monkeypatch.setattr(polyfit, "fit_polynomial", logged)
    poly, rep = fit_until(cc, 0.016, 512)
    monkeypatch.undo()
    # each step-down target stops at the lowest degree it can meet tol, so
    # the descent from 256 takes few targets. Only round 1 of each ladder
    # target grows the one base-weight pass: 6 passes, where building a
    # pass per reweighting round took 49 at 2 BLAS threads and 50 at 1.
    # The 28 reweighting rounds at 2 threads (20 at 1) reach 6 targets
    # below 256 (5 at 1); a descent of one degree per target would take
    # hundreds
    assert targets == [8, 16, 32, 64, 128, 256]
    assert len(set(rounds) - {8, 16, 32, 64, 128, 256}) <= 6
    assert rep.degree == 218
    ladder, descent, (refit_kw, refit) = calls[:6], calls[6:-1], calls[-1]
    assert all("start" not in kw for kw, _ in ladder)
    passing = ladder[-1][1]
    for kw, got in descent:
        assert kw["start"] == passing.scales
        if got.sup_error <= 0.016:
            passing = got
    assert descent[-1][1].degree == 217 and descent[-1][1].sup_error > 0.016
    assert refit_kw == {"base": refit_kw["base"], "start": passing.scales}
    assert passing.degree == refit.degree == 218 and passing.scales is not None
    # the refit, alone on a fresh pass, gives the same bits
    ref, ref_rep = fit_polynomial(cc, 218, start=passing.scales)
    assert poly.coeffs == ref.coeffs
    assert rep.sup_error == ref_rep.sup_error <= passing.sup_error <= 0.016


def test_fit_until_noisy_targets_cost_no_extra_passes(log2_stage2_compactum, monkeypatch):
    # at tol 0.01 only the synthesis-free residual of target 512 meets tol;
    # no returned polynomial does, so the search must not step down below
    # any target: one pass per rung, grown by each, and at most 7
    # reweighting rounds at each. Targets 8-64, whose weighted residual
    # exceeds tol, run none. The second round at 512 would spread its
    # weights 1e8 from the base pass's, past what a round factors, so it
    # breaks down and the fit keeps round 1
    targets, _, rounds = count_passes(monkeypatch)
    with pytest.raises(ToleranceUnreachable):
        fit_until(log2_stage2_compactum, 0.01, 512)
    assert targets == [8, 16, 32, 64, 128, 256, 512]
    assert len(rounds) <= 21
    assert set(rounds) <= {128, 256, 512}


def test_probe_scan_setup_build_pass_count(tmp_path, monkeypatch):
    # the series the probe-scan benchmark builds: only round 1 of a ladder
    # target grows a base-weight pass, 10 passes and 240 columns at 1 and 2
    # BLAS threads, where building a pass per reweighting round took 129
    # passes and 11,442 columns; the 74 reweighting rounds build none
    targets, columns, _ = count_passes(monkeypatch)
    out = str(tmp_path / "series")
    assert cli_main(["build", "membership", "--targets", "[[[0.2,0]]]",
                     "--arcs", "[[0.3,0.32],[3.6,3.62]]", "--stages", "3",
                     "--density", "512", "--max-degree", "512", "--out", out]) == 0
    monkeypatch.undo()
    stages = json.load(open(out + ".json"))["stages"]
    assert [len(st["coeffs"]) - 1 for st in stages] == [3, 29, 167]
    assert len(targets) <= 10
    assert sum(columns) <= 240


_ROUND_COUNTS = """
import json, sys
from abeluniv import cli, polyfit
rounds, parts = [], []
reweighted, gram = polyfit._Pass.reweighted, polyfit._gram
def counted(self, a, degree, tol=None):
    rounds.append(degree)
    return reweighted(self, a, degree, tol)
def counted_gram(Q, w):
    parts.append(Q.shape[1])
    return gram(Q, w)
polyfit._Pass.reweighted, polyfit._gram = counted, counted_gram
counts = {}
for name, targets, stages in (("depth-8", "[[[0.2,0]],[[0,-0.3]]]", "8"),
                              ("setup", "[[[0.2,0]]]", "3")):
    rounds.clear()
    parts.clear()
    cli.main(["build", "membership", "--targets", targets, "--arcs", "[[0.3,0.32],[3.6,3.62]]",
              "--stages", stages, "--density", "512", "--max-degree", "512",
              "--out", sys.argv[1] + name])
    stages = json.load(open(sys.argv[1] + name + ".json"))["stages"]
    counts[name] = [len(rounds), len(parts), [len(st["coeffs"]) - 1 for st in stages]]
print(json.dumps(counts))
"""


def test_round_counts_of_the_depth_8_and_probe_scan_setup_builds(tmp_path):
    # a degree search's rounds continue one sequence: each lower target and
    # the final refit start from the scales that won the fit above, and the
    # rounds end on a gain of at most 1e-6 relative or where a round's own
    # weighted residual exceeds tol. The criterion-3 depth-8 build runs 66
    # rounds where restarting from base weights at every fit ran 85, with
    # the same degrees, and the probe-scan setup build runs 74 where it ran
    # 121, its stage 3 at degree 167, not 168. A round's Gram matrix scales
    # and adds its components' parts, each built once per width: 17 parts
    # for depth-8's 66 rounds, where forming the matrix in every round took
    # 168, and 20 for the setup build's 74. Counts and degrees are the same
    # at 1 and 2 BLAS threads, each count in a process of its own
    src = os.path.dirname(os.path.dirname(abeluniv.__file__))
    runs = [subprocess.Popen(
        [sys.executable, "-c", _ROUND_COUNTS, str(tmp_path / f"t{t}-")],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS=t,
                 PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])))
        for t in ("1", "2")]
    one, two = (json.loads(p.communicate()[0].splitlines()[-1]) for p in runs)
    assert one == two
    assert one["depth-8"] == [66, 17, [3, 29, 205]]
    assert one["setup"] == [74, 20, [3, 29, 167]]
