"""Constructive polynomial approximation on compound compacta.

Weighted least squares in a grid-orthogonalized basis, with iterative
component reweighting to push the l2 solution toward the sup-norm target,
and a degree search with measured (never assumed) grid residuals.

The returned object is always a plain coefficient vector evaluated by
nested multiplication, and FitReport.sup_error is the exact grid residual
of that vector: where synthesized coefficients grow until evaluation noise
dominates, that shows up honestly as a plateau, not as a fake success.

One Arnoldi pass (_Pass) serves every fit of a degree search (fit_until):
each higher target grows its columns, each lower target and the final
refit read them. Rounds 2-8 of a fit reweight those columns by a Cholesky
factorization of their weighted Gram matrix, summed from per-component
parts built once per width (_Pass.gram), and run only where the pass's
weighted-L2 residual, a lower bound on every sup at that degree, lets tol
be met. The final refit reads the rounds its passing fit already ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

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
    escalations the number of target doublings fit_until made first.
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
    """Per-point weights: 1 split evenly over each component's samples,
    normalized to sum 1, so a short arc and a dense circle have equal
    voice."""
    parts = [np.full(len(c.points), 1.0 / len(c.points)) for c in cc.components]
    w = np.concatenate(parts)
    return w / w.sum()


def _conj_matvec(Q: np.ndarray, m: int, x: np.ndarray) -> np.ndarray:
    """Q[:, :m].conj().T @ x without a conjugated copy of the prefix:
    conj(Q^T conj(x)) is the same sum of the same products, and numpy hands
    the strided transpose to the kernel that read the copy, so the bits
    agree on every prefix the fit core passes (tests/test_polyfit.py)."""
    return (Q[:, :m].T @ x.conj()).conj()


_BLOCK = 128   # a reweighting round's Gram tile width, and the rows its sup bounds read
_WIDTH = 8     # columns per block of an Arnoldi pass, 1-8, 9-16, ... (see _Pass)
_SPREAD = 1e5  # widest spread of w / w0 a reweighting round factors (see reweighted)


def _tril_inverse(L: np.ndarray) -> np.ndarray:
    """L^{-1} of a lower triangular L by halves, X21 = -X22 L21 X11, LU inverses at 32 or fewer."""
    n, h = len(L), len(L) // 2
    if n <= 32:
        return np.tril(np.linalg.inv(L))
    X = np.zeros_like(L)
    X[:h, :h], X[h:, h:] = _tril_inverse(L[:h, :h]), _tril_inverse(L[h:, h:])
    X[h:, :h] = -X[h:, h:] @ (L[h:, :h] @ X[:h, :h])
    return X


def _inverse_cholesky(G: np.ndarray) -> np.ndarray:
    """L^{-1} of G = L L^H, read from G's lower triangle (LAPACK potrf)."""
    try:
        return _tril_inverse(np.linalg.cholesky(G))
    except np.linalg.LinAlgError:
        raise BasisBreakdown("Gram matrix not positive definite") from None


def _gram(Q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Q^H diag(w) Q in the lower triangle of a new array and 0 above, by row tiles of
    _BLOCK, so that temporaries stay n x _BLOCK."""
    X = np.zeros((Q.shape[1], Q.shape[1]), dtype=complex)
    for i0 in range(0, len(X), _BLOCK):
        B = Q[:, i0:i0 + _BLOCK].conj()
        B *= w[:, None]
        X[i0:i0 + _BLOCK, :i0 + _BLOCK] = np.tril(B.T @ Q[:, :i0 + _BLOCK], i0)
    return X


class _Pass:
    """One Arnoldi pass at fixed weights w, grown by aligned blocks of _WIDTH columns.

    Columns come from q_0 = 1 by the shift v = z * q_{m-1}, with their
    monomial coefficients synthesized alongside (C); raw monomial normal
    equations are never formed. In a block (1-8, 9-16, ...) each column is
    orthogonalized against the _WIDTH columns before the block and the
    block's earlier ones; the block is then projected against all columns
    before it by two matrix products (block classical Gram-Schmidt, Barlow &
    Smoktunowicz, Numer. Math. 2013) and orthonormalized by CholeskyQR, whose
    positive diagonal keeps each leading coefficient positive. A block whose
    projected weighted Gram matrix has lambda_min < 1/2, the block form of
    "twice is enough", is rebuilt column by column (_column; Daniel et al.,
    Math. Comp. 1976), and fallbacks lists its first column. Q and C are
    column-major, so a prefix of Q is contiguous whatever the width.

    fit(degree, tol) returns the bits of a fresh pass to degree, which stops
    at m = degree, or with tol given at the first m where max|r| of the
    orthogonal fit (sups[m]) and the synthesized polynomial's own residual
    both meet tol; Q, C, sups and lows end at that m. lows[m] is ||r_m||_w^2
    of the same running residual: as w sums to 1, its root bounds from below
    max|y - p| on the grid for every p of degree <= m. Only whole blocks are
    built, so no column depends on the degree asked, and a breakdown past it
    is raised by the fit that reaches it. A degree in hand is read from the
    columns; a higher one copies them into arrays as wide as its block, the
    shapes of a fresh pass. All fits with tol on one pass give the same tol.
    A BasisBreakdown leaves the pass as it was, as does reweighted(a, degree,
    tol), fit at weights w times a[c] on the rows of component c (slices),
    but for the Gram parts and rounds it keeps."""

    def __init__(self, z: np.ndarray, y: np.ndarray, w: np.ndarray, slices=None):
        self.z, self.y, self.w, self.wy, self.sw = z, y, w, w * y, np.sqrt(w)
        self.slices = slices or [slice(0, len(z))]
        # built: Q, C, sups, lows, the residual after them, the breakdown column, fallbacks
        self.cols = (np.zeros((len(z), 0), complex, "F"), np.zeros((0, 0), complex, "F"),
                     np.zeros(0), np.zeros(0), y.copy(), None, [])
        self.top, self.met = -1, False   # the column the last fit stopped at; tol met there
        self.parts, self.memo = {}, {}   # gram's (width, part) per component; rounds kept

    Q = property(lambda self: self.cols[0][:, :self.top + 1])
    C = property(lambda self: self.cols[1][:self.top + 1, :self.top + 1])
    sups = property(lambda self: self.cols[2][:self.top + 1])
    lows = property(lambda self: self.cols[3][:self.top + 1])
    fallbacks = property(lambda self: self.cols[6])

    def _at(self, Q: np.ndarray, C: np.ndarray, sups: np.ndarray, m: int):
        """(monomial coefficients, max synthesis column growth, max|r|,
        |p(z) - y|) at degree m from columns 0..m, the last None when
        synthesis overflowed."""
        Cm = C[:m + 1, :m + 1]
        coeffs = Cm @ _conj_matvec(Q, m + 1, self.wy)
        return (coeffs, float(np.max(np.sum(np.abs(Cm), axis=0))), float(sups[m]),
                self._residual(coeffs))

    def _residual(self, coeffs: np.ndarray) -> Optional[np.ndarray]:
        if np.all(np.isfinite(coeffs.view(float))):
            return np.abs(evaluate(ComplexPolynomial(coeffs), self.z) - self.y)

    def _column(self, Q: np.ndarray, C: np.ndarray, m: int, k0: int) -> bool:
        """Column m of Q and C from z q_{m-1}: classical Gram-Schmidt against columns k0..m-1,
        twice where once keeps under 1/sqrt(2) of ||v||_w; False if ||v||_w falls under 1e-14."""
        v = self.z * Q[:, m - 1] if m else np.ones(len(self.z), dtype=complex)
        # C is upper triangular: rows m and up of C[:, :m] are exactly zero
        c = np.append(0.0 if m else 1.0, C[:m, m - 1])
        before = float(np.linalg.norm(self.sw * v))
        for _ in range(2):
            h = _conj_matvec(Q[:, k0:], m - k0, self.w * v)
            v = v - Q[:, k0:m] @ h
            c[:m] -= C[:m, k0:m] @ h
            nv = float(np.linalg.norm(self.sw * v))
            if nv >= before * 0.5 ** 0.5:
                break
        if nv < 1e-14 * max(before, 1e-300):
            return False
        Q[:, m], C[:m + 1, m] = v / nv, c / nv
        return True

    def _block(self, Q: np.ndarray, C: np.ndarray, j0: int, j1: int) -> Tuple[int, bool]:
        """Build columns j0..j1-1 of Q and C: (the first that broke down, or j1; whether
        they were built one at a time)."""
        w, k0 = self.w[:, None], max(j0 - _WIDTH, 0)
        if j1 > j0 + 1 and all(self._column(Q, C, m, k0) for m in range(j0, j1)):
            B, P = Q[:, j0:j1], Q[:, :j0]
            # P^H W B and P H, each reading P in place (and packing less than P @ H would)
            H = (P.T @ (w * B).conj()).conj()
            B -= (H.T @ P.T).T
            C[:j0, j0:j1] -= (H.T @ C[:j0, :j0].T).T
            G = (w * B).conj().T @ B
            if np.linalg.eigvalsh(G)[0] >= 0.5:
                X = _tril_inverse(np.linalg.cholesky(G)).conj().T
                Q[:, j0:j1], C[:j1, j0:j1] = B @ X, C[:j1, j0:j1] @ X
                return j1, False
        end = next((m for m in range(j0, j1) if not self._column(Q, C, m, 0)), j1)
        return end, j1 > j0 + 1

    def fit(self, degree: int, tol: Optional[float] = None):
        if degree <= self.top or (self.met and tol is not None):
            return self._at(*self.cols[:3], min(degree, self.top))
        Q, C, sups, lows, r, broken, fallbacks = self.cols
        for m in range(self.top + 1, degree + 1):
            if m == len(sups) and broken is None:   # m starts a block: build it
                if m == Q.shape[1]:   # in arrays as wide as degree's block, as a fresh pass
                    k = -(-degree // _WIDTH) * _WIDTH + 1
                    Q, C = np.zeros((len(Q), k), complex, "F"), np.zeros((k, k), complex, "F")
                    Q[:, :m], C[:m, :m] = self.cols[:2]
                j1 = m + _WIDTH if m else 1
                end, fell = self._block(Q, C, m, j1)
                fallbacks = fallbacks + [m] * fell
                new, low = [], []
                for q in Q[:, m:end].T:
                    r = r - np.vdot(q, self.wy) * q
                    new.append(np.max(np.abs(r)))
                    low.append(self.w @ np.abs(r) ** 2)
                sups, lows = np.append(sups, new), np.append(lows, low)
                broken = end if end < j1 else None
            if m == len(sups):
                raise BasisBreakdown(
                    f"orthogonalization norm underflow at column {m}; degenerate grid")
            met = tol is not None and sups[m] <= tol
            if m == degree or met:
                fit = self._at(Q, C, sups, m)
                met = met and fit[3] is not None and float(fit[3].max()) <= tol
                if m == degree or met:
                    self.cols = (Q, C, sups, lows, r, broken, fallbacks)
                    self.top, self.met = m, met
                    return fit

    def gram(self, a: np.ndarray, n1: int) -> Tuple[np.ndarray, np.ndarray]:
        """(s, G): row scales s = a[c] / sum(w a) and G = Q^H diag(self.w s) Q on columns
        0..n1-1, lower triangle. Q is self.w-orthonormal, so G = s_ref I + the sum over the
        other components of (s_c - s_ref) P_c, P_c = _gram of c's rows at self.w, built once
        per width n1 (its bits vary with the width); ref is the largest, of least scale
        among equals, which keeps s_ref times Q's orthogonality error least."""
        s = np.repeat(a, [sl.stop - sl.start for sl in self.slices])
        s = s / (self.w @ s)
        ref = max(self.slices, key=lambda sl: (sl.stop - sl.start, -s[sl.start]))
        G = s[ref.start] * np.eye(n1, dtype=complex)
        for c, sl in enumerate(self.slices):
            if sl != ref:
                if self.parts.get(c, (0,))[0] != n1:
                    self.parts[c] = n1, _gram(self.Q[sl, :n1], self.w[sl])
                G += (s[sl.start] - s[ref.start]) * self.parts[c][1]
        return s, G

    def reweighted(self, a: np.ndarray, degree: int, tol: Optional[float] = None):
        """fit's tuple at weights w = self.w times a[c] on component c, summing to 1, from
        columns 0..degree in hand (CholeskyQR, Yamamoto et al., ETNA 2015): with Q those columns
        and Q^H diag(w) Q = L L^H (gram), every prefix of Q L^{-H} is w-orthonormal, and
        d = L^{-1} Q^H w y. That costs about spread^1.5 * eps of max|y|, spread that of a (1e-10
        at 1e4), so past _SPREAD it raises BasisBreakdown. Column m of K = cumsum(L^{-H} d) is the
        fit at degree m; max|r_m| on the _BLOCK rows of largest |r_degree| bounds it below, and
        only an m where that bound meets tol is measured on all rows. self.memo keeps each round
        with tol that returns m = degree: a round without tol computes that tuple, so reads it."""
        key = (degree, a.tobytes())
        if tol is None and key in self.memo:
            return self.memo[key]
        if not a.max() <= _SPREAD * a.min():
            raise BasisBreakdown(f"reweighting weights spread past {_SPREAD:.0e}")
        n1, y, Q = degree + 1, self.y, self.Q[:, :degree + 1]
        s, G = self.gram(a, n1)
        X, C = _inverse_cholesky(G), self.C[:n1, :n1]
        K = np.conjugate(X.T, out=G)   # in G's array, which the factor no longer reads
        K *= X @ _conj_matvec(Q, n1, self.w * s * y)
        np.cumsum(K, axis=1, out=K)
        r = np.abs(y - Q @ K[:, degree])
        rows = np.argsort(r)[-_BLOCK:]
        low = np.abs(y[rows, None] - Q[rows] @ K).max(axis=0) if tol is not None else None
        for m in range(n1):
            if m == degree or tol is not None and low[m] <= tol:
                sup = float(r.max() if m == degree else np.abs(y - Q @ K[:, m]).max())
                if m == degree or sup <= tol:
                    coeffs = C[:m + 1, :m + 1] @ K[:m + 1, m]
                    res = self._residual(coeffs)
                    if m == degree or (res is not None and float(res.max()) <= tol):
                        break
        # the synthesis C_m L_m^{-H}'s largest column sum
        growth = np.abs(C[:m + 1, :m + 1] @ X[:m + 1, :m + 1].T.conj()).sum(0).max()
        if tol is not None and m == degree:
            self.memo[key] = coeffs, float(growth), sup, res
        return coeffs, float(growth), sup, res


def _base_pass(cc: CompoundCompactum) -> _Pass:
    """The pass at cc's grid weights over its targets, stacked component by component."""
    for c in cc.components:
        if c.target is None:
            raise ConfigError(f"component {c.kind} has no target")
    sizes = [len(c.points) for c in cc.components]
    slices = [slice(end - n, end) for end, n in zip(np.cumsum(sizes), sizes)]
    return _Pass(np.concatenate([c.points for c in cc.components]),
                 np.concatenate([c.target for c in cc.components]), grid_weights(cc), slices)


def fit_polynomial(cc: CompoundCompactum, degree: int, *, tol: Optional[float] = None,
                   base: Optional[_Pass] = None) -> Tuple[ComplexPolynomial, FitReport]:
    """Weighted least-squares fit of all component targets at the given degree.

    Up to 8 rounds multiply each component's weight by its share of the sup
    residual (floored at 1e-4) to push the l2 fit toward the sup-norm
    target; the round with the smallest measured sup residual wins, and the
    loop stops as soon as a round fails to improve or breaks down. The
    report's basis_sup is the lowest synthesis-free residual over the rounds
    run; it does not steer the reweighting. Round 1 fits on the base-weight
    pass base, _base_pass(cc) unless given (fit_until's fits share one, and
    sharing changes no result), and later rounds reweight its columns. With
    tol given, a round may stop below degree, and the first round whose fit
    meets tol wins; where round 1 misses tol and the pass's ||r_degree||_w
    exceeds it, no polynomial of that degree can meet tol, and no further
    round runs."""
    if degree < 0:
        raise ConfigError("degree must be >= 0")
    base = base or _base_pass(cc)
    if len(base.z) < degree + 1:
        raise UnderdeterminedFit(f"{len(base.z)} samples cannot determine degree {degree}")

    best, basis_sup, scale = None, math.inf, np.ones(len(cc.components))
    for k in range(8):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            if k == 0:
                coeffs, growth, round_basis_sup, res = base.fit(degree, tol)
            else:   # round 1 ran the base pass to degree, or met tol and ended the loop
                try:
                    coeffs, growth, round_basis_sup, res = base.reweighted(scale, degree, tol)
                except BasisBreakdown:   # keep the best round, as after an overflow
                    break
        basis_sup = min(basis_sup, round_basis_sup)
        if res is None or not math.isfinite(growth):
            # monomial synthesis overflowed: the orthogonal fit exists but
            # cannot be carried back to coefficient form at this degree
            if best is None:
                raise BasisBreakdown(
                    f"monomial synthesis overflow at degree {degree}")
            break
        poly = ComplexPolynomial(coeffs)
        comp_sup = np.array([float(res[sl].max()) for sl in base.slices])
        sup = float(comp_sup.max())
        if best is None or sup < best[0]:
            with np.errstate(over="ignore"):
                rms = float(np.sqrt(np.mean(res ** 2)))
            if math.isinf(rms) and sup < math.inf:   # res ** 2 overflowed
                rms = sup * float(np.sqrt(np.mean((res / sup) ** 2)))
            best = (sup, rms, growth, poly)
        else:
            break
        if sup == 0.0 or tol is not None and (
                sup <= tol or k == 0 and base.lows[degree] > tol * tol):
            break
        scale = scale * np.maximum(comp_sup / sup, 1e-4)

    sup, rms, growth, poly = best
    return poly, FitReport(poly.degree, sup, rms, growth, 0, basis_sup)


def fit_until(cc: CompoundCompactum, tol: float, max_degree: int = 512
              ) -> Tuple[ComplexPolynomial, FitReport]:
    """Smallest degree whose fit meets tol, searched without bisection.

    The target degree doubles from 8 (capped at max_degree and the sample
    count) until a pass meets tol at some degree m; escalations counts the
    doublings. The target then steps to m - 1 while a fit there still meets
    tol somewhere. The result is fit_polynomial at the last passing degree,
    or the passing fit in hand should that refit miss tol, so sup_error is
    always <= tol and measured on the returned vector. Otherwise the call
    raises with the best attempt, the (degree, sup) history of the targets
    and the lower bound ||r_m||_w of the base pass at the highest degree m
    it reached, and says when only FitReport.basis_sup met tol."""
    if not (0 < tol < math.inf):
        raise ConfigError(f"tol must be positive and finite, got {tol}")
    if max_degree < 0:
        raise ConfigError("max_degree must be >= 0")
    top = min(max_degree, sum(len(c.points) for c in cc.components) - 1)
    ladder = [8 << k for k in range(64) if 8 << k < top] + [top]

    history, best, base = [], None, _base_pass(cc)
    # (degree, basis_sup) of the best target whose orthogonal-basis fit met
    # tol while its returned polynomial did not
    noisy = None
    for i, deg in enumerate(ladder):
        try:
            poly, rep = fit_polynomial(cc, deg, tol=tol, base=base)
        except BasisBreakdown:
            history.append((deg, math.inf))
            continue
        history.append((rep.degree, rep.sup_error))
        if rep.sup_error <= tol:
            # every extra coefficient inflates later evaluations of the
            # running sum: lower the target until it passes nowhere, then
            # refit plainly at the last passing degree
            try:
                while rep.degree > 0:
                    lower = fit_polynomial(cc, rep.degree - 1, tol=tol, base=base)
                    if lower[1].sup_error > tol:
                        break
                    poly, rep = lower
                final = fit_polynomial(cc, rep.degree, base=base)
                if final[1].sup_error <= tol:
                    poly, rep = final
            except BasisBreakdown:
                pass
            return poly, replace(rep, escalations=i)
        if best is None or rep.sup_error < best[1].sup_error:
            best = (poly, replace(rep, escalations=i))
        if rep.basis_sup <= tol and (noisy is None or rep.basis_sup < noisy[1]):
            noisy = (rep.degree, rep.basis_sup)
    plateau = ", ".join(f"{d}:{s:.3e}" for d, s in history)
    m = base.top   # the highest degree the base pass reached, -1 if none
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
        report=best[1] if best else None, history=history, bound_degree=m if m >= 0 else None,
        lower_bound=math.sqrt(base.lows[m]) if m >= 0 else None)
