"""Universality probes for built or composed functions.

Three jobs live here: measuring how close the dilates f_r come to targets
on circle arcs (the density meter the whole package is about), wrapping
functions in left/right compositions as labelled functions that stay
evaluable on any grid, and continuing local inverse branches of an outer
map g along paths so that a target h on an arc can be replaced by a lifted
h0 with g(h0) close to h.

Function arguments are read in one place, `as_expr`, and outer maps in
one, `_outer_map`. Everything is grid-based and reported as measured
numbers; a scan is evidence about finitely many radii and targets, never a
certification of density.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CertificateFailure, ConfigError, InvariantViolation
from .geometry import DiscAutomorphism, UnitCircleArc, apply_automorphism
from .polyfit import ComplexPolynomial, derivative, evaluate

RECIPROCAL_FLOOR = 1e-6
_LIFT_CHUNK = 4096   # samples per write of write_lift_result to each stream


# labelled functions

@dataclass(frozen=True)
class FunctionExpr:
    """A function with the label of the composition it came from; callable
    on scalars and arrays. `fn` maps a 1-d complex array to its values. A
    reciprocal records the min modulus it measured on its probe grid as
    `certified_min`."""

    fn: Callable[[np.ndarray], np.ndarray]
    label: str
    certified_min: Optional[float] = None

    def __call__(self, z):
        arr = np.asarray(z, dtype=complex)
        scalar = arr.ndim == 0
        vals = self.fn(np.atleast_1d(arr))
        return vals[0].item() if scalar else vals


def as_expr(f) -> FunctionExpr:
    """Read a function argument: a FunctionExpr, a ComplexPolynomial, a
    number (a constant), or any callable. A callable is tried on the whole
    array first and called point by point when that raises or returns the
    wrong shape."""
    if isinstance(f, FunctionExpr):
        return f
    if isinstance(f, numbers.Number):
        f = ComplexPolynomial([complex(f)])
    if isinstance(f, ComplexPolynomial):
        return FunctionExpr(lambda z: np.asarray(evaluate(f, z)),
                            f"poly(degree={f.degree})")
    if not callable(f):
        raise ConfigError(f"cannot interpret {type(f).__name__} as a function")

    def values(z):
        try:
            v = np.asarray(f(z), dtype=complex)
            if v.shape == z.shape:
                return v
        except (TypeError, ValueError):
            pass
        return np.array([complex(f(p)) for p in z])
    return FunctionExpr(values, getattr(f, "__name__", type(f).__name__))


def _outer_map(g, names=("exp",)):
    """Read an outer map: one of `names` (any case) or a ComplexPolynomial,
    which may be given as its coefficient list."""
    if isinstance(g, str) and g.lower() in names:
        return g.lower()
    if isinstance(g, (list, tuple)):
        g = ComplexPolynomial(g)
    if isinstance(g, ComplexPolynomial):
        return g
    raise ConfigError(f"unknown outer map {g!r}")


def compose_left(g, f, probe_grid=None) -> FunctionExpr:
    """exp(f), 1/f, or P(f). The reciprocal demands a probe grid on which
    |f| stays above the 1e-6 floor and records the measured minimum as its
    certificate; every later evaluation grid is re-checked against the
    floor."""
    inner = as_expr(f)
    outer = _outer_map(g, ("exp", "reciprocal"))
    if outer == "exp":
        return FunctionExpr(lambda z: np.exp(inner.fn(z)), f"exp({inner.label})")
    if outer != "reciprocal":
        return FunctionExpr(lambda z: np.asarray(evaluate(outer, inner.fn(z))),
                            f"poly(degree={outer.degree})o({inner.label})")
    if probe_grid is None:
        raise ConfigError("reciprocal composition needs a probe grid "
                          "for its min-modulus certificate")
    grid = np.asarray(probe_grid, dtype=complex).ravel()
    if grid.size == 0:
        raise ConfigError("empty probe grid")
    m = float(np.min(np.abs(inner(grid))))
    if m <= RECIPROCAL_FLOOR:
        raise CertificateFailure(
            f"min modulus {m:.3e} on the probe grid is not above "
            f"{RECIPROCAL_FLOOR}; reciprocal refused")

    def reciprocal(z):
        vals = inner.fn(z)
        dip = float(np.min(np.abs(vals)))
        if dip <= RECIPROCAL_FLOOR:
            raise CertificateFailure(
                f"reciprocal argument dips to {dip:.3e} <= {RECIPROCAL_FLOOR} "
                "on the evaluation grid")
        return 1.0 / vals
    return FunctionExpr(reciprocal, f"reciprocal({inner.label})", m)


def compose_right(f, phi: DiscAutomorphism) -> FunctionExpr:
    """f composed with a disc automorphism on the right: z is moved first."""
    inner = as_expr(f)
    return FunctionExpr(
        lambda z: inner.fn(np.asarray(apply_automorphism(phi, z))),
        f"({inner.label})oPhi[a={phi.a!r},theta={phi.theta!r}]")


# dilate distance and scans

def dilate_distance(f, arc: UnitCircleArc, target, r: float,
                    density: int = 256) -> float:
    """Grid sup of |f(r zeta) - target(zeta)| over the sampled arc."""
    if not (0 < r < 1):
        raise ConfigError(f"dilation radius {r} outside (0, 1)")
    if density < 2:
        raise ConfigError("need at least two sample points")
    zeta = arc.sample(density)
    fv = as_expr(f)(r * zeta)
    tv = as_expr(target)(zeta)
    return float(np.max(np.abs(fv - tv)))


@dataclass
class DilateReport:
    """Per (target, arc): sup errors over the scanned stage radii, plus the
    argmin stage."""

    rows: List[dict] = field(default_factory=list)
    best: List[dict] = field(default_factory=list)

    @staticmethod
    def from_rows(rows: List[dict]) -> "DilateReport":
        best = {}
        for row in rows:
            key = (row["target_id"], row["arc_id"])
            if key not in best or row["sup_error"] < best[key]["best_error"]:
                best[key] = {"target_id": key[0], "arc_id": key[1],
                             "best_n": row["n"], "best_error": row["sup_error"]}
        return DilateReport(rows, [best[k] for k in sorted(best)])

    def best_for(self, target_id: int, arc_id: int) -> dict:
        for b in self.best:
            if b["target_id"] == target_id and b["arc_id"] == arc_id:
                return b
        raise ConfigError(f"no scan entry for pair ({target_id}, {arc_id})")


def universality_scan(f, targets: Sequence, arcs: Sequence[UnitCircleArc],
                      rho, N: int, density: int = 256) -> DilateReport:
    """Full dilate-distance matrix over stages 1..N for every
    (target, arc) pair."""
    r = rho.r if hasattr(rho, "r") else tuple(float(x) for x in rho)
    if N < 1:
        raise ConfigError("need at least one stage to scan")
    if len(r) < N + 1:
        raise ConfigError(f"radii schedule too short: need {N + 1} entries")
    expr = as_expr(f)
    rows = []
    for ti, target in enumerate(targets):
        for ai, arc in enumerate(arcs):
            for n in range(1, N + 1):
                d = dilate_distance(expr, arc, target, r[n], density)
                rows.append({"target_id": ti, "arc_id": ai, "n": n,
                             "r": r[n], "sup_error": d})
    return DilateReport.from_rows(rows)


# inverse-branch continuation

@dataclass(frozen=True)
class LiftStatus:
    kind: str            # "complete" | "critical-point" | "diverged"
    index: int = -1      # sample index where continuation stopped

    @property
    def complete(self) -> bool:
        return self.kind == "complete"


@dataclass
class LiftResult:
    t: np.ndarray        # arc-length fractions in [0, 1]
    values: np.ndarray   # branch samples h0(t_j)
    targets: np.ndarray  # path values the samples were solved against
    max_defect: float
    status: LiftStatus

    @property
    def endpoint(self) -> complex:
        return complex(self.values[-1])


def _horner(p: ComplexPolynomial) -> Callable[[complex], complex]:
    top, *rest = p.coeffs[::-1]

    def value(z: complex) -> complex:
        acc = top
        for c in rest:
            acc = acc * z + c
        return acc
    return value


def _as_inverse_pair(g) -> Tuple[Callable, Callable]:
    """(g, g') as scalar functions of an outer map read by _outer_map.

    A polynomial pair runs Horner's rule in plain Python complex
    arithmetic, the operation order of `evaluate` without its numpy
    round trip. Its values are IEEE scalar arithmetic and so do not
    depend on the CPU's SIMD dispatch, but they are not always the bits
    `evaluate` gives: numpy's complex-multiply loop may fuse multiply-adds
    and round differently in the last place."""
    if g == "exp":
        return cmath.exp, cmath.exp
    return _horner(g), _horner(derivative(g))


_NEWTON_ITERS = 40


def _damped_newton(gf, dg, h0: complex, w: complex, tol: float
                   ) -> Tuple[complex, float, bool]:
    h = h0
    e = gf(h) - w
    res = abs(e)
    for _ in range(_NEWTON_ITERS):
        if res <= tol:
            return h, res, True
        d = dg(h)
        if abs(d) < 1e-14:
            return h, res, False
        step = e / d
        lam = 1.0
        while lam >= 1.0 / 64:
            cand = h - lam * step
            ec = gf(cand) - w
            rc = abs(ec)
            if rc < res:
                h, e, res = cand, ec, rc
                break
            lam *= 0.5
        else:
            return h, res, False
    return h, res, res <= tol


_REJECTED = (None, None, None)


def _advance(gf, dg, h: complex, w_cur: complex, w_next: complex,
             tol: float) -> Tuple[Optional[complex], Optional[float], Optional[float]]:
    """One predictor-corrector step: (h_new, res, mid_defect), where res is
    the corrector's final residual |g(h_new) - w_next| and mid_defect the
    distance of the linear interpolant's midpoint from the path. h_new is
    None when the midpoint falls too far off the path, and mid_defect is
    None as well when the derivative is too small, the corrector fails or
    the step leaves the predictor's locality."""
    d = dg(h)
    if abs(d) < 1e-8:
        return _REJECTED
    h_pred = h + (w_next - w_cur) / d
    if not (math.isfinite(h_pred.real) and math.isfinite(h_pred.imag)):
        return _REJECTED
    h_new, res, ok = _damped_newton(gf, dg, h_pred, w_next, tol)
    if not ok:
        return _REJECTED
    if abs(h_new - h_pred) > 0.5 * abs(h_pred - h) + tol:
        return _REJECTED
    mid_defect = abs(gf(0.5 * (h + h_new)) - 0.5 * (w_cur + w_next))
    if mid_defect > 3.0 * tol:
        # linear resampling between samples must stay a small multiple of
        # tol off the path, so the step size is capped by curvature
        return None, None, mid_defect
    return h_new, res, mid_defect


def _march_segment(gf, dg, h: complex, w_a: complex, w_b: complex,
                   tol: float, min_step: float,
                   record) -> Tuple[complex, Optional[str]]:
    """March from w_a to w_b; returns the last accepted h and None, or the
    stop status ("critical-point" or "diverged") where it gave up."""
    length = abs(w_b - w_a)
    if length == 0:
        return h, None
    direction = (w_b - w_a) / length
    pos = 0.0
    init = length / 64.0
    step = init
    while pos < length * (1 - 1e-15):
        d = min(step, length - pos)
        w_cur = w_a + direction * pos
        w_next = w_a + direction * (pos + d)
        h_new, res, mid_defect = _advance(gf, dg, h, w_cur, w_next, tol)
        if mid_defect is None:
            factor = 0.5
        elif mid_defect == 0:
            factor = 2.0
        else:
            # the midpoint defect grows as the square of the step: aim the
            # next one at 0.9^2 of the 3 tol the acceptance test allows
            factor = min(2.0, 0.9 * math.sqrt(3.0 * tol / mid_defect))
        if h_new is not None:
            h = h_new
            pos += d
            record(pos / length, h, w_next, res)
            if abs(h) > 1e6:
                return h, "diverged"
        elif step <= min_step:
            return h, "critical-point"
        # an accepted step may shrink too, so both branches keep the step
        # within [min_step, init]
        step = max(min(step * factor, init), min_step)
    return h, None


def lift_path(g, path: Sequence[complex], start: complex, tol: float) -> LiftResult:
    """Continue the branch h of g^{-1} with g(start) = path[0] along the
    polyline. Stops with a critical-point status when no acceptable step
    above the minimum (1e-6 of the path length) exists, and with a
    diverged status when |h| passes 1e6."""
    gf, dg = _as_inverse_pair(_outer_map(g))
    pts = [complex(p) for p in path]
    if len(pts) < 2:
        raise ConfigError("path needs at least two points")
    if tol <= 0:
        raise ConfigError("tolerance must be positive")
    start = complex(start)
    if not (math.isfinite(tol) and all(map(cmath.isfinite, pts + [start]))):
        raise ConfigError("start, path points and tolerance must be finite")
    d0 = abs(gf(start) - pts[0])
    if d0 > tol:
        raise ConfigError(
            f"start is not a branch point: |g(start) - path[0]| = {d0:.3e} > {tol}")
    lengths = [abs(b - a) for a, b in zip(pts, pts[1:])]
    total = sum(lengths)
    ts, hs, ws, defects = [0.0], [start], [pts[0]], [d0]
    status = LiftStatus("complete")
    if total > 0:
        min_step = 1e-6 * total
        h = start
        done = 0.0
        for (a, b), seg in zip(zip(pts, pts[1:]), lengths):
            def record(frac, hh, ww, res, _done=done, _seg=seg):
                ts.append((_done + frac * _seg) / total)
                hs.append(hh)
                ws.append(ww)
                defects.append(res)
            h, stop = _march_segment(gf, dg, h, a, b, tol, min_step, record)
            if stop is not None:
                status = LiftStatus(stop, len(hs) - 1)
                break
            done += seg
    t = np.asarray(ts)
    values = np.asarray(hs, dtype=complex)
    targets = np.asarray(ws, dtype=complex)
    return LiftResult(t, values, targets, max(defects), status)


def branch_obstructions(g) -> np.ndarray:
    """Values of g at the zeros of g'; for exp, the single omitted value 0.
    Lift node targets must keep clear of these."""
    g = _outer_map(g)
    if g == "exp":
        return np.array([0j])
    der = derivative(g)
    roots = polynomial_roots(der.coeffs)
    if roots.size == 0:
        return np.array([], dtype=complex)
    return np.asarray(evaluate(g, roots))


def polynomial_roots(coeffs) -> np.ndarray:
    """All complex roots via the companion matrix of the monic normalization."""
    c = np.asarray(coeffs, dtype=complex)
    nz = np.nonzero(np.abs(c) > 0)[0]
    if nz.size == 0 or nz.max() == 0:
        return np.array([], dtype=complex)
    c = c[:nz.max() + 1]
    if len(c) - 1 > 64:
        raise ConfigError("root search capped at degree 64")
    monic = c / c[-1]
    n = len(monic) - 1
    A = np.zeros((n, n), dtype=complex)
    if n > 1:
        A[1:, :-1] = np.eye(n - 1)
    A[:, -1] = -monic[:-1]
    return np.linalg.eigvals(A)


@dataclass
class LiftedTarget:
    """Piecewise branch target h0 on an arc: interpolate between the stored
    angle grid samples."""

    angles: np.ndarray
    values: np.ndarray
    node_targets: np.ndarray

    def __call__(self, zeta):
        arr = np.asarray(zeta, dtype=complex)
        scalar = arr.ndim == 0
        t = np.mod(np.angle(np.atleast_1d(arr)), 2 * math.pi)
        lo = float(np.min(self.angles))
        t = np.where(t < lo - 1e-12, t + 2 * math.pi, t)
        re = np.interp(t, self.angles, self.values.real)
        im = np.interp(t, self.angles, self.values.imag)
        out = re + 1j * im
        return out[0].item() if scalar else out


def _pick_node(center: complex, eps: float, obstructions: np.ndarray,
               prev: Optional[complex]) -> complex:
    if prev is not None and abs(center - prev) <= eps / 4:
        return prev
    scales = [0.0, eps / 8, eps / 16]
    for scale in scales:
        if scale == 0.0:
            cands = [center]
        else:
            cands = [center + scale * cmath.exp(1j * k * math.pi / 4)
                     for k in range(8)]
        for w in cands:
            if obstructions.size and float(np.min(np.abs(obstructions - w))) <= 1e-8:
                continue
            return w
    raise ConfigError("cannot place a lift node clear of the critical values; "
                      "the outer map is degenerate near the target")


def liftable_target(g, arc: UnitCircleArc, h, eps: float,
                    n_nodes: int) -> Tuple[LiftedTarget, float]:
    """Replace h on the arc by a lifted target h0 with measured sup defect
    |g(h0) - h| < eps.

    Nodes are refined until consecutive h-values sit within eps/4, each
    node target is nudged off the branch obstructions of g inside an eps/8
    disc, and the branch is continued along the node polyline at tolerance
    eps/8. The defect is measured on a dense angle grid; if it is not
    under eps the node count is doubled and the whole construction retried.
    """
    if n_nodes < 2:
        raise ConfigError("need at least two nodes")
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigError("eps must be finite and positive")
    g = _outer_map(g)
    gf, dg = _as_inverse_pair(g)
    obstructions = branch_obstructions(g)
    h = as_expr(h)

    def h_of(angles):
        return h(np.exp(1j * angles))

    k = n_nodes
    last_err = None
    for _ in range(3):
        angles = np.linspace(arc.alpha, arc.beta, k)
        hv = h_of(angles)
        while k < (n_nodes << 16):
            gaps = np.abs(np.diff(hv))
            if gaps.size == 0 or float(np.max(gaps)) <= eps / 4:
                break
            k = 2 * k - 1
            angles = np.linspace(arc.alpha, arc.beta, k)
            hv = h_of(angles)
        else:
            raise ConfigError("target oscillates too fast for node refinement")

        nodes = []
        prev = None
        for c in hv:
            w = _pick_node(complex(c), eps, obstructions, prev)
            nodes.append(w)
            prev = w
        tol = eps / 8
        start = _branch_start(g, gf, dg, nodes[0], tol)
        res = lift_path(g, nodes, start, tol)
        if not res.status.complete:
            last_err = f"lift stopped ({res.status.kind} at {res.status.index})"
            k = 2 * k - 1
            continue

        # map dense angles to polyline arc length, then into the lift samples
        seg = np.abs(np.diff(np.asarray(nodes, dtype=complex)))
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        total = cum[-1]
        dense = np.union1d(np.linspace(arc.alpha, arc.beta,
                                       max(257, 4 * (k - 1) + 1)), angles)
        pos = np.interp(dense, angles, cum)
        frac = pos / total if total > 0 else np.zeros_like(pos)
        h0_re = np.interp(frac, res.t, res.values.real)
        h0_im = np.interp(frac, res.t, res.values.imag)
        h0 = h0_re + 1j * h0_im
        gh0 = np.exp(h0) if g == "exp" else evaluate(g, h0)
        defect = float(np.max(np.abs(gh0 - h_of(dense))))
        if defect < eps:
            lifted = LiftedTarget(dense, h0, np.asarray(nodes, dtype=complex))
            return lifted, defect
        last_err = f"measured defect {defect:.3e} >= eps"
        k = 2 * k - 1
    raise InvariantViolation(f"lifted target out of tolerance after retries: {last_err}")


def _branch_start(g, gf, dg, w0: complex, tol: float) -> complex:
    if g == "exp":
        return cmath.log(w0)
    shifted = list(g.coeffs)
    shifted[0] = shifted[0] - w0
    roots = polynomial_roots(shifted)
    if roots.size == 0:
        raise ConfigError("outer polynomial is constant; nothing to lift")
    roots = sorted(roots, key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    h, _, ok = _damped_newton(gf, dg, complex(roots[0]), w0, tol)
    return h if ok else complex(roots[0])


# report emitters

def _compact_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_comment(config: dict) -> str:
    return "# config " + _compact_json(config)


def dilate_report_to_csv(report: DilateReport, config: dict) -> str:
    lines = [_config_comment(config), "target_id,arc_id,n,r_n,sup_error"]
    for row in report.rows:
        lines.append(f"{row['target_id']},{row['arc_id']},{row['n']},"
                     f"{row['r']!r},{row['sup_error']!r}")
    return "\n".join(lines) + "\n"


def write_lift_result(result: LiftResult, config: dict, json_out, csv_out) -> None:
    """Stream the lift payload as JSON and CSV, each float formatted once by repr."""
    end, status = result.endpoint, result.status
    head = _compact_json({"config": config, "endpoint": [end.real, end.imag],
                          "max_defect": result.max_defect})
    json_out.write(head[:-1] + ',"samples":[')
    csv_out.write(_config_comment(config) + "\nj,t,h_re,h_im,target_re,target_im\n")
    columns = (result.t, result.values.real, result.values.imag,
               result.targets.real, result.targets.imag)
    for lo in range(0, len(result.t), _LIFT_CHUNK):
        t, h_re, h_im, w_re, w_im = (list(map(repr, col[lo:lo + _LIFT_CHUNK].tolist()))
                                     for col in columns)
        rows = ",".join(f"[{a},{b},{c}]" for a, b, c in zip(t, h_re, h_im))
        if "n" in rows:   # nan or inf, which json spells NaN and Infinity
            rows = rows.replace("nan", "NaN").replace("inf", "Infinity")
        json_out.write(("," if lo else "") + rows)
        csv_out.write("".join(f"{j},{a},{b},{c},{d},{e}\n" for j, (a, b, c, d, e)
                              in enumerate(zip(t, h_re, h_im, w_re, w_im), lo)))
    json_out.write('],"status":' + _compact_json(
        {"kind": status.kind, "index": status.index}) + "}\n")
