"""Experiment driver.

Four subcommands: geometry self-checks, staged builds, universality probes
of a saved series, and inverse-branch lifts. Reports are deterministic for
a fixed config and seed: payload files carry no clocks (wall time lives in
a .meta.json sidecar), floats print in shortest round-trip form, JSON keys
are sorted.

Exit codes: 0 ok, 1 bad config, 2 a checked invariant failed or a lift
reached a critical point, 3 a build or continuation stopped partway
(partial output still written), 4 a reciprocal certificate was refused, 5
a lift stopped at its minimum step away from any critical point.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import time

import numpy as np

from . import builder, compacta, geometry, polyfit, probe
from .errors import (CertificateFailure, ConfigError, InvariantViolation,
                     ToleranceUnreachable)

IDENTITY_TOL = 1e-11


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ConfigError(f"cannot parse complex number from {text!r}")


def _parse_floats(text: str) -> list:
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise ConfigError(f"cannot parse float list from {text!r}")


def _parse_path(text: str) -> list:
    pts = [_parse_complex(seg) for seg in text.split(":") if seg != ""]
    if len(pts) < 2:
        raise ConfigError("path needs at least two points, 'x,y:x,y'")
    return pts


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except OSError as exc:   # a directory, or a file we may not read
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError:   # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"file {path} does not hold JSON") from None


def _json_spec(spec, default, what, shape, read):
    """read(data) of a --targets or --arcs spec, a file path, inline JSON or (None)
    default; data that read rejects is a ConfigError naming the shape it must have."""
    if spec is None:
        data = default
    elif os.path.exists(spec):
        data = _load_json(spec)
    else:
        try:
            data = json.loads(spec)
        except json.JSONDecodeError:
            raise ConfigError(f"{what} spec {spec!r} is neither a file nor JSON")
    try:
        return read(data)
    except (TypeError, ValueError):   # ConfigError is a ValueError
        raise ConfigError(f"{what} must be {shape}")


def _dump_json(payload: dict) -> str:
    return probe._compact_json(payload) + "\n"


def _open(path: str):
    return open(path, "w", encoding="utf-8", newline="\n")


def _check_out_dir(prefix) -> None:
    """Refuse an --out prefix whose directory is missing before any work runs."""
    folder = os.path.dirname(prefix or "") or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"--out directory {folder} does not exist")


def _write(path: str, text: str) -> None:
    with _open(path) as fh:
        fh.write(text)


def _blas() -> dict:
    """BLAS name and version numpy was built against; {} before numpy 1.26,
    whose show_config has no mode argument."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}


def _write_meta(prefix: str, started: float) -> None:
    blas = _blas()
    meta = {"written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "runtime_seconds": time.time() - started,
            "numpy": np.__version__, "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "blas_name": blas.get("name"), "blas_version": blas.get("version")}
    _write(prefix + ".meta.json", json.dumps(meta, sort_keys=True) + "\n")


# geometry

def cmd_geometry(args) -> int:
    started = time.time()
    a = _parse_complex(args.a)
    phi = geometry.DiscAutomorphism(a, args.theta)
    phi0 = geometry.DiscAutomorphism(a, 0.0)
    rng = np.random.default_rng(args.seed)
    n = args.samples
    if n < 1:
        raise ConfigError("need at least one sample")

    z = np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * math.pi * rng.uniform(0, 1, n))
    z *= 1 - 1e-9
    ident = geometry.modulus_identity_residual(a, z)
    invol = float(np.max(np.abs(
        geometry.apply_automorphism(phi0, geometry.apply_automorphism(phi0, z)) - z)))

    circ = 0.0
    for R in rng.uniform(0.05, 0.95, 100):
        img = geometry.image_circle(a, float(R))
        pts = [geometry.apply_automorphism(phi0, float(R) * np.exp(1j * t))
               for t in (0.3, 2.1, 4.4)]
        fit = geometry.circle_through_three(*pts)
        if isinstance(fit, geometry.CollinearLine):
            circ = math.inf
            break
        circ = max(circ, abs(fit.center - img.center), abs(fit.radius - img.radius))

    mono = 0.0
    for t in rng.uniform(0, 2 * math.pi, 100):
        zeta = complex(math.cos(float(t)), math.sin(float(t)))
        r0 = geometry.radial_monotone_threshold(phi0, zeta)
        grid = np.linspace(r0, 0.999, 400)
        vals = np.abs(geometry.apply_automorphism(phi0, grid * zeta))
        mono = max(mono, float(max(0.0, -np.min(np.diff(vals)))))

    residuals = {"modulus_identity": ident, "involution": invol,
                 "image_circle": circ, "threshold_monotonicity": mono}
    ok = all(v <= IDENTITY_TOL for v in residuals.values())
    config = {"command": "geometry", "a": [a.real, a.imag], "theta": args.theta,
              "samples": n, "seed": args.seed}
    payload = {"config": config, "residuals": residuals, "pass": ok}
    for k, v in sorted(residuals.items()):
        print(f"{k}: {v!r}")
    print("pass" if ok else "FAIL")
    if args.out:
        _write(args.out + ".json", _dump_json(payload))
        _write_meta(args.out, started)
    return 0 if ok else 2


# build

def _resolve_schedules(args, N: int):
    need = max(N + 2, 2)
    rho = builder.RadiiSchedule(_parse_floats(args.rho)) if args.rho \
        else builder.RadiiSchedule.default(need)
    eps = builder.EpsilonSchedule(_parse_floats(args.eps)) if args.eps \
        else builder.EpsilonSchedule.default(need)
    return rho, eps


def _stage_csv(series, config: dict) -> str:
    lines = [probe._config_comment(config), "n,case,degree,sup_error,eps_n"]
    for s in series.stages:
        lines.append(f"{s.n},{s.case},{s.fit.degree},{s.fit.sup_error!r},"
                     f"{s.info['eps']!r}")
    return "\n".join(lines) + "\n"


def cmd_build(args) -> int:
    started = time.time()
    N = args.stages
    if N < 0:
        raise ConfigError("stage count must be >= 0")
    kind = args.kind
    if kind == "membership":
        targets, arcs = [[[2.0, 0.0]], [[0.0, -3.0]]], [[0.30, 0.32], [3.60, 3.62]]
    else:
        targets, arcs = [[[10.0, 0.0]]], [[0.2, 1.2]]
    targets = _json_spec(args.targets, targets, "targets", "a list of [re,im] coefficient lists",
                         lambda data: [polyfit.poly_from_pairs(p) for p in data])
    arcs = _json_spec(args.arcs, arcs, "arcs", "a list of [alpha, beta] pairs",
                      lambda data: [geometry.UnitCircleArc(float(a), float(b)) for a, b in data])
    rho, eps = _resolve_schedules(args, N)
    if N == 0:
        enum = builder.TargetEnumeration(targets, arcs, [], [])
    else:
        enum = builder.TargetEnumeration.cyclic(targets, arcs, N)
    cfg = builder.BuildConfig(rho, eps, enum, density=args.density,
                              max_degree=args.max_degree)
    config = {"command": "build", "kind": kind, "stages": N,
              "targets": [polyfit.poly_to_pairs(p) for p in targets],
              "arcs": [[a.alpha, a.beta] for a in arcs],
              "rho": list(rho.r), "eps": list(eps.eps),
              "density": args.density, "max_degree": args.max_degree,
              "tol_factor": args.tol_factor, "seed": args.seed}

    sweep_info = None
    if kind == "membership":
        w = None
        if args.w is not None:
            w = _parse_complex(args.w)
            config["w"] = [w.real, w.imag]
        series = builder.build_membership_series(cfg, N, tol_factor=args.tol_factor, w=w)
    elif args.w is not None:
        raise ConfigError("--w applies only to membership builds")
    else:
        a = _parse_complex(args.a)
        phi = geometry.DiscAutomorphism(a, args.theta)
        zeta1 = complex(math.cos(args.zeta1), math.sin(args.zeta1))
        zeta2 = complex(math.cos(args.zeta2), math.sin(args.zeta2))
        config.update({"a": [a.real, a.imag], "theta": args.theta,
                       "zeta1_angle": args.zeta1, "zeta2_angle": args.zeta2})
        witness = builder.compute_witness(phi, zeta1, zeta2, rho, N)
        series, budget = builder.build_counterexample_series(
            cfg, phi, witness, N, tol_factor=args.tol_factor)
        value, arg_r = builder.min_modulus_sweep(series, phi, witness)
        sweep_info = {"value": value, "argmax_r": arg_r, "budget": budget}

    payload = builder.series_to_dict(series)
    payload["config"] = config
    if sweep_info is not None:
        payload["sweep"] = sweep_info
    _write(args.out + ".json", _dump_json(payload))
    _write(args.out + ".csv", _stage_csv(series, config))
    _write_meta(args.out, started)

    for s in series.stages:
        print(f"stage {s.n}: case {s.case} degree {s.fit.degree} "
              f"sup_error {s.fit.sup_error:.3e} (eps {s.info['eps']:.3e})")
    if sweep_info is not None:
        print(f"budget {sweep_info['budget']!r} sweep {sweep_info['value']!r} "
              f"at r={sweep_info['argmax_r']!r}")
    if series.failure is not None:
        f = series.failure
        print(f"FAILED at stage {f.n}: {f.reason}")
        return 3
    print(f"built {len(series.stages)} stages -> {args.out}.json")
    return 0


# probe

def _compose_for_probe(series, args, grid):
    expr = probe.as_expr(series.total())
    if args.pre_automorphism:
        vals = _parse_floats(args.pre_automorphism)
        if len(vals) not in (2, 3):
            raise ConfigError("--pre-automorphism wants 'a_re,a_im[,theta]'")
        phi = geometry.DiscAutomorphism(complex(vals[0], vals[1]),
                                        vals[2] if len(vals) == 3 else 0.0)
        expr = probe.compose_right(expr, phi)
    left = [name for name, flag in (("exp", args.exp),
                                    ("reciprocal", args.reciprocal),
                                    ("poly", args.poly is not None)) if flag]
    if len(left) > 1:
        raise ConfigError("pick at most one left composition flag")
    if args.exp:
        expr = probe.compose_left("exp", expr)
    elif args.reciprocal:
        expr = probe.compose_left("reciprocal", expr, probe_grid=grid)
    elif args.poly is not None:
        try:
            outer = polyfit.poly_from_pairs(json.loads(args.poly))
        except (json.JSONDecodeError, TypeError, ValueError):
            raise ConfigError("--poly wants JSON coefficient pairs [[re,im],...]")
        expr = probe.compose_left(outer, expr)
    return expr


def cmd_probe(args) -> int:
    started = time.time()
    data = _load_json(args.series)
    try:
        series = builder.series_from_dict(data)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        # ConfigError is a ValueError: a field with a bad value lands here too
        raise ConfigError(f"file {args.series} does not hold a series: "
                          f"{type(exc).__name__} {exc}") from None
    if not args.scan and not args.sweep and not args.check:
        raise ConfigError("nothing to do: pass --scan, --sweep, or --check")
    built = len(series.stages)
    cfg = series.config
    config = {"command": "probe", "series": args.series, "scan": args.scan,
              "sweep": args.sweep, "check": args.check, "density": args.density,
              "exp": args.exp, "reciprocal": args.reciprocal, "poly": args.poly,
              "pre_automorphism": args.pre_automorphism, "seed": args.seed}
    payload = {"config": config}
    code = 0

    if args.scan:
        if built < 1:
            raise ConfigError("series has no built stages to scan")
        if args.density < 2:
            raise ConfigError("density must be >= 2")
        zetas = [arc.sample(args.density) for arc in cfg.enumeration.arcs]
        grid = np.concatenate([cfg.rho.r[n] * z for z in zetas for n in range(1, built + 1)])
        expr = _compose_for_probe(series, args, grid)
        report = probe.universality_scan(expr, list(cfg.enumeration.targets),
                                         list(cfg.enumeration.arcs), cfg.rho,
                                         built, args.density)
        payload["scan"] = {"rows": report.rows, "best": report.best,
                           "function": expr.label}
        _write(args.out + ".csv", probe.dilate_report_to_csv(report, config))

    if args.check:
        rows = builder.telescoping_errors(series)
        bad = [r for r in rows if r["sup"] > r["bound"] + 1e-12]
        payload["telescoping"] = {"rows": rows, "violations": len(bad)}
        if bad:
            code = 2

    if args.sweep:
        if "witness" not in series.extras or "a" not in series.extras:
            raise ConfigError("--sweep needs a counterexample series file")
        phi = geometry.DiscAutomorphism(series.extras["a"], series.extras["theta"])
        witness = series.extras["witness"]
        value, arg_r = builder.min_modulus_sweep(series, phi, witness)
        budget = series.extras.get("budget")
        payload["sweep"] = {"value": value, "argmax_r": arg_r, "budget": budget}
        if budget is not None and value > budget:
            code = 2

    _write(args.out + ".json", _dump_json(payload))
    _write_meta(args.out, started)
    if "scan" in payload:
        for b in payload["scan"]["best"]:
            print(f"target {b['target_id']} arc {b['arc_id']}: "
                  f"best n={b['best_n']} error {b['best_error']:.3e}")
    if "telescoping" in payload:
        print(f"telescoping violations: {payload['telescoping']['violations']}")
    if "sweep" in payload:
        s = payload["sweep"]
        print(f"sweep {s['value']!r} at r={s['argmax_r']!r} budget {s['budget']!r}")
    return code


# lift

def _parse_outer(spec: str):
    name = spec.lower()
    if name == "exp":
        return "exp"
    if name == "square":
        return polyfit.ComplexPolynomial([0.0, 0.0, 1.0])
    if spec.startswith("poly:"):
        try:
            return polyfit.poly_from_pairs(json.loads(spec[5:]))
        except (json.JSONDecodeError, TypeError, ValueError):
            raise ConfigError("--g poly:... wants JSON coefficient pairs")
    raise ConfigError(f"unknown outer map {spec!r} (use square, exp, or poly:...)")


def cmd_lift(args) -> int:
    started = time.time()
    g = _parse_outer(args.g)
    config = {"command": "lift", "g": args.g, "seed": args.seed}
    if args.liftable:
        if args.arc is None or args.eps is None:
            raise ConfigError("--liftable needs --arc and --eps")
        ends = _parse_floats(args.arc)
        if len(ends) != 2:
            raise ConfigError("--arc wants 'alpha,beta'")
        lo, hi = ends
        arc = geometry.UnitCircleArc(lo, hi)
        target = _parse_complex(args.target) if args.target else 0j
        config.update({"mode": "liftable", "arc": [lo, hi], "eps": args.eps,
                       "nodes": args.nodes,
                       "target": [target.real, target.imag]})
        lifted, defect = probe.liftable_target(g, arc, target, args.eps, args.nodes)
        payload = {"config": config, "defect": defect,
                   "nodes": [[w.real, w.imag] for w in lifted.node_targets],
                   "samples": list(zip(lifted.angles.tolist(), lifted.values.real.tolist(),
                                       lifted.values.imag.tolist()))}
        if args.out:
            _write(args.out + ".json", _dump_json(payload))
            _write_meta(args.out, started)
        print(f"defect {defect!r} (eps {args.eps!r}) over {len(lifted.angles)} samples")
        return 0

    if args.path is None or args.start is None:
        raise ConfigError("lift needs --path and --start (or --liftable)")
    path = _parse_path(args.path)
    start = _parse_complex(args.start)
    config.update({"mode": "path",
                   "path": [[p.real, p.imag] for p in path],
                   "start": [start.real, start.imag], "tol": args.tol})
    result = probe.lift_path(g, path, start, args.tol)
    if args.out:
        with _open(args.out + ".json") as json_out, _open(args.out + ".csv") as csv_out:
            probe.write_lift_result(result, config, json_out, csv_out)
        _write_meta(args.out, started)
    end = result.endpoint
    print(f"status {result.status.kind} endpoint {end.real!r},{end.imag!r} "
          f"max_defect {result.max_defect!r}")
    return {"critical-point": 2, "diverged": 3, "step-floor": 5}.get(result.status.kind, 0)


# wiring

def _build_parser() -> _Parser:
    p = _Parser(prog="abeluniv", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geometry", help="disc geometry residual suites")
    g.add_argument("--a", default="0.5", help="automorphism parameter, 're[,im]'")
    g.add_argument("--theta", type=float, default=0.0)
    g.add_argument("--samples", type=int, default=10000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None, help="report path prefix")
    g.set_defaults(func=cmd_geometry)

    b = sub.add_parser("build", help="run a staged series build")
    b.add_argument("kind", choices=["membership", "counterexample"])
    b.add_argument("--targets", default=None, help="JSON file or inline JSON")
    b.add_argument("--arcs", default=None, help="JSON file or inline JSON")
    b.add_argument("--stages", type=int, default=4)
    b.add_argument("--rho", default=None, help="comma-separated radii")
    b.add_argument("--eps", default=None, help="comma-separated tolerances")
    b.add_argument("--w", default=None, help="shifted dilation center 're,im'")
    b.add_argument("--a", default="0.5", help="counterexample automorphism parameter")
    b.add_argument("--theta", type=float, default=0.0)
    b.add_argument("--zeta1", type=float, default=0.0, help="witness angle (radians)")
    b.add_argument("--zeta2", type=float, default=math.pi / 2)
    b.add_argument("--tol-factor", type=float, default=0.5)
    b.add_argument("--density", type=int, default=512)
    b.add_argument("--max-degree", type=int, default=512)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", default="build", help="output path prefix")
    b.set_defaults(func=cmd_build)

    r = sub.add_parser("probe", help="scan or sweep a saved series")
    r.add_argument("--series", required=True)
    r.add_argument("--scan", action="store_true")
    r.add_argument("--sweep", action="store_true")
    r.add_argument("--check", action="store_true",
                   help="verify the telescoped arc bounds")
    r.add_argument("--exp", action="store_true")
    r.add_argument("--reciprocal", action="store_true")
    r.add_argument("--poly", default=None, help="outer polynomial coeff pairs")
    r.add_argument("--pre-automorphism", default=None, help="'a_re,a_im[,theta]'")
    r.add_argument("--density", type=int, default=256)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", default="probe", help="output path prefix")
    r.set_defaults(func=cmd_probe)

    l = sub.add_parser("lift", help="continue an inverse branch along a path")
    l.add_argument("--g", required=True, help="square, exp, or poly:[[re,im],...]")
    l.add_argument("--path", default=None, help="'x,y:x,y:...'")
    l.add_argument("--start", default=None, help="'x,y'")
    l.add_argument("--tol", type=float, default=1e-10)
    l.add_argument("--liftable", action="store_true",
                   help="build a lifted target on an arc instead")
    l.add_argument("--arc", default=None, help="'alpha,beta'")
    l.add_argument("--target", default=None, help="constant target 're,im'")
    l.add_argument("--eps", type=float, default=None)
    l.add_argument("--nodes", type=int, default=16)
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("--out", default=None, help="output path prefix")
    l.set_defaults(func=cmd_lift)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_out_dir(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CertificateFailure as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 4
    except ToleranceUnreachable as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
