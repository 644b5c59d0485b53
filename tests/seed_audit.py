"""Seed audit of the builds: what each benchmark seed makes the fit core do.

For seeds 0-30 (or --seeds) this runs, in process through `abeluniv.cli.main`,
the `membership-d8` and `counterexample-d6` builds, the `probe-scan` setup
build and the shifted build (`--w 0.3,0`), each rotated by the seed's angle
from `perfbench/workloads.py`, and prints per build and seed the exit code,
the stage degrees, the failure stage, the number of reweighting rounds
(`_Pass.reweighted` calls), the widest spread of a round's weight scales
(largest over smallest, 1 where no round runs) and the head of the payload's SHA-256, so two
checkouts' payloads can be compared byte for byte. The shifted build
rotates its arc [0.2, 0.4] and its center 0.3 together, a symmetry of the
problem, like the workloads' rotations.

    python tests/seed_audit.py                       # this checkout's src/
    python tests/seed_audit.py --src OTHER/src --json out.json
    OPENBLAS_NUM_THREADS=1 python tests/seed_audit.py --seeds 0-3

Run it once per BLAS thread count: the count is read when the BLAS library
loads. It is not a test (pytest does not collect it) and writes its build
outputs to a temporary directory that it removes.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIFTED_ARC = [0.2, 0.4]


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _builds(workloads, seed: int) -> dict:
    """name -> build argv (without --out) at this seed."""
    argv = {w: workloads.Inputs(w, seed).op_argv(0, None)[1]
            for w in ("membership-d8", "counterexample-d6")}
    argv["probe-scan-setup"] = workloads.Inputs("probe-scan", seed).setup_argv
    theta = workloads.rotation(seed, [SHIFTED_ARC])
    (arc,) = workloads.rotate_arcs([SHIFTED_ARC], theta)
    w = 0.3 * cmath.exp(1j * theta)
    argv["shifted"] = ["build", "membership", "--targets", "[[[0.2,0.2]]]",
                       "--arcs", json.dumps([arc]), "--stages", "2",
                       f"--w={w.real!r},{w.imag!r}"]
    return argv


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-30", help="'lo-hi' or one seed")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="the src/ directory whose abeluniv is audited")
    ap.add_argument("--json", default=None, help="also write the results here")
    args = ap.parse_args(argv)
    sys.path[:0] = [args.src, ROOT]
    from abeluniv import cli, polyfit
    from perfbench import workloads

    rounds = []   # the weight spread of every round
    reweighted = polyfit._Pass.reweighted

    def counted(self, a, degree, tol=None):
        rounds.append(float(a.max() / a.min()))
        return reweighted(self, a, degree, tol)

    polyfit._Pass.reweighted = counted
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in _seeds(args.seeds):
            for name, build in _builds(workloads, seed).items():
                rounds.clear()
                out = os.path.join(tmp, name)
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(build + ["--out", out])
                with open(out + ".json", "rb") as fh:
                    raw = fh.read()
                payload = json.loads(raw)
                row = {"exit": code,
                       "degrees": [s["fit"]["degree"] for s in payload["stages"]],
                       "failure_stage": (payload.get("failure") or {}).get("n"),
                       "rounds": len(rounds), "spread": max(rounds, default=1.0),
                       "sha256": hashlib.sha256(raw).hexdigest()[:16]}
                results.setdefault(name, {})[str(seed)] = row
                print(f"{name} seed {seed} exit {code} degrees {row['degrees']} "
                      f"failure {row['failure_stage']} rounds {row['rounds']} "
                      f"spread {row['spread']:.4g} sha256 {row['sha256']}", flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                       "src": args.src, "results": results}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
