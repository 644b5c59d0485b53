"""Seeded inputs and output checks for the four benchmark workloads.

Seed 0 is exactly the acceptance configuration. Any other seed rotates
the configuration by one seeded angle theta: every arc (kept inside
[0, 2*pi), never across it), and for the counterexample also `a` and both
witness angles; the lift path turns by theta and its start by theta/2.
Each rotation is a symmetry of the problem, so a seed changes the work
only through rounding; the stage degrees and lift sample counts each run
records make a seed that does change it visible.

The checks read only CLI exit codes and payloads, so they survive changes
to the in-memory series format. Each returns a list of problems; an empty
list is a pass.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi
WORKLOADS = ("membership-d8", "counterexample-d6", "lift-sqrt", "probe-scan")
BUILDS = ("membership-d8", "counterexample-d6")

MEMBERSHIP_ARCS = [[0.30, 0.32], [3.60, 3.62]]
COUNTER_ARCS = [[3.1316, 3.1516], [0.3, 0.32]]
ZETA_ANGLES = (0.0, 1.5708)
LIFT_TOL = 1e-10
ENDPOINT_TOL = 1e-8

# probe-scan: each op is one (variant, density) pair; every block of ten ops
# holds each pair once, in a seeded order, so every seed runs the same mix.
# The pairs differ in cost, so a median over single ops would sit on the
# edge between two of them: probe-scan times whole blocks instead.
VARIANTS = {
    "plain": [],
    "exp": ["--exp"],
    "reciprocal": ["--reciprocal"],
    "pre-automorphism": ["--pre-automorphism", "0.3,0.1"],
    "poly": ["--poly", "[[0,0],[1,0],[0.5,0]]"],
}
SCAN_DENSITIES = (256, 1024)


def _fmt(x: float) -> str:
    return repr(float(x))


def _arcs_json(arcs) -> str:
    return json.dumps(arcs, separators=(",", ":"))


def rotation(seed: int, arcs) -> float:
    """0 for seed 0; otherwise the first seeded angle in [0, 2*pi) that
    keeps every rotated arc from crossing 2*pi."""
    if seed == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    while True:
        theta = float(rng.uniform(0.0, TWO_PI))
        if all((a + theta) % TWO_PI + (b - a) < TWO_PI for a, b in arcs):
            return theta


def rotate_arcs(arcs, theta: float):
    if theta == 0.0:
        return [list(a) for a in arcs]
    return [[(a + theta) % TWO_PI, (a + theta) % TWO_PI + (b - a)] for a, b in arcs]


class Inputs:
    """The generated argv of one workload at one seed.

    `setup_argv` (probe-scan only) builds the probed series; `op_argv(i)`
    gives op i's argv, to which the runner appends `--out`.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        arcs = COUNTER_ARCS if workload == "counterexample-d6" else MEMBERSHIP_ARCS
        self.theta = rotation(seed, [[0.0, 0.0]] if workload == "lift-sqrt" else arcs)
        self.arcs = rotate_arcs(arcs, self.theta)
        self.setup_argv = None
        self.block = 1
        self._order = []
        if workload == "probe-scan":
            self.setup_argv = [
                "build", "membership", "--targets", "[[[0.2,0]]]",
                "--arcs", _arcs_json(self.arcs), "--stages", "3",
                "--density", "512", "--max-degree", "512"]
            self._rng = np.random.default_rng(seed)
            self.block = len(VARIANTS) * len(SCAN_DENSITIES)
        self.expected_endpoint = 2.0 * cmath.exp(0.5j * self.theta)

    def _base_argv(self):
        th = self.theta
        if self.workload == "membership-d8":
            return ["build", "membership", "--targets", "[[[0.2,0]],[[0,-0.3]]]",
                    "--arcs", _arcs_json(self.arcs), "--stages", "8",
                    "--density", "512", "--max-degree", "512"]
        if self.workload == "counterexample-d6":
            if th == 0.0:
                a, z1, z2 = "0.5", "0", "1.5708"
            else:
                av = 0.5 * cmath.exp(1j * th)
                a = f"{_fmt(av.real)},{_fmt(av.imag)}"
                z1, z2 = (_fmt((z + th) % TWO_PI) for z in ZETA_ANGLES)
            return ["build", "counterexample", f"--a={a}", "--zeta1", z1,
                    "--zeta2", z2, "--stages", "6", "--targets", "[[[10,0]]]",
                    "--arcs", _arcs_json(self.arcs),
                    "--density", "512", "--max-degree", "512"]
        if th == 0.0:
            path, start = "1,0:4,0", "1,0"
        else:
            p0, p1, s = cmath.exp(1j * th), 4.0 * cmath.exp(1j * th), cmath.exp(0.5j * th)
            path = f"{_fmt(p0.real)},{_fmt(p0.imag)}:{_fmt(p1.real)},{_fmt(p1.imag)}"
            start = f"{_fmt(s.real)},{_fmt(s.imag)}"
        # the = form keeps argparse from reading a leading minus as a flag
        return ["lift", "--g", "square", f"--path={path}", f"--start={start}",
                "--tol", repr(LIFT_TOL)]

    def variant(self, i: int):
        """(variant name, density) of probe-scan op i."""
        pairs = [(v, d) for v in VARIANTS for d in SCAN_DENSITIES]
        while len(self._order) <= i:
            self._order.extend(pairs[k] for k in self._rng.permutation(len(pairs)))
        return self._order[i]

    def op_argv(self, i: int, series_path: str):
        """(key, argv without --out): ops with one key have identical argv."""
        if self.workload != "probe-scan":
            return "op", self._base_argv()
        name, density = self.variant(i)
        return f"{name}-{density}", (
            ["probe", "--series", series_path, "--scan", "--check"]
            + VARIANTS[name] + ["--density", str(density)])


# output checks

def check_build(code: int, payload: dict, check_code: int, check_payload: dict
                ) -> list:
    """A build op: exit 0 or 3, every recorded stage within tol_factor*eps_n,
    `probe --check` on the written series clean, and for counterexamples
    the recorded sweep within its budget."""
    problems = []
    if code not in (0, 3):
        problems.append(f"build exit code {code}")
    tol_factor = payload["config"]["tol_factor"]
    eps = payload["eps"]
    for st in payload["stages"]:
        sup, bound = st["fit"]["sup_error"], tol_factor * eps[st["n"]]
        if not sup <= bound:
            problems.append(f"stage {st['n']} sup_error {sup!r} > {bound!r}")
    if check_code != 0:
        problems.append(f"probe --check exit code {check_code}")
    violations = check_payload.get("telescoping", {}).get("violations")
    if violations != 0:
        problems.append(f"probe --check reports {violations} violations")
    if payload["kind"] == "counterexample":
        sweep = payload.get("sweep") or {}
        if not sweep.get("value", math.inf) <= sweep.get("budget", -math.inf):
            problems.append(f"sweep {sweep.get('value')!r} over budget "
                            f"{sweep.get('budget')!r}")
    return problems


def check_lift(code: int, payload: dict, expected_endpoint: complex) -> list:
    problems = []
    if code != 0:
        problems.append(f"lift exit code {code}")
    if payload["status"]["kind"] != "complete":
        problems.append(f"status {payload['status']['kind']}")
    end = complex(*payload["endpoint"])
    if not abs(end - expected_endpoint) <= ENDPOINT_TOL:
        problems.append(f"endpoint {end!r} is {abs(end - expected_endpoint):.3e} "
                        f"from {expected_endpoint!r}")
    tol = payload["config"]["tol"]
    if not payload["max_defect"] <= tol:
        problems.append(f"max_defect {payload['max_defect']!r} > tol {tol!r}")
    return problems


def check_scan(code: int, payload: dict, series: dict, plain: bool) -> list:
    """A probe-scan op: one row per (target, arc, stage), all finite, `best`
    the argmin of the rows; on plain ops each stage's own (target, arc) row
    within the telescoped bound of the same payload."""
    problems = []
    if code != 0:
        problems.append(f"probe exit code {code}")
    rows = payload["scan"]["rows"]
    built = len(series["stages"])
    want = len(series["targets"]) * len(series["arcs"]) * built
    if len(rows) != want:
        problems.append(f"{len(rows)} scan rows, expected {want}")
    if not all(math.isfinite(r["sup_error"]) for r in rows):
        problems.append("non-finite scan value")
    best = {}
    for r in rows:
        key = (r["target_id"], r["arc_id"])
        if key not in best or r["sup_error"] < best[key][1]:
            best[key] = (r["n"], r["sup_error"])
    got = {(b["target_id"], b["arc_id"]): (b["best_n"], b["best_error"])
           for b in payload["scan"]["best"]}
    if got != best:
        problems.append(f"best {got} is not the argmin of the rows {best}")
    tele = payload.get("telescoping", {})
    if tele.get("violations") != 0:
        problems.append(f"telescoping violations {tele.get('violations')}")
    if plain:
        by_key = {(r["target_id"], r["arc_id"], r["n"]): r["sup_error"] for r in rows}
        for t in tele.get("rows", []):
            sup = by_key.get((t["alpha"], t["beta"], t["n"]))
            if sup is None or not sup <= t["bound"]:
                problems.append(f"stage {t['n']} scan row {sup!r} above its "
                                f"telescoped bound {t['bound']!r}")
    return problems


def work_summary(workload: str, payload: dict) -> dict:
    """What a seed makes the program do: stage degrees and failure stage of a
    build, sample count of a lift."""
    if workload == "lift-sqrt":
        return {"lift_samples": len(payload["samples"])}
    failure = payload.get("failure")
    return {"stage_degrees": [s["fit"]["degree"] for s in payload["stages"]],
            "failure_stage": failure["n"] if failure else None}
