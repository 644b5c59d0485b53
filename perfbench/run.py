"""Benchmark of the four abeluniv CLI workflows, end to end and per layer.

    python3 perfbench/run.py --workload membership-d8 --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it uses the package under `src/`.
Each run starts fresh workload processes (worker.py) and drives each one
as a closed loop from a single caller.

--trace 0 starts two set-up-only processes and one measuring process, and
reports the end-to-end metrics: median wall and CPU seconds per op, the
median set-up time of the three processes, and the measuring process's
peak resident memory.

--trace 1 runs the workload twice, at the default BLAS thread count and
in a child with OPENBLAS_NUM_THREADS=1, each time untraced for half of
--seconds and traced for the other half, and reports the
per-layer metrics of both (the second set prefixed `blas1.`), plus
`blas1.same_work`: 1 when the single-thread run built the same stage
degrees, failed at the same stage and took the same lift samples.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--record FILE` also
merges the full result, with its environment block, into FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 175.0
SETUP_PROCESSES = 3

END_TO_END = {"op_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" where ROOT is not the top of a git
    work tree (git would otherwise report an enclosing repository)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def spawn(args, mode: str, scratch: Path, deadline: float, env=None, spans=None) -> dict:
    """Run one worker process to completion and return its result."""
    result = scratch / f"{mode}-{time.monotonic_ns()}.json"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--tmp", str(scratch), "--result", str(result)]
    if spans:
        cmd += ["--spans", str(spans)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker ran past the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0 or not result.exists():
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result.read_text())


def run_untraced(args, scratch: Path, deadline: float) -> dict:
    setups = [spawn(args, "setup", scratch, deadline)["setup_s"]
              for _ in range(SETUP_PROCESSES - 1)]
    res = spawn(args, "run", scratch, deadline)
    setups.append(res["setup_s"])
    u = res["untraced"]
    metrics = {"op_s": u["op_s"], "cpu_s": u["cpu_s"],
               "setup_s": statistics.median(setups), "peak_rss_mb": res["peak_rss_mb"]}
    detail = {"ops": u["ops"], "failed": u["failed"], "problems": u["problems"],
              "setup_samples_s": setups, "work": res.get("work"), "env": res["env"]}
    return {"metrics": metrics, "units": END_TO_END, "attempted": u["ops"],
            "failed": u["failed"], "detail": detail}


def run_traced(args, scratch: Path, deadline: float) -> dict:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    runs = {}
    for label, extra in (("default", {}), ("blas1", {"OPENBLAS_NUM_THREADS": "1"})):
        env = dict(os.environ, **extra)
        runs[label] = spawn(args, "trace", scratch, deadline, env=env,
                            spans=out_dir / f"spans-{args.workload}-{label}.npz")
    d, s = runs["default"], runs["blas1"]
    metrics = dict(d["layers"])
    metrics.update({f"blas1.{k}": v for k, v in s["layers"].items()})
    same = d.get("work") == s.get("work")
    metrics["blas1.same_work"] = 1.0 if same else 0.0
    units = dict(tracer.UNITS)
    units.update({f"blas1.{k}": v for k, v in tracer.UNITS.items()})
    units["blas1.same_work"] = "bool"
    attempted = failed = 0
    for r in runs.values():
        for phase in ("untraced", "traced"):
            attempted += r[phase]["ops"]
            failed += r[phase]["failed"]
    detail = {label: {"work": r.get("work"), "spans": r["spans"], "env": r["env"],
                      "untraced": r["untraced"], "traced": r["traced"]}
              for label, r in runs.items()}
    detail["finding"] = None if same else (
        f"OPENBLAS_NUM_THREADS=1 changes the work: default {d.get('work')} "
        f"vs single-thread {s.get('work')}")
    return {"metrics": metrics, "units": units, "attempted": attempted,
            "failed": failed, "detail": detail}


def environment(args) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity_cpus": affinity,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "commit": git_commit(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def record(path: Path, key: str, full: dict) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[key] = full
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", default=None, help="JSON file to merge the full result into")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "abeluniv" / "cli.py").is_file():
        print(f"no abeluniv sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        res = (run_traced if args.trace else run_untraced)(args, scratch, deadline)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = environment(args)
    print("environment " + json.dumps(env, sort_keys=True))
    work = res["detail"].get("work") or {}
    built = (f", stages_built {len(work['stage_degrees'])}"
             if args.workload in workloads.BUILDS and "stage_degrees" in work else "")
    print(f"workload {args.workload} seed {args.seed}: {res['attempted']} ops, "
          f"fail_share {res['failed'] / res['attempted']:.4g}{built}")
    for name, value in res["metrics"].items():
        print(f"  {name:48s} {value:.6g} {res['units'][name]}")
    print("detail " + json.dumps(res["detail"], sort_keys=True))
    if args.record:
        record(Path(args.record), f"{args.workload}/seed{args.seed}/trace{args.trace}",
               {"environment": env, **res})
    print(json.dumps({
        "correct": res["failed"] == 0, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": res["units"][k]}
                    for k, v in res["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
