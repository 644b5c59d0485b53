"""One workload process: set up, then run ops as a closed loop from one
caller, each op a call of `abeluniv.cli.main(argv)` in this process.

Started by run.py, never by hand:

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --mode {setup,run,trace} --spawned-at T --tmp DIR --result FILE

`setup` stops after set-up; `run` times untraced ops for S seconds;
`trace` times untraced ops for S/2 seconds, then traced ops for S/2, and
derives the per-layer metrics from the spans. Ops write under a temporary
directory that is removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if none is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def numpy_env(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_name": blas.get("name"), "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
            "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def quiet(fn, argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return fn(argv)


class Runner:
    """Runs ops in order and checks each one's output."""

    def __init__(self, cli, inputs, tmp: Path, series_path, series):
        self.cli = cli
        self.inputs = inputs
        self.tmp = tmp
        self.series_path = series_path
        self.series = series
        self.digests = {}
        self.outs = {}
        self.next_op = 0

    def _out(self, key: str) -> Path:
        if key not in self.outs:
            d = self.tmp / f"k{len(self.outs)}"
            d.mkdir()
            self.outs[key] = d / "out"
        return self.outs[key]

    def loop(self, seconds: float, tracer=None) -> list:
        """Ops for about `seconds`: at least one block, ending on the block
        edge nearest the end of the window at the pace so far."""
        block = self.inputs.block
        ops = []
        t0 = time.monotonic()
        while True:
            ops.append(self.op(tracer))
            if len(ops) % block:
                continue
            elapsed = time.monotonic() - t0
            if elapsed + 0.5 * block * elapsed / len(ops) > seconds:
                return ops

    def op(self, tracer) -> dict:
        i = self.next_op
        self.next_op += 1
        key, argv = self.inputs.op_argv(i, self.series_path)
        out = self._out(key)
        # the op writes new files: rewriting a truncated file makes ext4
        # start writeback on close, which would put disk I/O in the timing
        for f in self._files(out):
            f.unlink(missing_ok=True)
        argv = argv + ["--out", str(out)]
        call = (lambda a: tracer.run_op(self.cli.main, a)) if tracer else self.cli.main
        rec = {"key": key}
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            code = quiet(call, argv)
        except Exception:  # an op that crashes is a failed op, the run goes on
            rec.update(wall=time.perf_counter() - w0, cpu=time.process_time() - c0,
                       problems=["crashed: " + traceback.format_exc(limit=3)],
                       bytes=0, work=None)
            return rec
        rec["wall"] = time.perf_counter() - w0
        rec["cpu"] = time.process_time() - c0
        rec.update(self.check(key, code, out))
        return rec

    @staticmethod
    def _files(out: Path) -> list:
        return [Path(str(out) + ext) for ext in (".json", ".csv", ".meta.json")]

    def check(self, key: str, code: int, out: Path) -> dict:
        files = self._files(out)
        written = sum(f.stat().st_size for f in files if f.exists())
        try:
            body = files[0].read_bytes()
        except OSError:
            return {"problems": [f"exit code {code}, no payload written"],
                    "bytes": written, "work": None}
        payload = json.loads(body)
        inputs = self.inputs
        if inputs.workload in workloads.BUILDS:
            chk = self.tmp / "check"
            chk_code = quiet(self.cli.main, ["probe", "--series", str(files[0]),
                                             "--check", "--out", str(chk)])
            chk_payload = json.loads(Path(str(chk) + ".json").read_text())
            problems = workloads.check_build(code, payload, chk_code, chk_payload)
            work = workloads.work_summary(inputs.workload, payload)
        elif inputs.workload == "lift-sqrt":
            problems = workloads.check_lift(code, payload, inputs.expected_endpoint)
            work = workloads.work_summary(inputs.workload, payload)
        else:
            problems = workloads.check_scan(code, payload, self.series,
                                            plain=key.startswith("plain-"))
            work = None
        # payloads only: the .meta.json sidecar carries wall-clock time
        h = hashlib.sha256(body)
        if files[1].exists():
            h.update(files[1].read_bytes())
        digest = h.hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            problems.append("payload differs from an earlier op with identical argv")
        return {"problems": problems, "bytes": written, "work": work}


def prepare(cli, inputs, tmp: Path) -> Runner:
    """Set-up after the imports: for probe-scan, build the probed series
    through the CLI."""
    series_path = series = None
    if inputs.setup_argv is not None:
        code = quiet(cli.main, inputs.setup_argv + ["--out", str(tmp / "series")])
        if code != 0:
            raise RuntimeError(f"set-up build exited {code}")
        series_path = str(tmp / "series.json")
        series = json.loads(Path(series_path).read_text())
    return Runner(cli, inputs, tmp, series_path, series)


def summarize(ops: list, block: int) -> dict:
    """Medians over blocks of `block` consecutive ops of the mean per op."""
    def median(key):
        return statistics.median(
            statistics.fmean(o[key] for o in ops[i:i + block])
            for i in range(0, len(ops), block))
    return {"ops": len(ops), "op_s": median("wall"), "cpu_s": median("cpu"),
            "failed": sum(1 for o in ops if o["problems"]),
            "problems": [p for o in ops for p in o["problems"]][:10]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() just before this process was started")
    p.add_argument("--tmp", required=True, help="directory for op outputs")
    p.add_argument("--result", required=True, help="JSON file to write")
    p.add_argument("--spans", default=None, help="where a traced run saves its spans")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy as np
    import abeluniv
    from abeluniv import cli
    if not Path(abeluniv.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"abeluniv imported from {abeluniv.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    inputs = workloads.Inputs(args.workload, args.seed)
    tmp = Path(tempfile.mkdtemp(dir=args.tmp))
    try:
        result = {"env": numpy_env(np)}
        runner = prepare(cli, inputs, tmp)
        if runner.series is not None:
            result["work"] = workloads.work_summary(inputs.workload, runner.series)
        result["setup_s"] = time.monotonic() - args.spawned_at
        if args.mode == "setup":
            return _write(args.result, result)

        window = args.seconds / 2 if args.mode == "trace" else args.seconds
        untraced = runner.loop(window)
        result["untraced"] = summarize(untraced, inputs.block)
        result["work"] = result.get("work") or untraced[0]["work"]
        if args.mode == "trace":
            tr = tracer.Tracer()
            tracer.install(tr)
            try:
                traced = runner.loop(window, tr)
            finally:
                tracer.uninstall()
            result["traced"] = summarize(traced, inputs.block)
            layers = tracer.layer_metrics(tr)
            layers["cli.payload_bytes"] = statistics.mean(o["bytes"] for o in traced)
            layers["trace.overhead_s"] = (result["traced"]["op_s"]
                                          - result["untraced"]["op_s"])
            result["layers"] = layers
            result["spans"] = len(tr.start)
            if args.spans:
                tr.save(args.spans)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return _write(args.result, result)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _write(path: str, result: dict) -> int:
    Path(path).write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
