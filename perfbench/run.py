#!/usr/bin/env python3
"""Benchmark of the effbath library on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports effbath from the ``src`` directory of the checkout it sits
in, and exits with code 2 when that is missing.  The load is a closed
loop: one client in one process runs one op at a time.  A run times
effbath's set-up in fresh interpreters, runs one checked warm-up pass
over the workload's op list, repeats the pass for ``--seconds``, and then
verifies the outputs against an untimed reference.  Before each pass it
times the fixed kernel in ``calibration.py``, which scales ``wall_s`` to
the reference machine's speed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced passes and reports per-layer metrics from spans around
each call into an effbath module; the spans are written to
``.perfbench_out/`` at exit.  Every line but the last is a readable
report with units, sample counts and the machine; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  BENCHMARK.json lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3
MIN_OPS = 20  # timed ops needed for a tail with 10 samples beyond the median
CHILD_TIMEOUT = 60.0
VERIFY_FAILED_ERR = 1.0  # err_max when the outputs cannot be compared with the reference

# a fresh interpreter: import effbath, then its first build_params/derived_scales
_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import effbath
effbath.derived_scales(effbath.build_params({"Omega": 1.0, "alpha": 0.02, "g": 0.18, "beta": 10.0,
    "Delta": 1.0, "epsilon": 0.0, "gamma_over_2piOmega": 0.0154}))
print(time.perf_counter() - start)
"""
_IMPORT_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import effbath"


def _child(args: list) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args, str(SRC)], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child interpreter failed: {proc.stderr.strip()[-500:]}")
    return proc


def setup_times() -> list:
    return [float(_child(["-c", _SETUP_CODE]).stdout) for _ in range(SETUP_LAUNCHES)]


def import_times() -> dict:
    """Median cumulative ``-X importtime`` seconds of effbath and of scipy.optimize."""
    found = {"effbath": [], "scipy.optimize": []}
    for _ in range(IMPORTTIME_LAUNCHES):
        for line in _child(["-X", "importtime", "-c", _IMPORT_CODE]).stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {name: statistics.median(values) if values else 0.0 for name, values in found.items()}


def machine_info() -> dict:
    import numpy as np
    import scipy

    from effbath import accel

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        backend = accel.backend_name()
    except (RuntimeError, ValueError) as exc:
        backend = f"error: {exc}"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": blas,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "backend": backend,
        "effbath_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("EFFBATH_")},
    }


class Runner:
    """Runs passes over a workload's ops and keeps timings and failed checks."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []  # (op name, problem)
        self.op_times = [[] for _ in workload.ops]  # timed samples of each op
        self.kernel_times = []  # reference-kernel timings, one before each pass
        self.walls = {False: [], True: []}  # timed pass walls, by traced
        self.passes = 0
        self._next_op = 0

    def run_pass(self, timed: bool = True, traced: bool = False) -> None:
        """One pass over the ops; the first pass is checked, later ones must repeat its outputs."""
        results = []
        self.kernel_times.append(calibration.kernel_seconds())
        if traced:
            self.tracer.install()
        try:
            start = perf_counter()
            for op in self.workload.ops:
                if traced:
                    self.tracer.op = self._next_op
                self._next_op += 1
                begin = perf_counter()
                try:
                    result, error = op.call(), None
                except Exception as exc:  # a failing op is counted and the run goes on
                    result, error = None, f"{type(exc).__name__}: {exc}"
                results.append((op, perf_counter() - begin, result, error))
            wall = perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
        first = not self.passes
        self.passes += 1
        for index, (op, elapsed, result, error) in enumerate(results):
            op.last = result
            problems = [error] if error else []
            if not error:
                problems += op.check(result) if first else []
                digest = op.digest(result)
                if first:
                    self.digests[index] = digest
                elif digest != self.digests.get(index):
                    problems.append("output differs from the warm-up pass")
            self.record(op.name, problems)
            if timed:
                self.op_times[index].append(elapsed)
        if timed:
            self.walls[traced].append(wall)

    def record(self, name: str, problems: list) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [(name, problem) for problem in problems]

    def run(self, seconds: float, alternate: bool) -> None:
        """Warm up, then pass until ``seconds`` are spent (alternating plain/traced if asked)."""
        self.run_pass(timed=False)
        deadline = perf_counter() + seconds
        traced = False
        while True:
            self.run_pass(traced=traced)
            traced = alternate and not traced
            if perf_counter() >= deadline and sum(map(len, self.op_times)) >= MIN_OPS and not traced:
                return


def end_to_end(runner, setup, err_max) -> tuple:
    """(metrics for the result line, rows for the report).

    On a shared machine noise only adds time, and its slow spells can
    outlast a run, so even medians wander between runs by a fifth or more.
    ``wall_s`` is one pass over the op list with every op at its fastest,
    scaled to the reference machine speed by the calibration kernel's
    fastest time in the same run.  The raw times, the per-op median and
    the tail follow the noise by more than any bound allows, so they are
    reported but are not part of the result.
    """
    from stats import tail

    walls = runner.walls[False]
    ops = [t for samples in runner.op_times for t in samples]
    failed_frac = runner.failed / runner.attempted
    pct, value = tail(ops)
    fastest = sum(map(min, runner.op_times))
    kernel = min(runner.kernel_times)
    rows = [
        ("setup_s", statistics.median(setup), "s", len(setup), "median of fresh-interpreter launches"),
        ("wall_s", fastest * calibration.REFERENCE_S / kernel, "s", len(walls),
         "each op's fastest, summed, at reference machine speed"),
        ("err_max", err_max, "1", 1, runner.workload.err_note),
        ("ok_frac", 1.0 - failed_frac, "frac", runner.attempted, "ops and checks that passed"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1,
         "peak resident memory of this process"),
    ]
    report = rows + [
        ("wall_fastest_s", fastest, "s", len(walls), "each op's fastest, summed, unscaled (report only)"),
        ("kernel_s", kernel, "s", len(runner.kernel_times),
         f"fastest calibration kernel, {calibration.REFERENCE_S:g} s on the reference machine (report only)"),
        ("wall_p50_s", statistics.median(walls), "s", len(walls), "median pass (report only)"),
        ("op_p50_s", statistics.median(ops), "s", len(ops), "median op (report only)"),
        ("op_tail_s", value, "s", len(ops), f"p{pct:.4g}, 10 ops beyond it (report only)"),
        ("failed_frac", failed_frac, "frac", runner.attempted, "ops and checks that failed"),
    ]
    return rows, report


def per_layer(runner, tracer, imports) -> list:
    from tracing import layer_metrics

    passes = len(runner.walls[True])
    metrics = layer_metrics(tracer.spans, tracer.counts, passes, sum(runner.walls[True]))
    rows = [(name, value, unit, passes, "per traced pass") for name, (value, unit) in sorted(metrics.items())]
    for name in ("effbath", "scipy.optimize"):
        rows.append((f"import.{name.replace('.', '_')}_s", imports[name], "s", IMPORTTIME_LAUNCHES,
                     "median cumulative -X importtime"))
    overhead = statistics.median(runner.walls[True]) / statistics.median(runner.walls[False]) - 1.0
    rows.append(("trace.overhead_frac", overhead, "frac", passes, "traced against plain median pass wall"))
    return rows


def run(args, outdir: Path) -> int:
    import workloads
    from tracing import Tracer

    info = machine_info()
    workload = workloads.WORKLOADS[args.workload](args.seed, outdir)
    tracer = Tracer() if args.trace else None
    imports = import_times() if args.trace else None
    setup = None if args.trace else setup_times()
    runner = Runner(workload, tracer)
    runner.run(args.seconds, alternate=bool(args.trace))
    try:
        err_max, checks = workload.verify()
    except Exception as exc:  # outputs too broken to compare count as one failed check
        err_max, checks = VERIFY_FAILED_ERR, [("verify", f"{type(exc).__name__}: {exc}")]
    for name, problem in checks:
        runner.record(name, [problem] if problem else [])

    if args.trace:
        rows = report = per_layer(runner, tracer, imports)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
    else:
        rows, report = end_to_end(runner, setup, err_max)

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# machine " + json.dumps(info, sort_keys=True))
    if args.trace:
        print(f"# spans written to {spans_path}")
    for name, value, unit, n, note in report:
        print(f"{name:<30} {value:>14.6g} {unit:<6} n={n:<7} {note}")
    for name, problem in runner.problems[:20]:
        print(f"# FAILED {name}: {problem}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _, _ in rows},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("figures", "long_horizon", "oracle", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "effbath" / "__init__.py").is_file():
        print(f"perfbench: no effbath sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import effbath

    if Path(effbath.__file__).resolve().parent != (SRC / "effbath").resolve():
        print(f"perfbench: imported effbath from {effbath.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    outdir = OUT / f"{args.workload}-{os.getpid()}"
    outdir.mkdir(parents=True)
    try:
        return run(args, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
