#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
each metric's median and its quartile spread (third minus first
quartile, over the median) against the bound in BENCHMARK.json.  A
steady benchmark keeps every spread but that of setup_s below a third of
its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values = {}
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed} ({time.perf_counter() - start:.1f} s): correct={result['correct']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    steady = True
    print(f"{'metric':<14} {'median':>12} {'spread':>8} {'bound':>8}  spread/bound")
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        spread = quartile_spread(series) if len(series) > 1 else 0.0
        ratio = spread / metric["bound"]
        ok = metric["name"] == "setup_s" or ratio < 1.0 / 3.0
        steady &= ok
        print(f"{metric['name']:<14} {statistics.median(series):>12.6g} {spread:>8.4f} "
              f"{metric['bound']:>8.4g}  {ratio:.3f}{'' if ok else '  <- above a third of the bound'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
