import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import workloads
from effbath import wda
from run import Runner
from workloads import Op, Workload, check_csv, check_summary

BENCH = Path(__file__).resolve().parent.parent


def test_seed_is_the_only_source_of_inputs(tmp_path):
    a, b, c = (tmp_path / name for name in "abc")
    for path in (a, b, c):
        path.mkdir()
    first, again, other = workloads.figures(5, a), workloads.figures(5, b), workloads.figures(6, c)
    assert [op.name for op in first.ops] == [op.name for op in again.ops]
    assert (a / "wda.cfg").read_text() == (b / "wda.cfg").read_text() != (c / "wda.cfg").read_text()


def test_broken_csv_and_summary_are_reported(tmp_path):
    good = tmp_path / "P_niba.csv"
    good.write_text("t,P\n0,1\n0.5,0.25\n")
    assert check_csv(good) == []
    (tmp_path / "shifted.csv").write_text("t,P\n0,0.5\n0.5,0.25\n")
    (tmp_path / "nan.csv").write_text("t,P\n0,1\n0.5,nan\n")
    assert check_csv(tmp_path / "shifted.csv") and check_csv(tmp_path / "nan.csv")
    (tmp_path / "summary.txt").write_text("weight_plus=0.25\nweight_minus=0.5\n")
    assert check_summary(tmp_path / "summary.txt")


def test_broken_program_output_counts_as_failed(tmp_path, monkeypatch):
    sweep = workloads.sweep(3, tmp_path)
    original = wda.wda_population

    def shifted(t, spectrum):
        return original(t, spectrum) * 0.5

    monkeypatch.setattr(wda, "wda_population", shifted)
    runner = Runner(sweep)
    runner.run_pass(timed=False)
    assert runner.attempted == runner.failed == len(sweep.ops)
    assert all("P(0)" in problem for _, problem in runner.problems)


def test_ops_that_raise_or_stop_repeating_count_as_failed():
    calls = []

    def drifting():
        calls.append(None)
        return len(calls)

    def raising():
        raise ValueError("bad input")

    ops = [Op("drifting", drifting, lambda _: [], str), Op("raising", raising, lambda _: [], str),
           Op("steady", lambda: 1, lambda _: [], str)]
    runner = Runner(Workload("toy", ops, lambda: (0.0, []), ""))
    runner.run_pass(timed=False)
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (6, 3)
    assert ("drifting", "output differs from the warm-up pass") in runner.problems
    assert ("raising", "ValueError: bad input") in runner.problems


def test_sweep_points_stay_inside_the_validated_regime(tmp_path):
    sweep = workloads.sweep(11, tmp_path)
    for op in sweep.ops[:16]:
        assert op.check(op.call()) == []
    err_max, checks = sweep.verify()
    assert err_max == workloads.POLE_RESIDUAL_TOL and checks == [(checks[0][0], None)]


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_a_short_run_prints_the_result_last():
    proc = run_bench(BENCH.parent, "--workload", "sweep", "--seed", "4", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(np.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "figures", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""
