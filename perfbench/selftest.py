"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload untraced and traced on a shrunken copy of paper.json
and checks that:
  * every metric named in BENCHMARK.json appears, with its unit and a
    finite value;
  * the traced pass's module self times (cli.self_s included) sum to the
    traced wall time, within the measured tracing overhead (plus 1% of
    the wall time, since the overhead is itself noisy at these sizes);
  * deliberately bad inputs (a config the CLI rejects with exit code 2, a
    model that raises BlowUpError) are counted as failed operations
    instead of crashing the run;
  * in a directory that holds only BENCHMARK.json and the benchmark's own
    files, the benchmark exits nonzero without printing a result.
The statistical output checks are set for the full sizes, so good inputs
are not required to pass them here. Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run
from layers import covered_s

SEED = 1


def _metric_problems(where: str, metrics: dict, expected: dict) -> list[str]:
    problems = []
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"{where}: metric {name} missing")
        elif got["unit"] != unit:
            problems.append(f"{where}: metric {name} has unit {got['unit']}, expected {unit}")
        elif not math.isfinite(got["value"]):
            problems.append(f"{where}: metric {name} = {got['value']}")
    extra = set(metrics) - set(expected)
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def _self_time_problems(where: str, metrics: dict) -> list[str]:
    v = {k: m["value"] for k, m in metrics.items()}
    covered = covered_s(v)
    gap = abs(v["trace.wall_s"] - covered)
    allowed = abs(v["trace.overhead_s"]) + 0.01 * v["trace.wall_s"]
    if gap > allowed:
        return [f"{where}: module self times sum to {covered:.4g} s, traced wall "
                f"{v['trace.wall_s']:.4g} s, gap {gap:.3g} s > {allowed:.3g} s"]
    return []


def _bare_directory_problems() -> list[str]:
    """Run the benchmark where only BENCHMARK.json and perfbench/ exist."""
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, f"{run.HERE.name}/run.py", "--workload", "strong-error",
           "--seed", str(SEED), "--seconds", "1", "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {key: {m["name"]: m["unit"] for m in bench[key]}
                for key in ("end_to_end", "per_layer")}
    problems = []
    for name in run.WORKLOADS + run.PARTS:
        for trace in (False, True):
            where = f"{name} ({'traced' if trace else 'untraced'})"
            result, _ = run.run_workload(name, SEED, 0, trace, size="tiny")
            key = "per_layer" if trace else "end_to_end"
            problems += _metric_problems(where, result["metrics"], expected[key])
            if trace:
                problems += _self_time_problems(where, result["metrics"])
            print(f"{where}: {result['attempted']} ops, {result['failed']} failed")

    for name, trace, marker in (("bad-config", False, "exit code 2"),
                                ("blowup", True, "raised BlowUpError")):
        result, lines = run.run_workload(name, SEED, 0, trace, size="tiny")
        failed_ops = [ln for ln in lines if " FAIL " in ln and marker in ln]
        if result["correct"] or not result["failed"] or not failed_ops:
            problems.append(f"{name}: bad input not counted as a failed operation "
                            f"({result['failed']}/{result['attempted']} failed)")
        if trace and not result["metrics"]["engine.blowups"]["value"]:
            problems.append(f"{name}: engine.blowups is 0")
        print(f"{name}: {result['failed']}/{result['attempted']} ops failed")

    problems += _bare_directory_problems()
    for p in problems:
        print(f"PROBLEM {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
