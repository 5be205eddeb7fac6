"""varexp benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is paper-cli or scheme-sweep (the benchmark's workloads), one of
paper-cli's parts strong-error, dense-paths and smile, or `all` for both
benchmark workloads in both modes. Run it from the root of a checkout; it
imports varexp from that checkout's src/ and writes only under
.perfbench_work/ there.

Each pass runs in a fresh worker process (worker.py), one at a time.
Passes repeat until about S seconds have gone by (the last pass ends at
most half a pass past S), with at least two passes (one untraced and one
traced with --trace 1); all passes of a run use the same seed, so their
data digests must match (the determinism contract).

--trace 0 reports the end-to-end metrics (medians over passes):
wall_s, path_steps_per_s, peak_rss_mb and setup_s. --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of the
traced passes, plus trace.overhead_s, the traced wall time minus the
untraced one. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The process exits 2,
without that line, when the benchmark itself cannot run (for example
when the checkout has no src/varexp).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("paper-cli", "scheme-sweep")  # the benchmark's, as in BENCHMARK.json
PARTS = ("strong-error", "dense-paths", "smile")  # paper-cli's parts, runnable alone

# name -> unit
END_TO_END = {"wall_s": "s", "path_steps_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

PASS_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from layers import PER_LAYER, covered_s  # noqa: E402  (stdlib only)


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_pass(workload: str, seed: int, trace: bool, size: str) -> dict:
    """Run one pass in a fresh worker process and return its result."""
    shutil.rmtree(WORK / "out", ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--size", size,
           "--work", str(WORK)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(WORK / "out", ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload} worker exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise HarnessError(f"{workload} worker printed no result: {lines[-1][:200]!r}") from exc


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no tail percentile (needs 11 samples, have {n})"
    rank = n - 10  # 1-based rank of the value with ten samples above it
    return f"p{100.0 * rank / n:.1f} {sorted(values)[rank - 1]:.6g}"


def _check_determinism(seed: int, passes: list[dict]) -> None:
    """Fail each op whose data digest differs from the same op's in an
    earlier pass of this run (all passes use the same seed)."""
    first = {}
    for res in passes:
        for op in res["ops"]:
            if not op["digest"]:
                continue
            ref = first.setdefault(op["name"], op["digest"])
            if op["digest"] != ref and op["ok"]:
                op["ok"] = False
                op["detail"] += f"; data digest {op['digest'][:12]} != {ref[:12]} at seed {seed}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> tuple[dict, list[str]]:
    """All passes of one run; returns the result object and report lines."""
    WORK.mkdir(exist_ok=True)
    t0 = time.monotonic()
    plain, traced = [], []
    while True:
        want_traced = trace and len(traced) < len(plain)  # untraced, traced, untraced, ...
        (traced if want_traced else plain).append(run_pass(workload, seed, want_traced, size))
        n = len(plain) + len(traced)
        elapsed = time.monotonic() - t0
        # stop when the next pass would end more than half a pass past S
        if n >= 2 and (traced or not trace) and elapsed + elapsed / n / 2 >= seconds:
            break
    passes = plain + traced
    _check_determinism(seed, passes)
    ops = [op for res in passes for op in res["ops"]]
    failed = sum(1 for op in ops if not op["ok"])

    sizes = plain[0]["sizes"]
    walls = [r["wall_s"] for r in plain]
    setups = [r["setup_s"] for r in plain]
    e2e = {
        "wall_s": statistics.median(walls),
        "path_steps_per_s": statistics.median(sizes["path_steps"] / w for w in walls),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "setup_s": statistics.median(setups),
    }
    record = {"host": platform.node(), "nproc": len(os.sched_getaffinity(0)),
              "l3_bytes": _l3_bytes(), **plain[0]["record"], "workload": workload,
              "seed": seed, "size": size, "sizes": sizes}
    mode = "traced + untraced" if trace else "untraced"
    lines = [
        f"== {workload}  seed {seed}  {len(plain)} untraced + {len(traced)} traced passes "
        f"({mode}), {time.monotonic() - t0:.1f} s",
        f"record {json.dumps(record, sort_keys=True)}",
        f"wall_s            median {e2e['wall_s']:.6g} s; {tail(walls)}; n={len(walls)}; "
        f"samples {' '.join(f'{w:.4g}' for w in walls)}",
        f"path_steps_per_s  median {e2e['path_steps_per_s']:.6g} 1/s "
        f"at {sizes['path_steps']} path-steps per pass",
        f"peak_rss_mb       median {e2e['peak_rss_mb']:.6g} MB; computed from array shapes: "
        f"increments {sizes['increment_bytes'] / 1e6:.1f} MB, "
        f"dense paths {sizes['dense_bytes'] / 1e6:.1f} MB",
        f"setup_s           median {e2e['setup_s']:.6g} s; n={len(plain)}; "
        f"samples {' '.join(f'{s:.4g}' for s in setups)}",
        f"error_rate        {failed}/{len(ops)} = {failed / len(ops):.4g}",
    ]
    lines += [f"  op {op['name']:<28} {'ok  ' if op['ok'] else 'FAIL'} {op['detail']}"
              for op in ops]

    if trace:
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
        lines.append(f"trace: {traced[0]['spans']} spans per traced pass; module self times "
                     f"sum to {covered_s(layers):.6g} s of traced wall {layers['trace.wall_s']:.6g} s "
                     f"(gap {layers['bench.self_s']:.3g} s, overhead "
                     f"{layers['trace.overhead_s']:.3g} s)")
        lines += [f"  {name:<52} {layers[name]:.6g} {units[name]}" for name in units]
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    return result, lines


def _l3_bytes():
    """L3 size from glibc's sysconf (_SC_LEVEL3_CACHE_SIZE), or None."""
    try:
        import ctypes
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        value = libc.sysconf(194)
    except (OSError, AttributeError):
        return None
    return value if value > 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="varexp benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + PARTS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64 or not math.isfinite(args.seconds):
        ap.error("--seed must fit in 64 unsigned bits and --seconds must be finite")
    try:
        if args.workload != "all":
            result, lines = run_workload(args.workload, args.seed, args.seconds,
                                         bool(args.trace))
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            lines = []
            for name in WORKLOADS:
                for trace in (False, True):
                    res, more = run_workload(name, args.seed, args.seconds, trace)
                    lines += more
                    result["correct"] = result["correct"] and res["correct"]
                    result["attempted"] += res["attempted"]
                    result["failed"] += res["failed"]
                    result["metrics"].update(
                        {f"{name}/{k}": v for k, v in res["metrics"].items()})
    except HarnessError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
