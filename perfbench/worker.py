"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --size full|tiny --work DIR

Set-up (importing varexp from the checkout's src/ and loading the run
config) is timed first, then one pass of the workload, then the pass's
outputs are checked. With --trace 1 the package's public functions are
wrapped for the set-up and the pass, restored afterwards, and the spans
are written to DIR/spans_<workload>.csv. The last line of standard
output is one JSON object with the pass's numbers; run.py reads it.

A fresh process per pass keeps each pass's peak resident set its own
(ru_maxrss is a process high-water mark) and makes every pass pay the
real set-up cost.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _tiny_config(work: Path) -> Path:
    """A shrunken copy of paper.json for the self-test."""
    raw = json.loads((ROOT / "paper.json").read_text())
    raw["sim"].update(n_base_paths=100, dt=0.01)
    raw["smile"]["n_base_paths"] = 200
    path = work / "tiny_config.json"
    path.write_text(json.dumps(raw))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args(argv)
    out = args.work / "out"
    out.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(HERE))
    from layers import EXTRACTORS, layer_metrics
    from spans import Tracer
    config_path = ROOT / "paper.json" if args.size == "full" else _tiny_config(args.work)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import varexp
    import varexp.cli
    from varexp.config import load_config

    if not Path(varexp.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"varexp imported from {varexp.__file__}, not from {SRC}")
    tracer = Tracer(EXTRACTORS) if args.trace else None
    span = tracer.span if tracer is not None else (lambda name: nullcontext(-1))
    if tracer is not None:
        tracer.install()
    try:
        with span("bench.setup"):
            cfg = load_config(config_path)
        setup_s = time.perf_counter() - t0

        import workloads
        table = workloads.WORKLOADS | workloads.SELFTEST_WORKLOADS
        wl = table[args.workload]
        ctx = workloads.Context(seed=args.seed, out=out, config_path=config_path, cfg=cfg,
                                size=workloads.SIZES[args.size], span=span)
        t1 = time.perf_counter()
        with span("bench.pass") as pass_idx:
            raw = wl.run(ctx)
        wall_s = time.perf_counter() - t1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    finally:
        if tracer is not None:
            tracer.restore()

    ops = wl.check(ctx, raw)
    import numpy
    import scipy
    result = {
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "sizes": wl.sizes(ctx),
        "ops": [vars(op) for op in ops],
        "record": {"python": platform.python_version(), "numpy": numpy.__version__,
                   "scipy": scipy.__version__, "varexp": varexp.__version__},
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, pass_idx)
        result["spans"] = len(tracer)
        tracer.write_csv(args.work / f"spans_{args.workload}.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
