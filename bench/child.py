"""One repetition of one workload, in a fresh interpreter.

    python3 bench/child.py --workload NAME --seed N --size full|tiny \
        --trace 0|1 --result PATH

The parent (``run.py``) sets PYTHONPATH to the checkout's ``src``, a
private MVDOP_CACHE_DIR and a private BENCH_OUT_DIR.  Phases:

- set-up (timed as ``setup_s``): import mvdop and get the workload's tables;
- run (timed as ``run_s``): the workload itself;
- check (untimed, untraced): the correctness gates.

With ``--trace 1`` the tracer is installed before set-up and its spans and
counters cover set-up and run.  The result is written as JSON to PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

from workloads import WORKLOADS, Gate, load_expected


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--size", default="full", choices=["full", "tiny"])
    ap.add_argument("--trace", default=0, type=int, choices=[0, 1])
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed, args.size)
    tracer = None
    if args.trace:
        import mvdop.cli  # noqa: F401  (imports every layer before wrapping)
        from tracer import Tracer

        tracer = Tracer(os.environ["MVDOP_CACHE_DIR"]).install()

    t0 = time.perf_counter()
    state = wl.setup(inputs)
    t1 = time.perf_counter()
    if hasattr(wl, "after_setup"):
        wl.after_setup(state)
    t2 = time.perf_counter()
    outputs = wl.run(state)
    t3 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    trace = tracer.snapshot() if tracer else None

    gate = Gate()
    digest, tables = wl.check(state, outputs, load_expected(), gate)

    import mvdop

    result = {
        "setup_s": t1 - t0,
        "run_s": t3 - t2,
        "peak_rss_mb": peak_rss_mb,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "messages": gate.messages,
        "digest": digest,
        "tables": tables,
        "mvdop_version": mvdop.__version__,
        "trace": trace,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
