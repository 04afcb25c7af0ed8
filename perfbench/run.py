#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the ``repro`` system.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-batch --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures every end-to-end metric with the system running
untraced in child processes; ``--trace 1`` is a separate in-process run
with span wrappers installed, giving the per-layer metrics.  Human
readable lines go to stderr; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, preceded by a
``{"detail": ...}`` line recording the inputs (document count, bytes,
Shakespeare share, distinct documents, repeat share) and the host
(``nproc``, CPU affinity, Python version).  The exit code is non-zero
when any output failed its check.  ``--seconds`` is the least time the
paper-batch CLI batches measure; the serve phases are sized by their
request counts instead (at least 1000 per latency phase).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("paper-batch", "serve-fresh", "serve-repeat")


def host() -> dict:
    """What a result must carry so 1- and 2-CPU runs never mix silently."""
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def _terminated(signum, frame):
    """SIGTERM unwinds like an error, so every child is stopped."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import procs
    import workloads
    import traced

    procs.adopt_orphans()
    signal.signal(signal.SIGTERM, _terminated)
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=HERE / "_work"))
    started = time.perf_counter()
    try:
        if args.trace:
            result = traced.run(args.workload, args.seed, work)
        elif args.workload == "paper-batch":
            result = workloads.paper_batch(args.seed, args.seconds, work)
        else:
            result = workloads.serve(
                args.seed, work, repeat=args.workload == "serve-repeat",
            )
    finally:
        try:
            procs.stop_all()
        finally:
            shutil.rmtree(work, ignore_errors=True)
    check = result["check"]
    correct = check.failed == 0 and check.attempted > 0
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in
              declared["per_layer" if args.trace else "end_to_end"]]
    missing = sorted(set(wanted) - set(result["metrics"]))
    if missing:
        print(f"perfbench: metrics not measured: {missing}",
              file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}", file=sys.stderr)
    print(f"{args.workload}: {check.attempted} checked, {check.failed} "
          f"failed {check.reasons or ''} in "
          f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host(),
        "failed_ratio": check.failed / max(1, check.attempted),
        "failure_reasons": check.reasons,
        # Every metric measured, gated in BENCHMARK.json or not.
        "measured": {name: metric["value"]
                     for name, metric in result["metrics"].items()},
        **result["detail"],
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: result["metrics"][name] for name in wanted},
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
