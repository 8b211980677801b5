"""One round of one workload, in a fresh process; prints one JSON line.

Started by run.py, which passes the CLOCK_MONOTONIC time just before it
spawned this process, so that setup_s covers interpreter start, the
package import and the building of the inputs.  Each round needs its own
process: the package caches groups, root systems, sign tables and flag
quotients, and a second round in the same process would time cached work.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import tracing
import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    prepare, run = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    inputs = prepare(args.seed)
    setup_s = time.monotonic() - args.spawned_at

    rnd = workloads.Round()
    t0 = time.perf_counter()
    run(inputs, rnd)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from parahoric.groups import kernels

    result = {
        "kernel": kernels.IMPLEMENTATION,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "errors": rnd.errors,
        "problems": rnd.problems,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["trace.wall_s"] = wall_s
        result["layers"] = layers
        if args.trace_out:
            os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
            tracer.dump(args.trace_out, {
                "workload": args.workload,
                "seed": args.seed,
                "kernel": kernels.IMPLEMENTATION,
                "metrics": layers,
            })
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
