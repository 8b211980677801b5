#!/usr/bin/env python3
"""The parahoric benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload verify-pgl3-25 --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout of the repository.  It first runs the
checkout's in-place build (`setup.py build_ext --inplace`, not timed), then
runs rounds of the workload, each in a fresh process (worker.py), until
`--seconds` have passed; a round is never cut, so a run makes at least one.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: with `--trace 0` the end-to-end metrics
(wall_s, setup_s, peak_rss_mb, medians over the rounds), with `--trace 1`
the per-layer metrics of a traced run, whose spans are also written to
perfbench/results/.  The line before it names the kernel that ran.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
RUN_LIMIT_S = 170  # a run must end within 180 s; no round starts that could pass this

sys.path.insert(0, HERE)
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def build() -> None:
    """The checkout's own in-place build of the optional compiled kernel."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise RuntimeError(f"in-place build failed with exit code {proc.returncode}")


def one_round(args, index: int, deadline: float) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.trace:
        name = f"trace-{args.workload}-seed{args.seed}-round{index}.json"
        cmd += ["--trace-out", os.path.join(RESULTS, name)]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"round {index} did not finish within the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"round {index} exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "parahoric", "__init__.py")):
        sys.stderr.write(f"error: no parahoric package under {ROOT}/src\n")
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        build()
        rounds = []
        measure_start = time.monotonic()
        while True:
            began = time.monotonic()
            rounds.append(one_round(args, len(rounds), deadline))
            now = time.monotonic()
            if now - measure_start >= args.seconds or now + (now - began) > deadline:
                break
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    problems = [p for r in rounds for p in r["problems"]]
    errors = [e for r in rounds for e in r["errors"]]
    lines = problems + errors
    for line in dict.fromkeys(lines):
        sys.stderr.write(f"{args.workload}: {line} (in {lines.count(line)} of {len(rounds)} rounds)\n")
    if args.trace:
        units = LAYER_METRICS
        values = {m: [r["layers"][m] for r in rounds] for m in units}
    else:
        units = END_TO_END
        values = {m: [r[m] for r in rounds] for m in units}
    metrics = {m: {"value": statistics.median(v), "unit": units[m]} for m, v in values.items()}
    kernels = sorted({r["kernel"] for r in rounds})
    print(f"workload={args.workload} seed={args.seed} kernel={','.join(kernels)} "
          f"rounds={len(rounds)} trace={args.trace}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
