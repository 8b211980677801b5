"""The benchmark harness under perfbench/ wraps package functions by name.

A deleted or renamed name must fail here, in the ordinary test run, and not
only in the benchmark's traced run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# install every trace wrapper, then build each workload's inputs
SCRIPT = """
import tracing, workloads
tracing.install(tracing.Tracer())
for name, (prepare, _) in sorted(workloads.WORKLOADS.items()):
    prepare(1)
    print(name)
"""


def test_benchmark_wraps_existing_names():
    path = os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["combinatorics", "coset-lattice", "verify-pgl3-25"]
