"""The benchmark harness's self-test, run as a tier-1 test.

`bench/smoke.py` computes every metric BENCHMARK.json names, and a per-layer
metric whose function the traced run cannot find raises there.  So a
function deleted or renamed in src/ that the benchmark still measures fails
here, not only in a benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_passes():
    out = subprocess.run([sys.executable, os.path.join("bench", "smoke.py")], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
