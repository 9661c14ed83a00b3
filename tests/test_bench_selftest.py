"""The benchmark's self-tests, run as their own process from the root of
the checkout, so that a rename in `src/` that breaks the tracer's
by-name patching (`bench/tracing.py`) fails here and not in the next
benchmark run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
