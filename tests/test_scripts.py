"""Smoke tests of the scripts in scripts/, each run as its own process."""

import os
import subprocess
import sys

from ksunfold import SUITES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_script(name, *args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_verify_all_prints_one_row_per_suite():
    proc = _run_script("verify_all.py", "--samples", "20")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    rows = [r for r in rows if r and r[0] in SUITES]
    assert [r[0] for r in rows] == list(SUITES)
    assert all(r[-1] == "pass" for r in rows)


def test_verify_all_rejects_zero_samples():
    proc = _run_script("verify_all.py", "--samples", "0")
    assert proc.returncode == 2
    assert "--samples" in proc.stderr
    assert "Traceback" not in proc.stderr
