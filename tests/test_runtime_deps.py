"""The runtime needs NumPy only: importing ksunfold, running the CLI and
finding a return time leave SciPy unimported, and importing ksunfold leaves
SymPy unimported (both are test oracles)."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == {root!r})))
"""

_RUN_CLI = """
import runpy, sys
sys.argv = ["ksunfold", *{argv!r}]
try:
    runpy.run_module("ksunfold", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""

_PERIOD = """
import numpy as np
from ksunfold import kepler_period_from_unfold, unfold_kepler
res = unfold_kepler(np.array([1.0, 0, 0, 0, 0.8, 0]), 8.0, compare=False)
kepler_period_from_unfold(res)
"""


def _modules_after(code, root="scipy"):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c",
                           code + _REPORT.format(root=root)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", ["import", "help", "unfold", "period"])
def test_scipy_stays_unimported(tmp_path, case):
    code = {
        "import": "import ksunfold\n",
        "help": _RUN_CLI.format(argv=["--help"]),
        "unfold": _RUN_CLI.format(argv=[
            "unfold", "--x", "1,0,0", "--v", "0,0.8,0", "--samples", "16",
            "--out-dir", str(tmp_path)]),
        "period": _PERIOD,
    }[case]
    assert _modules_after(code) == []


def test_probe_sees_scipy_when_imported():
    # the probe itself can tell: an explicit import shows up
    assert "scipy.optimize" in _modules_after(
        "import ksunfold, scipy.optimize\n")


def test_sympy_stays_unimported():
    assert _modules_after("import ksunfold\n", "sympy") == []
    # the probe itself can tell
    assert "sympy" in _modules_after("import ksunfold, sympy\n", "sympy")
