"""Golden outputs: every byte a fixed set of commands and scripts writes.

Each case runs one `ksunfold` invocation through `cli.main` (or one script
as its own process, as tests/test_scripts.py does) in an empty directory,
and compares the SHA-256 digest of each file it wrote, of its stdout (and
of its stderr, where an invocation writes one) and of its exit code against
the table in golden_digests.json.  A JSON file is hashed without its
`wall_time_s` line, the one value that differs between runs.  A change
that means to move an output updates the table in the same commit and
names each moved file, and why, in CHANGES.md; a failing case prints its
new entry.

The bits depend on the NumPy build and its BLAS (OpenBLAS's dgemv does not
sum left to right), so the table holds for the stack recorded next to it
only; on another stack every case skips and names both.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from ksunfold import SUITES
from ksunfold.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SWEEP = ["--lambda", "0..6.28:8"]

# case: argv of `ksunfold`, run with the output directory "out"
COMMANDS = {
    # the gallery of scripts/run_unfold_gallery.py, as 8-gauge sweeps
    "sweep-circular": ["unfold", "--x", "1,0,0", "--v", "0,1,0", *SWEEP,
                       "--prefix", "circular"],
    "sweep-eccentric": ["unfold", "--x", "1,0,0", "--v", "0,0.8,0", *SWEEP,
                        "--prefix", "eccentric"],
    "sweep-collision": ["unfold", "--x", "1,0,0", "--v=-0.5,0,0",
                        "--tau-end", "6.0", *SWEEP, "--prefix", "collision"],
    # two of them turned by rotations of the cube
    "sweep-eccentric-rotated": ["unfold", "--x", "0,1,0", "--v", "0,0,0.8",
                                *SWEEP, "--prefix", "eccentric_rot"],
    "sweep-collision-rotated": ["unfold", "--x", "0,0,-1", "--v", "0,0,0.5",
                                "--tau-end", "6.0", *SWEEP,
                                "--prefix", "collision_rot"],
    # 11 gauges: the sweep's maximum spans two of unfold_sweep's batches
    "sweep-two-batches": ["unfold", "--x", "1,0,0", "--v", "0,0.8,0",
                          "--lambda", "0..6.28:11", "--prefix", "two_batches"],
    # a hyperbolic orbit (E = 0.28), with each energy scaling
    "unfold-hyperbolic": ["unfold", "--x", "1,0,0", "--v", "0,1.6,0",
                          "--tau-end", "2", "--prefix", "hyperbolic"],
    "unfold-hyperbolic-gyorgyi": ["unfold", "--x", "1,0,0", "--v", "0,1.6,0",
                                  "--tau-end", "2", "--scaling", "gyorgyi",
                                  "--prefix", "hyperbolic_gyorgyi"],
    # flags read from CONFIG_FILE, one of them overridden on the line
    "unfold-config-file": ["unfold", "--config", "unfold.cfg",
                           "--prefix", "config"],
    "unfold-k2": ["unfold", "--x", "1,0,0", "--v", "0,1.2,0", "--k", "2",
                  "--prefix", "k2"],
    "unfold-single-gauge": ["unfold", "--x", "1,0,0", "--v", "0,0.9,0.2",
                            "--lambda", "0.7", "--samples", "100"],
    "simulate-kepler": ["simulate", "--system", "kepler", "--x", "1,0,0",
                        "--v", "0,0.8,0", "--t-end", "20"],
    "simulate-conformal": ["simulate", "--system", "conformal",
                           "--y", "1,0,0,0", "--u", "0,0.5,0.1,0",
                           "--t-end", "2"],
    "simulate-oscillator": ["simulate", "--system", "oscillator",
                            "--energy", "-0.5", "--Y", "1,0,0,0",
                            "--U", "0,1,0,0", "--t-end", "6.2832"],
    "simulate-free3d": ["simulate", "--system", "free3d", "--x", "1,0,0",
                        "--v", "0,1,0", "--t-end", "1"],
    "simulate-radial-energy": ["simulate", "--system", "radial",
                               "--r", "1", "--vr", "0.3", "--energy", "0.5",
                               "--t-end", "3", "--prefix", "radial_energy"],
    "simulate-radial-angular": ["simulate", "--system", "radial",
                                "--variant", "angular", "--l", "0.8",
                                "--r", "1", "--vr", "0", "--t-end", "2",
                                "--prefix", "radial_angular"],
    "simulate-calogero": ["simulate", "--system", "calogero", "--q", "0,1",
                          "--qd", "0.2,-0.1", "--l", "0.7", "--t-end", "2"],
    # a radial orbit into the centre: the step underflows, exit 3
    "simulate-kepler-fails": ["simulate", "--system", "kepler", "--x", "1,0,0",
                              "--v=-0.5,0,0", "--t-end", "5"],
    "demo-radial": ["demo", "radial"],
    "demo-calogero": ["demo", "calogero"],
    **{f"verify-{suite}": ["verify", "--suite", suite, "--out",
                           f"{suite}.json"] for suite in SUITES},
}

# the config file that every case's working directory holds, as unfold.cfg
CONFIG_FILE = """\
# an inclined eccentric orbit at three gauges
x = 1,0,0
v = 0,0.7,0.3
lambda = 0..3:3
rel-tol = 1e-10
samples = 64
prefix = overridden
"""

# case: argv of a script in scripts/, run with the output directory "out"
SCRIPTS = {
    "script-run_unfold_gallery": ["run_unfold_gallery.py",
                                  "--out-dir", "out"],
    "script-period_family": ["period_family.py"],
}


def _golden():
    """{"numpy": version, "blas": name and version, "digests": {case:
    {output: SHA-256}}}, the outputs being the files the case wrote, by
    name, and "stdout"; and the case's "exit code" with them."""
    with open(os.path.join(ROOT, "tests", "golden_digests.json")) as fh:
        return json.load(fh)


def _stack():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return np.__version__, f"{blas.get('name')} {blas.get('version')}"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(code, stdout: str, out_dir, stderr: str = "") -> dict:
    """The exit code, and the digests of stdout, of stderr if it is not
    empty and of every file under `out_dir`; a JSON file's `wall_time_s`
    line is left out."""
    found = {"exit code": code, "stdout": _digest(stdout.encode())}
    if stderr:
        found["stderr"] = _digest(stderr.encode())
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name.endswith(".json"):
            data = re.sub(rb'\n *"wall_time_s": [^\n]*', b"", data)
        found[name] = _digest(data)
    return found


def run_case(case, workdir) -> dict:
    """Run `case` in `workdir` and return the digests of its outputs."""
    out_dir = os.path.join(workdir, "out")
    os.makedirs(out_dir)
    if case in SCRIPTS:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
        name, *args = SCRIPTS[case]
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "scripts", name), *args],
            capture_output=True, text=True, env=env, cwd=workdir, timeout=300)
        return _outputs(proc.returncode, proc.stdout, out_dir)
    with open(os.path.join(workdir, "unfold.cfg"), "w") as fh:
        fh.write(CONFIG_FILE)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main([*COMMANDS[case], "--out-dir", "out"])
    finally:
        os.chdir(cwd)
    return _outputs(code, stdout.getvalue(), out_dir, stderr.getvalue())


@pytest.mark.parametrize("case", [*COMMANDS, *SCRIPTS])
def test_outputs_match_the_golden_digests(case, tmp_path):
    golden = _golden()
    numpy_version, blas = _stack()
    if (numpy_version, blas) != (golden["numpy"], golden["blas"]):
        pytest.skip(f"golden digests recorded on NumPy {golden['numpy']} "
                    f"with BLAS {golden['blas']}; this is NumPy "
                    f"{numpy_version} with BLAS {blas}")
    found = run_case(case, str(tmp_path))
    want = golden["digests"][case]
    moved = sorted(name for name in found.keys() | want.keys()
                   if found.get(name) != want.get(name))
    assert not moved, (f"{case}: {moved} moved; its entry now reads\n"
                       + json.dumps({case: found}, indent=1, sort_keys=True))


def test_every_case_has_digests():
    assert sorted(_golden()["digests"]) == sorted([*COMMANDS, *SCRIPTS])
