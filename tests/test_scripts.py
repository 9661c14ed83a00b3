"""Smoke tests of the scripts in scripts/, each run as its own process."""

import io
import json
import math
import os
import subprocess
import sys

import pytest

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


def test_period_family_prints_one_row_per_semi_major_axis():
    proc = _run_script("period_family.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rows = [line.split() for line in lines[2:]]
    assert [float(r[0]) for r in rows] == [0.5, 1.0, 2.0, 4.0, 8.0]
    for a, _, tau_period, _, _, _, ratio in rows:
        E = -0.5 / float(a)
        assert abs(float(tau_period) - 2 * math.pi / math.sqrt(-2 * E)) <= 1e-8
        assert ratio == "2.0000000000"


def test_gallery_writes_a_csv_and_json_per_orbit(tmp_path):
    proc = _run_script("run_unfold_gallery.py", "--samples", "32",
                       "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = ("circular", "eccentric", "collision")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{n}{ext}" for n in names for ext in (".csv", ".json"))
    for name in names:
        side = json.loads((tmp_path / f"{name}.json").read_text())
        assert side["grid_points"] == 33
        assert side["collision"] is (name == "collision")
    rows = {line.split()[0]: line for line in proc.stdout.splitlines()
            if line.split()[0] in names}
    assert rows["collision"].endswith("[collision regularized]")
    assert "regularized" not in rows["circular"] + rows["eccentric"]


def test_gallery_sidecars_are_json_dump_and_a_newline_over_stale_files(
        tmp_path):
    names = ("circular", "eccentric", "collision")
    for name in names:
        (tmp_path / f"{name}.json").write_bytes(b"{stale}\n" * 10000)
    proc = _run_script("run_unfold_gallery.py", "--samples", "32",
                       "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in names:
        text = (tmp_path / f"{name}.json").read_text()
        ref = io.StringIO()
        json.dump(json.loads(text), ref, indent=2, sort_keys=True)
        ref.write("\n")
        assert text == ref.getvalue()


@pytest.mark.parametrize("script, flag, value", [
    ("period_family.py", "--a", "0"),
    ("period_family.py", "--a", "-1"),
    ("period_family.py", "--a", "nan"),
    # finite and positive, but past what the unfold can represent
    ("period_family.py", "--a", "1e300"),
    ("period_family.py", "--a", "1e-300"),
    ("run_unfold_gallery.py", "--samples", "0"),
    ("run_unfold_gallery.py", "--samples", "-3"),
])
def test_scripts_reject_a_bad_flag(tmp_path, script, flag, value):
    # `--flag=value`: argparse would read a leading minus as a flag
    args, out_dir = [f"{flag}={value}"], tmp_path / "out"
    if script == "run_unfold_gallery.py":
        args += ["--out-dir", str(out_dir)]
    proc = _run_script(script, *args)
    assert proc.returncode == 2
    assert f"argument {flag}:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not out_dir.exists()
