"""ksunfold benchmark: run one workload in fresh single-threaded child
processes and print its metrics.

    python3 bench/run.py --workload unfold-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository (it imports `src/`).  With
--trace 0 the last line of standard output is one JSON object with the
end-to-end metrics; with --trace 1, with the per-layer metrics of a traced
run.  The line before it is the full report: environment, tail percentile,
failures, deterministic counts.  Exits non-zero, printing no result, when
the program cannot be run or its child fails.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join("src", "ksunfold")
RUN_ROOT = ".bench_run"
SETUP_SAMPLES = 5  # set-up is timed in this many children; the median counts
# Set-up is scaled to a reference host speed like the item times (see
# speed.py), but by a reference of its own kind: a fresh interpreter that
# imports the libraries ksunfold imports, and nothing of ksunfold.  Started
# SETUP_SAMPLES times, alternating with the set-up children; on a calm host
# it is ready after REFERENCE_SETUP_S.
REFERENCE_IMPORT = "import time, numpy, scipy.optimize; print(time.monotonic())"
REFERENCE_SETUP_S = 0.40
CHILD_TIMEOUT_S = 150

# one thread per child: BLAS and OpenMP pools stay at one worker
SINGLE_THREAD = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)}


def git_commit() -> str | None:
    """HEAD of a git checkout in the working directory, read from .git
    without running git (which would search parent directories)."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SOURCE, "*.py"))):
        with open(path, "rb") as fh:
            h.update(path.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def child_env():
    env = dict(os.environ, **SINGLE_THREAD, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def reference_setup() -> float:
    """Seconds until a fresh interpreter has imported REFERENCE_IMPORT."""
    started = time.monotonic()
    out = subprocess.run([sys.executable, "-c", REFERENCE_IMPORT],
                         env=child_env(), capture_output=True, text=True,
                         check=True, timeout=CHILD_TIMEOUT_S)
    return float(out.stdout) - started


def spawn(args, run_dir, setup_only=False):
    """Run one child to completion; returns (result dict, set-up seconds)."""
    env = child_env()
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    # the child's stdout goes to our stderr: only the result is on stdout
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"child timed out after {CHILD_TIMEOUT_S} s")
    finally:  # also on SIGTERM (see main): no child outlives this process
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"child exited with code {code}")
    name = f"setup-{proc.pid}.json" if setup_only else "result.json"
    with open(os.path.join(run_dir, name)) as fh:
        result = json.load(fh)
    return result, result["ready"] - started


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(SOURCE, "__init__.py")):
        print(f"error: {SOURCE} not found; run from the root of a ksunfold "
              "checkout", file=sys.stderr)
        return 2

    run_dir = os.path.join(RUN_ROOT, f"{args.workload}-{args.seed}-"
                           f"{args.trace}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        setups, references = [], []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                references.append(reference_setup())
                setups.append(spawn(args, run_dir, setup_only=True)[1])
            references.append(reference_setup())
        result, setup = spawn(args, run_dir)
        setups.append(setup)
        spans = os.path.join(run_dir, "spans.npz")
        if os.path.exists(spans):  # kept, one file per workload
            os.replace(spans, os.path.join(RUN_ROOT,
                                           f"spans-{args.workload}.npz"))
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    from child import END_TO_END_UNITS, LAYER_UNITS

    metrics = dict(result["metrics"])
    if args.trace:
        units = LAYER_UNITS
    else:
        units = END_TO_END_UNITS
        metrics["setup_s"] = (REFERENCE_SETUP_S * statistics.median(setups)
                              / statistics.median(references))
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": dict(result["env"], git_commit=git_commit(),
                    source_digest=source_digest(), nproc=os.cpu_count(),
                    cpu_model=cpu_model()),
        "setup_s_samples": setups,
        "setup_reference_s": references,
        "fail_ratio": result["fail_ratio"],
        "failures": result["failures"],
        "details": result["details"],
        "info": result["info"],
    }
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
