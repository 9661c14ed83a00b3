"""The four benchmark workloads: seeded inputs, the call that makes each
item, and the check every item must pass.

A workload is a fixed list of calls (one *pass*).  Each call runs one public
entry point of ksunfold and completes one or more items.  The workload seed
only picks a rotation in SO(3) for every initial state (and, for
`verify-suites`, the suite seeds): a rotation changes the numbers the program
sees but not an orbit's shape, period or difficulty.

Every bound here is one the repository's tests already pin; none is new.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import ksunfold
from ksunfold import cli

# bounds pinned by the test suite
UNFOLD_DIVERGENCE_MAX = 1e-7  # acceptance criterion 5, test_cli.py::test_unfold_circular
SWEEP_DIVERGENCE_MAX = 1e-8   # test_cli.py::test_unfold_gauge_sweep
ENERGY_DRIFT_MAX = 1e-9       # test_cli.py::test_simulate_kepler_ten_periods_energy_drift
TAU_PERIOD_MAX = 1e-8         # acceptance criterion 6, absolute
T_HALF_REL_MAX = 1e-6         # acceptance criterion 6, relative

GAUGE_SWEEP = "0..6.28:8"
SIM_PERIODS = 10
SIM_REL_TOL = "1e-11"
VERIFY_SAMPLES = 200
VERIFY_SEEDS_PER_PASS = 128

WORKLOADS = ("unfold-sweep", "simulate-direct", "orbit-periods", "verify-suites")


@dataclass
class ItemResult:
    ok: bool
    err: float  # the workload's accuracy figure; nan where it has none
    note: str = ""


def _cube_rotations() -> np.ndarray:
    """The 24 rotations of the cube: signed permutation matrices, det +1."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            R = np.zeros((3, 3))
            R[range(3), perm] = signs
            if np.linalg.det(R) > 0.0:
                out.append(R)
    return np.array(out)


# A rotation of the cube only permutes and flips coordinates, so the
# integrator's per-component error norm sees the same problem: step counts
# and errors of the direct leg do not change with the seed.  A general
# rotation changes the step count by about 2%, i.e. the difficulty.
CUBE_ROTATIONS = _cube_rotations()


def apocentre_state(a: float, e: float):
    """Kepler state (k = 1) at apocentre of the orbit with semi-major axis a
    and eccentricity e, in the x1-x2 plane."""
    r = a * (1.0 + e)
    return np.array([r, 0.0, 0.0]), np.array([0.0, np.sqrt((1.0 - e) / r), 0.0])


def _vec_flag(name, vec) -> str:
    # '--flag=value' because argparse would read a leading minus as a flag
    return f"--{name}=" + ",".join(repr(float(c)) for c in vec)


def _clean_json(path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    data.pop("wall_time_s", None)  # the one field that differs between runs
    return data


def _file_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        if p.endswith(".json"):
            h.update(json.dumps(_clean_json(p), sort_keys=True).encode())
        else:
            with open(p, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class _LineClock:
    """Stand-in for stdout during a CLI call: calls `mark` each time the
    program reports a finished output ("wrote ...")."""

    def __init__(self, mark):
        self.mark = mark
        self.buf = ""

    def write(self, text):
        self.buf += text
        while "\n" in self.buf:
            line, self.buf = self.buf.split("\n", 1)
            if line.startswith("wrote "):
                self.mark()
        return len(text)

    def flush(self):
        pass


class Call:
    """One call into the program completing `n_items` items.  `run` makes the
    call (and nothing else: it is what gets timed), `check` turns its raw
    result into one ItemResult per item, `digest` hashes its outputs."""

    n_items = 1
    label = ""
    info: dict  # figures `check` reports beyond the per-item results

    def __init__(self):
        self.info = {}

    def run(self, mark):
        raise NotImplementedError

    def check(self, raw) -> list:
        raise NotImplementedError

    def digest(self, raw) -> str:
        raise NotImplementedError

    def files(self) -> list:
        return []


class _CliCall(Call):
    """A `ksunfold` command run in-process through `cli.main`; its stdout
    goes to a _LineClock and its outputs are files."""

    argv: list

    def run(self, mark):
        with contextlib.redirect_stdout(_LineClock(mark)):
            return cli.main(list(self.argv))

    def digest(self, rc):
        return f"{rc}:{_file_digest(self.files())}"


class UnfoldSweepCall(_CliCall):
    """`ksunfold unfold --lambda 0..6.28:8` on one orbit; an item is one
    gauge angle."""

    n_items = 8

    def __init__(self, label, x, v, tau_end, collision, out_dir):
        super().__init__()
        self.label = label
        self.collision = collision
        self.out_dir = out_dir
        self.argv = ["unfold", _vec_flag("x", x), _vec_flag("v", v),
                     "--lambda", GAUGE_SWEEP, "--out-dir", out_dir,
                     "--prefix", label]
        if tau_end is not None:
            self.argv += ["--tau-end", repr(float(tau_end))]

    def _path(self, suffix):
        return os.path.join(self.out_dir, f"{self.label}{suffix}")

    def check(self, rc):
        if rc != 0:
            return [ItemResult(False, float("nan"), f"exit code {rc}")] * self.n_items
        out = []
        for i in range(self.n_items):
            side = _clean_json(self._path(f"_lam{i}.json"))
            div = side["divergence"]
            err = max(div["max_position_divergence"],
                      div["max_velocity_divergence"])
            ok = (err < UNFOLD_DIVERGENCE_MAX
                  and side["collision_regularized"] is self.collision)
            out.append(ItemResult(ok, err, "" if ok else
                                  f"divergence {err:.3e}, collision "
                                  f"{side['collision_regularized']}"))
        cross = _clean_json(self._path("_sweep.json"))["max_downstairs_divergence"]
        self.info["max_downstairs_divergence"] = cross
        # The tests pin the sweep bound on a bound orbit.  On the collision
        # orbit the sweep compares velocities sampled next to r = 0, where
        # they are ill-conditioned (2e-5 to 5e-5 apart); it is reported only.
        if not self.collision and not cross < SWEEP_DIVERGENCE_MAX:
            out[-1] = ItemResult(False, out[-1].err,
                                 f"gauge sweep divergence {cross:.3e}")
        return out

    def files(self):
        return ([self._path(f"_lam{i}{ext}") for i in range(self.n_items)
                 for ext in (".csv", ".json")] + [self._path("_sweep.json")])


class SimulateCall(_CliCall):
    """`ksunfold simulate --system kepler --rel-tol 1e-11` over ten periods."""

    def __init__(self, label, x, v, t_end, out_dir):
        super().__init__()
        self.label = label
        self.out_dir = out_dir
        self.argv = ["simulate", "--system", "kepler", _vec_flag("x", x),
                     _vec_flag("v", v), "--t-end", repr(float(t_end)),
                     "--rel-tol", SIM_REL_TOL, "--out-dir", out_dir,
                     "--prefix", label]

    def check(self, rc):
        if rc != 0:
            return [ItemResult(False, float("nan"), f"exit code {rc}")]
        drift = _clean_json(self.files()[1])["energy_drift"]
        ok = drift is not None and drift < ENERGY_DRIFT_MAX
        return [ItemResult(ok, drift, "" if ok else f"energy drift {drift}")]

    def files(self):
        return [os.path.join(self.out_dir, f"{self.label}{ext}")
                for ext in (".csv", ".json")]


class PeriodCall(Call):
    """`unfold_kepler(compare=False)` over 2.2 tau-periods, then
    `kepler_period_from_unfold`, as scripts/period_family.py does."""

    def __init__(self, label, x, v):
        super().__init__()
        self.label = label
        self.p0 = np.concatenate([x, v])
        E = 0.5 * float(v @ v) - 1.0 / float(np.linalg.norm(x))
        self.tau_ref = 2.0 * np.pi / np.sqrt(-2.0 * E)
        self.t_ref = 2.0 * np.pi * (-2.0 * E) ** -1.5  # 2 pi a^(3/2)

    def run(self, mark):
        res = ksunfold.unfold_kepler(self.p0, 2.2 * self.tau_ref, compare=False)
        return ksunfold.kepler_period_from_unfold(res)

    def check(self, per):
        tau_err = abs(per["tau_period"] - self.tau_ref)
        t_err = abs(per["t_half"] - self.t_ref) / self.t_ref
        ok = tau_err < TAU_PERIOD_MAX and t_err < T_HALF_REL_MAX
        return [ItemResult(ok, t_err, "" if ok else
                           f"tau error {tau_err:.3e}, t_half error {t_err:.3e}")]

    def digest(self, per):
        return json.dumps({k: float(v).hex() for k, v in per.items()},
                          sort_keys=True)


class SuiteCall(Call):
    """`run_suite(name, samples=200, seed=s)`."""

    def __init__(self, suite, seed):
        super().__init__()
        self.suite = suite
        self.seed = int(seed)
        self.label = f"{suite}@{self.seed}"

    def run(self, mark):
        return ksunfold.run_suite(self.suite, samples=VERIFY_SAMPLES,
                                  seed=self.seed)

    def check(self, report):
        # worst residual over tolerance; exact (tolerance 0) entries are
        # covered by report["pass"] alone
        ratios = [e["max_residual"] / e["tolerance"]
                  for e in report["entries"] if e["tolerance"] > 0]
        err = max(ratios) if ratios else float("nan")
        ok = bool(report["pass"])
        return [ItemResult(ok, err, "" if ok else "suite failed")]

    def digest(self, report):
        return json.dumps(report, sort_keys=True, default=repr)


def build(name: str, seed: int, out_dir: str) -> list:
    """The calls of one pass of workload `name` for workload seed `seed`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(name)])

    def rotated(x, v):
        R = CUBE_ROTATIONS[rng.integers(len(CUBE_ROTATIONS))]
        return R @ np.asarray(x, float), R @ np.asarray(v, float)

    if name == "unfold-sweep":
        # the gallery of scripts/run_unfold_gallery.py, default tau-end
        # (one upstairs period) except the collision orbit
        gallery = (
            ("circular", [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], None, False),
            ("eccentric", [1.0, 0.0, 0.0], [0.0, 0.8, 0.0], None, False),
            ("collision", [1.0, 0.0, 0.0], [-0.5, 0.0, 0.0], 6.0, True),
        )
        return [UnfoldSweepCall(label, *rotated(x, v), tau_end, coll, out_dir)
                for label, x, v, tau_end, coll in gallery]
    if name == "simulate-direct":
        calls = []
        for e in (0.0, 0.6, 0.9):
            x, v = rotated(*apocentre_state(1.0, e))
            calls.append(SimulateCall(f"sim_e{e:g}", x, v,
                                      SIM_PERIODS * 2.0 * np.pi, out_dir))
        return calls
    if name == "orbit-periods":
        calls = []
        for a in (0.5, 1.0, 2.0, 4.0, 8.0):
            for e in (0.0, 0.5, 0.8):
                x, v = rotated(*apocentre_state(a, e))
                calls.append(PeriodCall(f"a{a:g}_e{e:g}", x, v))
        return calls
    seeds = rng.integers(0, 2**31, size=VERIFY_SEEDS_PER_PASS)  # verify-suites
    return [SuiteCall(suite, s) for s in seeds for suite in ksunfold.SUITES]


def accuracy(calls, results) -> float:
    """The pass's `max_err` from one pass's ItemResults: the worst figure of
    any item, except for `verify-suites`, where it is the worst figure of
    the six suites at one suite seed, averaged over the seeds.  (The worst
    over all seeds is an extreme of roundoff extremes that jumps between
    workload seeds by 50%, and their median sticks to a few roundoff levels;
    the per-seed worst is what one `verify` sweep reports.)"""
    if isinstance(calls[0], SuiteCall):
        worst = {}
        for call, r in zip(calls, results):
            if r.err == r.err:  # not nan
                worst[call.seed] = max(worst.get(call.seed, 0.0), r.err)
        return float(np.mean(list(worst.values())))
    return float(np.nanmax([r.err for r in results]))


def run_call(call: Call, between=None):
    """Run one call and return (raw result, per-item (start, end) times in
    perf_counter seconds).  The program's own progress lines mark where one
    item ends and the next begins; the last item ends when the call returns.
    `between` runs at each boundary between two items, outside both."""
    bounds = []  # (end of an item, start of the next)

    def mark():
        end = time.perf_counter()
        if len(bounds) < call.n_items - 1:
            if between is not None:
                between()
            bounds.append((end, time.perf_counter()))

    t0 = time.perf_counter()
    raw = call.run(mark)
    t1 = time.perf_counter()
    if len(bounds) < call.n_items - 1:  # stopped early: items not timed
        return raw, [(float("nan"), float("nan"))] * call.n_items
    starts = [t0] + [b for _, b in bounds]
    ends = [e for e, _ in bounds] + [t1]
    return raw, list(zip(starts, ends))
