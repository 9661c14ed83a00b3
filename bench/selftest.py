"""Self-tests of the benchmark itself (not of ksunfold).

    python3 bench/selftest.py

Run from the root of the checkout; takes a few seconds.
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import child  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _inputs(call):
    return getattr(call, "argv", None) or [
        repr(getattr(call, "p0", None)), getattr(call, "seed", None)]


class SyntheticCall(workloads.Call):
    """A call whose item reports a given accuracy figure, or raises."""

    def __init__(self, err, bound=1e-9, raises=False):
        super().__init__()
        self.err, self.bound, self.raises = err, bound, raises
        self.label = f"synthetic-{err}"

    def run(self, mark):
        if self.raises:
            raise RuntimeError("synthetic failure")
        return self.err

    def check(self, err):
        return [workloads.ItemResult(err < self.bound, err)]


class SelfTest(unittest.TestCase):
    def test_new_seed_changes_inputs_keeps_item_counts(self):
        with tempfile.TemporaryDirectory() as out:
            for name in workloads.WORKLOADS:
                a = workloads.build(name, 0, out)
                b = workloads.build(name, 1, out)
                self.assertEqual([c.n_items for c in a], [c.n_items for c in b])
                self.assertEqual([c.label for c in a if not isinstance(
                    c, workloads.SuiteCall)], [c.label for c in b if not
                    isinstance(c, workloads.SuiteCall)])
                self.assertNotEqual([_inputs(c) for c in a],
                                    [_inputs(c) for c in b], name)
                again = workloads.build(name, 0, out)
                self.assertEqual([_inputs(c) for c in a],
                                 [_inputs(c) for c in again], name)

    def test_rotations_are_proper(self):
        import numpy as np

        for R in workloads.CUBE_ROTATIONS:
            np.testing.assert_array_equal(R @ R.T, np.eye(3))
            self.assertEqual(round(np.linalg.det(R)), 1)
        self.assertEqual(len(workloads.CUBE_ROTATIONS), 24)

    def test_out_of_bound_item_counts_in_fail_ratio(self):
        loop = child.Loop([SyntheticCall(1e-10), SyntheticCall(2e-9),
                           SyntheticCall(0.0, raises=True)])
        with open(os.devnull, "w") as sink:
            stderr, sys.stderr = sys.stderr, sink
            try:
                passes = [loop.run_pass()]
            finally:
                sys.stderr = stderr
        attempted, failed, notes = child._tally(passes)
        self.assertEqual((attempted, failed), (3, 2))
        self.assertIn("raised", notes)

    def test_simulate_check_rejects_out_of_bound_drift(self):
        with tempfile.TemporaryDirectory() as out:
            call = workloads.build("simulate-direct", 0, out)[0]
            for drift, ok in ((1.4e-10, True), (2e-9, False), (None, False)):
                with open(call.files()[1], "w") as fh:
                    json.dump({"energy_drift": drift, "wall_time_s": 0.1}, fh)
                self.assertEqual(call.check(0)[0].ok, ok)
            self.assertFalse(call.check(3)[0].ok)

    def test_metric_names_and_units_match_benchmark_json(self):
        names = list(child.END_TO_END_UNITS) + list(child.LAYER_UNITS)
        for n in names:
            self.assertTrue(NAME.fullmatch(n), n)
        self.assertEqual(len(names), len(set(names)))
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         child.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         child.LAYER_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertTrue(set(tracing.GATED_COUNTS) <= set(child.LAYER_UNITS))

    def test_tail_latency_leaves_ten_samples_beyond(self):
        for n in (11, 40, 57, 120, 650, 8000):
            p, value, beyond = child.tail_latency(list(range(n)))
            self.assertEqual(beyond, child.TAIL_BEYOND)
            self.assertEqual(value, n - 1 - beyond)
            self.assertAlmostEqual(p, 100.0 * (n - beyond) / n)
        self.assertEqual(child.tail_latency([2.0, 1.0]), (100.0, 2.0, 0))

    def test_times_scale_by_nearby_kernel_runs(self):
        probe = speed.SpeedProbe()
        probe.mids = [0.0, 0.1, 0.2, 5.0, 5.1]
        probe.times = [1e-3, 2e-3, 9e-3, 4e-3, 4e-3]
        w = speed.WINDOW_S
        self.assertEqual(probe.kernel_s(0.05, 0.05), 2e-3)   # runs 0-2
        self.assertEqual(probe.kernel_s(5.0 - w, 5.05), 4e-3)  # runs 3-4
        self.assertEqual(probe.kernel_s(2.0, 2.1), 9e-3)     # none near: nearest
        self.assertEqual(probe.kernel_s(4.5, 4.6), 4e-3)
        self.assertAlmostEqual(probe.scale(5.0, 5.1), speed.REFERENCE_S / 4e-3)
        # a slow host doubles both the item and the kernel: same scaled time
        passes = [([(0.0, 0.1)], None), ([(5.0, 5.2)], None)]
        scaled = child._per_item(passes, probe)
        self.assertAlmostEqual(scaled[0], speed.REFERENCE_S * 0.5 * (
            0.1 / 2e-3 + 0.2 / 4e-3))
        self.assertAlmostEqual(child._per_item(passes)[0], 0.15)

    def test_median_hd(self):
        self.assertAlmostEqual(child.median_hd([1.0, 2.0, 3.0]), 2.0)
        self.assertAlmostEqual(child.median_hd([5.0]), 5.0)
        two_groups = [1.0] * 50 + [3.0] * 50
        self.assertAlmostEqual(child.median_hd(two_groups), 2.0, places=6)
        skewed = [float(i) ** 2 for i in range(101)]
        self.assertAlmostEqual(child.median_hd(skewed), 2500.0, delta=60.0)

    def test_tracer_uninstall_restores_every_binding(self):
        def bindings():
            return {(m, a): id(v) for m, mod in sys.modules.items()
                    if m == "ksunfold" or m.startswith("ksunfold.")
                    for a, v in vars(mod).items()}

        from ksunfold.integrate import Trajectory

        before, method = bindings(), Trajectory.__dict__["eval"]
        tracer = tracing.Tracer()
        tracer.install()
        self.assertNotEqual(bindings(), before)
        tracer.uninstall()
        self.assertEqual(bindings(), before)
        self.assertIs(Trajectory.__dict__["eval"], method)


if __name__ == "__main__":
    unittest.main()
