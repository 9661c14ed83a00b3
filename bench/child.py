"""One run of one workload, in a fresh single-threaded process started by
run.py:

    python3 bench/child.py --workload W --seed N --seconds S --trace 0|1 \
        --run-dir DIR [--setup-only]

One caller in a closed loop runs the workload's passes one item at a time
and checks every item.  With --trace 0 it times passes for S seconds and
reports the end-to-end metrics, every time scaled to a reference host speed
by the kernel of speed.py, run between items.  With --trace 1 it times
untraced passes for S/2 seconds, then traced passes for S/2 seconds, and
reports the per-layer metrics from the traced passes only.  The result goes to DIR/result.json;
with --setup-only the child stops once its first item is ready and writes
only that moment, so run.py can time set-up on its own.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_ms.p50": "ms",
    "max_err": "1",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per traced pass; absent layers read 0
LAYER_UNITS = {
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.csv_s": "s",
    "cli.bytes_written": "bytes",
    "reduction.unfold_kepler.calls": "count",
    "reduction.unfold_kepler.self_s": "s",
    "reduction.tau_of.s": "s",
    "reduction.tau_of.points": "count",
    "reduction.root_solves": "count",
    "reduction.root_fevals": "count",
    "reduction.period.s": "s",
    "integrate.direct.calls": "count",
    "integrate.direct.s": "s",
    "integrate.upstairs.calls": "count",
    "integrate.upstairs.s": "s",
    "integrate.nfev": "count",
    "integrate.steps_accepted": "count",
    "integrate.steps_rejected": "count",
    "integrate.domain_retries": "count",
    "integrate.failed_attempts": "count",
    "integrate.failed_calls": "count",
    "integrate.stepper_self_s": "s",
    "integrate.us_per_step": "us",
    "integrate.eval.calls": "count",
    "integrate.eval.points": "count",
    "integrate.eval.s": "s",
    "integrate.find_return_time.s": "s",
    "integrate.root_fevals": "count",
    "systems.rhs.calls": "count",
    "systems.rhs.s": "s",
    "systems.rhs.us_per_call": "us",
    "systems.monitor.s": "s",
    "systems.gradient.calls": "count",
    "systems.gradient.s": "s",
    "symplectic.run_suite.s": "s",
    "symplectic.poisson_bracket.calls": "count",
    "symplectic.poisson_bracket.s": "s",
    "symplectic.poisson_bracket.states": "count",
    "symplectic.self_s": "s",
    "phase_geometry.ks_lift.calls": "count",
    "phase_geometry.ks_lift.s": "s",
    "phase_geometry.project.s": "s",
    "sampling.s": "s",
    "trace.items_per_s": "1/s",
    "trace.overhead": "ratio",
    "trace.unattributed_ms_per_item": "ms",
    "trace.spans": "count",
}

# the tail is the latency at the highest percentile with at least this many
# samples beyond it: the (TAIL_BEYOND + 1)-th largest
TAIL_BEYOND = 10


def tail_latency(latencies):
    """(percentile, value, samples beyond it); with too few samples for
    TAIL_BEYOND beyond, the largest sample at percentile 100."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1], 0
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1], TAIL_BEYOND


class Loop:
    """Closed loop over a workload's calls: one caller, one item at a time."""

    def __init__(self, calls):
        self.calls = calls
        self.probe = None  # a SpeedProbe, run between items, when timing
        self.tracer = None  # a Tracer during traced passes
        self.next_item = 0

    def _between(self):
        if self.tracer is not None:
            self.tracer.item_id += 1
        if self.probe is not None:
            self.probe.between()

    def run_pass(self, digests=None, bytes_out=None):
        """One pass; returns (per-item (start, end) times, ItemResults).
        With `digests` given, hashes every call's outputs into it; with
        `bytes_out` a list, appends the size of the files each call wrote."""
        from workloads import ItemResult, run_call

        intervals, results = [], []
        for call in self.calls:
            if self.tracer is not None:
                self.tracer.item_id = self.next_item
            if self.probe is not None:
                self.probe.between()
            self.next_item += call.n_items
            try:
                raw, spans = run_call(call, self._between)
                res = call.check(raw)
                if digests is not None:
                    digests[call.label] = call.digest(raw)
            except Exception:  # a failed item is counted, never fatal
                traceback.print_exc()
                res = [ItemResult(False, float("nan"), "raised")] * call.n_items
                spans = [(float("nan"), float("nan"))] * call.n_items
            if bytes_out is not None:
                bytes_out.append(sum(os.path.getsize(p) for p in call.files()
                                     if os.path.exists(p)))
            intervals += spans
            results += res
        return intervals, results

    def run_for(self, seconds, **kw):
        """Whole passes, at least one, until `seconds` have gone by; the
        pass running at the deadline is finished."""
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(self.run_pass(**kw))
        return passes


def _latencies(intervals):
    return [end - start for start, end in intervals]


def _per_item(passes, probe=None):
    """Each item's median time over the passes (nan if it never finished);
    with a SpeedProbe, each time is first scaled to the reference speed."""
    out = []
    for col in zip(*(intervals for intervals, _ in passes)):
        times = [(end - start) * (probe.scale(start, end) if probe else 1.0)
                 for start, end in col if end == end]
        out.append(statistics.median(times) if times else float("nan"))
    return out


def median_hd(values) -> float:
    """Harrell-Davis estimate of the median: a weighted mean of the order
    statistics, weights from the Beta((n+1)/2, (n+1)/2) distribution.  Item
    times come in groups (six suites, three orbits), and the plain median
    falls between two of them, on the extremes of both; this one averages
    the neighbouring order statistics and moves about half as much run to
    run."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = 0.5 * (n - 1) * (np.log(grid) + np.log1p(-grid))
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)


def _items_per_s(per_item):
    """Items per second of a pass whose items take `per_item` seconds."""
    done = [x for x in per_item if x == x]
    return len(done) / sum(done)


def _tally(passes):
    results = [r for _, res in passes for r in res]
    failed = sum(not r.ok for r in results)
    notes = [r.note for r in results if not r.ok][:10]
    return len(results), failed, notes


def end_to_end(calls, passes, probe):
    from workloads import accuracy

    latencies = [x for iv, _ in passes for x in _latencies(iv) if x == x]
    scaled = [x for x in _per_item(passes, probe) if x == x]
    raw = [x for x in _per_item(passes) if x == x]
    p_tail, tail, beyond = tail_latency(latencies)
    metrics = {
        "items_per_s": _items_per_s(scaled),
        "item_ms.p50": 1e3 * median_hd(scaled),
        "max_err": max(accuracy(calls, res) for _, res in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Unscaled figures and the tail are reported, not gated: they measure
    # the other tenants of a shared machine as much as the program.
    details = {"passes": len(passes), "latency_samples": len(latencies),
               "raw_items_per_s": _items_per_s(raw),
               "raw_item_ms.p50": 1e3 * median_hd(raw),
               "item_ms.tail": 1e3 * tail, "tail_percentile": p_tail,
               "tail_samples_beyond": beyond,
               "kernel_ms.p50": 1e3 * statistics.median(probe.times),
               "kernel_runs": len(probe.times)}
    return metrics, details


def _calls_s(calls, intervals):
    """Total wall time of the calls of one pass, each from its first item's
    start to its last item's end (the gaps between its items included)."""
    total, i = 0.0, 0
    for call in calls:
        span = intervals[i + call.n_items - 1][1] - intervals[i][0]
        if span == span:
            total += span
        i += call.n_items
    return total


def layer_metrics(agg, items, calls_s, bytes_written):
    """Per-layer metrics of one traced pass from Tracer.aggregate."""
    spans, counts = agg["spans"], agg["counts"]

    def total(name):
        return spans.get(name, (0.0, 0.0, 0))[0]

    def self_s(name):
        return spans.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return spans.get(name, (0.0, 0.0, 0))[2]

    attempts = (counts.get("integrate.steps_accepted", 0)
                + counts.get("integrate.steps_rejected", 0)
                + counts.get("integrate.failed_attempts", 0))
    integrate_s = total("integrate.direct") + total("integrate.upstairs")
    m = {
        "cli.main.s": total("cli.main"),
        "cli.self_s": self_s("cli.main"),
        "cli.csv_s": total("cli.csv"),
        "cli.bytes_written": bytes_written,
        "reduction.unfold_kepler.calls": calls("reduction.unfold_kepler"),
        "reduction.unfold_kepler.self_s": self_s("reduction.unfold_kepler"),
        "reduction.tau_of.s": total("reduction.tau_of"),
        "reduction.period.s": total("reduction.period"),
        "integrate.direct.s": total("integrate.direct"),
        "integrate.upstairs.s": total("integrate.upstairs"),
        "integrate.stepper_self_s": (self_s("integrate.direct")
                                     + self_s("integrate.upstairs")),
        "integrate.us_per_step": 1e6 * integrate_s / attempts if attempts else 0.0,
        "integrate.eval.calls": calls("integrate.eval"),
        "integrate.eval.s": total("integrate.eval"),
        "integrate.find_return_time.s": total("integrate.find_return_time"),
        "systems.rhs.calls": calls("systems.rhs"),
        "systems.rhs.s": total("systems.rhs"),
        "systems.monitor.s": total("systems.monitor"),
        "systems.gradient.calls": calls("systems.gradient"),
        "systems.gradient.s": total("systems.gradient"),
        "symplectic.run_suite.s": total("symplectic.run_suite"),
        "symplectic.poisson_bracket.calls": calls("symplectic.poisson_bracket"),
        "symplectic.poisson_bracket.s": total("symplectic.poisson_bracket"),
        "symplectic.self_s": (self_s("symplectic.run_suite")
                              + self_s("symplectic.poisson_bracket")),
        "phase_geometry.ks_lift.calls": calls("phase_geometry.ks_lift"),
        "phase_geometry.ks_lift.s": total("phase_geometry.ks_lift"),
        "phase_geometry.project.s": total("phase_geometry.project"),
        "sampling.s": total("sampling"),
        "trace.unattributed_ms_per_item":
            1e3 * (calls_s - agg["roots_s"]) / items,
        "trace.spans": agg["n_spans"],
    }
    m["systems.rhs.us_per_call"] = (1e6 * m["systems.rhs.s"] / m["systems.rhs.calls"]
                                    if m["systems.rhs.calls"] else 0.0)
    for name, unit in LAYER_UNITS.items():
        if unit == "count" and name not in m:
            m[name] = counts.get(name, 0)
    return m


def run_traced(loop, seconds, untraced_passes, digests):
    """Traced passes; returns (per-layer metrics, details, passes)."""
    from tracing import GATED_COUNTS

    tracer = loop.tracer
    per_pass, passes = [], []
    identical = True
    tracer.install()
    try:
        deadline = time.perf_counter() + seconds
        while len(passes) < 2 or time.perf_counter() < deadline:
            bytes_out, seen = [], {}
            since = tracer.mark()
            intervals, res = loop.run_pass(digests=seen, bytes_out=bytes_out)
            agg = tracer.aggregate(since, tracer.mark())
            identical = identical and seen == digests
            passes.append((intervals, res))
            per_pass.append(layer_metrics(agg, len(res),
                                          _calls_s(loop.calls, intervals),
                                          sum(bytes_out)))
    finally:
        tracer.uninstall()
    # counts must repeat exactly from pass to pass; times (and bytes, whose
    # JSON sidecars hold a wall time) are medians
    counts = [n for n, u in LAYER_UNITS.items() if u == "count"]
    repeat = all(p[n] == per_pass[0][n] for p in per_pass for n in counts)
    metrics = {n: per_pass[0][n] if n in counts
               else statistics.median(p[n] for p in per_pass)
               for n in per_pass[0]}
    metrics["trace.items_per_s"] = _items_per_s(_per_item(passes))
    metrics["trace.overhead"] = (_items_per_s(_per_item(untraced_passes))
                                 / metrics["trace.items_per_s"])
    details = {
        "traced_passes": len(passes),
        "untraced_passes": len(untraced_passes),
        "outputs_identical": identical,
        "counts_repeat": repeat,
        "gated_counts": {n: per_pass[0][n] for n in GATED_COUNTS},
    }
    return metrics, details, passes


def environment():
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import workloads

    out_dir = os.path.join(args.run_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    calls = workloads.build(args.workload, args.seed, out_dir)
    ready = time.monotonic()
    if args.setup_only:
        with open(os.path.join(args.run_dir, f"setup-{os.getpid()}.json"), "w") as fh:
            json.dump({"ready": ready}, fh)
        return 0

    loop = Loop(calls)
    workloads.run_call(calls[0])  # warm-up: lazy imports and caches
    result = {"ready": ready, "env": environment()}
    if args.trace:
        from tracing import Tracer

        digests = {}
        untraced = loop.run_for(args.seconds / 2, digests=digests)
        loop.tracer = Tracer()
        metrics, details, passes = run_traced(loop, args.seconds / 2,
                                              untraced, digests)
        loop.tracer.dump(os.path.join(args.run_dir, "spans.npz"))
        correct_extra = details["outputs_identical"] and details["counts_repeat"]
        passes = untraced + passes
    else:
        from speed import MAX_BURST, SpeedProbe

        loop.probe = SpeedProbe()
        loop.probe.sample(MAX_BURST)  # warm-up
        passes = loop.run_for(args.seconds)
        metrics, details = end_to_end(calls, passes, loop.probe)
        correct_extra = True
    attempted, failed, notes = _tally(passes)
    result.update(
        metrics=metrics, details=details, attempted=attempted, failed=failed,
        fail_ratio=failed / attempted, failures=notes,
        correct=failed == 0 and correct_extra,
        info={c.label: c.info for c in calls if c.info},
    )
    with open(os.path.join(args.run_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
