"""Tracing from outside the program: wrap the public functions of each
ksunfold module, record a span per call and counts at the same boundaries.

Spans (name, start, end, parent span, item id) stay in memory in flat
arrays and are written out once, when the run ends.  `install` patches every
module attribute that binds a wrapped function (modules import each other's
functions by name), methods on the frozen dataclasses, and SciPy's `brentq`
where `integrate` and `reduction` bind it; `uninstall` puts every original
back.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# public functions per layer: (module, attribute) -> span name
FUNCTIONS = {
    ("ksunfold.cli", "main"): "cli.main",
    ("ksunfold.reduction", "unfold_kepler"): "reduction.unfold_kepler",
    ("ksunfold.reduction", "kepler_period_from_unfold"): "reduction.period",
    ("ksunfold.integrate", "find_return_time"): "integrate.find_return_time",
    ("ksunfold.symplectic", "run_suite"): "symplectic.run_suite",
    ("ksunfold.symplectic", "poisson_bracket"): "symplectic.poisson_bracket",
    ("ksunfold.phase_geometry", "ks_lift"): "phase_geometry.ks_lift",
    ("ksunfold.phase_geometry", "ks_project"): "phase_geometry.project",
    ("ksunfold.phase_geometry", "ks_tangent_velocity"): "phase_geometry.project",
    ("ksunfold.sampling", "rng_from_seed"): "sampling",
    ("ksunfold.sampling", "sample_states3"): "sampling",
    ("ksunfold.sampling", "sample_states_sigma0"): "sampling",
    ("ksunfold.sampling", "sample_chart_states"): "sampling",
}

# methods of the frozen dataclasses: (module, class, method) -> span name
METHODS = {
    ("ksunfold.integrate", "Trajectory", "eval"): "integrate.eval",
    ("ksunfold.integrate", "Trajectory", "to_csv"): "cli.csv",
    ("ksunfold.reduction", "UnfoldResult", "to_csv"): "cli.csv",
    ("ksunfold.reduction", "UnfoldResult", "tau_of"): "reduction.tau_of",
    ("ksunfold.systems", "Observable", "gradient"): "systems.gradient",
}

# counts that must repeat exactly for a given seed
GATED_COUNTS = (
    "integrate.nfev",
    "integrate.steps_accepted",
    "integrate.steps_rejected",
    "reduction.root_fevals",
    "reduction.tau_of.points",
    "integrate.direct.calls",
    "symplectic.poisson_bracket.states",
)

# integrator structure the step counts are derived from: with no initial
# step given, `integrate` makes 2 set-up rhs calls (k0 and the step-size
# probe), then every attempt that raises no DomainError makes 6
_SETUP_CALLS = 2
_CALLS_PER_ATTEMPT = 6


def _n_points(t) -> int:
    return int(np.size(t))


def _n_states(s) -> int:
    return int(np.prod(np.shape(s)[:-1], dtype=int))


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.stack: list = []
        self.item_id = -1
        self.counts: Counter = Counter()
        self._patches: list = []

    # -- spans ------------------------------------------------------------
    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.item_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, count=None):
        """`fn` inside a span; `count(*args, **kwargs)` adds to the counts."""
        nid = self._nid(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    # -- patching ---------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Point every ksunfold module attribute bound to `original` at
        `wrapper`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ksunfold"
                                   or modname.startswith("ksunfold.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        import ksunfold  # noqa: F401  (loads every module patched below)
        from ksunfold.errors import DomainError

        c = self.counts
        counters = {
            "symplectic.poisson_bracket":
                lambda struct, f, g, s: c.update(
                    {"symplectic.poisson_bracket.states": _n_states(s)}),
        }
        for (modname, attr), name in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            self._rebind(original, self.wrap(name, original,
                                             counters.get(name)))

        method_counters = {
            "integrate.eval": lambda traj, t: c.update(
                {"integrate.eval.points": _n_points(t)}),
            "reduction.tau_of": lambda res, t: c.update(
                {"reduction.tau_of.points": _n_points(t)}),
        }
        for (modname, cls, meth), name in METHODS.items():
            klass = getattr(sys.modules[modname], cls)
            self._set(klass, meth, self.wrap(name, getattr(klass, meth),
                                             method_counters.get(name)))

        for modname, prefix in (("ksunfold.reduction", "reduction"),
                                ("ksunfold.integrate", "integrate")):
            mod = sys.modules[modname]
            self._set(mod, "brentq", self._counted_brentq(mod.brentq, prefix))

        integrate_mod = sys.modules["ksunfold.integrate"]
        self._rebind(integrate_mod.integrate,
                     self._traced_integrate(integrate_mod.integrate,
                                            DomainError))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _counted_brentq(self, brentq, prefix):
        c = self.counts

        @functools.wraps(brentq)
        def wrapper(f, a, b, *args, **kwargs):
            c[f"{prefix}.root_solves"] += 1

            def counted(x, *fargs):
                c[f"{prefix}.root_fevals"] += 1
                return f(x, *fargs)

            return brentq(counted, a, b, *args, **kwargs)

        return wrapper

    def _traced_integrate(self, integrate, DomainError):
        """`integrate` in a span named after the system (kepler: direct,
        unfold: upstairs), with its rhs and monitors wrapped through
        dataclasses.replace, and step counts derived from the rhs calls."""
        c = self.counts
        rhs_id = self._nid("systems.rhs")
        mon_id = self._nid("systems.monitor")
        kinds = {"kepler": "direct", "unfold": "upstairs"}

        @functools.wraps(integrate)
        def wrapper(system, s0, t_end, config=None, monitors=None, t0=0.0):
            kind = kinds.get(system.name, system.name)
            calls = [0, 0, 0]  # rhs calls, calls in this attempt, attempts

            def rhs(s):
                idx = self._open(rhs_id)
                try:
                    out = system.rhs(s)
                except DomainError:
                    c["integrate.domain_retries"] += 1
                    calls[1] = 0
                    raise
                finally:
                    self._close(idx)
                    calls[0] += 1
                    c["integrate.nfev"] += 1
                if calls[0] > _SETUP_CALLS:
                    calls[1] += 1
                    if calls[1] == _CALLS_PER_ATTEMPT:
                        calls[1] = 0
                        calls[2] += 1
                return out

            def monitor(fn):
                def timed(s):
                    idx = self._open(mon_id)
                    try:
                        return fn(s)
                    finally:
                        self._close(idx)
                return timed

            mons = system.monitors if monitors is None else tuple(monitors)
            traced = dataclasses.replace(
                system, rhs=rhs,
                monitors=tuple(dataclasses.replace(o, fn=monitor(o.fn))
                               for o in mons),
            )
            c[f"integrate.{kind}.calls"] += 1
            idx = self._open(self._nid(f"integrate.{kind}"))
            try:
                traj = integrate(traced, s0, t_end, config=config, t0=t0)
            except Exception:
                # no trajectory: accepted and rejected cannot be told apart
                c["integrate.failed_calls"] += 1
                c["integrate.failed_attempts"] += calls[2]
                raise
            finally:
                self._close(idx)
            accepted = len(traj.times) - 1
            c["integrate.steps_accepted"] += accepted
            c["integrate.steps_rejected"] += calls[2] - accepted
            return traj

        return wrapper

    # -- output -----------------------------------------------------------
    def mark(self):
        """Position to aggregate from: (span index, copy of the counts)."""
        return len(self.name), Counter(self.counts)

    def aggregate(self, since, until) -> dict:
        """Per-layer totals over the spans and counts between two marks:
        {name: (total seconds, self seconds, calls)} and the count deltas."""
        lo, c0 = since
        hi, c1 = until
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        inner = parent >= lo
        child = np.bincount(parent[inner] - lo, weights=dur[inner],
                            minlength=len(dur))
        self_t = dur - child
        parent_name = np.full(len(dur), -1)
        parent_name[inner] = name[parent[inner] - lo]
        spans = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            nested = sel & (parent_name == nid)
            spans[label] = (float(dur[sel & ~nested].sum()),
                            float(self_t[sel].sum()), int(sel.sum()))
        roots = float(dur[~inner].sum())
        counts = {k: c1[k] - c0.get(k, 0) for k in c1}
        return {"spans": spans, "roots_s": roots, "counts": counts,
                "n_spans": int(hi - lo)}

    def dump(self, path):
        """Write every span: parallel arrays, with `names` indexed by `name`."""
        np.savez(path, names=np.array(self.names), name=self.name,
                 start=self.start, end=self.end, parent=self.parent,
                 item=self.item)
