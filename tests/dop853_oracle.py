"""The DOP853 step loop as it ran one step at a time in arrays: the oracle
every trajectory of `ksunfold.integrate` matches bit for bit, with its
failures, messages, counts and NumPy warnings."""

import importlib
import math

import numpy as np

from ksunfold import DomainError, IntegrationError

# the module; the package exports its `integrate` function under that name
integrate_module = importlib.import_module("ksunfold.integrate")

_EPS = np.finfo(float).eps


class Counted:
    """A right-hand side that counts its calls and its DomainErrors."""

    def __init__(self, f):
        self.f, self.calls, self.domain_errors = f, 0, 0

    def __call__(self, s):
        self.calls += 1
        try:
            return self.f(s)
        except DomainError:
            self.domain_errors += 1
            raise


def call_count(stats, accepted, dense_output=True):
    """The rhs calls of a run without domain errors: 2 set-up calls (k0 and
    the step-size probe), 12 per accepted or rejected step, and with dense
    output 3 more stages per accepted step."""
    return (2 + 12 * (accepted + stats["rejected_steps"])
            + 3 * accepted * dense_output)


def error_oracle(K, h, scale):
    m = integrate_module
    err5 = m._E5.dot(K[:13]) / scale
    err3 = m._E3.dot(K[:13]) / scale
    e5, e3 = err5.dot(err5), err3.dot(err3)
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return h * e5 / math.sqrt((e5 + 0.01 * e3) * scale.size)


def dense_oracle(K, h, y, y_new):
    m = integrate_module
    dy = y_new - y
    F = np.empty((7, y.size))
    F[0] = dy
    F[1] = h * K[0] - dy
    F[2] = 2.0 * dy - h * (K[12] + K[0])
    F[3:] = h * m._D8.dot(K)
    return F.T.dot(m._DOP853_POWERS)


def _initial_step_oracle(f, y0, f0, t_end, cfg):
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    try:
        f1 = f(y0 + h0 * f0)
        d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    except DomainError:
        return min(h0 * 1e-3, t_end), True
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100 * h0, h1, t_end), False


def integrate_oracle(f, s0, t_end, cfg, t0=0.0):
    """The DOP853 step loop as it was before the step's elementwise work
    moved to Python floats: (times, states, dense, stats), dense None when
    `cfg.dense_output` is False (stages 13-15 are then not formed).  A
    failure raises IntegrationError with the loop's message and counts."""
    A = integrate_module._A8
    stages = [(A[i, :i], i) for i in range(1, 13)]
    extra = [(A[i, :i], i) for i in range(13, 16)] if cfg.dense_output else []
    y = np.array(s0, dtype=float).reshape(-1)
    t = t0
    k0 = f(y)
    h, probe_failed = _initial_step_oracle(f, y, k0, t_end - t0, cfg)
    h = max(h, 16.0 * _EPS * max(abs(t0), min(1.0, t_end - t0)))
    nfev, rejected, retries = 2, 0, int(probe_failed)
    ts, ys, dense = [t], [y.copy()], []
    K = np.empty((16, y.size))
    abs_y = np.abs(y)
    attempts = nonfinite = 0
    last_domain_error = None

    def fail(message):
        stats = {"rhs_evals": nfev, "rejected_steps": rejected,
                 "domain_retries": retries}
        counts = ", ".join(f"{k}={v}" for k, v in stats.items())
        note = (f"; rhs returned inf or NaN, or the error estimate "
                f"overflowed, on {nonfinite} rejected attempts"
                if nonfinite else "")
        return IntegrationError(f"{message} ({counts}){note}", t=t, state=y,
                                stats=stats)

    while t < t_end:
        attempts += 1
        if attempts > cfg.max_steps:
            raise fail(f"step count exceeded max_steps={cfg.max_steps}")
        if h < 16.0 * _EPS * max(abs(t), min(1.0, t_end - t0)):
            detail = (f": rhs domain error persisted ({last_domain_error})"
                      if last_domain_error is not None else "")
            raise fail(f"step size {h:.3g} underflowed at t={t:.6g}{detail}")
        clamped = t + h >= t_end
        h_step = t_end - t if clamped else h
        K[0] = k0
        try:
            for row, i in stages:
                y_new = y + h_step * row.dot(K[:i])
                K[i] = f(y_new)
            abs_new = np.abs(y_new)
            scale = cfg.abs_tol + cfg.rel_tol * np.maximum(abs_y, abs_new)
            err = error_oracle(K, h_step, scale)
            if err <= 1.0 and not np.all(np.isfinite(y_new)):
                err = math.inf
            if err <= 1.0:
                for row, i in extra:
                    K[i] = f(y + h_step * row.dot(K[:i]))
        except DomainError as exc:
            nfev += i
            retries += 1
            h = h_step / 2.0
            last_domain_error = exc
            continue
        nfev += i
        if err <= 1.0:
            t_new = t_end if clamped else t + h_step
            if cfg.dense_output:
                dense.append(dense_oracle(K, h_step, y, y_new))
            ts.append(t_new)
            ys.append(y_new)
            t, y, k0, abs_y = t_new, y_new, K[12].copy(), abs_new
            factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err**-0.125)
            h = h_step * factor
        else:
            rejected += 1
            nonfinite += not math.isfinite(err)
            h = h_step * max(0.2, 0.9 * err**-0.125)
    stats = {"rhs_evals": nfev, "rejected_steps": rejected,
             "domain_retries": retries}
    return (np.array(ts), np.array(ys),
            np.array(dense) if cfg.dense_output else None, stats)
