"""Command-line front end: simulate / unfold / verify / demo.

Every run is determined by its effective config (flags over config-file
values over defaults) plus one explicit seed; CSV outputs are bit-identical
across reruns, and every output file is rewritten in place
(`output.overwrite`).  Errors exit with code 2 (bad config, or an output
path that cannot be written), 3 (integration failure), or 1 (a
verification/demo tolerance failed), with a JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from .errors import (
    ConfigError,
    DegenerateStructureError,
    DomainError,
    HorizonError,
    IntegrationError,
    LiftError,
)
from .integrate import IntegratorConfig, integrate
from .output import write_json
from .reduction import (
    check_equivariance,
    radial_setup,
    reduce_calogero,
    unfold_sweep,
)
from .symplectic import MAX_SUITE_SEED, SUITES, run_suite
from .systems import (
    calogero_moser_field,
    completed_oscillator_field,
    conformal_kepler_field,
    free3d_field,
    kepler_field,
    radial_reduced_field,
    scaling_preset,
)

_OUT_DIR_ENV = "KSUNFOLD_OUT_DIR"
# each demo's default --t-end
_DEMO_T_END = {"radial": 5.0, "calogero": 2.0}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def read_config_file(path: str) -> dict:
    """Plain key=value lines; '#' starts a comment; keys match flag names
    with '-' or '_' interchangeable."""
    cfg = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected key=value, got {line!r}"
                    )
                key, val = line.split("=", 1)
                cfg[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return cfg


def _flag(dest: str) -> str:
    return "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")


def _text(flag, raw):
    return raw


def _number(flag, raw):
    try:
        out = float(raw)
    except ValueError:
        raise ConfigError(f"{flag} expects a number, got {raw!r}") from None
    if not np.isfinite(out):
        raise ConfigError(f"{flag} must be finite, got {raw!r}")
    return out


def _positive(flag, raw):
    out = _number(flag, raw)
    if out <= 0.0:
        raise ConfigError(f"{flag} must be positive, got {raw!r}")
    return out


def _integer(flag, raw, ok, want):
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"{flag} expects an integer, got {raw!r}") from None
    if not ok(n):
        raise ConfigError(f"{flag} must be {want}, got {n}")
    return n


def _count(flag, raw):
    return _integer(flag, raw, lambda n: n > 0, "a positive integer")


def _seed(flag, raw):
    return _integer(flag, raw, lambda n: 0 <= n <= MAX_SUITE_SEED,
                    "an integer in [0, 2**64 - 2]")


def _vec(n):
    def read(flag, raw):
        try:
            vec = np.array([float(p) for p in raw.split(",")])
        except ValueError:
            raise ConfigError(f"{flag}: expected {n} comma-separated numbers, "
                              f"got {raw!r}") from None
        if vec.size != n:
            raise ConfigError(f"{flag}: expected {n} components, got {vec.size}")
        if not np.all(np.isfinite(vec)):
            raise ConfigError(f"{flag}: components must be finite, got {raw!r}")
        return vec
    return read


def _gauges(flag, raw):
    """Either a single angle or a sweep 'start..stop:count'."""
    if ".." in raw:
        span, _, count = raw.partition(":")
        if not count:
            raise ConfigError(f"{flag} sweep needs a count: {raw!r}")
        a, _, b = span.partition("..")
        try:
            lo, hi, n = float(a), float(b), int(count)
        except ValueError:
            raise ConfigError(f"bad {flag} sweep {raw!r}") from None
        if n <= 0:
            raise ConfigError(f"{flag} sweep count must be a positive "
                              f"integer, got {raw!r}")
    else:
        try:
            lo = hi = float(raw)
        except ValueError:
            raise ConfigError(f"bad {flag} value {raw!r}") from None
    # hi - lo is not finite if an end is not, or if the span overflows
    if not np.isfinite(hi - lo):
        raise ConfigError(f"{flag} must be finite, got {raw!r}")
    if ".." not in raw:
        return [lo]
    # on a span near the double range, linspace's last node overflows before
    # linspace sets it to hi; every node it returns is finite
    with np.errstate(over="ignore"):
        return list(np.linspace(lo, hi, n))


# how each flag's text is read, by dest: reader(flag, raw) -> value
_FLAGS = {
    "out_dir": _text, "rel_tol": _number, "abs_tol": _number,
    "max_steps": _count, "system": _text, "variant": _text, "prefix": _text,
    "x": _vec(3), "v": _vec(3), "y": _vec(4), "u": _vec(4),
    "Y": _vec(4), "U": _vec(4), "q": _vec(2), "qd": _vec(2),
    "r": _number, "vr": _number, "l": _number, "energy": _number,
    "k": _number, "t_end": _positive, "tau_end": _positive, "tol": _positive,
    "lam": _gauges, "scaling": _text, "samples": _count, "seed": _seed,
    "suite": _text, "out": _text, "demo": _text,
}
_HELP = {
    "out_dir": f"output directory (default ${_OUT_DIR_ENV} or .)",
    "lam": "gauge angle, or sweep start..stop:count",
    "out": "also write the report to this file",
    "demo": "radial or calogero",
}
_INTEGRATOR = ("rel_tol", "abs_tol", "max_steps")
# each command's help and the dests it takes
_COMMANDS = {
    "simulate": ("integrate a system, write CSV+JSON",
                 ("out_dir", *_INTEGRATOR, "system", "x", "v", "y", "u", "Y",
                  "U", "r", "vr", "q", "qd", "l", "energy", "variant",
                  "t_end", "prefix")),
    "unfold": ("lift, flow upstairs, project back",
               ("out_dir", *_INTEGRATOR, "x", "v", "k", "tau_end", "lam",
                "scaling", "samples", "prefix")),
    "verify": ("run a structure-constant suite",
               ("out_dir", "suite", "samples", "seed", "out")),
    "demo": ("radial or calogero reduction demo",
             ("out_dir", *_INTEGRATOR, "demo", "x", "v", "l", "t_end", "tol")),
}


class _Config(dict):
    """Flag values by dest, each read by its kind; `raw` keeps the text as
    given, which the reports echo.  A missing key is a missing flag."""

    def __init__(self, raw: dict):
        super().__init__((k, _FLAGS[k](_flag(k), v)) for k, v in raw.items())
        self.raw = raw

    def __missing__(self, key):
        raise ConfigError(f"missing required option {_flag(key)}")


def _merge(args: argparse.Namespace) -> _Config:
    """Effective config: defaults < config file < explicit flags.  Every key
    must be a flag of the command, and every value is read here, before
    any work."""
    raw = read_config_file(args.config) if args.config else {}
    if "lambda" in raw:  # the flag is --lambda but the dest is lam
        raw["lam"] = raw.pop("lambda")
    dests = _COMMANDS[args.command][1]
    for key in raw:
        if key not in dests:
            raise ConfigError(f"{args.config}: {args.command} has no flag "
                              f"{_flag(key)}")
    given = vars(args)
    raw.update((k, given[k]) for k in dests if given[k] is not None)
    return _Config(raw)


def _out_dir(cfg) -> str:
    out = cfg.get("out_dir") or os.environ.get(_OUT_DIR_ENV, ".")
    os.makedirs(out, exist_ok=True)
    return out


def _integrator_config(cfg) -> IntegratorConfig:
    """The default config with the integrator flags given in `cfg`."""
    return IntegratorConfig(**{d: cfg[d] for d in _INTEGRATOR if d in cfg})


def _echo(cfg: dict) -> dict:
    return {k: (v if isinstance(v, (int, float, str, bool)) else str(v))
            for k, v in sorted(cfg.items())}


def _drifts(traj) -> dict:
    out = {}
    for name, vals in traj.monitors.items():
        finite = vals[np.isfinite(vals)]
        out[name] = float(np.max(finite) - np.min(finite)) if finite.size \
            else float("nan")
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _radial(cfg):
    variant = cfg.get("variant", "energy")
    if variant == "energy":
        E, r, vr = cfg["energy"], cfg["r"], cfg["vr"]
        # the variant's conserved l^2 = |x|^2 |v|^2 - (x . v)^2 of the
        # free motion it reduces; below 0 no motion has the state
        l2 = r * r * (2.0 * E - vr * vr)
        if l2 < 0.0:
            raise ConfigError(
                f"--r {r:g}, --vr {vr:g} and --energy {E:g} give l^2 = "
                f"r^2 (2E - vr^2) = {l2:.6g} < 0, which belongs to no orbit "
                f"(the state needs vr^2 <= 2E)")
        return radial_reduced_field(E=E, variant="energy")
    if variant == "angular":
        return radial_reduced_field(l=cfg["l"], variant="angular")
    raise ConfigError(f"unknown radial variant {variant!r}")


# each system's initial-state flags and its field
_SYSTEMS = {
    "kepler": (("x", "v"), lambda cfg: kepler_field()),
    "conformal": (("y", "u"), lambda cfg: conformal_kepler_field()),
    "oscillator": (("Y", "U"),
                   lambda cfg: completed_oscillator_field(E=cfg["energy"])),
    "free3d": (("x", "v"), lambda cfg: free3d_field()),
    "radial": (("r", "vr"), _radial),
    "calogero": (("q", "qd"), lambda cfg: calogero_moser_field(l=cfg["l"])),
}


def _build_system(cfg):
    name = cfg["system"]
    if name not in _SYSTEMS:
        raise ConfigError(f"unknown system {name!r}; "
                          f"choose from {tuple(_SYSTEMS)}")
    state, field = _SYSTEMS[name]
    s0 = np.hstack([cfg[key] for key in state])
    return field(cfg), s0


def cmd_simulate(cfg: dict) -> int:
    system, s0 = _build_system(cfg)
    t_end = cfg["t_end"]
    out = _out_dir(cfg)
    prefix = cfg.get("prefix", system.name)
    start = time.perf_counter()
    # the CSV holds the nodes alone: no dense output
    traj = integrate(system, s0, t_end, config=dataclasses.replace(
        _integrator_config(cfg), dense_output=False))
    wall = time.perf_counter() - start
    csv_path = os.path.join(out, f"{prefix}.csv")
    traj.to_csv(csv_path)
    drifts = _drifts(traj)
    summary = {
        "system": system.name,
        "t_end": t_end,
        "accepted_steps": int(len(traj.times) - 1),
        **traj.stats,
        "monitor_drift": drifts,
        "energy_drift": drifts.get(system.energy.name) if system.energy
        else None,
        "wall_time_s": wall,
        "config": _echo(cfg.raw),
    }
    json_path = os.path.join(out, f"{prefix}.json")
    write_json(json_path, summary)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_unfold(cfg: dict) -> int:
    x, v = cfg["x"], cfg["v"]
    if np.linalg.norm(x) == 0.0:
        raise ConfigError("unfold needs |x| > 0")
    k = cfg.get("k", 1.0)
    E = 0.5 * float(v @ v) - k / float(np.linalg.norm(x))
    if "tau_end" in cfg:
        tau_end = cfg["tau_end"]
    elif E < 0.0:
        tau_end = 2.0 * np.pi / np.sqrt(-2.0 * E)  # one upstairs period
    else:
        raise ConfigError("--tau-end is required for E >= 0")
    try:
        scaling = scaling_preset(cfg.get("scaling", "unit"))
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None
    gauges = cfg.get("lam", [0.0])
    out = _out_dir(cfg)
    prefix = cfg.get("prefix", "unfold")

    sweep = unfold_sweep(
        np.concatenate([x, v]), tau_end, gauges, scaling=scaling,
        config=_integrator_config(cfg), k=k,
        n_samples=cfg.get("samples", 512),
    )
    # keep no finished gauge: fold each later one's largest distance to the
    # first gauge's (x, v), on rows where both are finite, into a maximum
    first, cross = None, 0.0
    start = time.perf_counter()
    try:
        for i, (lam, res) in enumerate(zip(gauges, sweep)):
            wall = time.perf_counter() - start
            stem = prefix if len(gauges) == 1 else f"{prefix}_lam{i}"
            csv_path = os.path.join(out, f"{stem}.csv")
            res.to_csv(csv_path)
            summary = res.sidecar()
            summary["collision_regularized"] = res.collision
            summary["wall_time_s"] = wall
            summary["config"] = _echo({**cfg.raw, "lam": lam})
            write_json(os.path.join(out, f"{stem}.json"), summary)
            table = np.concatenate([res.xs, res.vs], axis=1)
            if first is None:
                first = table
            else:
                good = np.all(np.isfinite(first) & np.isfinite(table), axis=1)
                cross = max(cross, float(np.max(
                    np.linalg.norm(first[good] - table[good], axis=1))))
            print(f"wrote {csv_path} (lambda={lam:.6g}, E={res.E:.6g})")
            start = time.perf_counter()
    except HorizonError as exc:
        raise ConfigError(f"--tau-end: {exc}") from None

    if len(gauges) > 1:
        sweep = {
            "lambdas": [float(g) for g in gauges],
            "max_downstairs_divergence": cross,
            "config": _echo(cfg.raw),
        }
        write_json(os.path.join(out, f"{prefix}_sweep.json"), sweep)
        print(f"gauge sweep downstairs divergence {cross:.3e}")
    return 0


def cmd_verify(cfg: dict) -> int:
    suite = cfg["suite"]
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {SUITES}")
    report = run_suite(suite, samples=cfg.get("samples", 100),
                       seed=cfg.get("seed", 0))
    report["config"] = _echo(cfg.raw)
    print(json.dumps(report, indent=2, sort_keys=True))
    if cfg.get("out"):
        write_json(os.path.join(_out_dir(cfg), cfg["out"]), report)
    return 0 if report["pass"] else 1


def cmd_demo(cfg: dict) -> int:
    which = cfg.get("demo")
    if which not in _DEMO_T_END:
        problem = ("missing the demo name (positional argument DEMO)"
                   if which is None else f"unknown demo {which!r}")
        raise ConfigError(f"{problem}; choose radial or calogero")
    t_end = cfg.get("t_end", _DEMO_T_END[which])
    out = _out_dir(cfg)
    if which == "radial":
        x = cfg.get("x", np.array([1.0, 0.0, 0.0]))
        v = cfg.get("v", np.array([0.0, 1.0, 0.0]))
        report = check_equivariance(
            radial_setup(0.5 * float(v @ v)), np.concatenate([x, v]), t_end,
            tol=cfg.get("tol", 1e-8), config=_integrator_config(cfg),
        )
    else:  # calogero
        X0 = np.diag([0.0, 1.0])
        if cfg.get("l") == 0.0:
            V0 = np.diag([0.25, 1.5])
            tol = cfg.get("tol", 1e-10)
        else:
            a = -cfg.get("l", -1.0 / np.sqrt(2.0))
            V0 = np.array([[0.0, a], [a, 0.0]])
            tol = cfg.get("tol", 1e-6)
        report = reduce_calogero(
            X0, V0, t_end, tol=tol, config=_integrator_config(cfg),
        )
    report["config"] = _echo(cfg.raw)
    write_json(os.path.join(out, f"{which}.json"), report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ksunfold",
        description="Kepler unfolding toolkit: simulate, unfold, verify, demo.",
        allow_abbrev=False,
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, dests) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        sp.add_argument("--config", help="key=value config file")
        for dest in dests:
            if dest == "demo":
                sp.add_argument("demo", nargs="?", metavar="DEMO",
                                help=_HELP[dest])
            else:
                sp.add_argument(_flag(dest), dest=dest, help=_HELP.get(dest))
    return p


def _error_json(exc: Exception, code: int) -> int:
    # str() of a KeyError is the repr of its message
    message = exc.args[0] if isinstance(exc, KeyError) and exc.args \
        else str(exc)
    payload = {"error": type(exc).__name__, "message": message,
               "exit_code": code}
    t = getattr(exc, "t", None)
    if t is not None:
        payload["t"] = float(t)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


_PARSER = None  # built by the first `main` call


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        # looked up on each call, so a replaced `cmd_<name>` is the one run
        return globals()[f"cmd_{args.command}"](_merge(args))
    except (ConfigError, LiftError, DomainError, KeyError, ValueError) as exc:
        # bad flags, inadmissible initial states, wrong scaling domain
        return _error_json(exc, 2)
    except (IntegrationError, DegenerateStructureError) as exc:
        return _error_json(exc, 3)
    except OSError as exc:
        # an output directory or file that cannot be made or written; the
        # message names its path
        return _error_json(exc, 2)


if __name__ == "__main__":
    sys.exit(main())
