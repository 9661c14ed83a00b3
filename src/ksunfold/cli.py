"""Command-line front end: simulate / unfold / verify / demo.

Every run is determined by its effective config (flags over config-file
values over defaults) plus one explicit seed; CSV outputs are bit-identical
across reruns.  Errors exit with code 2 (bad config), 3 (integration
failure), or 1 (a verification/demo tolerance failed), with a JSON error
object on stderr.
"""

from __future__ import annotations

import argparse
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

_SYSTEMS = ("kepler", "conformal", "oscillator", "free3d", "radial", "calogero")
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


def _merge(args: argparse.Namespace) -> dict:
    """Effective config: defaults < config file < explicit flags."""
    cli = {k: v for k, v in vars(args).items()
           if v is not None and k not in ("func", "config")}
    file_cfg = read_config_file(args.config) if args.config else {}
    if "lambda" in file_cfg:  # the flag is --lambda but the dest is lam
        file_cfg["lam"] = file_cfg.pop("lambda")
    return {**file_cfg, **cli}


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    return cfg[key]


def _as_float(cfg, key, default=None):
    val = cfg.get(key, default)
    if val is None:
        raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    try:
        out = float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"--{key.replace('_', '-')} expects a number, "
                          f"got {val!r}") from None
    if not np.isfinite(out):
        raise ConfigError(f"--{key.replace('_', '-')} must be finite, "
                          f"got {val!r}")
    return out


def _as_int(cfg, key, default=None):
    val = cfg.get(key, default)
    if val is None:
        raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    try:
        return int(val)
    except (TypeError, ValueError):
        raise ConfigError(f"--{key.replace('_', '-')} expects an integer, "
                          f"got {val!r}") from None


def _as_count(cfg, key, default):
    n = _as_int(cfg, key, default)
    if n <= 0:
        raise ConfigError(f"--{key.replace('_', '-')} must be a positive "
                          f"integer, got {n}")
    return n


def _as_t_end(cfg, default=None):
    t_end = _as_float(cfg, "t_end", default)
    if t_end <= 0.0:
        raise ConfigError(f"--t-end must be positive, got {cfg['t_end']!r}")
    return t_end


def _as_vec(cfg, key, n):
    raw = _require(cfg, key)
    try:
        vec = np.array([float(p) for p in str(raw).split(",")])
    except ValueError:
        raise ConfigError(f"--{key}: expected {n} comma-separated numbers, "
                          f"got {raw!r}") from None
    if vec.size != n:
        raise ConfigError(f"--{key}: expected {n} components, got {vec.size}")
    if not np.all(np.isfinite(vec)):
        raise ConfigError(f"--{key}: components must be finite, got {raw!r}")
    return vec


def _parse_gauge(raw) -> list:
    """Either a single angle or a sweep 'start..stop:count'."""
    text = str(raw)
    if ".." in text:
        span, _, count = text.partition(":")
        if not count:
            raise ConfigError(f"--lambda sweep needs a count: {raw!r}")
        a, _, b = span.partition("..")
        try:
            lo, hi, n = float(a), float(b), int(count)
        except ValueError:
            raise ConfigError(f"bad --lambda sweep {raw!r}") from None
        if n <= 0:
            raise ConfigError(f"--lambda sweep count must be a positive "
                              f"integer, got {raw!r}")
        gauges = list(np.linspace(lo, hi, n))
    else:
        try:
            gauges = [float(text)]
        except ValueError:
            raise ConfigError(f"bad --lambda value {raw!r}") from None
    if not np.all(np.isfinite(gauges)):
        raise ConfigError(f"--lambda must be finite, got {raw!r}")
    return gauges


def _out_dir(cfg) -> str:
    out = cfg.get("out_dir") or os.environ.get(_OUT_DIR_ENV, ".")
    os.makedirs(out, exist_ok=True)
    return out


def _integrator_config(cfg) -> IntegratorConfig:
    return IntegratorConfig(
        rel_tol=_as_float(cfg, "rel_tol", 1e-10),
        abs_tol=_as_float(cfg, "abs_tol", 1e-12),
        max_steps=_as_count(cfg, "max_steps", 10_000_000),
    )


def _echo(cfg: dict) -> dict:
    return {k: (v if isinstance(v, (int, float, str, bool)) else str(v))
            for k, v in sorted(cfg.items())}


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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

def _build_system(cfg):
    name = _require(cfg, "system")
    if name not in _SYSTEMS:
        raise ConfigError(f"unknown system {name!r}; choose from {_SYSTEMS}")
    if name in ("kepler", "free3d"):
        s0 = np.concatenate([_as_vec(cfg, "x", 3), _as_vec(cfg, "v", 3)])
        system = kepler_field() if name == "kepler" else free3d_field()
    elif name == "conformal":
        s0 = np.concatenate([_as_vec(cfg, "y", 4), _as_vec(cfg, "u", 4)])
        system = conformal_kepler_field()
    elif name == "oscillator":
        s0 = np.concatenate([_as_vec(cfg, "Y", 4), _as_vec(cfg, "U", 4)])
        system = completed_oscillator_field(E=_as_float(cfg, "energy"))
    elif name == "radial":
        s0 = np.array([_as_float(cfg, "r"), _as_float(cfg, "vr")])
        variant = cfg.get("variant", "energy")
        if variant == "energy":
            system = radial_reduced_field(E=_as_float(cfg, "energy"),
                                          variant="energy")
        elif variant == "angular":
            system = radial_reduced_field(l=_as_float(cfg, "l"),
                                          variant="angular")
        else:
            raise ConfigError(f"unknown radial variant {variant!r}")
    else:  # calogero
        q = _as_vec(cfg, "q", 2)
        qd = _as_vec(cfg, "qd", 2)
        s0 = np.concatenate([q, qd])
        system = calogero_moser_field(l=_as_float(cfg, "l"))
    return system, s0


def cmd_simulate(cfg: dict) -> int:
    system, s0 = _build_system(cfg)
    t_end = _as_t_end(cfg)
    out = _out_dir(cfg)
    prefix = cfg.get("prefix", system.name)
    start = time.perf_counter()
    traj = integrate(system, s0, t_end, config=_integrator_config(cfg))
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
        "config": _echo(cfg),
    }
    json_path = os.path.join(out, f"{prefix}.json")
    _write_json(json_path, summary)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_unfold(cfg: dict) -> int:
    x = _as_vec(cfg, "x", 3)
    v = _as_vec(cfg, "v", 3)
    if np.linalg.norm(x) == 0.0:
        raise ConfigError("unfold needs |x| > 0")
    k = _as_float(cfg, "k", 1.0)
    E = 0.5 * float(v @ v) - k / float(np.linalg.norm(x))
    if "tau_end" in cfg:
        tau_end = _as_float(cfg, "tau_end")
        if tau_end <= 0.0:
            raise ConfigError(f"--tau-end must be positive, "
                              f"got {cfg['tau_end']!r}")
    elif E < 0.0:
        tau_end = 2.0 * np.pi / np.sqrt(-2.0 * E)  # one upstairs period
    else:
        raise ConfigError("--tau-end is required for E >= 0")
    try:
        scaling = scaling_preset(cfg.get("scaling", "unit"))
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None
    gauges = _parse_gauge(cfg.get("lam", 0.0))
    out = _out_dir(cfg)
    prefix = cfg.get("prefix", "unfold")
    icfg = _integrator_config(cfg)
    n_samples = _as_count(cfg, "samples", 512)

    results = []
    sweep = unfold_sweep(
        np.concatenate([x, v]), tau_end, gauges, scaling=scaling,
        config=icfg, k=k, n_samples=n_samples,
    )
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
            summary["config"] = _echo({**cfg, "lam": lam})
            _write_json(os.path.join(out, f"{stem}.json"), summary)
            results.append(res)
            print(f"wrote {csv_path} (lambda={lam:.6g}, E={res.E:.6g})")
            start = time.perf_counter()
    except HorizonError as exc:
        raise ConfigError(f"--tau-end: {exc}") from None

    if len(results) > 1:
        cross = 0.0
        base = np.concatenate([results[0].xs, results[0].vs], axis=1)
        for res in results[1:]:
            other = np.concatenate([res.xs, res.vs], axis=1)
            good = np.all(np.isfinite(base) & np.isfinite(other), axis=1)
            cross = max(cross, float(np.max(
                np.linalg.norm(base[good] - other[good], axis=1)
            )))
        sweep = {
            "lambdas": [float(g) for g in gauges],
            "max_downstairs_divergence": cross,
            "config": _echo(cfg),
        }
        _write_json(os.path.join(out, f"{prefix}_sweep.json"), sweep)
        print(f"gauge sweep downstairs divergence {cross:.3e}")
    return 0


def cmd_verify(cfg: dict) -> int:
    suite = _require(cfg, "suite")
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {SUITES}")
    seed = _as_int(cfg, "seed", 0)
    if not 0 <= seed <= MAX_SUITE_SEED:
        raise ConfigError(f"--seed must be an integer in [0, 2**64 - 2], "
                          f"got {seed}")
    report = run_suite(suite, samples=_as_count(cfg, "samples", 100),
                       seed=seed)
    report["config"] = _echo(cfg)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if cfg.get("out"):
        with open(os.path.join(_out_dir(cfg), cfg["out"]), "w") as fh:
            fh.write(text + "\n")
    return 0 if report["pass"] else 1


def cmd_demo(cfg: dict) -> int:
    which = cfg.get("demo")
    if which not in _DEMO_T_END:
        problem = ("missing the demo name (positional argument DEMO)"
                   if which is None else f"unknown demo {which!r}")
        raise ConfigError(f"{problem}; choose radial or calogero")
    t_end = _as_t_end(cfg, _DEMO_T_END[which])
    out = _out_dir(cfg)
    if which == "radial":
        x = _as_vec(cfg, "x", 3) if "x" in cfg else np.array([1.0, 0.0, 0.0])
        v = _as_vec(cfg, "v", 3) if "v" in cfg else np.array([0.0, 1.0, 0.0])
        s0 = np.concatenate([x, v])
        E = 0.5 * float(v @ v)
        report = check_equivariance(
            radial_setup(E), s0, t_end,
            tol=_as_float(cfg, "tol", 1e-8),
            config=_integrator_config(cfg),
        )
    else:  # calogero
        X0 = np.diag([0.0, 1.0])
        if "l" in cfg and _as_float(cfg, "l") == 0.0:
            V0 = np.diag([0.25, 1.5])
            tol = _as_float(cfg, "tol", 1e-10)
        else:
            a = -_as_float(cfg, "l", -1.0 / np.sqrt(2.0))
            V0 = np.array([[0.0, a], [a, 0.0]])
            tol = _as_float(cfg, "tol", 1e-6)
        report = reduce_calogero(
            X0, V0, t_end, tol=tol, config=_integrator_config(cfg),
        )
    report["config"] = _echo(cfg)
    _write_json(os.path.join(out, f"{which}.json"), report)
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

    def common(sp):
        sp.add_argument("--config", help="key=value config file")
        sp.add_argument("--out-dir", dest="out_dir",
                        help=f"output directory (default ${_OUT_DIR_ENV} or .)")
        sp.add_argument("--rel-tol", dest="rel_tol")
        sp.add_argument("--abs-tol", dest="abs_tol")
        sp.add_argument("--max-steps", dest="max_steps")

    sim = sub.add_parser("simulate", help="integrate a system, write CSV+JSON",
                         allow_abbrev=False)
    common(sim)
    sim.add_argument("--system")
    sim.add_argument("--x")
    sim.add_argument("--v")
    sim.add_argument("--y")
    sim.add_argument("--u")
    sim.add_argument("--Y", dest="Y")
    sim.add_argument("--U", dest="U")
    sim.add_argument("--r")
    sim.add_argument("--vr")
    sim.add_argument("--q")
    sim.add_argument("--qd")
    sim.add_argument("--l")
    sim.add_argument("--energy")
    sim.add_argument("--variant")
    sim.add_argument("--t-end", dest="t_end")
    sim.add_argument("--prefix")
    sim.set_defaults(func=cmd_simulate)

    unf = sub.add_parser("unfold", help="lift, flow upstairs, project back",
                         allow_abbrev=False)
    common(unf)
    unf.add_argument("--x")
    unf.add_argument("--v")
    unf.add_argument("--k")
    unf.add_argument("--tau-end", dest="tau_end")
    unf.add_argument("--lambda", dest="lam",
                     help="gauge angle, or sweep start..stop:count")
    unf.add_argument("--scaling")
    unf.add_argument("--samples")
    unf.add_argument("--prefix")
    unf.set_defaults(func=cmd_unfold)

    ver = sub.add_parser("verify", help="run a structure-constant suite",
                         allow_abbrev=False)
    common(ver)
    ver.add_argument("--suite")
    ver.add_argument("--samples")
    ver.add_argument("--seed")
    ver.add_argument("--out", help="also write the report to this file")
    ver.set_defaults(func=cmd_verify)

    dem = sub.add_parser("demo", help="radial or calogero reduction demo",
                         allow_abbrev=False)
    common(dem)
    dem.add_argument("demo", nargs="?", metavar="DEMO",
                     help="radial or calogero")
    dem.add_argument("--x")
    dem.add_argument("--v")
    dem.add_argument("--l")
    dem.add_argument("--t-end", dest="t_end")
    dem.add_argument("--tol")
    dem.set_defaults(func=cmd_demo)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge(args)
        cfg.pop("command", None)
        return args.func(cfg)
    except (ConfigError, LiftError, DomainError, KeyError, ValueError) as exc:
        # bad flags, inadmissible initial states, wrong scaling domain
        return _error_json(exc, 2)
    except (IntegrationError, DegenerateStructureError) as exc:
        return _error_json(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
