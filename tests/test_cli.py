"""Command-line interface: exit codes, outputs, determinism, config files."""

import contextlib
import io
import json
import os
import pathlib

import numpy as np
import pytest

from ksunfold.cli import main, read_config_file


def run(argv):
    return main(argv)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _first_line(path):
    with open(path) as fh:
        return fh.readline()


def test_simulate_kepler_writes_csv_and_json(tmp_path):
    code = run(["simulate", "--system", "kepler", "--x", "1,0,0",
                "--v", "0,1,0", "--t-end", "6.2832",
                "--out-dir", str(tmp_path)])
    assert code == 0
    summary = _read_json(tmp_path / "kepler.json")
    assert summary["system"] == "kepler"
    assert summary["energy_drift"] is not None
    assert summary["energy_drift"] < 1e-9
    assert summary["accepted_steps"] > 10
    header = _first_line(tmp_path / "kepler.csv")
    assert header.startswith("t,x1,x2,x3,v1,v2,v3")


def test_simulate_kepler_ten_periods_energy_drift(tmp_path):
    # drift scales with the tolerance; at rel-tol 1e-11 ten orbits hold 1e-9
    code = run(["simulate", "--system", "kepler", "--x", "1,0,0",
                "--v", "0,1,0", "--t-end", str(20 * np.pi),
                "--rel-tol", "1e-11",
                "--out-dir", str(tmp_path)])
    assert code == 0
    summary = _read_json(tmp_path / "kepler.json")
    assert summary["energy_drift"] < 1e-9


def test_step_counts_of_the_benchmark_simulations(monkeypatch, tmp_path):
    # the three simulate-direct orbits of the benchmark at seed 7 (e = 0,
    # 0.6, 0.9): a step or rhs call more or less fails here, not only in
    # the benchmark; 12 rhs calls per attempt and 2 to start, with no
    # dense output
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    calls = workloads.build("simulate-direct", 7, str(tmp_path))
    counts = []
    for call in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(call.argv)) == 0
        summary = _read_json(call.files()[1])
        counts.append(tuple(summary[key] for key in (
            "accepted_steps", "rejected_steps", "rhs_evals",
            "domain_retries")))
    assert [call.label for call in calls] == ["sim_e0", "sim_e0.6",
                                              "sim_e0.9"]
    assert counts == [(355, 0, 4262, 0), (557, 170, 8726, 0),
                      (982, 306, 15458, 0)]


def test_simulate_oscillator(tmp_path):
    code = run(["simulate", "--system", "oscillator", "--energy", "-0.5",
                "--Y", "1,0,0,0", "--U", "0,1,0,0",
                "--t-end", str(2 * np.pi), "--out-dir", str(tmp_path),
                "--prefix", "osc"])
    assert code == 0
    summary = _read_json(tmp_path / "osc.json")
    assert summary["monitor_drift"]["oscillator_invariant"] < 1e-9


def test_simulate_missing_flag_exits_2(tmp_path, capsys):
    code = run(["simulate", "--system", "kepler", "--x", "1,0,0",
                "--out-dir", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    assert "v" in err["message"]


def test_simulate_unknown_system_exits_2(tmp_path, capsys):
    code = run(["simulate", "--system", "pendulum", "--out-dir", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


def test_simulate_integration_failure_exits_3(tmp_path, capsys):
    # radial infall reaches the collision before t_end
    code = run(["simulate", "--system", "kepler", "--x", "1,0,0",
                "--v=-0.5,0,0", "--t-end", "2.0",
                "--out-dir", str(tmp_path)])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IntegrationError"
    assert 0.0 < err["t"] < 2.0


def test_simulate_a_start_whose_scaled_squares_overflow(tmp_path, capsys):
    # v = 1e150 over t = 1e-150: the starting-step heuristic's
    # (f0 / scale)^2 overflows, and the run still ends at x = 2 with
    # nothing on stderr
    code = run(["simulate", "--system", "free3d", "--x=1,0,0",
                "--v=1e150,0,0", "--t-end", "1e-150",
                "--out-dir", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    last = np.loadtxt(tmp_path / "free3d.csv", delimiter=",", skiprows=1,
                      ndmin=2)[-1]
    assert last[0] == 1e-150 and last[1] == 2.0


def test_simulate_a_first_step_under_the_step_floor(tmp_path, capsys):
    # v = 1e16 over t = 1: the starting heuristic's step, about 1.5e-16,
    # lies under the loop's step floor 16 eps; the run starts at the floor
    # and ends near x = 1e16, where it exited 3 on its first attempt
    code = run(["simulate", "--system", "free3d", "--x=1,0,0",
                "--v=1e16,0,0", "--t-end", "1",
                "--out-dir", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    last = np.loadtxt(tmp_path / "free3d.csv", delimiter=",", skiprows=1,
                      ndmin=2)[-1]
    assert last[0] == 1.0 and abs(last[1] - 1e16) <= 1e16 * 1e-15


_RADIAL = ["simulate", "--system", "radial", "--r", "1"]


def test_simulate_radial_state_with_negative_l2_exits_2(tmp_path, capsys):
    # l^2 = r^2 (2E - vr^2) = -0.8 - 0.09 < 0 belongs to no orbit
    code = run(_RADIAL + ["--vr", "0.3", "--energy", "-0.4", "--t-end", "3",
                          "--out-dir", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    for part in ("--r 1", "--vr 0.3", "--energy -0.4", "l^2", "-0.89"):
        assert part in err["message"]
    assert not list(tmp_path.iterdir())
    # l^2 = 0, purely radial free motion r = 1 + t, is an orbit
    assert run(_RADIAL + ["--vr", "1", "--energy", "0.5", "--t-end", "0.5",
                          "--out-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("flag, value", [("--rel-tol", "0"),
                                         ("--abs-tol", "-1e-12")])
def test_simulate_non_positive_tolerance_exits_2_naming_it(
        tmp_path, capsys, flag, value):
    code = run(["simulate", "--system", "kepler", "--x", "1,0,0",
                "--v", "0,1,0", "--t-end", "1.0", f"{flag}={value}",
                "--out-dir", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["message"].startswith(
        f"{flag[2:].replace('-', '_')} must be finite and positive")
    assert not list(tmp_path.iterdir())


def test_simulate_inadmissible_state_exits_2(tmp_path, capsys):
    code = run(["simulate", "--system", "kepler", "--x", "0,0,0",
                "--v", "0,1,0", "--t-end", "1.0", "--out-dir", str(tmp_path)])
    assert code == 2


def test_simulate_determinism(tmp_path):
    args = ["simulate", "--system", "kepler", "--x", "1,0,0", "--v", "0,0.8,0",
            "--t-end", "7.0"]
    run(args + ["--out-dir", str(tmp_path), "--prefix", "a"])
    run(args + ["--out-dir", str(tmp_path), "--prefix", "b"])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_unfold_circular(tmp_path):
    code = run(["unfold", "--x", "1,0,0", "--v", "0,1,0",
                "--out-dir", str(tmp_path)])
    assert code == 0
    summary = _read_json(tmp_path / "unfold.json")
    assert abs(summary["E"] + 0.5) < 1e-12
    assert not summary["collision_regularized"]
    assert summary["divergence"]["max_position_divergence"] < 1e-7
    header = _first_line(tmp_path / "unfold.csv").strip()
    assert header == "tau,t,Y1,Y2,Y3,Y0,U1,U2,U3,U0,x1,x2,x3,v1,v2,v3"


def test_unfold_collision_is_regularized(tmp_path):
    code = run(["unfold", "--x", "1,0,0", "--v=-0.5,0,0",
                "--tau-end", "6.0", "--out-dir", str(tmp_path)])
    assert code == 0
    summary = _read_json(tmp_path / "unfold.json")
    assert summary["collision_regularized"]


def test_unfold_gauge_sweep(tmp_path):
    code = run(["unfold", "--x", "1,0,0", "--v", "0,1,0",
                "--lambda", "0..6.28:4", "--samples", "64",
                "--out-dir", str(tmp_path), "--prefix", "sw"])
    assert code == 0
    sweep = _read_json(tmp_path / "sw_sweep.json")
    assert len(sweep["lambdas"]) == 4
    assert sweep["max_downstairs_divergence"] < 1e-8
    for i in range(4):
        assert (tmp_path / f"sw_lam{i}.csv").exists()


def test_a_two_gauge_sweep_writes_its_divergence(tmp_path):
    # the smallest sweep: its summary names both gauges, and its divergence
    # is the largest distance between the two gauges' (x, v) in their CSVs
    assert run(["unfold", "--x", "1,0,0", "--v", "0,0.8,0",
                "--lambda", "0..1:2", "--out-dir", str(tmp_path),
                "--prefix", "two"]) == 0
    sweep = _read_json(tmp_path / "two_sweep.json")
    assert sweep["lambdas"] == [0.0, 1.0]
    first, second = (np.loadtxt(tmp_path / f"two_lam{i}.csv", delimiter=",",
                                skiprows=1)[:, 10:16] for i in range(2))
    want = float(np.max(np.linalg.norm(first - second, axis=1)))
    assert 0.0 < want < 1e-8
    assert sweep["max_downstairs_divergence"] == want


def test_unfold_positive_energy_needs_tau_end(tmp_path, capsys):
    code = run(["unfold", "--x", "1,0,0", "--v", "0,2,0",
                "--out-dir", str(tmp_path)])
    assert code == 2
    assert "tau-end" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("tau_end", ["-1", "0"])
def test_unfold_non_positive_tau_end_exits_2_naming_the_flag(
        tmp_path, capsys, tau_end):
    code = run(["unfold", "--x", "1,0,0", "--v", "0,1,0",
                f"--tau-end={tau_end}", "--out-dir", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "--tau-end" in err["message"] and "positive" in err["message"]
    assert "Y0" not in err["message"]


def test_unfold_rejects_bad_scaling_domain(tmp_path, capsys):
    # gyorgyi scaling needs E > 0
    code = run(["unfold", "--x", "1,0,0", "--v", "0,1,0",
                "--scaling", "gyorgyi", "--out-dir", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["unfold", "--x", "1,0,0", "--v", "0,1,0",
     "--samples", str(10 ** 18)],
    ["unfold", "--x", "1,0,0", "--v", "0,1,0",
     "--lambda", f"0..1:{10 ** 18}"],
    ["verify", "--suite", "kepler-algebra", "--samples", str(10 ** 17)],
], ids=["unfold-samples", "unfold-lambda", "verify-samples"])
def test_an_allocation_past_the_address_space_exits_2(tmp_path, capsys,
                                                      argv):
    # 2 to 7 EiB of float64, which no address space holds, so NumPy
    # refuses the array at once and nothing is allocated
    assert run(argv + ["--out-dir", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    assert "Unable to allocate" in err["message"]


def test_verify_all_suites(tmp_path, capsys):
    from ksunfold import SUITES

    for suite in SUITES:
        code = run(["verify", "--suite", suite, "--samples", "50",
                    "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0, f"{suite}: {out}"
        assert json.loads(out)["pass"]


def test_verify_report_file(tmp_path):
    code = run(["verify", "--suite", "kepler-algebra", "--samples", "20",
                "--out", "rep.json", "--out-dir", str(tmp_path)])
    assert code == 0
    rep = _read_json(tmp_path / "rep.json")
    assert rep["suite"] == "kepler-algebra"
    assert all(e["pass"] for e in rep["entries"])


def test_verify_report_counts_brackets_and_gradients(tmp_path, capsys):
    for suite, counts in (("kepler-algebra", (21, 7)),
                          ("rescaled-so4", (18, 12))):
        code = run(["verify", "--suite", suite, "--samples", "10",
                    "--out", "rep.json", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        rep = _read_json(tmp_path / "rep.json")
        assert (rep["brackets"], rep["gradient_evals"]) == counts


def test_verify_unknown_suite(tmp_path, capsys):
    code = run(["verify", "--suite", "bogus", "--out-dir", str(tmp_path)])
    assert code == 2
    capsys.readouterr()


def test_demo_radial(tmp_path, capsys):
    code = run(["demo", "radial", "--out-dir", str(tmp_path)])
    assert code == 0
    rep = _read_json(tmp_path / "radial.json")
    assert rep["pass"]
    assert rep["max_divergence"] < 1e-8
    capsys.readouterr()


def test_demo_calogero_default_and_free(tmp_path, capsys):
    code = run(["demo", "calogero", "--out-dir", str(tmp_path)])
    assert code == 0
    rep = _read_json(tmp_path / "calogero.json")
    assert rep["pass"] and rep["max_divergence"] < 1e-6
    code = run(["demo", "calogero", "--l", "0", "--out-dir", str(tmp_path)])
    assert code == 0
    rep = _read_json(tmp_path / "calogero.json")
    assert abs(rep["l"]) < 1e-14 and rep["max_divergence"] < 1e-10
    capsys.readouterr()


def test_demo_unknown_exits_2(tmp_path, capsys):
    code = run(["demo", "pendulum", "--out-dir", str(tmp_path)])
    assert code == 2
    capsys.readouterr()


def test_demo_without_a_name_exits_2_naming_the_argument(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["demo", "--out-dir", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"] == ("missing the demo name (positional argument "
                              "DEMO); choose radial or calogero")
    assert "--demo" not in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("demo", ["radial", "calogero"])
@pytest.mark.parametrize("t_end", ["0", "-1"])
def test_demo_non_positive_t_end_exits_2_naming_the_flag(
        tmp_path, capsys, demo, t_end):
    out = tmp_path / "out"
    code = run(["demo", demo, f"--t-end={t_end}", "--out-dir", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"] == f"--t-end must be positive, got {t_end!r}"
    assert not out.exists()  # rejected before any work


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# circular orbit\n"
        "system = kepler\n"
        "x = 1,0,0\n"
        "v = 0,1,0\n"
        "t-end = 1.0\n"
        "prefix = fromfile\n"
    )
    code = run(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "fromfile.csv").exists()
    # explicit flags override file values
    code = run(["simulate", "--config", str(cfg), "--prefix", "override",
                "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "override.csv").exists()


def test_read_config_file_parsing(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("a = 1\n# comment\nlong-name = x\n\nb=2\n")
    cfg = read_config_file(str(p))
    assert cfg == {"a": "1", "long_name": "x", "b": "2"}


def test_out_dir_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("KSUNFOLD_OUT_DIR", str(tmp_path))
    code = run(["simulate", "--system", "free3d", "--x", "1,0,0",
                "--v", "0,1,0", "--t-end", "1.0"])
    assert code == 0
    assert (tmp_path / "free3d.csv").exists()


def test_config_file_lambda_alias(tmp_path):
    cfg = tmp_path / "u.cfg"
    cfg.write_text("x = 1,0,0\nv = 0,1,0\nlambda = 1.5\ntau-end = 1.0\n")
    code = run(["unfold", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == 0
    summary = _read_json(tmp_path / "unfold.json")
    assert summary["gauge_lambda"] == 1.5


# --- bad input rejected at the boundary ---------------------------------------

_KEPLER = ["simulate", "--system", "kepler", "--x", "1,0,0", "--v", "0,1,0"]
_UNFOLD = ["unfold", "--x", "1,0,0", "--v", "0,1,0"]


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--system", "kepler", "--x", "1,0,0", "--v", "inf,1,0",
      "--t-end", "1"], "--v"),
    (_KEPLER + ["--t-end", "inf"], "--t-end"),
    (_KEPLER + ["--t-end", "nan"], "--t-end"),
    (["simulate", "--system", "oscillator", "--energy", "nan",
      "--Y", "1,0,0,0", "--U", "0,1,0,0", "--t-end", "1"], "--energy"),
    (["simulate", "--system", "oscillator", "--energy", "-0.5",
      "--Y", "1,0,0,0", "--U", "0,-inf,0,0", "--t-end", "1"], "--U"),
    (["simulate", "--system", "radial", "--r", "inf", "--vr", "0",
      "--energy", "0.5", "--t-end", "1"], "--r"),
    (["simulate", "--system", "calogero", "--q", "0,nan", "--qd", "0,0",
      "--l", "1", "--t-end", "1"], "--q"),
    (["unfold", "--x", "nan,0,0", "--v", "0,1,0"], "--x"),
    (_UNFOLD + ["--tau-end", "inf"], "--tau-end"),
    (_UNFOLD + ["--rel-tol", "nan"], "--rel-tol"),
    (_UNFOLD + ["--lambda", "nan"], "--lambda"),
])
def test_non_finite_input_exits_2_naming_the_flag(tmp_path, capsys, argv, flag):
    code = run(argv + ["--out-dir", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert flag in err["message"] and "finite" in err["message"]


@pytest.mark.parametrize("argv, flag", [
    (_UNFOLD + ["--samples", "0"], "--samples"),
    (_UNFOLD + ["--lambda", "0..1:0"], "--lambda"),
    (_UNFOLD + ["--lambda", "0..1:-2"], "--lambda"),
    (_UNFOLD + ["--max-steps", "0"], "--max-steps"),
    (_KEPLER + ["--t-end", "1", "--max-steps=-5"], "--max-steps"),
    (["verify", "--suite", "kepler-algebra", "--samples", "0"], "--samples"),
])
def test_non_positive_count_exits_2_naming_the_flag(tmp_path, capsys, argv, flag):
    code = run(argv + ["--out-dir", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert flag in err["message"] and "positive" in err["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("t_end", ["0", "-1"])
def test_simulate_non_positive_t_end_exits_2_naming_the_flag(
        tmp_path, capsys, t_end):
    code = run(_KEPLER + [f"--t-end={t_end}", "--out-dir", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "--t-end" in err["message"] and "positive" in err["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("v, tau_end", [("0,2,0", "1000"), ("0,1,0", "1e150")])
def test_unfold_overflowing_span_exits_2_naming_tau_end(
        tmp_path, capsys, v, tau_end):
    # pytest turns every warning into an error: none may be emitted
    code = run(["unfold", "--x", "1,0,0", "--v", v, "--tau-end", tau_end,
                "--out-dir", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "--tau-end" in err["message"] and "overflows" in err["message"]
    assert not list(tmp_path.iterdir())


def test_unfold_sweep_reports_every_gauge_as_it_finishes(tmp_path, capsys):
    code = run(["unfold", "--x", "1,0,0", "--v=-0.5,0,0", "--tau-end", "6",
                "--lambda", "0..3:3", "--samples", "32",
                "--out-dir", str(tmp_path), "--prefix", "sw"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[1] for ln in lines[:3]] == [
        str(tmp_path / f"sw_lam{i}.csv") for i in range(3)]
    for i in range(3):
        side = json.loads((tmp_path / f"sw_lam{i}.json").read_text())
        assert side["collision_regularized"]
        assert side["divergence"]["max_position_divergence"] < 1e-8
        assert side["wall_time_s"] > 0.0


def test_collision_gauge_sweep_agrees_downstairs(tmp_path):
    # the unfolded chart is exact, so gauges agree even next to r = 0
    code = run(["unfold", "--x", "1,0,0", "--v=-0.5,0,0", "--tau-end", "6",
                "--lambda", "0..6.28:8", "--out-dir", str(tmp_path),
                "--prefix", "col"])
    assert code == 0
    sweep = _read_json(tmp_path / "col_sweep.json")
    assert sweep["max_downstairs_divergence"] < 1e-8


def test_unfold_keeps_no_finished_gauge(tmp_path, monkeypatch):
    # 20 gauges span three of unfold_sweep's batches; a command that kept
    # its results would hold 19 when the last one is yielded
    import gc
    import weakref

    import ksunfold.cli as cli

    unfold_sweep, finished, alive = cli.unfold_sweep, [], []

    def watched(*args, **kwargs):
        for res in unfold_sweep(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in finished))
            finished.append(weakref.ref(res))
            yield res

    monkeypatch.setattr(cli, "unfold_sweep", watched)
    assert run(["unfold", "--x", "1,0,0", "--v", "0,0.8,0",
                "--lambda", "0..6.28:20", "--out-dir", str(tmp_path)]) == 0
    assert len(alive) == 20
    assert max(alive) <= 2
    assert _read_json(tmp_path / "unfold_sweep.json")[
        "max_downstairs_divergence"] < 1e-8


def test_unfold_sweep_divergence_leaves_out_non_finite_rows(
        tmp_path, monkeypatch, capsys):
    # rows of inf or NaN, as next to a collision, are left out of the
    # cross-gauge maximum without a warning, inf - inf included
    import ksunfold.cli as cli

    unfold_sweep, tables = cli.unfold_sweep, []

    def spoiled(*args, **kwargs):
        for i, res in enumerate(unfold_sweep(*args, **kwargs)):
            res.xs[5, 0] = np.inf
            res.vs[9 + i, 1] = np.nan
            res.xs[20 * i, 2] = -np.inf
            tables.append(np.concatenate([res.xs, res.vs], axis=1))
            yield res

    monkeypatch.setattr(cli, "unfold_sweep", spoiled)
    assert run(["unfold", "--x", "1,0,0", "--v", "0,0.8,0",
                "--lambda", "0..3:3", "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    first, *later = tables
    want = 0.0
    for table in later:
        good = np.all(np.isfinite(first) & np.isfinite(table), axis=1)
        assert good.sum() == len(good) - 5
        want = max(want, float(np.max(
            np.linalg.norm(first[good] - table[good], axis=1))))
    assert 0.0 < want < 1e-8
    assert _read_json(tmp_path / "unfold_sweep.json")[
        "max_downstairs_divergence"] == want


def test_unfold_of_a_start_inside_r_min_is_written_uncompared(
        tmp_path, capsys):
    # the direct leg's field refuses |x| < r_min = 1e-12 at its start; the
    # closed form does not, so the unfold is written and reports no
    # comparison
    code = run(["unfold", "--x", "1e-13,0,0", "--v", "0,0,0",
                "--out-dir", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    side = _read_json(tmp_path / "unfold.json")
    assert side["divergence"] == {"compared": False, "collision": True,
                                  "t_compared": 0.0}
    assert side["direct_leg"] == {"horizon": "collision", "attempts": 1}
    assert side["collision_regularized"]
    assert (tmp_path / "unfold.csv").exists()


def test_simulate_sidecar_reports_integrator_counts(tmp_path):
    code = run(_KEPLER + ["--t-end", "6.2832", "--out-dir", str(tmp_path)])
    assert code == 0
    summary = _read_json(tmp_path / "kepler.json")
    assert summary["domain_retries"] == 0
    # 2 set-up calls and 12 per accepted or rejected step: simulate forms no
    # dense output
    assert summary["rhs_evals"] == 2 + 12 * (summary["accepted_steps"]
                                             + summary["rejected_steps"])


def test_simulate_runs_through_a_wrapper_with_the_tracer_signature(
        tmp_path, monkeypatch):
    # the benchmark's tracer rebinds `integrate` to a wrapper of this exact
    # signature, which forwards only `config` and `t0`
    import ksunfold.cli as cli

    seen = []
    integrate = cli.integrate

    def wrapper(system, s0, t_end, config=None, monitors=None, t0=0.0):
        seen.append(config)
        return integrate(system, s0, t_end, config=config, t0=t0)

    monkeypatch.setattr(cli, "integrate", wrapper)
    assert run(_KEPLER + ["--t-end", "6.2832", "--out-dir",
                          str(tmp_path)]) == 0
    assert [config.dense_output for config in seen] == [False]


def test_simulate_failure_message_carries_counts(tmp_path, capsys):
    code = run(["simulate", "--system", "kepler", "--x", "1,0,0",
                "--v=-0.5,0,0", "--t-end", "5", "--out-dir", str(tmp_path)])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert "rhs_evals=" in err["message"]
    assert "rejected_steps=" in err["message"]
    assert "domain_retries=" in err["message"]


@pytest.mark.parametrize("seed", ["-1", str(2**64 - 1), str(2**64)])
def test_verify_out_of_range_seed_exits_2_naming_the_flag(tmp_path, capsys, seed):
    code = run(["verify", "--suite", "oscillator-u4", "--samples", "5",
                f"--seed={seed}", "--out-dir", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "--seed" in err["message"] and seed in err["message"]


def test_verify_largest_seed_runs(tmp_path, capsys):
    for suite in ("oscillator-u4", "rescaled-so4"):
        code = run(["verify", "--suite", suite, "--samples", "5",
                    f"--seed={2**64 - 2}", "--out-dir", str(tmp_path)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 2**64 - 2


@pytest.mark.parametrize("seed", [-1, 2**64 - 1])
def test_run_suite_rejects_out_of_range_seed(seed):
    from ksunfold import run_suite

    with pytest.raises(ValueError, match="seed"):
        run_suite("kepler-algebra", samples=5, seed=seed)


def test_key_error_message_is_plain_text(tmp_path, capsys):
    code = run(["unfold", "--x", "1,0,0", "--v", "0,1,0", "--scaling", "nope",
                "--out-dir", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == "unknown scaling preset 'nope'"
    assert err["exit_code"] == 2


def test_two_main_calls_build_one_parser(monkeypatch, tmp_path, capsys):
    import ksunfold.cli as cli

    built = []

    def counting():
        built.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    argv = ["verify", "--suite", "kepler-algebra", "--samples", "5",
            "--out-dir", str(tmp_path)]
    assert run(argv) == 0
    assert run(argv) == 0
    assert len(built) == 1


def test_catch_all_key_error_message_is_plain_text(monkeypatch, capsys):
    import ksunfold.cli as cli

    def missing(cfg):
        raise KeyError("no such thing 'x'")

    monkeypatch.setattr(cli, "cmd_verify", missing)
    assert run(["verify", "--suite", "kepler-algebra"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "KeyError", "message": "no such thing 'x'",
                   "exit_code": 2}


@pytest.mark.parametrize("argv, flag", [
    (_KEPLER + ["--t-end", "1", "--max-step", "0"], "--max-step"),
    (_UNFOLD + ["--rel", "1e-9"], "--rel"),
    (["verify", "--suite", "kepler-algebra", "--sample", "5"], "--sample"),
    (["demo", "radial", "--t-e", "1"], "--t-e"),
])
def test_abbreviated_flags_are_rejected(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} " in err
    assert not list(tmp_path.iterdir())


# --- every flag and config key checked before any work ------------------------

@pytest.mark.parametrize("argv, line, flag", [
    (_KEPLER + ["--t-end", "1"], "rel-tl = 0", "--rel-tl"),
    (["verify", "--suite", "kepler-algebra"], "samles = 0", "--samles"),
    (["verify", "--suite", "kepler-algebra"], "rel-tol = 1e-9", "--rel-tol"),
])
def test_config_key_the_command_has_no_flag_for_exits_2_naming_it(
        tmp_path, capsys, argv, line, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    code = run(argv + ["--config", str(cfg), "--out-dir", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert flag in err["message"]
    assert not out.exists()


def test_malformed_flag_the_command_does_not_read_exits_2(tmp_path, capsys):
    code = run(_KEPLER + ["--t-end", "1", "--energy", "abc",
                          "--out-dir", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"] == "--energy expects a number, got 'abc'"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--rel-tol", "--abs-tol", "--max-steps"])
def test_verify_takes_no_integrator_flags(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", "kepler-algebra", flag, "1e-9",
             "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} " in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "0"])
def test_demo_non_positive_tol_exits_2_naming_the_flag(tmp_path, capsys, tol):
    out = tmp_path / "out"
    code = run(["demo", "calogero", f"--tol={tol}", "--out-dir", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"] == f"--tol must be positive, got {tol!r}"
    assert not out.exists()


_SIMULATE_X = ["simulate", "--system", "kepler", "--x", "1,0,0",
               "--v", "0,1,0", "--t-end", "1", "--prefix", "x"]
_IS_ROOT = getattr(os, "geteuid", lambda: -1)() == 0


def _write_error(capsys, path):
    # the whole of stderr is one JSON object: no traceback
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    assert str(path) in err["message"]
    return err


@pytest.mark.parametrize("name", ["x.csv", "x.json"])
def test_output_path_that_is_a_directory_exits_2_naming_it(
        tmp_path, capsys, name):
    (tmp_path / name).mkdir()
    assert run(_SIMULATE_X + ["--out-dir", str(tmp_path)]) == 2
    assert _write_error(capsys, tmp_path / name)["error"] == \
        "IsADirectoryError"


def test_out_dir_that_is_a_file_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "out").write_text("a file\n")
    assert run(_SIMULATE_X + ["--out-dir", str(tmp_path / "out")]) == 2
    _write_error(capsys, tmp_path / "out")


@pytest.mark.skipif(_IS_ROOT, reason="root writes read-only files")
def test_read_only_output_file_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "x.json").write_text("{}\n")
    (tmp_path / "x.json").chmod(0o444)
    assert run(_SIMULATE_X + ["--out-dir", str(tmp_path)]) == 2
    assert _write_error(capsys, tmp_path / "x.json")["error"] == \
        "PermissionError"


@pytest.mark.skipif(_IS_ROOT, reason="root writes in read-only directories")
def test_read_only_out_dir_exits_2_naming_the_file(tmp_path, capsys):
    (tmp_path / "out").mkdir(mode=0o555)
    code = run(["verify", "--suite", "kepler-algebra", "--samples", "5",
                "--out", "rep.json", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    _write_error(capsys, tmp_path / "out" / "rep.json")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_output_that_fills_the_device_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "rep.json").symlink_to("/dev/full")
    code = run(["verify", "--suite", "kepler-algebra", "--samples", "5",
                "--out", "rep.json", "--out-dir", str(tmp_path)])
    assert code == 2
    _write_error(capsys, tmp_path / "rep.json")


def test_outputs_symlinked_to_dev_null_are_written(tmp_path, capsys):
    for name in ("x.csv", "x.json"):
        (tmp_path / name).symlink_to(os.devnull)
    assert run(_SIMULATE_X + ["--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_symlink()) == \
        ["x.csv", "x.json"]
