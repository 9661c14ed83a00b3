"""Errors at the package's boundaries: each bad input to a command exits 2
with its JSON error object on stderr, and each bad argument to a library
function raises its type with its message."""

import json

import numpy as np
import pytest

from ksunfold.cli import main
from ksunfold.errors import DegenerateStructureError, DomainError
from ksunfold.integrate import find_return_time, integrate
from ksunfold.reduction import reduce_calogero, unfold_kepler
from ksunfold.symplectic import canonical_structure, verify_structure_constants
from ksunfold.systems import EnergyScaling, free3d_field, reparametrized_field


def _config_error(capsys, argv):
    """The message of the ConfigError that `argv` exits 2 with."""
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error", "exit_code", "message"}
    assert (err["error"], err["exit_code"]) == ("ConfigError", 2)
    return err["message"]


def test_a_config_line_without_a_key_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text("x = 1,0,0\nbogus line\n")
    assert _config_error(capsys, ["unfold", "--config", "bad.cfg"]) \
        == "bad.cfg:2: expected key=value, got 'bogus line'"


def test_a_config_file_that_cannot_be_read_exits_2(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.chdir(tmp_path)
    message = _config_error(capsys, ["unfold", "--config", "missing.cfg"])
    assert message.startswith("cannot read config file missing.cfg: ")


@pytest.mark.parametrize("raw, message", [
    ("0..1", "--lambda sweep needs a count: '0..1'"),
    ("a..b:3", "bad --lambda sweep 'a..b:3'"),
])
def test_a_gauge_sweep_without_a_count_or_numbers_exits_2(tmp_path, capsys,
                                                          raw, message):
    assert _config_error(capsys, [
        "unfold", "--x", "1,0,0", "--v", "0,1,0", f"--lambda={raw}",
        "--out-dir", str(tmp_path)]) == message


def test_an_unknown_radial_variant_exits_2(tmp_path, capsys):
    assert _config_error(capsys, [
        "simulate", "--system", "radial", "--variant", "bogus", "--r", "1",
        "--vr", "0", "--t-end", "1", "--out-dir", str(tmp_path)]) \
        == "unknown radial variant 'bogus'"


def test_an_unfold_from_the_origin_exits_2(tmp_path, capsys):
    assert _config_error(capsys, [
        "unfold", "--x", "0,0,0", "--v", "0,1,0",
        "--out-dir", str(tmp_path)]) == "unfold needs |x| > 0"


def test_a_ragged_start_is_refused():
    with pytest.raises(ValueError, match="p0 must be 6 finite numbers"):
        unfold_kepler([[1, 0, 0], [0, 1]], 1.0)


def test_eigenvalues_that_meet_on_the_grid_are_a_degeneracy():
    # X(t) = diag(t, 1): the eigenvalues meet at t = 1, a node of the grid
    with pytest.raises(DegenerateStructureError,
                       match="eigenvalue collision at t=1 "):
        reduce_calogero(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), 2.0)


def test_a_structure_without_a_default_sampler_needs_states():
    with pytest.raises(ValueError,
                       match="no default sampler for this dimension"):
        verify_structure_constants(canonical_structure(2, "w"), {}, {})


def test_a_non_positive_energy_scaling_is_a_domain_error():
    neg = EnergyScaling("neg", lambda E: -np.ones_like(E))
    with pytest.raises(DomainError, match="'neg' is non-positive"):
        neg(-0.5)


def test_the_reparametrized_field_needs_y_away_from_zero():
    with pytest.raises(DomainError, match=r"needs \|Y\| > 0"):
        reparametrized_field().rhs(np.zeros(8))


def test_a_trajectory_that_stays_near_its_start_has_no_return():
    # it moves 1e-9 over the span, under 4 tol = 4e-6
    traj = integrate(free3d_field(), np.array([1.0, 0, 0, 0, 1e-9, 0]), 1.0)
    with pytest.raises(ValueError, match="never leaves the reference"):
        find_return_time(traj, traj.states[0], tol=1e-6)
