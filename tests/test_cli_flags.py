"""The CLI flag table: every flag's text is read by its kind at the boundary,
each command takes exactly the flags it lists, and the README's examples
parse against the table."""

import pathlib
import shlex

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ksunfold import cli
from ksunfold.errors import ConfigError

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Sweep counts stay small: a '--lambda a..b:n' text allocates n angles.
MAX_SWEEP = 1000

_floats = st.floats(allow_nan=True, allow_infinity=True).map(repr)
# arbitrary text, plus text close to each kind's valid forms
_raw = st.one_of(
    st.text(max_size=30),
    _floats,
    st.integers(-10, 2**66).map(str),
    st.lists(_floats, max_size=5).map(",".join),
    st.tuples(_floats, _floats, st.integers(-5, MAX_SWEEP)).map(
        lambda t: f"{t[0]}..{t[1]}:{t[2]}"),
)


def _sweep_count(raw):
    """The number of angles a --lambda text asks for, if it is a sweep."""
    if ".." not in raw:
        return None
    try:
        return int(raw.partition(":")[2])
    except ValueError:
        return None


@settings(max_examples=500, deadline=None)
@given(dest=st.sampled_from(sorted(cli._FLAGS)), raw=_raw)
# a span whose last linspace node overflows before it is set to the end
@example(dest="lam", raw="0.0..1.7976931348623157e+308:1000")
def test_reading_a_flag_returns_a_value_or_a_config_error_naming_it(dest, raw):
    count = _sweep_count(raw)
    assume(count is None or count <= MAX_SWEEP)
    try:
        cfg = cli._Config({dest: raw})
    except ConfigError as exc:
        assert cli._flag(dest) in str(exc)
    else:
        assert cfg.raw == {dest: raw} and dest in cfg


def test_every_flag_in_the_table_belongs_to_some_command():
    used = set().union(*(dests for _, dests in cli._COMMANDS.values()))
    assert used == set(cli._FLAGS)


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_each_command_takes_exactly_its_listed_flags(command, capsys):
    parser = cli.build_parser()
    listed = set(cli._COMMANDS[command][1])
    parsed = vars(parser.parse_args([command]))
    assert set(parsed) - {"command", "config"} == listed
    for dest in sorted(set(cli._FLAGS) - {"demo"}):
        argv = [command, f"{cli._flag(dest)}=1"]
        if dest in listed:
            assert getattr(parser.parse_args(argv), dest) == "1"
        else:
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
    capsys.readouterr()


def _readme_examples():
    """Every `ksunfold ...` line of the README's command-line block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("ksunfold ")]


def test_readme_has_an_example_of_every_command():
    assert {argv[0] for argv in _readme_examples()} == set(cli._COMMANDS)


@pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
def test_readme_example_passes_the_flag_table(argv):
    cfg = cli._merge(cli.build_parser().parse_args(argv))
    assert set(cfg) <= set(cli._COMMANDS[argv[0]][1])
