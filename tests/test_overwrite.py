"""The output writer, `integrate.overwrite`: a file is rewritten in place and
cut to the new bytes, a target that is not a regular file is written and
not cut, a new file gets the bits `open(path, "w")` gives, a failed write
names its path, and reruns over stale files give the bytes of a fresh run."""

import csv
import errno
import os
import re
import stat
import threading

import numpy as np
import pytest

from ksunfold.cli import main
from ksunfold.integrate import overwrite, write_table

NEW = b"0.5,-1.25e+00\r\n" * 40


@pytest.mark.parametrize("old", [NEW + b"stale tail\r\n" * 500, NEW[:9], NEW,
                                 b""],
                         ids=["longer", "shorter", "identical", "empty"])
def test_an_existing_file_ends_as_exactly_the_new_bytes(tmp_path, old):
    path = tmp_path / "out.csv"
    path.write_bytes(old)
    overwrite(path, [NEW[:100], b"", NEW[100:]])
    assert path.read_bytes() == NEW


def test_no_chunks_leave_an_empty_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(NEW)
    overwrite(path, [])
    assert path.read_bytes() == b""


def test_a_symlink_to_dev_null_is_written_without_error(tmp_path):
    link = tmp_path / "out.csv"
    link.symlink_to(os.devnull)
    overwrite(link, [NEW])
    assert link.is_symlink() and os.readlink(link) == os.devnull


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
def test_a_fifo_is_written_and_not_cut(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    overwrite(fifo, [NEW[:100], NEW[100:]])
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [NEW]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o000])
def test_a_new_file_gets_the_bits_open_w_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        overwrite(tmp_path / "new.csv", [NEW])
        with open(tmp_path / "ref.csv", "w"):
            pass
    finally:
        os.umask(old)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode)
             for name in ("new.csv", "ref.csv")]
    assert modes == [0o666 & ~umask] * 2


def test_an_existing_file_keeps_its_bits(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(NEW * 2)
    path.chmod(0o640)
    overwrite(path, [NEW])
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_failed_write_names_the_path(tmp_path):
    link = tmp_path / "out.json"
    link.symlink_to("/dev/full")
    with pytest.raises(OSError) as info:
        overwrite(link, [NEW])
    assert info.value.errno == errno.ENOSPC
    assert str(link) in str(info.value)


def test_a_directory_in_place_of_the_file_names_the_path(tmp_path):
    (tmp_path / "out.json").mkdir()
    with pytest.raises(IsADirectoryError, match=re.escape(
            str(tmp_path / "out.json"))):
        overwrite(tmp_path / "out.json", [NEW])


@pytest.mark.parametrize("header", [
    ["t", "x1", "x2"],
    ["a,b", 'q"uote', "", " lead", "semi;colon"],
    [""],
])
def test_the_header_is_the_bytes_the_text_layer_wrote(tmp_path, header):
    # an empty table leaves only the header; the body bytes are the
    # encoder's, checked against `%` by tests/test_csv_encoder.py
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
    write_table(tmp_path / "new.csv", header, np.empty((0, len(header))))
    assert (tmp_path / "new.csv").read_bytes() == ref.read_bytes()


def _without_wall_time(data: bytes) -> bytes:
    return re.sub(rb'\n *"wall_time_s": [^\n]*\n', b"\n", data)


def _snapshot(root):
    return {p.name: _without_wall_time(p.read_bytes())
            if p.suffix == ".json" else p.read_bytes()
            for p in sorted(root.iterdir())}


def _make_stale(root):
    # each file longer than what a rerun writes, and different throughout
    for p in root.iterdir():
        data = p.read_bytes()
        p.write_bytes(bytes(255 - b for b in data) + b"\0stale\n" * 4096)


@pytest.mark.parametrize("argv", [
    ["simulate", "--system", "kepler", "--x", "1,0,0", "--v", "0,0.8,0",
     "--t-end", "20", "--prefix", "sim"],
    ["unfold", "--x", "1,0,0", "--v", "0,0.8,0", "--lambda", "0..6.28:8",
     "--prefix", "sweep"],
    ["verify", "--suite", "kepler-algebra", "--samples", "20",
     "--out", "report.json"],
], ids=["simulate", "unfold-sweep", "verify-out"])
def test_a_rerun_over_stale_longer_files_gives_the_fresh_bytes(
        tmp_path, capsys, argv):
    argv = argv + ["--out-dir", str(tmp_path)]  # the sidecars echo it
    assert main(argv) == 0
    fresh = _snapshot(tmp_path)
    _make_stale(tmp_path)
    assert main(argv) == 0
    capsys.readouterr()
    assert _snapshot(tmp_path) == fresh
