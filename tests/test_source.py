"""Every module compiles from source with warnings turned into errors."""

import pathlib
import warnings

import pytest

_SRC = sorted((pathlib.Path(__file__).resolve().parents[1]
               / "src" / "ksunfold").glob("*.py"))


@pytest.mark.parametrize("path", _SRC, ids=lambda p: p.name)
def test_module_compiles_without_warnings(path):
    # compile() reads the source itself, whatever __pycache__ holds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")
