"""Source checks: every module compiles from source with warnings turned
into errors, and only the observable algebra hands out gradients."""

import ast
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


# where an observable may be given a hand-written gradient: the quadratic
# forms, the coordinates and the algebra's own methods; every other gradient
# comes from the algebra's sum, product and chain rules
_GRADIENT_HOMES = {"quadratic_observable", "_coordinate", "Observable"}


def _gradient_calls(tree):
    """(enclosing names, line) of every call that passes an observable a
    gradient: `Observable(...)` with a fourth positional argument, or any
    call with `grad=`."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, path + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if ((name == "Observable" and len(child.args) >= 4)
                        or any(kw.arg == "grad" for kw in child.keywords)):
                    found.append((path, child.lineno))
            visit(child, path)

    visit(tree, ())
    return found


def test_gradients_come_from_one_mechanism():
    homes, outside = set(), []
    for path in _SRC:
        for names, line in _gradient_calls(ast.parse(path.read_text())):
            if names and names[0] in _GRADIENT_HOMES:
                homes.add(names[0])
            else:
                outside.append(f"{path.name}:{line}")
    assert outside == [], "gradients given outside the observable algebra"
    assert homes == _GRADIENT_HOMES
