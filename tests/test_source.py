"""Source checks: every module compiles from source with warnings turned
into errors, only the observable algebra hands out gradients, and each
shared numerical job is called from its one place."""

import ast
import pathlib
import re
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


def _calls(tree, match):
    """(enclosing class and function names, line) of every call for which
    match(call, called name) holds."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, path + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if match(child, name):
                    found.append((path, child.lineno))
            visit(child, path)

    visit(tree, ())
    return found


def _gradient_calls(tree):
    """(enclosing names, line) of every call that passes an observable a
    gradient: `Observable(...)` with a fourth positional argument, or any
    call with `grad=`."""
    return _calls(tree, lambda call, name: (
        (name == "Observable" and len(call.args) >= 4)
        or any(kw.arg == "grad" for kw in call.keywords)))


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


# the one place each shared job is called from: the constant-structure
# bracket arithmetic from the bracket table (`poisson_bracket` is a one-pair
# table), the safeguarded Newton refinement from the up-crossing search
# (`find_return_time`, `collision_time`) and from the clock inversion, the
# clock inversion from `tau_of` (one flow) and the sweep's comparison (a
# batch), the shared-value scope of the observables from the
# structure-constant check, the only caller that evaluates many observables
# at one batch, the unfold's closed-form flow from the uncompared unfold and
# the sweep, the sweep from the compared unfold (one gauge) and the
# command, and every `OscillatorFlow` from the sampling of its batch
_SINGLE_PATHS = {
    "_contract": {("_table_brackets",)},
    "_safeguarded_newton": {("_up_crossings",), ("_invert_clocks",)},
    "_invert_clocks": {("UnfoldResult", "tau_of"), ("_compare_downstairs",)},
    "_shared_values": {("verify_structure_constants",)},
    "_flow": {("unfold_kepler",), ("unfold_sweep",)},
    "unfold_sweep": {("unfold_kepler",), ("cmd_unfold",)},
    "OscillatorFlow": {("_sample",)},
}


@pytest.mark.parametrize("callee", sorted(_SINGLE_PATHS))
def test_shared_jobs_are_called_from_one_place(callee):
    callers = {}
    for path in _SRC:
        tree = ast.parse(path.read_text())
        for names, line in _calls(tree, lambda call, name: name == callee):
            callers.setdefault(names, []).append(f"{path.name}:{line}")
    assert set(callers) == _SINGLE_PATHS[callee], callers


def test_shared_value_scope_is_set_only_by_its_opener():
    setters = []
    for path in _SRC:
        setters += _calls(ast.parse(path.read_text()), lambda call, name: (
            name == "set"
            and getattr(getattr(call.func, "value", None), "id", None)
            == "_SCOPE"))
    assert [names for names, _ in setters] == [("_shared_values",)]



# generic dense linear algebra the package leaves to the tests' oracles:
# the bracket engine contracts closed-form bivectors and checks closed-form
# condition numbers
_GENERIC_LINALG = {"solve", "inv", "cond", "svd"}


def test_no_generic_solve_inverse_or_condition_number():
    found = []
    for path in _SRC:
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{line}" for _, line in _calls(
            tree, lambda call, name: name in _GENERIC_LINALG and getattr(
                getattr(call.func, "value", None), "attr", None) == "linalg")]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and "linalg" in (node.module or "")]
    assert found == []


def test_no_extended_precision_float_is_named():
    # the CSV encoder forms its digits in float64 (a double-double), so no
    # output depends on the width of the platform's long double
    found = [f"{path.name}:{n}" for path in _SRC
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(r"longdouble|longfloat|float96|float128", line)]
    assert found == []


# exports that no command, suite, script, benchmark or README example
# reaches, each kept for a reason: the tangent-bundle (Lagrangian) side is
# the paper's headline claim, and acceptance criteria 4 and 5 name the last
# two
_KEPT_EXPORTS = {"lagrangian_structure", "pullback_chart_structure",
                 "reparametrized_field", "kepler_setup"}
_ROOT = _SRC[0].parents[2]


def _reads(node):
    """Identifiers a syntax tree reads: names, attributes, imported names
    and identifier strings (the benchmark patches functions by name)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            found.add(sub.value)
    return found


def _is_all(stmt):
    return (isinstance(stmt, ast.Assign)
            and getattr(stmt.targets[0], "id", None) == "__all__")


def test_every_export_is_reached_outside_the_tests():
    # roots: the command modules, every module-level statement, the scripts,
    # the benchmark and the README's code blocks; then every top-level
    # function and class that reached code reads, transitively
    exports, bodies, reached = set(), {}, set(_KEPT_EXPORTS)
    for path in _SRC:
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            if _is_all(stmt):
                exports |= {e.value for e in stmt.value.elts}
            elif path.name == "__init__.py":
                exports |= {a.name for a in getattr(stmt, "names", ())}
            elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(stmt.name, set()).update(_reads(stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                reached |= _reads(stmt)
        if path.name in ("cli.py", "__main__.py"):
            reached |= _reads(tree)
    for path in [*_ROOT.glob("scripts/*.py"), *_ROOT.glob("bench/*.py")]:
        reached |= _reads(ast.parse(path.read_text()))
    for block in (_ROOT / "README.md").read_text().split("```")[1::2]:
        reached |= set(re.findall(r"[A-Za-z_]\w*", block))
    todo = list(reached)
    while todo:
        for name in bodies.pop(todo.pop(), ()):
            if name not in reached:
                reached.add(name)
                todo.append(name)
    assert sorted(exports - reached) == []


def _string_literals(node, skip):
    """Every string constant under `node`, outside the functions named in
    `skip`."""
    if isinstance(node, ast.FunctionDef) and node.name in skip:
        return set()
    found = {node.value} if isinstance(node, ast.Constant) \
        and isinstance(node.value, str) else set()
    for child in ast.iter_child_nodes(node):
        found |= _string_literals(child, skip)
    return found


def test_every_registered_observable_is_read_outside_the_registry():
    # the registry builds only what is read: each of its names is a string
    # literal of src/ outside `_registry`, of the scripts, of the benchmark
    # or of the README's code blocks
    from ksunfold.systems import observables

    literals = set()
    for path in [*_SRC, *_ROOT.glob("scripts/*.py"), *_ROOT.glob("bench/*.py")]:
        literals |= _string_literals(ast.parse(path.read_text()),
                                     {"_registry"})
    for block in (_ROOT / "README.md").read_text().split("```")[1::2]:
        literals |= set(re.findall(r"[\"'](\w+)[\"']", block))
    assert sorted(set(observables(1.0)) - literals) == []


def _write_mode(call, name):
    """Whether a call opens a file to write it: `os.open` (flags, not a
    mode), `Path.write_text` and `write_bytes`, and `open`, `io.open`,
    `os.fdopen` and `Path.open` with a mode that writes, appends, creates or
    updates, or one not spelled out."""
    owner = getattr(getattr(call.func, "value", None), "id", None)
    if name in ("write_text", "write_bytes") or (name, owner) == ("open",
                                                                  "os"):
        return True
    if name not in ("open", "fdopen"):
        return False
    # the mode is the second argument, or the first of `Path.open`
    at = 1 if isinstance(call.func, ast.Name) or owner in ("io", "os") else 0
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[at] if len(call.args) > at else None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def test_files_are_written_only_by_the_one_writer():
    # every output goes through `output.overwrite`, which rewrites a file
    # in place; nothing truncates a file on open
    found = {}
    for path in [*_SRC, *sorted(_ROOT.glob("scripts/*.py"))]:
        tree = ast.parse(path.read_text())
        for names, line in _calls(tree, _write_mode):
            found.setdefault((path.name, names), []).append(line)
        assert not [node.lineno for node in ast.walk(tree)
                    if getattr(node, "attr", getattr(node, "id", None))
                    == "O_TRUNC"], path.name
    assert set(found) == {("output.py", ("overwrite",))}, found


def _imports(name):
    """(level, module, names) of every import statement of the module
    `name` in src/: level 0 for an absolute import."""
    tree = ast.parse((_SRC[0].parent / name).read_text())
    return [(getattr(node, "level", 0), getattr(node, "module", None),
             tuple(a.name for a in node.names)) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_the_output_format_has_its_own_module():
    # `integrate.py` holds the stepper, `Trajectory` and the root search,
    # and takes only `write_table` (for `Trajectory.to_csv`) from
    # `output.py`, which holds the writers and the CSV encoder and needs
    # nothing from the package
    modules = set()
    for level, module, names in _imports("integrate.py"):
        modules |= {module} if module else set(names)
        if module == "output":
            assert names == ("write_table",)
    assert not modules & {"csv", "io", "itertools", "json", "os", "stat"}
    assert [(level, module) for level, module, names in _imports("output.py")
            if level or any(n.split(".")[0] == "ksunfold"
                            for n in (module or "", *names))] == []


# the closed form of the upstairs flow, which `flow.py` holds alone
_CLOSED_FORM = {"_stumpff", "_STUMPFF_ROWS", "_SCALAR_Z_MAX", "_COLLISION_R2",
                "_Columns", "_columns", "_clock", "_states", "_sample",
                "_invert_clocks", "OscillatorFlow"}


def _defined(tree):
    """Names a module's top-level statements define: functions, classes and
    assigned names."""
    found = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            found.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            found |= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                             ast.Name):
            found.add(stmt.target.id)
    return found


def test_the_closed_form_has_its_own_module():
    # `flow.py` holds the closed-form flow and imports nothing from
    # `reduction.py`, which lifts, compares and projects with it
    assert [(module, names) for _, module, names in _imports("flow.py")
            if "reduction" in {part for name in (module or "", *names)
                               for part in name.split(".")}] == []
    homes = {name: sorted(path.name for path in _SRC
                          if name in _defined(ast.parse(path.read_text())))
             for name in _CLOSED_FORM}
    assert homes == {name: ["flow.py"] for name in _CLOSED_FORM}


def test_a_flow_is_made_whole_by_its_init():
    # `_sample` checks and samples the starts, then makes each flow through
    # the dataclass `__init__`, which sets every field: no flow is made past
    # it or written after it is made
    tree = ast.parse((_SRC[0].parent / "flow.py").read_text())
    found = [f"{node.attr}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in {"__setattr__", "__new__", "__match_args__"}]
    found += [f"init=False:{line}" for _, line in _calls(
        tree, lambda call, name: any(
            kw.arg == "init" and getattr(kw.value, "value", True) is False
            for kw in call.keywords))]
    assert found == []


def _outside_loops(node, inside=False):
    """(node, whether a `for` or `while` loop encloses it) for every node
    under `node`."""
    for child in ast.iter_child_nodes(node):
        yield child, inside
        yield from _outside_loops(
            child, inside or isinstance(child, (ast.For, ast.While)))


def test_the_step_loop_has_one_float_route():
    # `integrate` reads one float-route attribute off the rhs, the fused
    # stage kernel, once per call; no caller of the list-in, list-out
    # `rhs.floats` route is left in src/
    tree = ast.parse((_SRC[0].parent / "integrate.py").read_text())
    loop, = [node for node in tree.body
             if getattr(node, "name", None) == "integrate"]
    reads = [(node.args[1].value, looped) for node, looped in
             _outside_loops(loop)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) in ("getattr", "hasattr")]
    assert reads == [("stage", False)]
    found = [f"{path.name}:{node.lineno}" for path in _SRC
             for node in ast.walk(ast.parse(path.read_text()))
             if getattr(node, "attr", None) == "floats"]
    assert found == []


# the exceptions no handler in src/ may catch: a handler names the errors it
# expects, so an error it does not expect propagates where it is raised
_CATCH_ALL = {"Exception", "BaseException"}


def test_no_handler_catches_every_error():
    found = []
    for path in _SRC:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = getattr(node.type, "elts", [node.type])
            if node.type is None or any(
                    getattr(c, "id", getattr(c, "attr", None)) in _CATCH_ALL
                    for c in caught):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
