"""The README's Python blocks run, in order and in one namespace, and give
the values their comments state."""

import ast
import os
import re
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _python_blocks():
    with open(os.path.join(ROOT, "README.md")) as fh:
        return re.findall(r"^```python\n(.*?)^```", fh.read(),
                          re.MULTILINE | re.DOTALL)


class _Record(ast.NodeTransformer):
    """Rewrites every expression statement `e` into `_seen[text].append(e)`,
    with `text` the statement's source without its comment, so that a
    value the README only shows is kept, in a loop once per pass."""

    def __init__(self, source):
        self.source = source

    def visit_Expr(self, node):
        text = ast.get_source_segment(self.source, node)
        seen = ast.Subscript(ast.Name("_seen", ast.Load()),
                             ast.Constant(text), ast.Load())
        call = ast.Call(ast.Attribute(seen, "append", ast.Load()),
                        [node.value], [])
        return ast.copy_location(ast.Expr(call), node)


def _readme_values():
    """Each expression statement's values, by its source text."""
    namespace = {"_seen": defaultdict(list)}
    for block in _python_blocks():
        tree = _Record(block).visit(ast.parse(block))
        ast.fix_missing_locations(tree)
        exec(compile(tree, "README.md", "exec"), namespace)
    return namespace["_seen"]


def test_readme_has_four_python_blocks():
    assert len(_python_blocks()) == 4


def test_readme_python_blocks_give_their_stated_values():
    values = _readme_values()
    assert values["res.collision"] == [True]
    periods, = values["kepler_period_from_unfold(res)"]
    assert {key: round(t, 4) for key, t in periods.items()} == {
        "tau_period": 6.2832, "t_half": 6.2832, "t_full": 12.5664}
    sweep = values['res.gauge, res.divergence["max_position_divergence"]']
    assert [gauge for gauge, _ in sweep] == [0.0, 2.0, 4.0]
    assert all(divergence < 1e-8 for _, divergence in sweep)
    assert values['run_suite("oscillator-jq", samples=100)["pass"]'] == [True]
    assert values["state == (y + h * d).tolist()"] == [True]
    assert values["bytes(row) == rhs(y + h * d).tobytes()"] == [True]
    assert values["rhs.stage([0.0] * 6, h, memoryview(np.zeros(6)), row)"] == [
        None]
