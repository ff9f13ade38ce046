"""The README's "Library quick tour" block runs, and every result its
comments state is what the library returns."""

import ast
import pathlib
from fractions import Fraction

from helpers import reassemble_def
from qstrange import IntPoly

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quick tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _run(block: str):
    """The block's names after it ran, and {source line: value} for each of
    its bare expressions."""
    env, shown = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README", "eval")
            shown[block.splitlines()[stmt.lineno - 1]] = eval(code, env)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), env)
    return env, shown


def _stated(shown: dict, comment: str):
    """The value of the one expression whose line ends in this comment."""
    (value,) = [v for line, v in shown.items()
                if line.endswith("# " + comment)]
    return value


def test_quick_tour_results_are_as_stated():
    block = _tour()
    env, shown = _run(block)
    assert "p = partial_sum(fam, 8)" in block and "# IntPoly, exact" in block
    assert type(env["p"]) is IntPoly
    parts = env["parts"]
    assert "# p(q) = sum q^i parts[i](q^5)" in block
    assert len(parts) == 5 and reassemble_def(parts) == env["p"]
    assert all(type(part) is IntPoly for part in parts)
    assert env["rep"].s == 5
    gamma = _stated(shown, "exact CycloNum, here 3/2")
    assert gamma.is_rational() and gamma.as_fraction() == Fraction(3, 2)
    assert _stated(shown, "(1, 1, 2, 5, 15, 53)") == (1, 1, 2, 5, 15, 53)
    assert _stated(shown, '"pass"') == "pass"
