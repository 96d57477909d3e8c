"""Exactness holds by construction: no float literal and no `float` outside `numeric.py` and `cli.py`.

`cli.py` reads the numeric family flags as floats; `grammar.py` works on ints alone, and every other
module on ints and `Fraction`s.
"""

import ast
from pathlib import Path

import inframono

EXACT_MODULES = ("algebra", "polynomials", "operators", "fischer", "linalg", "grammar")


def _float_lines(source: str) -> list[int]:
    """Lines of the float literals and the uses of the name `float` in a module's source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and type(node.value) is float
            or isinstance(node, ast.Name) and node.id == "float"]


def test_exact_modules_use_no_floats():
    package = Path(inframono.__file__).parent
    found = {name: _float_lines((package / f"{name}.py").read_text()) for name in EXACT_MODULES}
    assert found == {name: [] for name in EXACT_MODULES}
    assert _float_lines((package / "numeric.py").read_text()) and _float_lines((package / "cli.py").read_text())


def _fraction_lines(source: str) -> list[int]:
    """Lines that import `fractions` or `Fraction`, or call `Fraction`, in a module's source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {getattr(node, "module", None)} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Call):
            names = {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
        else:
            continue
        if names & {"fractions", "Fraction"}:
            lines.append(node.lineno)
    return lines


def test_grammar_parses_to_integers():
    package = Path(inframono.__file__).parent
    assert _fraction_lines((package / "grammar.py").read_text()) == []
    caught = "from fractions import Fraction\nimport fractions\nFraction(1)\nfractions.Fraction(1)\nx = int(1)"
    assert _fraction_lines(caught) == [1, 2, 3, 4]
