"""Exactness holds by construction: no float literal and no `float` outside `numeric.py` and `cli.py`.

`cli.py` reads the numeric family flags as floats; every other module works on ints and `Fraction`s.
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
