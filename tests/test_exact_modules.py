"""Exactness holds by construction: no float literal and no `float` outside `numeric.py` and `cli.py`.

`cli.py` reads the numeric family flags as floats; `grammar.py` works on ints alone, and every other
module on ints and `Fraction`s.  The stored form of a polynomial has one owner: `polynomials.py`
sums rational terms (`_collect`) and reduces to lowest terms (`CliffordPolynomial._store`), so the
parser and the Fischer gather call no gcd or lcm of their own.
"""

import ast
from pathlib import Path

import inframono

EXACT_MODULES = ("algebra", "polynomials", "operators", "fischer", "linalg", "grammar")
PACKAGE = Path(inframono.__file__).parent


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


def _call_lines(source: str, names: set[str]) -> list[int]:
    """Lines that call one of names, bare (``gcd(...)``) or as an attribute (``math.gcd(...)``)."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            and {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & names]


def test_only_polynomials_sums_and_reduces_the_stored_form():
    assert _call_lines((PACKAGE / "grammar.py").read_text(), {"gcd", "lcm", "_pruned"}) == []
    assert _call_lines((PACKAGE / "fischer.py").read_text(), {"gcd"}) == []
    caught = "import math\nmath.gcd(2, 4)\nlcm(2, 3)\n_pruned({})\nx = gcd\nmax(gcd, 2)\nmath.lcm"
    assert _call_lines(caught, {"gcd", "lcm", "_pruned"}) == [2, 3, 4]


def _string_popcount_lines(source: str) -> list[int]:
    """Lines that count set bits through a string, ``.count("1")``, where ``int.bit_count()`` does."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "count"
            and [getattr(arg, "value", None) for arg in node.args] == ["1"]]


def test_bits_are_counted_by_bit_count():
    found = {path.name: _string_popcount_lines(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert found == {name: [] for name in found} and "fischer.py" in found
    caught = 'bin(5).count("1")\nmask.count("1")\n"101".count("0")\nx.count(1)\n(5).bit_count()'
    assert _string_popcount_lines(caught) == [1, 2]
