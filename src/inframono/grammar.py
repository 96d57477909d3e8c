"""Shared text grammar for multivector polynomials.

Accepted terms look like ``3/2*x1^2*x2*e12``: an optional rational, ``x<i>``
variable powers joined by ``*``, and blade factors ``e<digits>`` (one digit
per index; ``e{1,12}`` brace syntax covers indices beyond 9).  Terms are
joined by ``+`` / ``-``; a sign may also precede a parenthesised group.
Unsorted blade indices are accepted and normalised with the correct sign.
Printing (``str`` on the value types) always produces grammar-conforming,
canonically ordered text, so parse(print(p)) == p.  The printer's own form
for m <= 9 is read with one regex match and one findall; all other text goes
to the token walker, which defines the grammar and raises every syntax error.
It is one loop over the tokens: a stack holds the sign in force in each open
group, so nesting depth is not limited.  Both paths give integer terms (signed
numerator, denominator), summed over one least common multiple; no Fraction.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

from .algebra import _blade_table, _check_dim, _vector_signs
from .polynomials import CliffordPolynomial, Monomial, _Numerators, _pruned

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<int>\d+)"
    r"|(?P<var>x\d+)"
    r"|(?P<blade_braced>e\{[^{}]*\})"
    r"|(?P<blade>e\d*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>.)",
    re.DOTALL,
)
_TERM = r"([0-9]+)(?:/([0-9]+))?((?:\*x[0-9]+(?:\^[0-9]+)?)*)((?:\*e[0-9]+)?)"
_PRINTED_RE = re.compile(rf"\s*-?{_TERM}(?:\s*[-+]\s*{_TERM})*\s*")
_PRINTED_TERM_RE = re.compile(rf"([-+]?)\s*{_TERM}")
_POWER_RE = re.compile(r"x([0-9]+)(?:\^([0-9]+))?")


class PolynomialSyntaxError(ValueError):
    """Malformed polynomial text; carries the 0-based offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise PolynomialSyntaxError(f"unexpected character {match.group()!r}", match.start())
        if kind != "ws":
            tokens.append((kind, match.group(), match.start()))
    return tokens


def _int(text: str, pos: int) -> int:
    """A digit run as an int; one longer than Python's int-string limit is a syntax error at pos."""
    try:
        return int(text)
    except ValueError:
        raise PolynomialSyntaxError("integer literal too long", pos) from None


def _int_after(tokens: list[tuple[str, str, int]], i: int, length: int, message: str) -> tuple[int, int]:
    """The integer token after the '/' or '^' at i, as (value, position)."""
    if i + 1 == len(tokens):
        raise PolynomialSyntaxError("unexpected end of input", length)
    kind, text, pos = tokens[i + 1]
    if kind != "int":
        raise PolynomialSyntaxError(message, pos)
    return _int(text, pos), pos


def _blade_indices(kind: str, text: str, pos: int) -> list[int]:
    if kind == "blade":
        return [int(ch) for ch in text[1:]]
    body = text[2:-1].strip()
    pieces = [piece.strip() for piece in body.split(",")] if body else []
    for piece in pieces:
        if not piece.isdecimal():
            raise PolynomialSyntaxError(f"bad blade index {piece!r}", pos)
    return [_int(piece, pos) for piece in pieces]


def _parse_term(
    tokens: list[tuple[str, str, int]], i: int, length: int, m: int, signs: tuple, sign: int
) -> tuple[int, Monomial, int, int, int]:
    """The term at token i: (index after it, monomial, blade, signed numerator, denominator).

    Only operator tokens have the texts ``/``, ``^`` and ``*``, so the text alone identifies them.
    """
    count = len(tokens)
    num = den = 1
    exponents, mask = [0] * m, 0
    while True:
        if i == count:
            raise PolynomialSyntaxError("expected a factor", length)
        kind, text, pos = tokens[i]
        i += 1
        if kind == "int":
            num *= _int(text, pos)
            if i < count and tokens[i][1] == "/":
                d, d_pos = _int_after(tokens, i, length, "expected an integer denominator")
                if d == 0:
                    raise PolynomialSyntaxError("zero denominator", d_pos)
                den *= d
                i += 2
        elif kind == "var":
            j = _int(text[1:], pos)
            if not 1 <= j <= m:
                raise PolynomialSyntaxError(f"variable index {j} out of range for m={m}", pos)
            if i < count and tokens[i][1] == "^":
                exponents[j - 1] += _int_after(tokens, i, length, "expected an integer exponent")[0]
                i += 2
            else:
                exponents[j - 1] += 1
        elif kind in ("blade", "blade_braced"):
            seen: set[int] = set()
            for j in _blade_indices(kind, text, pos):
                if not 1 <= j <= m:
                    raise PolynomialSyntaxError(f"blade index {j} out of range for m={m}", pos)
                if j in seen:
                    raise PolynomialSyntaxError(f"repeated blade index {j}", pos)
                seen.add(j)
                sign *= signs[mask][j - 1]
                mask ^= 1 << (j - 1)
        else:
            raise PolynomialSyntaxError(f"expected a factor, found {text!r}", pos)
        if i < count and tokens[i][1] == "*":
            i += 1
        else:
            return i, tuple(exponents), mask, sign * num, den


@lru_cache(maxsize=None)
def _printed_blades(m: int) -> dict[str, int]:  # each printed blade text is sorted, so its sign is +1
    return {text: mask for mask, text in enumerate(_blade_table(m)[1])}


def _printed_terms(text: str, m: int) -> list[tuple[Monomial, int, int, int]] | None:
    """(monomial, blade, numerator, denominator) terms of printer-form text for m <= 9; None: use the walker."""
    if m > 9 or _PRINTED_RE.fullmatch(text) is None:
        return None
    blades, monos, terms = _printed_blades(m), {}, []  # monos: power text -> exponents
    try:
        for sign, num, den, powers, blade in _PRINTED_TERM_RE.findall(text):
            if (mono := monos.get(powers)) is None:
                exponents = [0] * m
                for j, e in _POWER_RE.findall(powers):
                    if not 1 <= (j := int(j)) <= m:  # the walker raises the error
                        return None
                    exponents[j - 1] += int(e or 1)
                mono = monos[powers] = tuple(exponents)
            if not (d := int(den or 1)):  # n/0: the walker raises the error
                return None
            terms.append((mono, blades[blade], int(sign + num), d))
    except (KeyError, ValueError):  # unsorted or foreign blade, over-long literal
        return None
    return terms


def _walk(text: str, m: int):
    """Yield the (monomial, blade, numerator, denominator) terms of any grammar text, by one loop over its tokens."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialSyntaxError("empty input", 0)
    count, length, signs = len(tokens), len(text), _vector_signs(m)[1]
    enclosing: list[int] = []
    sign, i = 1, 0
    while True:
        # A term or group starts at i; its sign may be left out only first in the text or a group.
        term_sign = sign
        if i < count and tokens[i][1] in ("+", "-"):
            term_sign = -sign if tokens[i][1] == "-" else sign
            i += 1
        elif i and tokens[i - 1][1] != "(":
            raise PolynomialSyntaxError("expected '+' or '-' between terms", tokens[i][2])
        if i < count and tokens[i][1] == "(":
            enclosing.append(sign)
            sign, i = term_sign, i + 1
            continue
        i, mono, mask, num, den = _parse_term(tokens, i, length, m, signs, term_sign)
        yield mono, mask, num, den
        while i < count and tokens[i][1] == ")":
            if not enclosing:
                raise PolynomialSyntaxError("unexpected trailing input ')'", tokens[i][2])
            sign = enclosing.pop()
            i += 1
        if i == count:
            if enclosing:
                raise PolynomialSyntaxError("expected ')'", length)
            return


def parse_polynomial(text: str, m: int) -> CliffordPolynomial:
    """Parse grammar text into a polynomial over Cl(0, m).

    Raises PolynomialSyntaxError (with position) for malformed text and
    for variable or blade indices outside 1..m.
    """
    _check_dim(m)
    terms = _printed_terms(text, m) or list(_walk(text, m))
    den = math.lcm(*(d for _, _, _, d in terms))
    acc: _Numerators = {}
    for mono, mask, num, d in terms:
        row = acc.setdefault(mono, {})
        row[mask] = row.get(mask, 0) + num * (den // d)
    return CliffordPolynomial._trusted(m, den, _pruned(acc))
