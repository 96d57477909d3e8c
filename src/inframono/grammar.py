"""Shared text grammar for multivector polynomials.

Accepted terms look like ``3/2*x1^2*x2*e12``: an optional rational, ``x<i>``
variable powers joined by ``*``, and blade factors ``e<digits>`` (one digit
per index; ``e{1,12}`` brace syntax covers indices beyond 9).  Terms are
joined by ``+`` / ``-``; a sign may also precede a parenthesised group.
Unsorted blade indices are accepted and normalised with the correct sign.
Printing (``str`` on the value types) always produces grammar-conforming,
canonically ordered text, so parse(print(p)) == p.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import _check_dim, _vector_signs
from .polynomials import CliffordPolynomial, Monomial, _from_fractions

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


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], length: int, m: int):
        self._tokens = tokens
        self._length = length
        self._m = m
        self._signs = _vector_signs(m)[1]
        self._i = 0

    def _peek(self) -> tuple[str, str, int] | None:
        return self._tokens[self._i] if self._i < len(self._tokens) else None

    def _accept_op(self, *ops: str) -> str | None:
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] in ops:
            self._i += 1
            return tok[1]
        return None

    def parse_poly(self, acc: dict[Monomial, dict[int, Fraction]], sign: int = 1) -> None:
        """Add sign times a sum of terms, up to ')' or the end, into acc."""
        first = True
        while True:
            term_sign = sign
            if first:
                op = self._accept_op("+", "-")
                if op == "-":
                    term_sign = -sign
            else:
                tok = self._peek()
                if tok is None or (tok[0] == "op" and tok[1] == ")"):
                    break
                op = self._accept_op("+", "-")
                if op is None:
                    raise PolynomialSyntaxError("expected '+' or '-' between terms", tok[2])
                if op == "-":
                    term_sign = -sign
            if self._accept_op("("):
                self.parse_poly(acc, term_sign)
                tok = self._peek()
                if not self._accept_op(")"):
                    raise PolynomialSyntaxError(
                        "expected ')'", tok[2] if tok else self._length
                    )
            else:
                mono, mask, value = self._parse_term(term_sign)
                blades = acc.get(mono)
                if blades is None:
                    acc[mono] = {mask: value}
                elif mask in blades:
                    blades[mask] += value
                else:
                    blades[mask] = value
            first = False

    def _int_after(self, i: int, message: str) -> tuple[int, int]:
        """The integer token after the '/' or '^' at i, as (value, position)."""
        if i + 1 == len(self._tokens):
            raise PolynomialSyntaxError("unexpected end of input", self._length)
        kind, text, pos = self._tokens[i + 1]
        if kind != "int":
            raise PolynomialSyntaxError(message, pos)
        return int(text), pos

    def _blade_indices(self, tok: tuple[str, str, int]) -> list[int]:
        kind, text, pos = tok
        if kind == "blade":
            return [int(ch) for ch in text[1:]]
        body = text[2:-1].strip()
        if not body:
            return []
        indices = []
        for piece in body.split(","):
            piece = piece.strip()
            if not piece.isdigit():
                raise PolynomialSyntaxError(f"bad blade index {piece!r}", pos)
            indices.append(int(piece))
        return indices

    def _parse_term(self, sign: int) -> tuple[Monomial, int, Fraction]:
        """One product of factors: its monomial, its blade and sign times its coefficient.

        Walks the tokens with a local index; only operator tokens have the
        texts ``/``, ``^`` and ``*``, so the text alone identifies them.
        """
        tokens, count, i = self._tokens, len(self._tokens), self._i
        num = den = 1
        exponents = [0] * self._m
        mask = 0
        while True:
            if i == count:
                raise PolynomialSyntaxError("expected a factor", self._length)
            tok = tokens[i]
            kind, text, pos = tok
            i += 1
            if kind == "int":
                num *= int(text)
                if i < count and tokens[i][1] == "/":
                    d, d_pos = self._int_after(i, "expected an integer denominator")
                    if d == 0:
                        raise PolynomialSyntaxError("zero denominator", d_pos)
                    den *= d
                    i += 2
            elif kind == "var":
                j = int(text[1:])
                if not 1 <= j <= self._m:
                    raise PolynomialSyntaxError(
                        f"variable index {j} out of range for m={self._m}", pos
                    )
                if i < count and tokens[i][1] == "^":
                    exponents[j - 1] += self._int_after(i, "expected an integer exponent")[0]
                    i += 2
                else:
                    exponents[j - 1] += 1
            elif kind in ("blade", "blade_braced"):
                seen: set[int] = set()
                for j in self._blade_indices(tok):
                    if not 1 <= j <= self._m:
                        raise PolynomialSyntaxError(
                            f"blade index {j} out of range for m={self._m}", pos
                        )
                    if j in seen:
                        raise PolynomialSyntaxError(f"repeated blade index {j}", pos)
                    seen.add(j)
                    sign *= self._signs[mask][j - 1]
                    mask ^= 1 << (j - 1)
            else:
                raise PolynomialSyntaxError(f"expected a factor, found {text!r}", pos)
            if i < count and tokens[i][1] == "*":
                i += 1
            else:
                break
        self._i = i
        return tuple(exponents), mask, Fraction(sign * num, den)

    def expect_end(self) -> None:
        tok = self._peek()
        if tok is not None:
            raise PolynomialSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])


def parse_polynomial(text: str, m: int) -> CliffordPolynomial:
    """Parse grammar text into a polynomial over Cl(0, m).

    Raises PolynomialSyntaxError (with position) for malformed text and
    for variable or blade indices outside 1..m.
    """
    _check_dim(m)
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialSyntaxError("empty input", 0)
    parser = _Parser(tokens, len(text), m)
    acc: dict[Monomial, dict[int, Fraction]] = {}
    parser.parse_poly(acc)
    parser.expect_end()
    return CliffordPolynomial._trusted(m, *_from_fractions(acc))
