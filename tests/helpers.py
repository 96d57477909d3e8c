"""Seeded random generators and reference algorithms shared by the test modules."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import lru_cache

from inframono import (
    CliffordPolynomial,
    Multivector,
    PolynomialSyntaxError,
    blade_name,
    blade_sign,
    coords,
    monomial_basis,
    poly_basis,
)
from inframono import fischer
from inframono.linalg import SingularMatrixError
from inframono.numeric import NumericMultivector
from inframono.polynomials import _apply_integer


def random_rational(rng: random.Random, span: int = 9, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_multivector(rng: random.Random, m: int, max_terms: int = 4) -> Multivector:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.randrange(1 << m)] = random_rational(rng)
    return Multivector(m, terms)


def random_k_vector(rng: random.Random, m: int, grade: int, max_terms: int = 4) -> Multivector:
    masks = [mask for mask in range(1 << m) if bin(mask).count("1") == grade]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.choice(masks)] = random_rational(rng)
    return Multivector(m, terms)


def random_polynomial(
    rng: random.Random,
    m: int,
    degree: int,
    homogeneous: bool = True,
    max_terms: int = 6,
    grade: int | None = None,
) -> CliffordPolynomial:
    if homogeneous:
        monos = monomial_basis(m, degree)
    else:
        monos = [mono for d in range(degree + 1) for mono in monomial_basis(m, d)]
    terms: dict[tuple[int, ...], Multivector] = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = rng.choice(monos)
        if grade is None:
            coeff = random_multivector(rng, m)
        else:
            coeff = random_k_vector(rng, m, grade)
        terms[mono] = terms[mono] + coeff if mono in terms else coeff
    return CliffordPolynomial(m, terms)


def random_scalar_polynomial(
    rng: random.Random, m: int, degree: int, homogeneous: bool = True, max_terms: int = 6
) -> CliffordPolynomial:
    return random_polynomial(rng, m, degree, homogeneous, max_terms, grade=0)


def reference_rref(matrix: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form by textbook Gauss-Jordan over Fractions.

    The reference that `inframono.linalg.rref`'s fraction-free elimination
    is tested against: it normalises each pivot row as soon as it is found.
    """
    work = [row[:] for row in matrix]
    rows = len(work)
    cols = len(work[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = Fraction(1) / work[r][c]
        work[r] = [v * inv for v in work[r]]
        for i in range(rows):
            if i != r and work[i][c]:
                factor = work[i][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return work, pivots


def reference_inverse(matrix: list[list]) -> list[list[Fraction]]:
    """Right half of `reference_rref([A | I])`; SingularMatrixError unless the pivots are 0..n-1."""
    n = len(matrix)
    reduced, pivots = reference_rref([list(row) + [Fraction(int(i == j)) for j in range(n)]
                                      for i, row in enumerate(matrix)])
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in reduced]


# Reference operators built from general Multivector products and `partial`.
# The library's polynomial operators and its compiled sector operators all
# run one integer core, `polynomials._apply_integer`; these share none of it.


def _reference_dirac(p: CliffordPolynomial, left: bool) -> CliffordPolynomial:
    total = CliffordPolynomial.zero(p.dim)
    for j in range(1, p.dim + 1):
        e_j = Multivector.basis_vector(p.dim, j)
        d_j = p.partial(j)
        total = total + (d_j.mul_left(e_j) if left else d_j.mul_right(e_j))
    return total


def _reference_mul_by_x(p: CliffordPolynomial, left: bool) -> CliffordPolynomial:
    m = p.dim
    terms: dict[tuple[int, ...], Multivector] = {}
    for mono, coeff in p.items():
        for j in range(m):
            raised = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
            e_j = Multivector.basis_vector(m, j + 1)
            value = e_j * coeff if left else coeff * e_j
            terms[raised] = terms[raised] + value if raised in terms else value
    return CliffordPolynomial(m, terms)


def reference_laplacian(p: CliffordPolynomial) -> CliffordPolynomial:
    total = CliffordPolynomial.zero(p.dim)
    for j in range(1, p.dim + 1):
        total = total + p.partial(j).partial(j)
    return total


def reference_dirac_left(p: CliffordPolynomial) -> CliffordPolynomial:
    return _reference_dirac(p, left=True)


def reference_dirac_right(p: CliffordPolynomial) -> CliffordPolynomial:
    return _reference_dirac(p, left=False)


def reference_mul_by_x_left(p: CliffordPolynomial) -> CliffordPolynomial:
    return _reference_mul_by_x(p, left=True)


def reference_mul_by_x_right(p: CliffordPolynomial) -> CliffordPolynomial:
    return _reference_mul_by_x(p, left=False)


def reference_sandwich(p: CliffordPolynomial) -> CliffordPolynomial:
    return reference_dirac_right(reference_dirac_left(p))


def reference_wrap_x(p: CliffordPolynomial) -> CliffordPolynomial:
    return reference_mul_by_x_left(reference_mul_by_x_right(p))


def dense_matrix(op, m: int, k_in: int, k_out: int) -> list[list[Fraction]]:
    """Matrix of op from P(k_in) to P(k_out): column c is op of `poly_basis(m, k_in)[c]` in coordinates."""
    columns = [
        coords(op(CliffordPolynomial(m, {mono: Multivector(m, {mask: 1})})), k_out)
        for mono, mask in poly_basis(m, k_in)
    ]
    return [list(row) for row in zip(*columns)]


@lru_cache(maxsize=None)
def all_sector_blocks(op: str, m: int, k_in: int) -> tuple:
    """`fischer.sector_operator`'s layout for all 2^m sectors, entry v sector v's, without the orbit maps.

    Every primitive keeps sectors, so one run of op's chain through
    `polynomials._apply_integer` on the sum over v of x^a e_(v xor parity(a))
    gives column a of all 2^m blocks.  The tests check these columns
    against the product-based reference operators.
    """
    k_out = k_in + fischer._DEGREE_SHIFT[op]
    index, table = fischer._monomial_table(m, k_out) if k_out >= 0 else ({}, ())
    blocks = [[] for _ in range(1 << m)]
    for a, par in fischer._monomial_table(m, k_in)[1]:
        numerators = {a: {v ^ par: 1 for v in range(1 << m)}}
        for step in fischer._CHAINS[op]:
            numerators = _apply_integer(step, m, numerators)
        columns = [[] for _ in blocks]
        for b, blades in numerators.items():
            r = index[b]
            for mask, x in blades.items():
                columns[mask ^ table[r][1]].append((r, x))
        for block, col in zip(blocks, columns):
            block.append(tuple(sorted(col)))
    return tuple(map(tuple, blocks))


def conjugation_pairs(m: int, k: int, v: int) -> list[tuple[int, int]]:
    """`fischer._conjugation(m, k)[v]` per element i of the sector: (src[i], sign of i's parity)."""
    src, signs = fischer._conjugation(m, k)[v]
    return [(i, signs[par]) for i, (_, par) in zip(src, fischer._monomial_table(m, k)[1])]


# Reference text boundary: rendering term by term through Fraction's own
# abs and comparison, and parsing one validated polynomial per term summed
# with `+`, behind its own tokenizer and token cursor.  `str` and
# `parse_polynomial` render from blade tables and parse into one term dict
# with a per-term token walk; these share none of that.


def _reference_terms(dim: int, var_part: str, coeff: Multivector, chunks: list[str]) -> None:
    for mask in sorted(coeff.terms(), key=lambda mask: (bin(mask).count("1"), mask)):
        value = coeff.coefficient(mask)
        pieces = [str(abs(value))]
        if var_part:
            pieces.append(var_part)
        if mask:
            pieces.append(blade_name(mask, dim))
        body = "*".join(pieces)
        if not chunks:
            chunks.append(("-" if value < 0 else "") + body)
        else:
            chunks.append(("- " if value < 0 else "+ ") + body)


def monomial_sort_key(exponents: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Graded-lex order: by total degree, then descending lexicographic."""
    return (sum(exponents), tuple(-e for e in exponents))


def reference_str(value: CliffordPolynomial | Multivector) -> str:
    chunks: list[str] = []
    if isinstance(value, Multivector):
        _reference_terms(value.dim, "", value, chunks)
    else:
        terms = value.terms()
        for mono in sorted(terms, key=monomial_sort_key):
            var_part = "*".join(
                f"x{j}" if e == 1 else f"x{j}^{e}" for j, e in enumerate(mono, 1) if e
            )
            _reference_terms(value.dim, var_part, terms[mono], chunks)
    return " ".join(chunks) if chunks else "0"


_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<int>\d+)"
    r"|(?P<var>x\d+)"
    r"|(?P<blade_braced>e\{[^{}]*\})"
    r"|(?P<blade>e\d*)"
    r"|(?P<op>[-+*/^()])"
)


# A digit run past Python's int-string limit (4300 digits by default) in each
# place the parser converts one, by place: (text, position of its token) at m = 2.
LONG_DIGITS = "9" * 5000
LONG_LITERALS = {
    "coefficient": (LONG_DIGITS, 0),
    "denominator": (f"x1 + 1/{LONG_DIGITS}", 7),
    "exponent": (f"x1^{LONG_DIGITS}", 3),
    "variable": (f"x2 - x{LONG_DIGITS}", 5),
    "braced_blade": (f"x1*e{{1,{LONG_DIGITS}}}", 3),
}


def _reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        match = _REFERENCE_TOKEN_RE.match(text, pos)
        if match is None:
            raise PolynomialSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup or ""
        if kind != "ws":
            tokens.append((kind, match.group(), pos))
        pos = match.end()
    return tokens


def _reference_int(text: str, pos: int) -> int:
    """int(text); a literal past Python's int-string limit is a syntax error at its token, pos."""
    try:
        return int(text)
    except ValueError:
        raise PolynomialSyntaxError("integer literal too long", pos) from None


class _ReferenceParser:
    """A recursive token cursor and a term-by-term polynomial sum, sharing no code with grammar.parse_polynomial."""

    def __init__(self, tokens: list[tuple[str, str, int]], length: int, m: int):
        self._tokens = tokens
        self._length = length
        self._m = m
        self._i = 0

    def _peek(self) -> tuple[str, str, int] | None:
        return self._tokens[self._i] if self._i < len(self._tokens) else None

    def _next(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise PolynomialSyntaxError("unexpected end of input", self._length)
        self._i += 1
        return tok

    def _accept_op(self, *ops: str) -> str | None:
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] in ops:
            self._i += 1
            return tok[1]
        return None

    def _parse_rational(self, first: tuple[str, str, int]) -> tuple[int, int]:
        """An integer or ``n/d`` literal as (numerator, denominator)."""
        num = _reference_int(first[1], first[2])
        if not self._accept_op("/"):
            return num, 1
        tok = self._next()
        if tok[0] != "int":
            raise PolynomialSyntaxError("expected an integer denominator", tok[2])
        den = _reference_int(tok[1], tok[2])
        if den == 0:
            raise PolynomialSyntaxError("zero denominator", tok[2])
        return num, den

    def _blade_indices(self, tok: tuple[str, str, int]) -> list[int]:
        kind, text, pos = tok
        if kind == "blade":
            return [_reference_int(ch, pos) for ch in text[1:]]
        body = text[2:-1].strip()
        if not body:
            return []
        indices = []
        for piece in body.split(","):
            piece = piece.strip()
            if not piece.isdecimal():
                raise PolynomialSyntaxError(f"bad blade index {piece!r}", pos)
            indices.append(_reference_int(piece, pos))
        return indices

    def expect_end(self) -> None:
        tok = self._peek()
        if tok is not None:
            raise PolynomialSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])

    def parse_poly(self) -> CliffordPolynomial:
        total = CliffordPolynomial.zero(self._m)
        first = True
        while True:
            sign = 1
            if first:
                op = self._accept_op("+", "-")
                if op == "-":
                    sign = -1
            else:
                tok = self._peek()
                if tok is None or (tok[0] == "op" and tok[1] == ")"):
                    break
                op = self._accept_op("+", "-")
                if op is None:
                    raise PolynomialSyntaxError("expected '+' or '-' between terms", tok[2])
                if op == "-":
                    sign = -1
            if self._accept_op("("):
                inner = self.parse_poly()
                tok = self._peek()
                if not self._accept_op(")"):
                    raise PolynomialSyntaxError("expected ')'", tok[2] if tok else self._length)
                total = total + inner * sign
            else:
                total = total + self._parse_term() * sign
            first = False
        return total

    def _parse_term(self) -> CliffordPolynomial:
        coeff = Fraction(1)
        exponents = [0] * self._m
        mask = 0
        sign = 1
        while True:
            tok = self._peek()
            if tok is None:
                raise PolynomialSyntaxError("expected a factor", self._length)
            kind, text, pos = tok
            if kind == "int":
                self._i += 1
                coeff *= Fraction(*self._parse_rational(tok))
            elif kind == "var":
                self._i += 1
                j = _reference_int(text[1:], pos)
                if not 1 <= j <= self._m:
                    raise PolynomialSyntaxError(
                        f"variable index {j} out of range for m={self._m}", pos
                    )
                power = 1
                if self._accept_op("^"):
                    power_tok = self._next()
                    if power_tok[0] != "int":
                        raise PolynomialSyntaxError("expected an integer exponent", power_tok[2])
                    power = _reference_int(power_tok[1], power_tok[2])
                exponents[j - 1] += power
            elif kind in ("blade", "blade_braced"):
                self._i += 1
                seen: set[int] = set()
                for j in self._blade_indices(tok):
                    if not 1 <= j <= self._m:
                        raise PolynomialSyntaxError(
                            f"blade index {j} out of range for m={self._m}", pos
                        )
                    if j in seen:
                        raise PolynomialSyntaxError(f"repeated blade index {j}", pos)
                    seen.add(j)
                    bit = 1 << (j - 1)
                    sign *= blade_sign(mask, bit)
                    mask ^= bit
            else:
                raise PolynomialSyntaxError(f"expected a factor, found {text!r}", pos)
            if not self._accept_op("*"):
                break
        coefficient = Multivector(self._m, {mask: coeff * sign})
        return CliffordPolynomial(self._m, {tuple(exponents): coefficient})


def reference_parse(text: str, m: int) -> CliffordPolynomial:
    tokens = _reference_tokenize(text)
    if not tokens:
        raise PolynomialSyntaxError("empty input", 0)
    parser = _ReferenceParser(tokens, len(text), m)
    poly = parser.parse_poly()
    parser.expect_end()
    return poly


# Reference finite-difference stencils: chains of NumericMultivector
# operations, as the stencils were first written.  `inframono.numeric` runs
# the same IEEE operations in the same order on blade-slot lists, so the two
# must agree bit for bit, -0.0 and NaN included.  Step and grid checks are
# left to the library.


def _reference_shifted(point, moves: dict[int, float]) -> list[float]:
    out = list(map(float, point))
    for axis, delta in moves.items():
        out[axis] += delta
    return out


def _reference_second_difference(f, point, center, i: int, h: float):
    plus = f(_reference_shifted(point, {i: h}))
    minus = f(_reference_shifted(point, {i: -h}))
    return (plus - center * 2.0 + minus) / (h * h)


def reference_fd_hessian(f, point, h: float) -> list[list[NumericMultivector]]:
    center = f(list(map(float, point)))
    m = center.dim
    hess = [[None] * m for _ in range(m)]
    for i in range(m):
        hess[i][i] = _reference_second_difference(f, point, center, i, h)
    for i in range(m):
        for j in range(i + 1, m):
            pp = f(_reference_shifted(point, {i: h, j: h}))
            pm = f(_reference_shifted(point, {i: h, j: -h}))
            mp = f(_reference_shifted(point, {i: -h, j: h}))
            mm = f(_reference_shifted(point, {i: -h, j: -h}))
            hess[i][j] = hess[j][i] = (pp - pm - mp + mm) / (4.0 * h * h)
    return hess


def reference_fd_sandwich(f, point, h: float) -> NumericMultivector:
    hess = reference_fd_hessian(f, point, h)
    m = len(hess)
    total = NumericMultivector(m)
    for i in range(m):
        for j in range(m):
            total = total + hess[i][j].mul_blade_left(1 << i).mul_blade_right(1 << j)
    return total


def reference_fd_laplacian(f, point, h: float) -> NumericMultivector:
    center = f(list(map(float, point)))
    total = NumericMultivector(center.dim)
    for i in range(center.dim):
        total = total + _reference_second_difference(f, point, center, i, h)
    return total


def reference_scan(stencil, f, grid, h: float) -> tuple[float, float]:
    """(max residual, max |f|) over the grid, each point's centre evaluated again for the scale."""
    worst = scale = 0.0
    for point in grid:
        worst = max(worst, stencil(f, point, h).max_abs())
        scale = max(scale, f(list(map(float, point))).max_abs())
    return worst, scale


def reference_family_field(family):
    """The plane field through the public profile methods, one `_profiles` call per component."""
    return lambda point: NumericMultivector(2, [0.0, family.f1(*point), family.f2(*point), 0.0])


def reference_ode_system_residual(family, x1: float) -> tuple[float, float]:
    n = family.n
    r_alpha = family.alpha(x1, 2) + n * n * family.alpha(x1) + 2 * n * family.beta(x1, 1)
    r_beta = family.beta(x1, 2) + n * n * family.beta(x1) + 2 * n * family.alpha(x1, 1)
    return (r_alpha, r_beta)
