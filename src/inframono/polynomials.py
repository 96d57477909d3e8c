"""Polynomials in x1..xm with multivector coefficients.

A polynomial is a sparse map from exponent tuples (a1, ..., am) to
multivector coefficients, held as integer numerators over one common
denominator (see `CliffordPolynomial`).  Scalar variables commute with
everything, so the coefficient is stored on the left by convention;
printing and parsing follow the same convention.  Monomial enumeration
is graded-lex: degree first, then exponent tuples in descending
lexicographic order, which puts x1^k first and xm^k last within a
degree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .algebra import (
    Multivector,
    RationalLike,
    _as_fraction,
    _check_dim,
    _format_terms,
    _vector_signs,
)

Monomial = tuple[int, ...]
CoefficientLike = Union[Multivector, int, Fraction]


def _parity(exponents: Monomial) -> int:
    """Mask of the odd exponents: x^a e_A lies in the sign-flip sector _parity(a) xor A."""
    mask = 0
    for j, e in enumerate(exponents):
        if e & 1:
            mask |= 1 << j
    return mask


def _check_degree(k: int) -> None:
    if not isinstance(k, int):
        raise ValueError(f"degree must be an int, got {k!r}")
    if k < 0:
        raise ValueError(f"degree must be non-negative, got {k}")


def monomial_basis(m: int, k: int) -> list[Monomial]:
    """All degree-k monomials in m variables, in graded-lex order."""
    _check_dim(m)
    _check_degree(k)
    out: list[Monomial] = []

    def emit(prefix: list[int], remaining_vars: int, remaining_deg: int) -> None:
        if remaining_vars == 1:
            out.append(tuple(prefix + [remaining_deg]))
            return
        for a in range(remaining_deg, -1, -1):
            emit(prefix + [a], remaining_vars - 1, remaining_deg - a)

    emit([], m, k)
    return out


def monomial_count(m: int, k: int) -> int:
    _check_dim(m)
    _check_degree(k)
    return math.comb(k + m - 1, m - 1)


def space_dim(m: int, k: int) -> int:
    """Real dimension of the degree-k multivector polynomial space."""
    return monomial_count(m, k) * (1 << m)


_Numerators = dict[Monomial, dict[int, int]]


def _collect(terms: Iterable[tuple[Monomial, int, int, int]]) -> tuple[int, _Numerators]:
    """Sum (monomial, blade, numerator, denominator) terms, repeats allowed, over one lcm: (den, nums), no zero."""
    terms = list(terms)
    den = math.lcm(*(d for _, _, _, d in terms))
    nums: _Numerators = {}
    for mono, mask, num, d in terms:
        row = nums.setdefault(mono, {})
        row[mask] = row.get(mask, 0) + num * (den // d)
    return den, _pruned(nums)


def _pruned(nums: _Numerators) -> _Numerators:
    """nums without zero numerators, and without the monomials that leaves empty."""
    out = {}
    for mono, blades in nums.items():
        blades = {mask: x for mask, x in blades.items() if x}
        if blades:
            out[mono] = blades
    return out


def _combination(dim: int, pairs: Iterable[tuple[RationalLike, CliffordPolynomial]]) -> CliffordPolynomial:
    """Sum of weight * p over (int or Fraction weight, polynomial) pairs: one lcm, one int dict, one gcd."""
    pairs = [(w, p) for w, p in pairs if w]
    den = math.lcm(*(w.denominator * p._den for w, p in pairs))
    nums: _Numerators = {}
    for w, p in pairs:
        factor = w.numerator * (den // (w.denominator * p._den))
        for mono, blades in p._nums.items():
            row = nums.setdefault(mono, {})
            for mask, x in blades.items():
                row[mask] = row.get(mask, 0) + factor * x
    return CliffordPolynomial._trusted(dim, den, _pruned(nums))


class CliffordPolynomial:
    """Immutable multivector-valued polynomial: x^a e_A has coefficient _nums[a][A] / _den.

    Kept in lowest terms (den > 0, no zero numerator, gcd(den, every
    numerator) = 1), so equal values store equal data.  terms(), items()
    and coefficient() build Fraction Multivectors only when called.
    Values may be inhomogeneous; operations that require a single degree
    (the decomposition machinery) check homogeneity themselves.
    """

    __slots__ = ("_dim", "_den", "_nums")

    def __init__(self, dim: int, terms: Mapping[Monomial, CoefficientLike] | None = None):
        _check_dim(dim)
        rows: list[tuple[Monomial, int, int, int]] = []
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != dim or any(not isinstance(e, int) or e < 0 for e in mono):
                raise ValueError(f"bad exponent tuple {mono!r} for dimension {dim}")
            if not isinstance(coeff, Multivector):
                coeff = Multivector.scalar(dim, coeff)
            elif coeff.dim != dim:
                raise ValueError(f"dimension mismatch: {dim} vs {coeff.dim}")
            rows += [(mono, mask, x.numerator, x.denominator) for mask, x in coeff._terms.items()]
        self._store(dim, *_collect(rows))

    @classmethod
    def _trusted(cls, dim: int, den: int, nums: _Numerators) -> "CliffordPolynomial":
        """Wrap numerators over den, unchecked and uncopied, in lowest terms.

        For numerators the library built itself: den > 0, valid monomials
        and masks, no zero numerator.  It takes ownership of nums, which
        `_store` divides in place, so the caller hands over a dict it built
        and keeps none.  Outside input goes through __init__.
        """
        self = object.__new__(cls)
        self._store(dim, den, nums)
        return self

    def _store(self, dim: int, den: int, nums: _Numerators) -> None:
        """Set the slots, dividing den and every numerator by their gcd, nums in place."""
        g = math.gcd(den, *chain.from_iterable(map(dict.values, nums.values())))
        if g != 1:
            den //= g
            for mono, blades in nums.items():
                nums[mono] = {mask: x // g for mask, x in blades.items()}
        object.__setattr__(self, "_dim", dim)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", nums)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CliffordPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "CliffordPolynomial":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value: CoefficientLike) -> "CliffordPolynomial":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def monomial(cls, dim: int, exponents: Iterable[int], coeff: CoefficientLike = 1) -> "CliffordPolynomial":
        return cls(dim, {tuple(exponents): coeff})

    @classmethod
    def variable(cls, dim: int, j: int) -> "CliffordPolynomial":
        if not 1 <= j <= dim:
            raise ValueError(f"variable index {j} out of range 1..{dim}")
        return cls.monomial(dim, (int(i == j) for i in range(1, dim + 1)))

    # -- inspection --------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._dim

    def _coefficient(self, blades: dict[int, int]) -> Multivector:
        return Multivector._trusted(self._dim, {mask: Fraction(x, self._den) for mask, x in blades.items()})

    def terms(self) -> dict[Monomial, Multivector]:
        return dict(self.items())

    def coefficient(self, exponents: Iterable[int]) -> Multivector:
        return self._coefficient(self._nums.get(tuple(exponents), {}))

    def items(self) -> Iterator[tuple[Monomial, Multivector]]:
        return ((mono, self._coefficient(blades)) for mono, blades in self._nums.items())

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        if not self._nums:
            return None
        return max(map(sum, self._nums))

    def is_homogeneous(self, k: int | None = None) -> bool:
        degrees = set(map(sum, self._nums))
        if k is None:
            return len(degrees) <= 1
        return degrees <= {k}

    def grades(self) -> set[int]:
        return {mask.bit_count() for blades in self._nums.values() for mask in blades}

    def is_pure_grade(self, g: int) -> bool:
        return self.grades() <= {g}

    def pure_grade(self) -> int | None:
        grades = self.grades()
        if len(grades) == 1:
            return grades.pop()
        return None

    def grade(self, g: int) -> "CliffordPolynomial":
        """Coefficient-wise grade projection."""
        nums = {mono: {mask: x for mask, x in blades.items() if mask.bit_count() == g}
                for mono, blades in self._nums.items()}
        return CliffordPolynomial._trusted(self._dim, self._den, _pruned(nums))

    # -- linear arithmetic ---------------------------------------------------

    def _coerce(self, other: object) -> "CliffordPolynomial | None":
        if isinstance(other, CliffordPolynomial):
            if other._dim != self._dim:
                raise ValueError(f"dimension mismatch: {self._dim} vs {other._dim}")
            return other
        if isinstance(other, (int, Fraction, Multivector)):
            return CliffordPolynomial.constant(self._dim, other)
        return None

    def __add__(self, other: object) -> "CliffordPolynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _combination(self._dim, ((1, self), (1, rhs)))

    __radd__ = __add__

    def __neg__(self) -> "CliffordPolynomial":
        return _combination(self._dim, ((-1, self),))

    def __sub__(self, other: object) -> "CliffordPolynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _combination(self._dim, ((1, self), (-1, rhs)))

    def __rsub__(self, other: object) -> "CliffordPolynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _combination(self._dim, ((1, rhs), (-1, self)))

    def __mul__(self, other: object) -> "CliffordPolynomial":
        if isinstance(other, (int, Fraction)):
            return _combination(self._dim, ((other, self),))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "CliffordPolynomial":
        if isinstance(other, (int, Fraction)):
            factor = _as_fraction(other)
            if not factor:
                raise ZeroDivisionError("division of polynomial by zero")
            return self * (Fraction(1) / factor)
        return NotImplemented

    def _mul_constant(self, a: Multivector, left: bool) -> "CliffordPolynomial":
        if a.dim != self._dim:
            raise ValueError(f"dimension mismatch: {self._dim} vs {a.dim}")
        terms = {m: a * c if left else c * a for m, c in self.items()}
        return CliffordPolynomial(self._dim, terms)

    def mul_left(self, a: Multivector) -> "CliffordPolynomial":
        """Constant multivector times the polynomial: a * p."""
        return self._mul_constant(a, left=True)

    def mul_right(self, a: Multivector) -> "CliffordPolynomial":
        """Polynomial times a constant multivector: p * a."""
        return self._mul_constant(a, left=False)

    # -- calculus ------------------------------------------------------------

    def partial(self, j: int) -> "CliffordPolynomial":
        """Formal partial derivative with respect to x_j (1-based axis)."""
        if not 1 <= j <= self._dim:
            raise ValueError(f"axis {j} out of range 1..{self._dim}")
        idx = j - 1
        # lowering one axis maps distinct monomials to distinct monomials
        nums = {
            mono[:idx] + (e - 1,) + mono[idx + 1:]: {mask: e * x for mask, x in blades.items()}
            for mono, blades in self._nums.items()
            if (e := mono[idx])
        }
        return CliffordPolynomial._trusted(self._dim, self._den, nums)

    def eval(self, point: Sequence[RationalLike]) -> Multivector:
        """Exact evaluation at a rational point."""
        if len(point) != self._dim:
            raise ValueError(f"point length {len(point)} != dimension {self._dim}")
        coords = [_as_fraction(c) for c in point]
        total = Multivector.zero(self._dim)
        for mono, coeff in self.items():
            factor = Fraction(1)
            for c, e in zip(coords, mono):
                if e:
                    factor *= c ** e
            if factor:
                total = total + coeff * factor
        return total

    # -- comparison / rendering ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Multivector) and other.dim != self._dim:
            return False
        if isinstance(other, (int, Fraction, Multivector)):
            other = CliffordPolynomial.constant(self._dim, other)
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        return self._dim == other._dim and self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        if self._nums.keys() <= {(0,) * self._dim}:  # equal to its coefficient, so hashed as it
            return hash(self.coefficient((0,) * self._dim))
        rows = frozenset((mono, frozenset(blades.items())) for mono, blades in self._nums.items())
        return hash((self._dim, self._den, rows))

    def __str__(self) -> str:
        # graded-lex: descending lexicographic, then stably by degree
        order = sorted(sorted(self._nums, reverse=True), key=sum)
        return _format_terms(self._dim, [(_monomial_text(mono), self._nums[mono], self._den) for mono in order])

    def __repr__(self) -> str:
        return f"CliffordPolynomial({self._dim}, {self.terms()!r})"


def _monomial_text(mono: Monomial) -> str:
    """The variable part of a printed term, each power led by ``*``; empty for 1."""
    return "".join([f"*x{j}" if e == 1 else f"*x{j}^{e}" for j, e in enumerate(mono, 1) if e])


def x_vector(m: int) -> CliffordPolynomial:
    """The vector variable as a polynomial: x = x1 e1 + ... + xm em."""
    _check_dim(m)
    terms: dict[Monomial, Multivector] = {}
    for j in range(1, m + 1):
        exps = [0] * m
        exps[j - 1] = 1
        terms[tuple(exps)] = Multivector.basis_vector(m, j)
    return CliffordPolynomial(m, terms)


def _axis_moves(op: str, a: Monomial) -> list[tuple[Monomial, int, int, int]]:
    """How op moves x^a, as (output monomial, axis j, blade bit, factor), one per axis.

    ``op`` is dirac_left (e_j d_j p), dirac_right ((d_j p) e_j), x_left
    (x_j e_j p), x_right (x_j p e_j) or laplacian (d_j^2 p), summed over
    j.  The axis-j term of op(x^a e_A) is factor * sign * x^b e_(A xor bit)
    with sign = _term_signs(op, m)[A][j]; only the sign depends on the
    blade.  Axes whose term vanishes are left out.
    """
    if op == "laplacian":
        return [(a[:j] + (e - 2,) + a[j + 1:], j, 0, e * (e - 1))
                for j, e in enumerate(a) if e >= 2]
    if op.startswith("x_"):
        return [(a[:j] + (e + 1,) + a[j + 1:], j, 1 << j, 1) for j, e in enumerate(a)]
    return [(a[:j] + (e - 1,) + a[j + 1:], j, 1 << j, e) for j, e in enumerate(a) if e]


def _term_signs(op: str, m: int) -> tuple[tuple[int, ...], ...]:
    """Sign of op's axis-j term on e_A, indexed [A][j]: e_j e_A, e_A e_j, or 1 for the Laplacian."""
    if op == "laplacian":
        return ((1,) * m,) * (1 << m)
    return _vector_signs(m)[op.endswith("_right")]


def _apply_integer(op: str, m: int, numerators: _Numerators) -> _Numerators:
    """op applied to a polynomial's integer numerators ``_nums``, zero-pruned.

    Reads each monomial's moves once and applies them to all its blades.
    Every op has integer factors and signs, so the result is exact and
    holds the numerators of op(p) over the same denominator; it is empty
    exactly when op(p) = 0.
    """
    signs = _term_signs(op, m)
    sums: _Numerators = {}
    for a, coeff in numerators.items():
        blades = [(mask, x, signs[mask]) for mask, x in coeff.items()]
        for b, j, bit, factor in _axis_moves(op, a):
            out = sums.setdefault(b, {})
            for mask, x, sign in blades:
                blade = mask ^ bit
                out[blade] = out.get(blade, 0) + factor * sign[j] * x
    return _pruned(sums)


def _apply_primitive(op: str, p: CliffordPolynomial) -> CliffordPolynomial:
    """op applied to every term of p, summed over terms and axes, on p's numerators."""
    return CliffordPolynomial._trusted(p.dim, p._den, _apply_integer(op, p.dim, p._nums))


def mul_by_x_left(p: CliffordPolynomial) -> CliffordPolynomial:
    """x * p, i.e. sum_j x_j (e_j p); raises degree by one."""
    return _apply_primitive("x_left", p)


def mul_by_x_right(p: CliffordPolynomial) -> CliffordPolynomial:
    """p * x, i.e. sum_j x_j (p e_j); raises degree by one."""
    return _apply_primitive("x_right", p)


def euler(p: CliffordPolynomial) -> CliffordPolynomial:
    """Euler operator sum_j x_j d/dx_j; scales each monomial by its degree."""
    nums = {mono: {mask: sum(mono) * x for mask, x in blades.items()}
            for mono, blades in p._nums.items() if any(mono)}
    return CliffordPolynomial._trusted(p.dim, p._den, nums)
