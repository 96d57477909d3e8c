"""Exact arithmetic in the real Clifford algebra Cl(0, m).

The algebra is generated over the rationals by e_1, ..., e_m subject to
e_j e_k + e_k e_j = -2 delta_jk.  Basis blades e_A (A a subset of {1..m})
are encoded as bitmasks: bit j-1 set means index j belongs to A.  All
coefficients are `fractions.Fraction`; floats are rejected so that every
zero test in the rest of the package is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, Mapping, Union

#: Hard cap on the generator count (4096 blades).  Raise it if you know
#: what you are doing; everything downstream stays correct, just slower.
MAX_DIM = 12

RationalLike = Union[int, Fraction]


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact coefficient expected (int or Fraction), got {type(value).__name__}")


def _check_dim(dim: int) -> None:
    if not isinstance(dim, int) or not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dimension must be an integer in 1..{MAX_DIM}, got {dim!r}")


def blade_sign(a_mask: int, b_mask: int) -> int:
    """Sign of the product e_A * e_B in Cl(0, m).

    Counts the transpositions needed to sort the concatenation A ++ B,
    then one extra factor -1 for every shared index (e_j^2 = -1).
    """
    swaps = 0
    shifted = a_mask >> 1
    while shifted:
        swaps += (shifted & b_mask).bit_count()
        shifted >>= 1
    swaps += (a_mask & b_mask).bit_count()
    return -1 if swaps & 1 else 1


def blade_name(mask: int, dim: int) -> str:
    """Canonical text for a blade: ``e12`` below dim 10, ``e{1,12}`` from 10 up."""
    if mask == 0:
        return "e"
    indices = [j + 1 for j in range(dim) if mask >> j & 1]
    if dim <= 9:
        return "e" + "".join(str(j) for j in indices)
    return "e{" + ",".join(str(j) for j in indices) + "}"


@lru_cache(maxsize=None)
def _vector_signs(dim: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Signs of e_j e_A and of e_A e_j, as (left, right) tables indexed [mask][j - 1].

    e_j passes the factors of e_A below j (left) or above j (right), and
    e_j^2 = -1 when j is in A.
    """

    def sign(swaps: int) -> int:
        return -1 if swaps & 1 else 1

    masks = range(1 << dim)
    left = tuple(
        tuple(sign((mask & ((2 << j) - 1)).bit_count()) for j in range(dim)) for mask in masks
    )
    right = tuple(tuple(sign((mask >> j).bit_count()) for j in range(dim)) for mask in masks)
    return left, right


@lru_cache(maxsize=None)
def _blade_table(dim: int) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Per mask: its rank in (grade, mask) order, and its text in a printed term.

    The text is ``*`` and the blade name, or empty for the scalar blade.
    """
    rank = [0] * (1 << dim)
    for i, mask in enumerate(blades_in_order(dim)):
        rank[mask] = i
    return tuple(rank), ("",) + tuple("*" + blade_name(mask, dim) for mask in range(1, 1 << dim))


def _format_terms(dim: int, groups: Iterable[tuple[str, Mapping[int, RationalLike], int]]) -> str:
    """Signed text of (variable text, blade -> value, denominator) groups, in the given group order.

    A term's coefficient c is its value over its group's denominator, in
    lowest terms by one gcd.  Within a group, terms follow (grade, mask)
    order.  Each term prints as ``|c|``, the variable text (empty or
    ``*``-led) and the blade text; the first term carries a bare ``-``
    when negative, the others `` + `` or `` - ``.  No terms print ``0``.
    """
    rank, blade_text = _blade_table(dim)
    chunks: list[str] = []
    for var_text, values, den in groups:
        for mask in sorted(values, key=rank.__getitem__) if len(values) > 1 else values:
            value = values[mask]
            num, d = value.numerator, value.denominator * den
            g = gcd(num, d)
            sign = " - " if num < 0 else " + "
            if d == g:
                chunks.append(f"{sign}{abs(num) // g}{var_text}{blade_text[mask]}")
            else:
                chunks.append(f"{sign}{abs(num) // g}/{d // g}{var_text}{blade_text[mask]}")
    if not chunks:
        return "0"
    text = "".join(chunks)
    return text[3:] if text[1] == "+" else "-" + text[3:]


@dataclass(frozen=True)
class BladeIndex:
    """Basis blade e_A of Cl(0, m), A encoded as a sorted-index bitmask."""

    mask: int
    dim: int

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        if not isinstance(self.mask, int) or not 0 <= self.mask < (1 << self.dim):
            raise ValueError(f"blade mask {self.mask!r} out of range for dimension {self.dim}")

    @classmethod
    def from_indices(cls, indices: Iterable[int], dim: int) -> "BladeIndex":
        mask = 0
        for j in indices:
            if not 1 <= j <= dim:
                raise ValueError(f"blade index {j} out of range 1..{dim}")
            bit = 1 << (j - 1)
            if mask & bit:
                raise ValueError(f"repeated blade index {j}")
            mask |= bit
        return cls(mask, dim)

    @property
    def grade(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(j + 1 for j in range(self.dim) if self.mask >> j & 1)

    def __str__(self) -> str:
        return blade_name(self.mask, self.dim)


def blade_mul(a: BladeIndex, b: BladeIndex) -> tuple[int, BladeIndex]:
    """Product of two basis blades: e_A e_B = sign * e_C with C = A xor B."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return blade_sign(a.mask, b.mask), BladeIndex(a.mask ^ b.mask, a.dim)


def _blade_order_key(mask: int) -> tuple[int, int]:
    return (mask.bit_count(), mask)


def blades_in_order(dim: int) -> list[int]:
    """All 2^dim blade masks sorted by (grade, mask)."""
    return sorted(range(1 << dim), key=_blade_order_key)


class Multivector:
    """Immutable element of Cl(0, m): sparse blade-mask -> Fraction map.

    Zero coefficients are never stored, so ``==`` is semantic equality.
    Instances are safe to share across threads.
    """

    __slots__ = ("_dim", "_terms")

    def __init__(self, dim: int, terms: Mapping[int, RationalLike] | None = None):
        _check_dim(dim)
        clean: dict[int, Fraction] = {}
        limit = 1 << dim
        if terms:
            for mask, coeff in terms.items():
                if not isinstance(mask, int) or not 0 <= mask < limit:
                    raise ValueError(f"blade mask {mask!r} out of range for dimension {dim}")
                value = _as_fraction(coeff)
                if value:
                    clean[mask] = value
        object.__setattr__(self, "_dim", dim)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _trusted(cls, dim: int, terms: dict[int, Fraction]) -> "Multivector":
        """Wrap terms already in canonical form, unchecked and uncopied.

        For terms the library built itself: int masks in range for dim and
        non-zero Fraction values.  Outside input goes through __init__.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "_dim", dim)
        object.__setattr__(self, "_terms", terms)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Multivector is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Multivector":
        return cls(dim)

    @classmethod
    def scalar(cls, dim: int, value: RationalLike) -> "Multivector":
        return cls(dim, {0: value})

    @classmethod
    def basis_vector(cls, dim: int, j: int) -> "Multivector":
        if not 1 <= j <= dim:
            raise ValueError(f"vector index {j} out of range 1..{dim}")
        return cls(dim, {1 << (j - 1): 1})

    @classmethod
    def blade(cls, dim: int, indices: Iterable[int], coeff: RationalLike = 1) -> "Multivector":
        return cls(dim, {BladeIndex.from_indices(indices, dim).mask: coeff})

    # -- inspection --------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._dim

    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def coefficient(self, mask: int) -> Fraction:
        return self._terms.get(mask, Fraction(0))

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def grades(self) -> set[int]:
        return {mask.bit_count() for mask in self._terms}

    def is_pure_grade(self, k: int) -> bool:
        """True when every stored term has grade k (vacuously true for 0)."""
        return all(mask.bit_count() == k for mask in self._terms)

    def pure_grade(self) -> int | None:
        """The common grade of all terms, or None for zero / mixed values."""
        grades = self.grades()
        if len(grades) == 1:
            return grades.pop()
        return None

    def scalar_part(self) -> Fraction:
        return self.coefficient(0)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: object) -> "Multivector | None":
        if isinstance(other, Multivector):
            if other._dim != self._dim:
                raise ValueError(f"dimension mismatch: {self._dim} vs {other._dim}")
            return other
        if isinstance(other, (int, Fraction)):
            return Multivector.scalar(self._dim, other)
        return None

    def __add__(self, other: object) -> "Multivector":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        terms = dict(self._terms)
        for mask, coeff in rhs._terms.items():
            terms[mask] = terms.get(mask, Fraction(0)) + coeff
        return Multivector(self._dim, terms)

    __radd__ = __add__

    def __neg__(self) -> "Multivector":
        return Multivector(self._dim, {mask: -c for mask, c in self._terms.items()})

    def __sub__(self, other: object) -> "Multivector":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "Multivector":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: object) -> "Multivector":
        if isinstance(other, (int, Fraction)):
            factor = _as_fraction(other)
            return Multivector(self._dim, {mask: c * factor for mask, c in self._terms.items()})
        if isinstance(other, Multivector):
            if other._dim != self._dim:
                raise ValueError(f"dimension mismatch: {self._dim} vs {other._dim}")
            terms: dict[int, Fraction] = {}
            for a_mask, a_coeff in self._terms.items():
                for b_mask, b_coeff in other._terms.items():
                    mask = a_mask ^ b_mask
                    value = a_coeff * b_coeff * blade_sign(a_mask, b_mask)
                    acc = terms.get(mask, Fraction(0)) + value
                    if acc:
                        terms[mask] = acc
                    else:
                        terms.pop(mask, None)
            return Multivector(self._dim, terms)
        return NotImplemented

    def __rmul__(self, other: object) -> "Multivector":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other: object) -> "Multivector":
        if isinstance(other, (int, Fraction)):
            factor = _as_fraction(other)
            if not factor:
                raise ZeroDivisionError("division of multivector by zero")
            return self * (Fraction(1) / factor)
        return NotImplemented

    # -- structure maps ----------------------------------------------------

    def grade(self, k: int) -> "Multivector":
        """Projection onto the grade-k part; zero when k is out of range."""
        return Multivector(self._dim, {m: c for m, c in self._terms.items() if m.bit_count() == k})

    def conjugate(self) -> "Multivector":
        """Clifford conjugation: e_A -> (-1)^(|A|(|A|+1)/2) e_A, an anti-automorphism."""
        terms = {}
        for mask, coeff in self._terms.items():
            g = mask.bit_count()
            if (g * (g + 1) // 2) & 1:
                terms[mask] = -coeff
            else:
                terms[mask] = coeff
        return Multivector(self._dim, terms)

    def norm_sq(self) -> Fraction:
        """Squared norm: both [a conj(a)]_0 and the sum of squared coefficients."""
        return sum((c * c for c in self._terms.values()), Fraction(0))

    # -- comparison / rendering --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Multivector.scalar(self._dim, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._dim == other._dim and self._terms == other._terms

    def __hash__(self) -> int:
        if self._terms.keys() <= {0}:  # equal to its scalar, so hashed as it
            return hash(self._terms.get(0, 0))
        return hash((self._dim, frozenset(self._terms.items())))

    def __str__(self) -> str:
        return _format_terms(self._dim, (("", self._terms, 1),))

    def __repr__(self) -> str:
        return f"Multivector({self._dim}, {self._terms!r})"


def _require_pure(value: Multivector, role: str, grade: int | None = None) -> int | None:
    found = value.pure_grade()
    if value.is_zero():
        return grade
    if found is None:
        raise ValueError(f"{role} must be of pure grade, got grades {sorted(value.grades())}")
    if grade is not None and found != grade:
        raise ValueError(f"{role} must have grade {grade}, got {found}")
    return found


def _vector_product(vec: Multivector, other: Multivector, side: str, shift: int) -> Multivector:
    """[vec Y_k]_(k+shift) with the vector on the given side of Y_k, zero when Y = 0."""
    _require_pure(vec, f"{side} factor", 1)
    k = _require_pure(other, "right factor" if side == "left" else "left factor")
    if k is None:
        return Multivector.zero(other.dim)
    return (vec * other if side == "left" else other * vec).grade(k + shift)


def vector_inner_left(x: Multivector, y: Multivector) -> Multivector:
    """Inner product x . Y_k = [x Y_k]_(k-1) for a vector x (zero when k = 0)."""
    return _vector_product(x, y, "left", -1)


def vector_outer_left(x: Multivector, y: Multivector) -> Multivector:
    """Outer product x ^ Y_k = [x Y_k]_(k+1) for a vector x."""
    return _vector_product(x, y, "left", 1)


def vector_inner_right(y: Multivector, x: Multivector) -> Multivector:
    """Inner product Y_k . x = [Y_k x]_(k-1) for a vector x (zero when k = 0)."""
    return _vector_product(x, y, "right", -1)


def vector_outer_right(y: Multivector, x: Multivector) -> Multivector:
    """Outer product Y_k ^ x = [Y_k x]_(k+1) for a vector x."""
    return _vector_product(x, y, "right", 1)
