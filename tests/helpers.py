"""Seeded random generators and reference algorithms shared by the test modules."""

from __future__ import annotations

import random
from fractions import Fraction

from inframono import CliffordPolynomial, Multivector, monomial_basis


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


# Reference operators built from general Multivector products and `partial`.
# The library's polynomial operators and its compiled sector operators all
# apply one per-term rule, `polynomials._primitive_term`; these share none of it.


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
