"""Exact dense linear algebra over the rationals.

Matrices are plain lists of rows whose entries are ints or Fractions.
Every routine rests on one fraction-free Gauss-Jordan elimination
(Bareiss 1968), `_eliminate`, which works in place on integer rows.
Fraction input is first scaled row by row to integers by the lcm of the
row's denominators, which leaves the reduced row echelon form unchanged,
and the elimination then divides only exactly, so every intermediate entry is a minor of the
scaled matrix and no gcd is taken until the end.  A pivot step touches
only the columns after the pivot and the free columns before it; the
cleared pivot columns are not recomputed.  At the end every row is the
same integer scale, the last leading minor, times its row of the unique
RREF.  `rref` divides by that scale once, so it and `nullspace`, which
reads it, return Fractions whatever the input; `rank` counts the pivots
of the integer elimination and builds no Fraction; `integer_inverse`
divides instead by the gcd of the scale and the inverse's entries and
returns an integer matrix over one denominator, building no Fraction.
`invert` is its Fraction view.  `mat_vec` keeps the type of its input,
so an integer matrix times an integer vector stays in integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Matrix = list[list[int | Fraction]]
Vector = list[int | Fraction]


class SingularMatrixError(ArithmeticError):
    """Raised when a system expected to be regular turns out not to be."""


def _eliminate(work: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan on integer rows, in place: (pivot columns, scale).

    Afterwards every row is ``scale`` times the same row of the RREF.
    Column c's pivot leaves its own column cleared and the columns before
    it either cleared pivot columns or free, so each other row updates
    only its entries after c, rescales its free entries before c (the
    pivot row is zero there) and takes 0 at c.  The pivot entries are
    written at the end, when the scale is known.
    """
    rows = len(work)
    cols = len(work[0]) if rows else 0
    pivots: list[int] = []
    free: list[int] = []
    prev = 1
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if work[i][c]), None)
        if pivot_row is None:
            free.append(c)
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        top = work[r]
        pivot = top[c]
        tail = top[c + 1:]
        for i, row in enumerate(work):
            factor = row[c]
            if i == r or not factor and pivot == prev:
                continue
            if factor:
                row[c + 1:] = [(pivot * a - factor * b) // prev for a, b in zip(row[c + 1:], tail)]
                row[c] = 0
            else:
                row[c + 1:] = [pivot * a // prev for a in row[c + 1:]]
            for j in free:
                row[j] = pivot * row[j] // prev
        prev = pivot
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for row, c in zip(work, pivots):
        row[c] = prev
    return pivots, prev


def _integer_rows(matrix: Matrix) -> list[list[int]]:
    """Each row times the lcm of its denominators: integer rows with the same RREF."""
    scales = (lcm(*(x.denominator for x in row)) for row in matrix)
    return [[x.numerator * (scale // x.denominator) for x in row] for row, scale in zip(matrix, scales)]


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form, in Fractions, and the list of pivot columns."""
    work = _integer_rows(matrix)
    pivots, scale = _eliminate(work)
    return [[Fraction(x, scale) for x in row] for row in work], pivots


def rank(matrix: Matrix) -> int:
    """Number of pivots of the integer elimination; no RREF is built."""
    return len(_eliminate(_integer_rows(matrix))[0])


def nullspace(matrix: Matrix) -> list[Vector]:
    """Basis of the right kernel, one vector per free column."""
    if not matrix:
        return []
    cols = len(matrix[0])
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis: list[Vector] = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


def invert(matrix: Matrix) -> Matrix:
    """Exact inverse of a regular square matrix: (D A)^-1 D, D scaling each row to integers."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("invert expects a square matrix")
    scales = [lcm(*(x.denominator for x in row)) for row in matrix]
    den, inverse = integer_inverse(_integer_rows(matrix))
    return [[Fraction(x * d, den) for x, d in zip(row, scales)] for row in inverse]


def integer_inverse(matrix: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Exact inverse of a regular square integer matrix as (den, M), the inverse being M / den.

    den > 0 and gcd(den, every entry of M) = 1.  No Fraction is built.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("integer_inverse expects a square matrix")
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    pivots, scale = _eliminate(work)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    g = gcd(scale, *(x for row in work for x in row[n:]))
    if scale < 0:
        g = -g
    return scale // g, [[x // g for x in row[n:]] for row in work]


def mat_vec(matrix: Matrix, vec: Vector) -> Vector:
    """Matrix times vector; ints in, ints out."""
    return [sum(map(mul, row, vec)) for row in matrix]
