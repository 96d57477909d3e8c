"""Exact dense linear algebra over the rationals.

Matrices are plain lists of rows whose entries are ints or Fractions.
Every routine rests on one fraction-free Gauss-Jordan elimination
(Bareiss 1968): each row is first scaled to integers by the lcm of its
denominators, which leaves the reduced row echelon form unchanged, and
the elimination then divides only exactly, so every intermediate entry
is a minor of the scaled matrix and no gcd is taken until the end.  The
last step divides each pivot row by its pivot, which gives the same
unique RREF as rational Gauss-Jordan, several times faster on the
sector blocks of `fischer`.  `solve`, `invert` and `nullspace` return
Fractions whatever the input; `mat_vec` keeps the type of its input, so
an integer matrix times an integer vector stays in integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

Matrix = list[list[int | Fraction]]
Vector = list[int | Fraction]


class SingularMatrixError(ArithmeticError):
    """Raised when a system expected to be regular turns out not to be."""


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form, in Fractions, and the list of pivot columns."""
    work = []
    for row in matrix:
        scale = lcm(*(x.denominator for x in row))
        work.append([x.numerator * (scale // x.denominator) for x in row])
    rows = len(work)
    cols = len(work[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        top = work[r]
        pivot = top[c]
        for i in range(rows):
            if i == r:
                continue
            factor = work[i][c]
            if factor:
                work[i] = [(pivot * a - factor * b) // prev for a, b in zip(work[i], top)]
            elif pivot != prev:
                work[i] = [pivot * a // prev for a in work[i]]
        prev = pivot
        pivots.append(c)
        r += 1
        if r == rows:
            break
    # every pivot row now carries the same pivot, the last leading minor
    return [[Fraction(x, prev) for x in row] for row in work], pivots


def rank(matrix: Matrix) -> int:
    if not matrix or not matrix[0]:
        return 0
    return len(rref(matrix)[1])


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


def solve(matrix: Matrix, rhs: Vector) -> Vector:
    """Exact solution of a regular square system; SingularMatrixError otherwise."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve expects a square matrix and a matching right-hand side")
    work = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    reduced, pivots = rref(work)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [reduced[i][n] for i in range(n)]


def invert(matrix: Matrix) -> Matrix:
    """Exact inverse of a regular square matrix."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("invert expects a square matrix")
    work = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    reduced, pivots = rref(work)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in reduced]


def mat_vec(matrix: Matrix, vec: Vector) -> Vector:
    """Matrix times vector; ints in, ints out."""
    return [sum(map(mul, row, vec)) for row in matrix]
