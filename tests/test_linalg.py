import random
from fractions import Fraction
from math import gcd

import pytest

from helpers import reference_inverse, reference_rref
from inframono import linalg
from inframono.linalg import (
    SingularMatrixError,
    integer_inverse,
    invert,
    mat_vec,
    nullspace,
    rank,
    rref,
)


def F(x, y=1):
    return Fraction(x, y)


def random_matrix(rng, rows, cols, span=5):
    return [[F(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]


class TestRref:
    def test_identity_fixed_point(self):
        eye = [[F(int(i == j)) for j in range(3)] for i in range(3)]
        reduced, pivots = rref(eye)
        assert reduced == eye and pivots == [0, 1, 2]

    def test_known_rank_deficient(self):
        mat = [[F(1), F(2)], [F(2), F(4)]]
        _, pivots = rref(mat)
        assert pivots == [0]
        assert rank(mat) == 1

    def test_input_not_mutated(self):
        mat = [[F(2), F(1)], [F(1), F(1)]]
        snapshot = [row[:] for row in mat]
        rref(mat)
        assert mat == snapshot


class TestSolveInvert:
    def test_hand_example(self):
        mat = [[F(2), F(1)], [F(1), F(3)]]
        assert invert(mat) == [[F(3, 5), F(-1, 5)], [F(-1, 5), F(2, 5)]]
        assert mat_vec(invert(mat), [F(5), F(10)]) == [F(1), F(3)]

    def test_invert_round_trip(self):
        rng = random.Random(2)
        done = 0
        while done < 15:
            n = rng.randint(1, 5)
            mat = random_matrix(rng, n, n)
            try:
                inv = invert(mat)
            except SingularMatrixError:
                continue
            eye = [[F(int(i == j)) for j in range(n)] for i in range(n)]
            product = [mat_vec(inv, [mat[r][c] for r in range(n)]) for c in range(n)]
            # product columns of inv*mat
            assert [[product[c][r] for c in range(n)] for r in range(n)] == eye
            done += 1

    def test_singular_detection(self):
        with pytest.raises(SingularMatrixError):
            invert([[F(1), F(2)], [F(2), F(4)]])
        with pytest.raises(SingularMatrixError):
            invert([[F(0)]])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            invert([[F(1), F(2)]])
        with pytest.raises(ValueError):
            integer_inverse([[1, 2]])


class TestNullspace:
    def test_hand_example(self):
        mat = [[F(1), F(2), F(3)]]
        basis = nullspace(mat)
        assert len(basis) == 2
        for vec in basis:
            assert mat_vec(mat, vec) == [F(0)]

    def test_random_kernel_membership_and_count(self):
        rng = random.Random(3)
        for _ in range(25):
            rows, cols = rng.randint(1, 5), rng.randint(1, 6)
            mat = random_matrix(rng, rows, cols)
            basis = nullspace(mat)
            assert len(basis) == cols - rank(mat)
            for vec in basis:
                assert all(v == 0 for v in mat_vec(mat, vec))

    def test_full_rank_square_has_trivial_kernel(self):
        mat = [[F(2), F(0)], [F(0), F(3)]]
        assert nullspace(mat) == []


def shaped_matrices(seed):
    """Seeded int and Fraction matrices of every shape the elimination meets.

    Square, wide and tall; rank-deficient products; all-zero; with zero
    columns; and with negative leading entries, so negative pivots occur.
    """
    rng = random.Random(seed)

    def entry(kind, span=6):
        if kind == "int":
            return rng.randint(-span, span)
        return F(rng.randint(-span, span), rng.randint(1, 5))

    out = []
    for rows, cols in ((1, 1), (4, 4), (6, 6), (3, 7), (1, 5), (7, 3), (5, 1)):
        for kind in ("int", "fraction"):
            full = [[entry(kind) for _ in range(cols)] for _ in range(rows)]
            inner = rng.randint(1, max(1, min(rows, cols) - 1))
            left = [[entry(kind, 3) for _ in range(inner)] for _ in range(rows)]
            right = [[entry(kind, 3) for _ in range(cols)] for _ in range(inner)]
            deficient = [
                [sum(a * right[t][j] for t, a in enumerate(row)) for j in range(cols)]
                for row in left
            ]
            gaps = [[0 if j % 2 else x for j, x in enumerate(row)] for row in full]
            negative = [[-abs(x) if j == i else x for j, x in enumerate(row)]
                        for i, row in enumerate(full)]
            zero = [[0 if kind == "int" else F(0) for _ in range(cols)] for _ in range(rows)]
            out += [full, deficient, gaps, negative, zero]
    return out


def with_reference(monkeypatch, fn, *args):
    """fn's result, or the exception it raises, with rref swapped for the reference."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "rref", reference_rref)
        return outcome(fn, *args)


def outcome(fn, *args):
    try:
        return fn(*args)
    except SingularMatrixError as exc:
        return type(exc)


class TestAgainstReference:
    """The fraction-free elimination reproduces rational Gauss-Jordan exactly."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rref_rank_nullspace(self, monkeypatch, seed):
        for mat in shaped_matrices(seed):
            snapshot = [row[:] for row in mat]
            reduced, pivots = rref(mat)
            want_reduced, want_pivots = reference_rref(mat)
            assert pivots == want_pivots
            assert reduced == want_reduced
            assert all(type(x) is Fraction for row in reduced for x in row)
            assert rank(mat) == len(want_pivots)
            assert nullspace(mat) == with_reference(monkeypatch, nullspace, mat)
            assert mat == snapshot

    @pytest.mark.parametrize("seed", range(4))
    def test_solve_invert(self, seed):
        rng = random.Random(100 + seed)
        square = [mat for mat in shaped_matrices(seed) if len(mat) == len(mat[0])]
        singular = 0
        for mat in square:
            rhs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in mat]
            want = outcome(reference_inverse, mat)
            assert outcome(invert, mat) == want
            if want is not SingularMatrixError:
                # the solve of A x = rhs, against the reference elimination of [A | rhs]
                reduced, _ = reference_rref([row + [b] for row, b in zip(mat, rhs)])
                assert mat_vec(invert(mat), rhs) == [row[-1] for row in reduced]
            singular += want is SingularMatrixError
        assert 0 < singular < len(square)

    @pytest.mark.parametrize("seed", range(4))
    def test_integer_inverse(self, seed):
        square = [mat for mat in shaped_matrices(seed)
                  if len(mat) == len(mat[0]) and all(type(x) is int for row in mat for x in row)]
        singular = 0
        for mat in square:
            snapshot = [row[:] for row in mat]
            want = outcome(reference_inverse, mat)
            got = outcome(integer_inverse, mat)
            assert mat == snapshot
            if want is SingularMatrixError:
                assert got is SingularMatrixError
                singular += 1
                continue
            den, inverse = got
            assert all(type(x) is int for row in inverse for x in row)
            assert den > 0 and gcd(den, *(x for row in inverse for x in row)) == 1
            assert [[F(x, den) for x in row] for row in inverse] == want
        assert 0 < singular < len(square)

    def test_empty_and_degenerate_shapes(self):
        assert rref([]) == ([], [])
        assert rref([[], []]) == ([[], []], [])
        assert rank([[0, 0], [0, 0]]) == 0
        assert nullspace([[0, 0]]) == [[F(1), F(0)], [F(0), F(1)]]
        assert rref([[-3, 6], [2, -4]]) == ([[F(1), F(-2)], [F(0), F(0)]], [0])

    def test_singular_integer_input(self):
        with pytest.raises(SingularMatrixError):
            invert([[2, 4], [-1, -2]])
        with pytest.raises(SingularMatrixError):
            integer_inverse([[2, 4], [-1, -2]])
        with pytest.raises(SingularMatrixError):
            invert([[0, 0], [0, 0]])
