import random
from fractions import Fraction

import pytest

from inframono import (
    BladeIndex,
    Multivector,
    blade_mul,
    blade_sign,
    blades_in_order,
    vector_inner_left,
    vector_inner_right,
    vector_outer_left,
    vector_outer_right,
)
from helpers import random_k_vector, random_multivector


def mv(m, terms):
    return Multivector(m, terms)


class TestBladeMul:
    def test_square_of_generator(self):
        e1 = BladeIndex.from_indices([1], 2)
        sign, out = blade_mul(e1, e1)
        assert sign == -1 and out.mask == 0

    def test_disjoint_sorted(self):
        e1 = BladeIndex.from_indices([1], 2)
        e2 = BladeIndex.from_indices([2], 2)
        sign, out = blade_mul(e1, e2)
        assert sign == 1 and out == BladeIndex.from_indices([1, 2], 2)

    def test_contraction(self):
        # e2 e1 e2 = -e1 e2 e2 = e1
        e2 = BladeIndex.from_indices([2], 2)
        e12 = BladeIndex.from_indices([1, 2], 2)
        sign, out = blade_mul(e2, e12)
        assert sign == 1 and out == BladeIndex.from_indices([1], 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            blade_mul(BladeIndex.from_indices([1], 2), BladeIndex.from_indices([1], 3))

    def test_grade_and_indices(self):
        b = BladeIndex.from_indices([3, 1], 4)
        assert b.grade == 2
        assert b.indices() == (1, 3)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            BladeIndex.from_indices([0], 2)
        with pytest.raises(ValueError):
            BladeIndex.from_indices([1, 1], 3)


class TestMultivectorArithmetic:
    def test_difference_of_squares(self):
        one = Multivector.scalar(2, 1)
        e1 = Multivector.basis_vector(2, 1)
        assert (one + e1) * (one - e1) == Multivector.scalar(2, 2)

    def test_identity_element(self):
        rng = random.Random(7)
        for _ in range(20):
            a = random_multivector(rng, 3)
            assert a * Multivector.scalar(3, 1) == a
            assert Multivector.scalar(3, 1) * a == a

    def test_bivector_square(self):
        e12 = Multivector.blade(2, [1, 2])
        assert e12 * e12 == Multivector.scalar(2, -1)

    def test_associativity_random(self):
        rng = random.Random(101)
        for _ in range(200):
            m = rng.randint(1, 4)
            a = random_multivector(rng, m)
            b = random_multivector(rng, m)
            c = random_multivector(rng, m)
            assert (a * b) * c == a * (b * c)

    def test_anticommutation_relations(self):
        for m in (2, 3, 4, 5):
            for j in range(1, m + 1):
                ej = Multivector.basis_vector(m, j)
                assert ej * ej == Multivector.scalar(m, -1)
                for k in range(j + 1, m + 1):
                    ek = Multivector.basis_vector(m, k)
                    assert ej * ek + ek * ej == Multivector.zero(m)

    def test_distributes_over_addition(self):
        rng = random.Random(11)
        for _ in range(50):
            a = random_multivector(rng, 3)
            b = random_multivector(rng, 3)
            c = random_multivector(rng, 3)
            assert a * (b + c) == a * b + a * c

    def test_scalar_multiplication(self):
        a = mv(2, {1: 2, 3: -1})
        assert a * Fraction(1, 2) == mv(2, {1: 1, 3: Fraction(-1, 2)})
        assert 2 * a == mv(2, {1: 4, 3: -2})
        assert a / 2 == mv(2, {1: 1, 3: Fraction(-1, 2)})

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Multivector(2, {0: 0.5})

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Multivector.scalar(2, 1) * Multivector.scalar(3, 1)
        with pytest.raises(ValueError):
            Multivector.scalar(2, 1) + Multivector.scalar(3, 1)

    def test_zero_pruning_and_equality(self):
        assert mv(2, {1: 0}) == Multivector.zero(2)
        assert not mv(2, {1: 0})
        assert mv(2, {0: 3}) == 3

    def test_scalar_minus_multivector(self):
        # int - Multivector runs __rsub__
        assert 3 - Multivector.basis_vector(2, 1) == mv(2, {0: 3, 1: -1})
        assert Fraction(1, 2) - mv(2, {0: 1, 3: 2}) == mv(2, {0: Fraction(-1, 2), 3: -2})

    @pytest.mark.parametrize("zero", [0, Fraction(0)])
    def test_division_by_zero(self, zero):
        with pytest.raises(ZeroDivisionError, match="division of multivector by zero"):
            mv(2, {1: 2}) / zero

    def test_index_ranges(self):
        with pytest.raises(ValueError, match="vector index 3 out of range 1..2"):
            Multivector.basis_vector(2, 3)
        with pytest.raises(ValueError, match="blade mask 4 out of range for dimension 2"):
            BladeIndex(4, 2)


class TestGradeProjection:
    def test_example(self):
        a = mv(2, {0: 3, 1: 2, 3: -1})
        assert a.grade(1) == mv(2, {1: 2})

    def test_parts_sum_to_identity(self):
        rng = random.Random(5)
        for _ in range(30):
            m = rng.randint(1, 4)
            a = random_multivector(rng, m)
            total = Multivector.zero(m)
            for k in range(m + 1):
                total = total + a.grade(k)
            assert total == a

    def test_pure_bivector_has_no_scalar_part(self):
        assert Multivector.blade(2, [1, 2]).grade(0) == Multivector.zero(2)

    def test_out_of_range_is_zero(self):
        a = random_multivector(random.Random(1), 3)
        assert a.grade(7) == Multivector.zero(3)
        assert a.grade(-1) == Multivector.zero(3)

    def test_idempotent_and_annihilating(self):
        rng = random.Random(9)
        for _ in range(20):
            a = random_multivector(rng, 4)
            for j in range(5):
                pj = a.grade(j)
                assert pj.grade(j) == pj
                for k in range(5):
                    if k != j:
                        assert pj.grade(k) == Multivector.zero(4)


class TestConjugation:
    @pytest.mark.parametrize(
        "indices,expected_sign",
        [([1], -1), ([1, 2], -1), ([1, 2, 3], 1), ([1, 2, 3, 4], 1)],
    )
    def test_blade_signs(self, indices, expected_sign):
        b = Multivector.blade(4, indices)
        assert b.conjugate() == b * expected_sign

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(30):
            a = random_multivector(rng, 4)
            assert a.conjugate().conjugate() == a

    def test_anti_automorphism(self):
        rng = random.Random(13)
        for _ in range(50):
            m = rng.randint(1, 4)
            a = random_multivector(rng, m)
            b = random_multivector(rng, m)
            assert (a * b).conjugate() == b.conjugate() * a.conjugate()


class TestNorm:
    def test_examples(self):
        assert mv(2, {1: 2, 3: 1}).norm_sq() == 5
        assert Multivector.zero(3).norm_sq() == 0
        assert Multivector.blade(3, [1, 2, 3]).norm_sq() == 1

    def test_two_routes_agree(self):
        rng = random.Random(17)
        for _ in range(50):
            m = rng.randint(1, 4)
            a = random_multivector(rng, m)
            assert (a * a.conjugate()).grade(0) == Multivector.scalar(m, a.norm_sq())

    def test_definite(self):
        rng = random.Random(19)
        for _ in range(30):
            a = random_multivector(rng, 3)
            assert (a.norm_sq() > 0) == (not a.is_zero())


class TestVectorProducts:
    def test_inner_example(self):
        e1 = Multivector.basis_vector(2, 1)
        e12 = Multivector.blade(2, [1, 2])
        assert vector_inner_left(e1, e12) == -Multivector.basis_vector(2, 2)

    def test_outer_example(self):
        e1 = Multivector.basis_vector(2, 1)
        e2 = Multivector.basis_vector(2, 2)
        assert vector_outer_left(e1, e2) == Multivector.blade(2, [1, 2])

    def test_inner_with_scalar_is_zero(self):
        e1 = Multivector.basis_vector(2, 1)
        assert vector_inner_left(e1, Multivector.scalar(2, 5)) == Multivector.zero(2)

    def test_split_identity(self):
        rng = random.Random(23)
        for _ in range(60):
            m = rng.randint(2, 4)
            grade = rng.randint(0, m)
            x = random_k_vector(rng, m, 1)
            y = random_k_vector(rng, m, grade)
            assert x * y == vector_inner_left(x, y) + vector_outer_left(x, y)
            assert y * x == vector_inner_right(y, x) + vector_outer_right(y, x)

    def test_sign_laws(self):
        rng = random.Random(29)
        for _ in range(60):
            m = rng.randint(2, 4)
            grade = rng.randint(0, m)
            x = random_k_vector(rng, m, 1)
            y = random_k_vector(rng, m, grade)
            sign_inner = (-1) ** (grade - 1) if grade >= 1 else 1
            sign_outer = (-1) ** grade
            assert vector_inner_left(x, y) == vector_inner_right(y, x) * sign_inner
            assert vector_outer_left(x, y) == vector_outer_right(y, x) * sign_outer

    def test_requires_pure_grades(self):
        mixed = mv(2, {0: 1, 1: 1})
        with pytest.raises(ValueError):
            vector_inner_left(mixed, Multivector.basis_vector(2, 1))
        with pytest.raises(ValueError):
            vector_outer_left(Multivector.basis_vector(2, 1), mixed)

    def test_vector_factor_must_have_grade_one(self):
        bivector = Multivector.blade(2, [1, 2])
        with pytest.raises(ValueError, match="left factor must have grade 1, got 2"):
            vector_inner_left(bivector, Multivector.basis_vector(2, 1))


def test_blades_in_order_grade_then_mask():
    assert blades_in_order(2) == [0b00, 0b01, 0b10, 0b11]
    order3 = blades_in_order(3)
    assert order3 == [0, 1, 2, 4, 3, 5, 6, 7]


def test_blade_sign_matches_productwise_expansion():
    rng = random.Random(31)
    for _ in range(100):
        m = rng.randint(1, 5)
        a = rng.randrange(1 << m)
        b = rng.randrange(1 << m)
        lhs = Multivector(m, {a: 1}) * Multivector(m, {b: 1})
        assert lhs == Multivector(m, {a ^ b: blade_sign(a, b)})


def test_dimension_cap():
    Multivector.zero(12)  # the cap itself is allowed
    with pytest.raises(ValueError):
        Multivector.zero(13)
    with pytest.raises(ValueError):
        Multivector.zero(0)


def test_multivector_is_immutable():
    a = Multivector.scalar(2, 1)
    with pytest.raises(AttributeError):
        a.dim = 3
