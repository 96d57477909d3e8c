import random
from fractions import Fraction

import pytest

from inframono import (
    CliffordPolynomial,
    Multivector,
    euler,
    monomial_basis,
    monomial_count,
    mul_by_x_left,
    mul_by_x_right,
    space_dim,
    x_vector,
)
from helpers import random_multivector, random_polynomial


def poly(m, terms):
    return CliffordPolynomial(m, terms)


class TestLinearOperations:
    def test_left_and_right_multivector_products_differ(self):
        p = poly(2, {(1, 0): Multivector.basis_vector(2, 2)})  # x1 e2
        e1 = Multivector.basis_vector(2, 1)
        assert p.mul_left(e1) == poly(2, {(1, 0): Multivector.blade(2, [1, 2])})
        assert p.mul_right(e1) == poly(2, {(1, 0): Multivector.blade(2, [1, 2]) * -1})

    def test_add_zero(self):
        rng = random.Random(1)
        p = random_polynomial(rng, 3, 3, homogeneous=False)
        assert p + CliffordPolynomial.zero(3) == p

    def test_scalar_ops(self):
        p = poly(2, {(2, 0): 3})
        assert p * Fraction(1, 3) == poly(2, {(2, 0): 1})
        assert (p / 3) * 3 == p
        assert -p + p == CliffordPolynomial.zero(2)

    @pytest.mark.parametrize("zero", [0, Fraction(0)])
    def test_division_by_zero(self, zero):
        with pytest.raises(ZeroDivisionError, match="division of polynomial by zero"):
            poly(2, {(2, 0): 3}) / zero

    def test_variable_index_range(self):
        with pytest.raises(ValueError, match="variable index 3 out of range 1..2"):
            CliffordPolynomial.variable(2, 3)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            poly(2, {(1, 0): 1}) + poly(3, {(1, 0, 0): 1})
        with pytest.raises(ValueError):
            poly(2, {(1, 0): 1}).mul_left(Multivector.scalar(3, 1))


class TestPartial:
    def test_power_rule(self):
        p = poly(2, {(2, 0): Multivector.basis_vector(2, 1)})
        assert p.partial(1) == poly(2, {(1, 0): Multivector.basis_vector(2, 1) * 2})

    def test_absent_variable(self):
        assert poly(2, {(2, 0): 1}).partial(2) == CliffordPolynomial.zero(2)

    def test_mixed_partial_of_product_monomial(self):
        p = poly(2, {(1, 1): 1})
        assert p.partial(1).partial(2) == CliffordPolynomial.constant(2, 1)

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError):
            poly(2, {(1, 0): 1}).partial(3)
        with pytest.raises(ValueError):
            poly(2, {(1, 0): 1}).partial(0)

    def test_partials_commute(self):
        rng = random.Random(2)
        for _ in range(40):
            m = rng.randint(2, 4)
            p = random_polynomial(rng, m, rng.randint(1, 5), homogeneous=False)
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    assert p.partial(i).partial(j) == p.partial(j).partial(i)

    def test_commutes_with_constant_multiplication(self):
        rng = random.Random(3)
        for _ in range(40):
            m = rng.randint(2, 4)
            p = random_polynomial(rng, m, rng.randint(1, 4), homogeneous=False)
            a = random_multivector(rng, m)
            j = rng.randint(1, m)
            assert p.mul_left(a).partial(j) == p.partial(j).mul_left(a)
            assert p.mul_right(a).partial(j) == p.partial(j).mul_right(a)


class TestXMultiplication:
    def test_x_of_one_is_the_vector_variable(self):
        assert mul_by_x_left(CliffordPolynomial.constant(2, 1)) == x_vector(2)

    def test_x_squared_is_minus_norm(self):
        one = CliffordPolynomial.constant(2, 1)
        expected = poly(2, {(2, 0): -1, (0, 2): -1})
        assert mul_by_x_left(mul_by_x_right(one)) == expected

    def test_left_action_on_e1(self):
        p = CliffordPolynomial.constant(2, Multivector.basis_vector(2, 1))
        expected = poly(2, {(1, 0): -1, (0, 1): Multivector.blade(2, [1, 2]) * -1})
        assert mul_by_x_left(p) == expected

    def test_left_right_commute(self):
        rng = random.Random(4)
        for _ in range(30):
            m = rng.randint(2, 4)
            p = random_polynomial(rng, m, rng.randint(0, 4), homogeneous=False)
            assert mul_by_x_left(mul_by_x_right(p)) == mul_by_x_right(mul_by_x_left(p))

    def test_degree_shift(self):
        rng = random.Random(5)
        for _ in range(20):
            m = rng.randint(2, 4)
            k = rng.randint(0, 4)
            p = random_polynomial(rng, m, k)
            assert mul_by_x_left(p).is_homogeneous(k + 1)
            assert p.partial(1).is_homogeneous(max(k - 1, 0))


class TestEuler:
    def test_homogeneous_eigenvalue_examples(self):
        p = poly(2, {(2, 1): 1})
        assert euler(p) == p * 3
        assert euler(CliffordPolynomial.constant(2, 5)) == CliffordPolynomial.zero(2)
        assert euler(x_vector(2)) == x_vector(2)

    def test_eigenvalue_random(self):
        rng = random.Random(6)
        for _ in range(100):
            m = rng.randint(2, 4)
            k = rng.randint(0, 6)
            p = random_polynomial(rng, m, k)
            assert euler(p) == p * k

    def test_matches_operator_definition(self):
        rng = random.Random(7)
        for _ in range(30):
            m = rng.randint(2, 4)
            p = random_polynomial(rng, m, rng.randint(0, 4), homogeneous=False)
            direct = CliffordPolynomial.zero(m)
            for j in range(1, m + 1):
                raised = {
                    mono[: j - 1] + (mono[j - 1] + 1,) + mono[j:]: coeff
                    for mono, coeff in p.partial(j).items()
                }
                direct = direct + CliffordPolynomial(m, raised)
            assert direct == euler(p)


class TestEval:
    def test_simple(self):
        p = poly(2, {(2, 0): Multivector.basis_vector(2, 1)})
        assert p.eval((3, 0)) == Multivector.basis_vector(2, 1) * 9

    def test_constant_term_at_origin(self):
        p = poly(2, {(0, 0): 7, (1, 1): 3})
        assert p.eval((0, 0)) == Multivector.scalar(2, 7)

    def test_x_squared_at_ones(self):
        one = CliffordPolynomial.constant(2, 1)
        assert mul_by_x_left(mul_by_x_right(one)).eval((1, 1)) == Multivector.scalar(2, -2)

    def test_linear_in_polynomial(self):
        rng = random.Random(8)
        for _ in range(20):
            m = rng.randint(2, 3)
            p = random_polynomial(rng, m, 3, homogeneous=False)
            q = random_polynomial(rng, m, 3, homogeneous=False)
            point = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
            assert (p + q).eval(point) == p.eval(point) + q.eval(point)

    def test_respects_constant_products(self):
        rng = random.Random(9)
        for _ in range(20):
            m = rng.randint(2, 3)
            p = random_polynomial(rng, m, 2, homogeneous=False)
            a = random_multivector(rng, m)
            point = [Fraction(rng.randint(-2, 2)) for _ in range(m)]
            assert p.mul_left(a).eval(point) == a * p.eval(point)
            assert p.mul_right(a).eval(point) == p.eval(point) * a

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            poly(2, {(1, 0): 1}).eval((1,))


class TestBasisEnumeration:
    def test_degree_two_in_two_vars(self):
        assert monomial_basis(2, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_counts(self):
        assert space_dim(2, 2) == 12
        assert space_dim(3, 0) == 8
        assert monomial_count(3, 4) == 15

    def test_deterministic_graded_lex(self):
        assert monomial_basis(3, 2) == [
            (2, 0, 0),
            (1, 1, 0),
            (1, 0, 1),
            (0, 2, 0),
            (0, 1, 1),
            (0, 0, 2),
        ]

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            monomial_basis(2, -1)
        with pytest.raises(ValueError):
            space_dim(2, -1)

    @pytest.mark.parametrize("m, k", [(0, 1), (13, 2)])
    def test_dimension_checked_by_count(self, m, k):
        with pytest.raises(ValueError, match="dimension"):
            monomial_count(m, k)


class TestStructural:
    def test_homogeneity_flags(self):
        p = poly(2, {(2, 0): 1})
        assert p.is_homogeneous(2)
        assert not p.is_homogeneous(1)
        q = p + poly(2, {(1, 0): 1})
        assert not q.is_homogeneous()
        assert CliffordPolynomial.zero(2).is_homogeneous(5)

    def test_degree(self):
        assert poly(2, {(2, 1): 1}).degree() == 3
        assert CliffordPolynomial.zero(2).degree() is None

    def test_grade_projection(self):
        p = poly(2, {(1, 0): Multivector(2, {0: 1, 1: 2})})
        assert p.grade(1) == poly(2, {(1, 0): Multivector(2, {1: 2})})
        assert p.grade(0) + p.grade(1) == p

    def test_equality_across_dimensions_is_false(self):
        p = CliffordPolynomial.zero(2)
        assert not p == Multivector.zero(3)
        assert p != Multivector.zero(3)
        assert not Multivector.zero(3) == p
        assert p == Multivector.zero(2) and CliffordPolynomial.constant(3, 2) == Multivector.scalar(3, 2)
        assert CliffordPolynomial.constant(3, 2) != Multivector.scalar(3, 1)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            poly(2, {(1, 0): 0.5})
