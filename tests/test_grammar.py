import random
import sys
from fractions import Fraction

import pytest

from inframono import (
    CliffordPolynomial,
    Multivector,
    PolynomialSyntaxError,
    parse_polynomial,
)
from helpers import LONG_LITERALS, random_polynomial


class TestParsing:
    def test_two_term_polynomial(self):
        p = parse_polynomial("x1^2*e1 - 1/2*x2^2*e1", 2)
        expected = CliffordPolynomial(
            2,
            {
                (2, 0): Multivector.basis_vector(2, 1),
                (0, 2): Multivector.basis_vector(2, 1) * Fraction(-1, 2),
            },
        )
        assert p == expected

    def test_factor_order_is_irrelevant(self):
        assert parse_polynomial("e12*x1*x2", 2) == parse_polynomial("x1*x2*e12", 2)

    def test_scalars_and_signs(self):
        assert parse_polynomial("5", 3) == CliffordPolynomial.constant(3, 5)
        assert parse_polynomial("-1/2", 2) == CliffordPolynomial.constant(2, Fraction(-1, 2))
        assert parse_polynomial("+x1", 2) == CliffordPolynomial.variable(2, 1)

    def test_sign_grouping_parentheses(self):
        p = parse_polynomial("-(1/2*x1^2 + x2^2)", 2)
        assert p == CliffordPolynomial(2, {(2, 0): Fraction(-1, 2), (0, 2): -1})
        q = parse_polynomial("x1^2 - (x2^2 - x1^2)", 2)
        assert q == CliffordPolynomial(2, {(2, 0): 2, (0, 2): -1})

    def test_unsorted_blade_gets_normalised(self):
        assert parse_polynomial("e21", 2) == CliffordPolynomial.constant(
            2, Multivector.blade(2, [1, 2]) * -1
        )

    def test_blade_products_multiply(self):
        assert parse_polynomial("e1*e2", 2) == parse_polynomial("e12", 2)
        assert parse_polynomial("e1*e1", 2) == CliffordPolynomial.constant(2, -1)

    def test_braced_blades(self):
        p = parse_polynomial("3*x10*e{1,10}", 10)
        mask = (1 << 0) | (1 << 9)
        mono = tuple(1 if j == 9 else 0 for j in range(10))
        assert p == CliffordPolynomial(10, {mono: Multivector(10, {mask: 3})})

    def test_repeated_terms_accumulate(self):
        assert parse_polynomial("x1 + x1", 2) == CliffordPolynomial.variable(2, 1) * 2
        assert parse_polynomial("x1 - x1", 2).is_zero()


class TestParseErrors:
    def test_variable_out_of_range(self):
        with pytest.raises(PolynomialSyntaxError) as info:
            parse_polynomial("x3", 2)
        assert info.value.position == 0

    def test_blade_out_of_range(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("e3", 2)

    def test_bad_character(self):
        with pytest.raises(PolynomialSyntaxError) as info:
            parse_polynomial("x1 + @", 2)
        assert info.value.position == 5

    def test_trailing_garbage(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x1 x2", 2)

    def test_dangling_operator(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x1 +", 2)
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x1*", 2)

    def test_empty_input(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("   ", 2)

    def test_zero_denominator(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("1/0", 2)

    def test_repeated_blade_index(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("e11", 2)

    def test_unclosed_parenthesis(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("(x1 + x2", 2)


# Every PolynomialSyntaxError raise site in grammar.py, with its exact
# message and position: (text, m, message, position).
PARSE_ERRORS = [
    ("x1 + @", 2, "unexpected character '@'", 5),
    ("1/", 2, "unexpected end of input", 2),
    ("x1^", 2, "unexpected end of input", 3),
    ("x1 x2", 2, "expected '+' or '-' between terms", 3),
    ("-(x1 + x2", 2, "expected ')'", 9),
    ("3/x1", 2, "expected an integer denominator", 2),
    ("x1 + 2/0*x2", 2, "zero denominator", 7),
    ("x1*e{1,a}", 2, "bad blade index 'a'", 3),
    ("e{1,}", 2, "bad blade index ''", 0),
    ("x1*", 2, "expected a factor", 3),
    ("x1 +", 2, "expected a factor", 4),
    ("x1*+x2", 2, "expected a factor, found '+'", 3),
    ("(x1 + )", 2, "expected a factor, found ')'", 6),
    ("x2 + x3", 2, "variable index 3 out of range for m=2", 5),
    ("x1^e1", 2, "expected an integer exponent", 3),
    ("2*e{1,3}", 2, "blade index 3 out of range for m=2", 2),
    ("x1*e121", 3, "repeated blade index 1", 3),
    ("x1 + x2)", 2, "unexpected trailing input ')'", 7),
    ("  ", 2, "empty input", 0),
]


@pytest.mark.parametrize("text, m, message, position", PARSE_ERRORS)
def test_parse_error_message_and_position(text, m, message, position):
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_polynomial(text, m)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


class TestDepthAndLength:
    def test_deep_groups_parse(self):
        x1 = CliffordPolynomial.variable(2, 1)
        assert parse_polynomial("(" * 5000 + "x1" + ")" * 5000, 2) == x1
        assert parse_polynomial("-(" * 4999 + "x1" + ")" * 4999, 2) == x1 * -1

    def test_deep_unclosed_group(self):
        text = "(" * 3000 + "x1"
        with pytest.raises(PolynomialSyntaxError) as info:
            parse_polynomial(text, 2)
        assert str(info.value) == f"expected ')' (at position {len(text)})"

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-string limit"
    )
    @pytest.mark.parametrize("text, position", LONG_LITERALS.values(), ids=LONG_LITERALS)
    def test_over_long_literal_is_a_syntax_error(self, text, position):
        with pytest.raises(PolynomialSyntaxError) as info:
            parse_polynomial(text, 2)
        assert str(info.value) == f"integer literal too long (at position {position})"

    def test_non_decimal_blade_index(self):
        # '²' is a digit to str.isdigit but not to int()
        with pytest.raises(PolynomialSyntaxError) as info:
            parse_polynomial("x1 + e{1,\u00b2}", 2)
        assert str(info.value) == "bad blade index '\u00b2' (at position 5)"


class TestPrinting:
    def test_known_forms(self):
        assert str(CliffordPolynomial.constant(2, 5)) == "5"
        assert str(CliffordPolynomial.constant(2, Fraction(-1, 2))) == "-1/2"
        assert str(CliffordPolynomial.constant(2, Multivector.blade(2, [1, 2]) * Fraction(3, 2))) == "3/2*e12"
        assert str(CliffordPolynomial.constant(2, Multivector.basis_vector(2, 1) * -1)) == "-1*e1"
        assert str(CliffordPolynomial.zero(3)) == "0"

    def test_mixed_term_order(self):
        p = CliffordPolynomial(
            2,
            {
                (0, 0): Multivector(2, {0: 1}),
                (1, 0): Multivector(2, {1: 2, 0: -3}),
                (2, 0): Multivector(2, {3: 1}),
            },
        )
        assert str(p) == "1 - 3*x1 + 2*x1*e1 + 1*x1^2*e12"

    def test_multivector_str(self):
        a = Multivector(2, {0: 1, 1: -2, 3: Fraction(1, 3)})
        assert str(a) == "1 - 2*e1 + 1/3*e12"

    def test_braces_for_wide_algebras(self):
        p = CliffordPolynomial.constant(10, Multivector(10, {(1 << 9) | 1: 1}))
        assert str(p) == "1*e{1,10}"


class TestRoundTrip:
    def test_random_round_trip(self):
        rng = random.Random(42)
        for _ in range(500):
            m = rng.randint(1, 4)
            p = random_polynomial(rng, m, rng.randint(0, 5), homogeneous=False, max_terms=6)
            assert parse_polynomial(str(p), m) == p

    def test_wide_algebra_round_trip(self):
        rng = random.Random(43)
        for _ in range(20):
            p = random_polynomial(rng, 10, rng.randint(0, 2), homogeneous=False, max_terms=4)
            assert parse_polynomial(str(p), 10) == p
