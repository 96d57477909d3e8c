import random
import sys
from fractions import Fraction

import pytest

from inframono import (
    CliffordPolynomial,
    Multivector,
    PolynomialSyntaxError,
    grammar,
    parse_polynomial,
)
from helpers import LONG_DIGITS, LONG_LITERALS, benchmark_workloads, random_polynomial, reference_parse


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
            m = rng.randint(1, 9)
            p = random_polynomial(rng, m, rng.randint(0, 5), homogeneous=False, max_terms=6)
            assert parse_polynomial(str(p), m) == p

    def test_wide_algebra_round_trip(self):
        rng = random.Random(43)
        for _ in range(20):
            p = random_polynomial(rng, 10, rng.randint(0, 2), homogeneous=False, max_terms=4)
            assert parse_polynomial(str(p), 10) == p


def _outcome(text: str, m: int, parse=parse_polynomial):
    try:
        return "ok", parse(text, m)
    except PolynomialSyntaxError as err:
        return "error", str(err), err.position


@pytest.fixture
def tokenize_calls(monkeypatch):
    """The texts handed to the token walker's tokenizer during the test."""
    calls = []
    tokenize = grammar._tokenize

    def counting(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(grammar, "_tokenize", counting)
    return calls


def _walker_only(monkeypatch):
    """parse_polynomial with the printed path switched off."""
    monkeypatch.setattr(grammar, "_printed_terms", lambda text, m: None)
    return parse_polynomial


# Texts the printed path must hand to the token walker: (text, m).
WALKER_TEXTS = [
    ("-(1*x1 + 2*x2)", 2),
    ("x1*3", 2),
    ("1*e12*x1", 2),
    ("x1", 2),
    ("+3*x1", 2),
    ("3 * x1", 2),
    ("1*e{1,2}", 2),
    ("1*e21", 2),
    ("1*e", 2),
    ("3", 10),
    ("1*x1 + 2*x10", 10),
    ("1*x1^2*e{1,10}", 12),
]


class TestPrintedPath:
    """Which path a text takes: the printer's own form for m <= 9 never reaches the tokenizer."""

    def test_printer_output_skips_the_walker(self, tokenize_calls):
        rng = random.Random(44)
        for m in range(1, 10):
            samples = [CliffordPolynomial.zero(m), CliffordPolynomial.constant(m, Fraction(-7, 3))]
            samples += [random_polynomial(rng, m, rng.randint(0, 4), homogeneous=False) for _ in range(30)]
            for p in samples:
                assert parse_polynomial(str(p), m) == p
        assert tokenize_calls == []

    @pytest.mark.parametrize("text, m", WALKER_TEXTS)
    def test_other_forms_reach_the_walker(self, tokenize_calls, text, m):
        assert parse_polynomial(text, m) == reference_parse(text, m)
        assert tokenize_calls == [text]

    def test_wide_algebra_printer_output_reaches_the_walker(self, tokenize_calls):
        p = random_polynomial(random.Random(45), 11, 2, homogeneous=False)
        assert parse_polynomial(str(p), 11) == p
        assert tokenize_calls == [str(p)]

    def test_long_printed_text_takes_the_printed_path(self, tokenize_calls, monkeypatch):
        # 1820 monomials of degree <= 12 in 4 variables, 16 blades each: 29 120 terms.
        rng = random.Random(46)
        terms = {}
        for a in range(13):
            for b in range(13 - a):
                for c in range(13 - a - b):
                    for d in range(13 - a - b - c):
                        terms[(a, b, c, d)] = Multivector(
                            4, {mask: Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 9))
                                for mask in range(16)})
        p = CliffordPolynomial(4, terms)
        text = str(p)
        assert text.count(" + ") + text.count(" - ") + 1 >= 20000
        got = parse_polynomial(text, 4)
        assert got == p
        assert tokenize_calls == []
        # Printed terms need a sign between them, so a match failing at the end backtracks in linear time.
        bad = len(text) + 1
        assert _outcome(text + " @", 4) == ("error", f"unexpected character '@' (at position {bad})", bad)
        assert _walker_only(monkeypatch)(text, 4) == got


@pytest.fixture
def fraction_calls(monkeypatch):
    """The arguments of every Fraction built during the test."""
    calls = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return calls


def _benchmark_texts() -> list[tuple[str, int]]:
    """(text, m) of every parse in the fischer and check corpora of seeds 0-9, from perfbench/workloads.py."""
    workloads = benchmark_workloads()
    items = [item for seed in range(10)
             for workload in (workloads.Fischer(), workloads.Check()) for item in workload.corpus(seed, False)]
    return [(item["text"], item["m"]) for item in items if "text" in item]


PRINTED_TEXT = "1/2*x1*e1 - 3*x2^2 + 5/6*x1*e1 - 7/4"

# Unreduced, repeated and cancelling terms in the printer's form, and what they sum to: (text, m, terms).
UNREDUCED = [
    ("2/4*x1 + 1/6*x1", 2, {(1, 0): Fraction(2, 3)}),
    ("1*x1 - 2/2*x1", 2, {}),
    ("3/9*x1*e1 - 1/3*x1*e1 + 5/10*x2", 2, {(0, 1): Fraction(1, 2)}),
    ("0/7*x1^2*e12 + 4/6 - 0*x2", 2, {(0, 0): Fraction(2, 3)}),
    ("6/4*e12 + 6/4*e12 - 9/12*x1*x2^3*e2", 2,
     {(0, 0): Multivector(2, {3: 3}), (1, 3): Multivector(2, {2: Fraction(-3, 4)})}),
]


class TestIntegerParse:
    """Both paths sum integer numerators: no Fraction is built, and the stored form is the canonical one."""

    def test_printed_path_builds_no_fraction(self, tokenize_calls, fraction_calls):
        parse_polynomial(PRINTED_TEXT, 2)
        assert tokenize_calls == [] and fraction_calls == []
        assert Fraction(1, 2) and fraction_calls == [(1, 2)]  # the counter counts

    @pytest.mark.parametrize("text, m", [("1/2*x1*e21 - 3/4", 2), ("1/2*x10*e{1,10} - 3/4*x1", 10)])
    def test_walker_builds_no_fraction(self, tokenize_calls, fraction_calls, text, m):
        parse_polynomial(text, m)
        assert tokenize_calls == [text] and fraction_calls == []

    def test_forced_walker_builds_no_fraction(self, monkeypatch, tokenize_calls, fraction_calls):
        _walker_only(monkeypatch)(PRINTED_TEXT, 2)
        assert tokenize_calls == [PRINTED_TEXT] and fraction_calls == []

    @pytest.mark.parametrize("text, m, terms", UNREDUCED)
    def test_unreduced_terms_store_the_canonical_form(self, monkeypatch, tokenize_calls, text, m, terms):
        expected = CliffordPolynomial(m, terms)
        printed = parse_polynomial(text, m)
        assert tokenize_calls == []
        walked = _walker_only(monkeypatch)(text, m)
        assert (printed._den, printed._nums) == (walked._den, walked._nums) == (expected._den, expected._nums)

    def test_benchmark_corpora_agree_on_every_path(self, monkeypatch, tokenize_calls):
        texts = _benchmark_texts()
        assert len(texts) == 10 * (88 + 49)
        printed = [parse_polynomial(text, m) for text, m in texts]
        assert tokenize_calls == []
        walker = _walker_only(monkeypatch)
        for (text, m), p in zip(texts, printed):
            assert walker(text, m) == p == reference_parse(text, m), text


def _edits(rng: random.Random, text: str, alphabet: str) -> list[str]:
    """One deletion, insertion and replacement of a character of text, at random places."""
    i, j, k = (rng.randrange(len(text) + 1) for _ in range(3))
    return [text[:i] + text[i + 1:], text[:j] + rng.choice(alphabet) + text[j:],
            text[:k] + rng.choice(alphabet) + text[k + 1:]]


# Canonical-shaped terms that the printer never writes: (text, m).
NEAR_PRINTED = [
    ("1*x3", 2), ("1*x0", 2), ("2*x1 - 1/2*x2^3*x3*e1", 2), ("1*x1*x1^2 - 1*x2^0", 2),
    ("1*e21", 2), ("1*e11", 2), ("1*e3", 2), ("3*x1*e21 + 1*e12", 2), ("-1*e{2,1}", 2),
    ("3/0*x1", 2), ("1 + 3/0*x1", 2), ("-0*x1 + 0/5", 2), ("007/014*x1^01", 2),
    ("\u0661*x1", 2), ("1*x\u0661", 2), ("1*x1^\u0662", 2), ("1*e\u0661", 2), ("1/\u0663", 2),
    ("1*e1\u0662", 2), ("\u00b2*x1", 2), ("1*x1\t-\n2*x2 ", 2), (" - 1*x1", 2), ("1*x1 --2", 2),
    ("1*x10", 9), ("1*e19 - 1*x9^2*e123456789", 9), ("1*e1234567891", 9), ("1*x1*e12", 1),
]


class TestNearPrinted:
    """The printed path and the walker agree with the reference on text near the printer's form."""

    @pytest.mark.parametrize("text, m", NEAR_PRINTED)
    def test_near_printed_terms_match_reference(self, text, m):
        assert _outcome(text, m) == _outcome(text, m, reference_parse)

    def test_single_character_edits_match_reference(self):
        rng = random.Random(47)
        alphabet = "0123456789x e+-*/^(){},@\t\u0661\u00b2"
        errors = 0
        for m in range(1, 13):
            for _ in range(25):
                text = str(random_polynomial(rng, m, rng.randint(0, 3), homogeneous=False, max_terms=3))
                for edited in _edits(rng, text, alphabet):
                    got = _outcome(edited, m)
                    assert got == _outcome(edited, m, reference_parse), edited
                    errors += got[0] == "error"
        assert errors >= 200

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-string limit"
    )
    @pytest.mark.parametrize("text, position", [
        (f"{LONG_DIGITS}*x1", 0), (f"1*x1^{LONG_DIGITS}", 5), (f"1*x{LONG_DIGITS}", 2),
        (f"1/{LONG_DIGITS}*x1", 2), (f"2*x1 - 1*x2^{LONG_DIGITS}*e12", 12),
    ])
    def test_over_long_printed_literal_matches_walker(self, monkeypatch, text, position):
        expected = ("error", f"integer literal too long (at position {position})", position)
        assert _outcome(text, 2) == expected
        assert _outcome(text, 2, _walker_only(monkeypatch)) == expected
        assert _outcome(text, 2, reference_parse) == expected
