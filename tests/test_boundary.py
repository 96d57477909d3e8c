"""The text and construction boundary against the reference renderer and parser.

A polynomial stores integer numerators over one denominator (``_den``,
``_nums``) in lowest terms.  `str` renders them from per-dimension blade
tables, `parse_polynomial` sums into one term dict, and the parser,
`fischer._from_sectors`, the arithmetic and the polynomial operators
build values through the unchecked `CliffordPolynomial._trusted`, which
only divides out the common gcd.  Here each is held to
`helpers.reference_str`, `helpers.reference_parse`, the validating
constructors and the storage invariant.
"""

import math
import random
from fractions import Fraction

import pytest

import inframono
from inframono import (
    CliffordPolynomial,
    KernelSampler,
    Multivector,
    PolynomialSyntaxError,
    dirac_left,
    dirac_right,
    euler,
    fischer_decompose,
    fischer_tower,
    from_coords,
    kernel_basis,
    laplacian,
    monomial_basis,
    mul_by_x_left,
    mul_by_x_right,
    parse_polynomial,
    sandwich,
    space_dim,
)
from inframono.algebra import _vector_signs, blade_sign
from inframono.polynomials import _combination
from helpers import (
    random_multivector,
    random_polynomial,
    random_rational,
    reference_parse,
    reference_str,
)


def _blade_text(rng: random.Random, m: int) -> str:
    indices = rng.sample(range(1, m + 1), rng.randint(0, min(m, 3)))
    if max(indices, default=0) > 9 or rng.random() < 0.2:
        return "e{" + ",".join(map(str, indices)) + "}"
    return "e" + "".join(map(str, indices))


def _term_text(rng: random.Random, m: int) -> str:
    factors = []
    if rng.random() < 0.8:
        value = abs(random_rational(rng))
        text = f"{value.numerator}/{value.denominator}"
        factors.append(text if rng.random() < 0.5 else str(value.numerator))
    for j in rng.sample(range(1, m + 1), rng.randint(0, min(m, 3))):
        factors.append(rng.choice([f"x{j}", f"x{j}^{rng.randint(0, 3)}"]))
    factors += [_blade_text(rng, m) for _ in range(rng.randint(0, 2))]
    rng.shuffle(factors)
    return "*".join(factors) or "1"


def random_text(rng: random.Random, m: int, depth: int = 0) -> str:
    """Grammar text with signed parenthesised groups, unsorted and repeated blades."""
    chunks = []
    for i in range(rng.randint(1, 4)):
        sign = rng.choice(["", "-", "+"] if i == 0 else ["- ", "+ "])
        if depth < 2 and rng.random() < 0.25:
            body = "(" + random_text(rng, m, depth + 1) + ")"
        else:
            body = _term_text(rng, m)
        chunks.append(sign + body)
    return " ".join(chunks)


def _texts(rng: random.Random, m: int) -> list[str]:
    text = random_text(rng, m)
    other = random_text(rng, m)
    return [text, f"{text} - ({text})", f"-({text}) + ({other}) + ({text})"]


def _outcome(parse, text: str, m: int):
    try:
        return "ok", parse(text, m)
    except PolynomialSyntaxError as err:
        return "error", str(err), err.position


def assert_canonical(p: CliffordPolynomial) -> None:
    """p equals and hashes as its terms put through the validating constructors, in lowest terms.

    The storage invariant: den > 0, only non-zero int numerators, no
    empty monomial, and gcd(den, every numerator) = 1.
    """
    rebuilt = {mono: Multivector(p.dim, coeff.terms()) for mono, coeff in p.items()}
    validated = CliffordPolynomial(p.dim, rebuilt)
    assert validated == p and hash(validated) == hash(p)
    for mono, coeff in p.items():
        assert type(mono) is tuple and len(mono) == p.dim
        assert all(type(e) is int and e >= 0 for e in mono)
        assert coeff.dim == p.dim and not coeff.is_zero()
        for mask, value in coeff.items():
            assert type(mask) is int and 0 <= mask < 1 << p.dim
            assert type(value) is Fraction and value != 0
    assert type(p._den) is int and p._den > 0
    for blades in p._nums.values():
        assert blades and all(type(x) is int and x != 0 for x in blades.values())
    assert math.gcd(p._den, *(x for blades in p._nums.values() for x in blades.values())) == 1


def _wide_monomials(rng: random.Random, m: int) -> list[tuple[int, ...]]:
    """Two random monomials of each degree 0..12 and one power x_j^e, e in 10..12, in shuffled order."""
    monos = []
    for d in [d for d in range(13) for _ in range(2)]:
        exps = [0] * m
        for _ in range(d):
            exps[rng.randrange(m)] += 1
        monos.append(tuple(exps))
    power = [0] * m
    power[rng.randrange(m)] = rng.randint(10, 12)
    monos.append(tuple(power))
    rng.shuffle(monos)
    return list(dict.fromkeys(monos))


def _nonzero_multivector(rng: random.Random, m: int) -> Multivector:
    while (a := random_multivector(rng, m)).is_zero():
        pass
    return a


@pytest.mark.parametrize("m", range(1, 13))
def test_str_matches_reference(m):
    """Random values, then degrees 0..12 against the graded-lex sort, then dense splits at (4, 6) and (5, 4)."""
    rng = random.Random(100 + m)
    assert str(CliffordPolynomial.zero(m)) == reference_str(CliffordPolynomial.zero(m)) == "0"
    assert str(Multivector.zero(m)) == "0"
    for _ in range(30):
        p = random_polynomial(rng, m, rng.randint(0, 4 if m < 8 else 2), homogeneous=False)
        assert str(p) == reference_str(p)
        a = random_multivector(rng, m, max_terms=6)
        assert str(a) == reference_str(a)
    for _ in range(10):
        p = CliffordPolynomial(m, {mono: _nonzero_multivector(rng, m) for mono in _wide_monomials(rng, m)})
        assert max(max(mono) for mono in p.terms()) >= 10 and p.degree() >= 12
        assert str(p) == reference_str(p)
    if m in (4, 5):
        k = 6 if m == 4 else 4
        p = CliffordPolynomial(m, {mono: random_multivector(rng, m) for mono in monomial_basis(m, k)})
        split, tower = fischer_decompose(p), fischer_tower(p)
        parts = [split.infra_part, split.quotient] + [layer.component for layer in tower.layers]
        assert sum(map(len, split.infra_part._nums.values())) >= 300 and split.infra_part._den > 10 ** 5
        for part in parts:
            assert str(part) == reference_str(part)


@pytest.mark.parametrize("m", range(1, 13))
def test_parse_matches_reference(m):
    rng = random.Random(200 + m)
    cancelled = 0
    for _ in range(25):
        p = random_polynomial(rng, m, rng.randint(0, 3), homogeneous=False)
        texts = [str(p)] + _texts(rng, m)
        for text in texts:
            got = parse_polynomial(text, m)
            assert got == reference_parse(text, m), text
            assert str(got) == reference_str(got)
            assert_canonical(got)
            cancelled += got.is_zero()
        assert parse_polynomial(str(p), m) == p
    assert cancelled >= 25


def test_malformed_inputs_match_reference():
    rng = random.Random(7)
    alphabet = "@#xe{},()+-*/^0123456789 "
    errors = 0
    for _ in range(1500):
        m = rng.randint(1, 12)
        text = random_text(rng, m)
        pos = rng.randrange(len(text) + 1)
        edit = rng.choice(["delete", "insert", "replace", "truncate"])
        if edit == "delete":
            text = text[:pos] + text[pos + 1:]
        elif edit == "insert":
            text = text[:pos] + rng.choice(alphabet) + text[pos:]
        elif edit == "replace":
            text = text[:pos] + rng.choice(alphabet) + text[pos + 1:]
        else:
            text = text[:pos]
        got = _outcome(parse_polynomial, text, m)
        assert got == _outcome(reference_parse, text, m), text
        errors += got[0] == "error"
    assert errors >= 500


def test_token_mixes_match_reference():
    """Texts joined from whole tokens, so unbalanced, empty and back-to-back groups are compared too."""
    rng = random.Random(8)
    pieces = [
        "x1", "x2", "x3", "e1", "e21", "e11", "e{2,1}", "e{1,a}", "e{}", "3", "12", "0", "2/0",
        "(", ")", "(", ")", "()", ")(", "+", "-", "+", "-", "*", "*", "/", "^", " ",
    ]
    outcomes = {"ok": 0, "error": 0}
    for _ in range(3000):
        m = rng.randint(1, 3)
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        got = _outcome(parse_polynomial, text, m)
        assert got == _outcome(reference_parse, text, m), text
        outcomes[got[0]] += 1
    assert outcomes["ok"] >= 50 and outcomes["error"] >= 2000, outcomes


def test_operator_results_are_canonical():
    rng = random.Random(11)
    ops = (dirac_left, dirac_right, laplacian, sandwich, mul_by_x_left, mul_by_x_right)
    for _ in range(40):
        m = rng.randint(1, 5)
        p = random_polynomial(rng, m, rng.randint(0, 4), homogeneous=False)
        for op in ops:
            assert_canonical(op(p))
    # terms that cancel must be dropped, not stored as zero
    sampler = KernelSampler(3, 3, seed=1)
    assert dirac_left(sampler.left_monogenic()).is_zero()
    assert dirac_right(sampler.right_monogenic()) == CliffordPolynomial.zero(3)
    assert laplacian(sampler.harmonic()) == 0
    assert sandwich(sampler.inframonogenic()) == CliffordPolynomial.zero(3)


def test_sector_results_are_canonical():
    rng = random.Random(12)
    for m, k in ((2, 2), (2, 4), (3, 3), (3, 4), (4, 4)):
        for _ in range(4):
            result = fischer_decompose(random_polynomial(rng, m, k))
            assert_canonical(result.infra_part)
            assert_canonical(result.quotient)
        vec = [random_rational(rng) if rng.random() < 0.3 else Fraction(0) for _ in range(space_dim(m, k))]
        assert_canonical(from_coords(m, k, vec))
    for kind in ("inframonogenic", "left_monogenic", "harmonic"):
        assert_canonical(getattr(KernelSampler(3, 4, seed=2), kind)())
        for grade in (None, 1):
            for basis_element in kernel_basis(3, 3, kind, grade):
                assert_canonical(basis_element)


def test_arithmetic_results_are_canonical():
    rng = random.Random(13)
    for _ in range(60):
        m = rng.randint(1, 4)
        p = random_polynomial(rng, m, rng.randint(0, 4), homogeneous=False)
        q = random_polynomial(rng, m, rng.randint(0, 4), homogeneous=False)
        c = random_rational(rng) or Fraction(2, 3)
        a = random_multivector(rng, m)
        j, g = rng.randint(1, m), rng.randint(0, m)
        results = [p + q, p - q, p - p, -p, p + 1, 1 - p, p * c, c * p, p * 0, p * 2, p / c, p / 2,
                   p.partial(j), p.grade(g), euler(p), p.mul_left(a), p.mul_right(a)]
        for result in results:
            assert_canonical(result)
        # one value built four ways stores the same numerators
        for same in (p * 3 / 3, parse_polynomial(str(p), m), CliffordPolynomial(p.dim, p.terms()), p + q - q):
            assert same == p and hash(same) == hash(p)
    assert hash(CliffordPolynomial.zero(2) * 5) == hash(CliffordPolynomial(2, {(1, 0): 0}))


@pytest.mark.parametrize("text, plain", [
    ("0", 0), ("3", 3), ("1/2", Fraction(1, 2)), ("e1", Multivector.basis_vector(2, 1)),
])
def test_equal_values_hash_alike(text, plain):
    """A constant polynomial, its coefficient and the plain value they equal are one set element and one key."""
    p = parse_polynomial(text, 2)
    values = [p, p.coefficient((0, 0)), plain]
    for a in values:
        assert all(a == b and hash(a) == hash(b) for b in values)
        assert {a: "found"}.get(p) == {p: "found"}.get(a) == "found"
    assert len(set(values)) == 1


def _reference_combination(m, pairs):
    """sum of weight * p, accumulated over terms() Multivectors and built by the public constructor."""
    acc = {}
    for weight, p in pairs:
        for mono, coeff in p.terms().items():
            acc[mono] = acc.get(mono, Multivector.zero(m)) + coeff * weight
    return CliffordPolynomial(m, acc)


def test_combination_matches_reference():
    rng = random.Random(14)
    for _ in range(60):
        m = rng.randint(1, 4)
        polys = [random_polynomial(rng, m, rng.randint(0, 3), homogeneous=False)
                 for _ in range(rng.randint(1, 6))]
        pairs = [(rng.choice([0, rng.randint(-5, 5), random_rational(rng, max_den=12)]), p) for p in polys]
        p, w = polys[0], random_rational(rng, max_den=12) or Fraction(2, 7)
        for case in (pairs, [(w, p), (-w, p)] + pairs[1:], [(0, p)], []):
            got = _combination(m, case)
            assert got == _reference_combination(m, case)
            assert_canonical(got)
        assert _combination(m, [(w, p), (-w, p)]).is_zero()


def test_public_names_resolve_once():
    """Every name the package exports exists on it, and none is listed twice."""
    assert len(inframono.__all__) == len(set(inframono.__all__))
    for name in inframono.__all__:
        assert hasattr(inframono, name), name


def test_public_constructors_still_validate():
    with pytest.raises(ValueError):
        Multivector(2, {4: 1})
    with pytest.raises(TypeError):
        Multivector(2, {1: 0.5})
    with pytest.raises(ValueError):
        CliffordPolynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        CliffordPolynomial(2, {(1, -1): 1})
    with pytest.raises(ValueError):
        CliffordPolynomial(2, {(1, 0): Multivector(3, {0: 1})})
    assert Multivector(2, {1: 0, 2: Fraction(1, 2)}).terms() == {2: Fraction(1, 2)}
    assert CliffordPolynomial(2, {(1, 0): 0, (0, 1): 1}).terms() == {(0, 1): Multivector.scalar(2, 1)}


@pytest.mark.parametrize("m", range(1, 8))
def test_vector_sign_tables(m):
    left, right = _vector_signs(m)
    for mask in range(1 << m):
        for j in range(m):
            assert left[mask][j] == blade_sign(1 << j, mask)
            assert right[mask][j] == blade_sign(mask, 1 << j)
