import random
from collections import Counter
from fractions import Fraction

import pytest

from inframono import operators
from inframono.polynomials import _apply_integer, _parity
from inframono import (
    CliffordPolynomial,
    KernelSampler,
    Multivector,
    conjugate_sum,
    dirac_left,
    dirac_right,
    identity_report,
    is_biharmonic,
    is_harmonic,
    is_inframonogenic,
    is_k_monogenic,
    is_left_monogenic,
    is_right_monogenic,
    is_two_sided_monogenic,
    kvector_system_residuals,
    laplacian,
    linear_monogenic_split,
    monomial_basis,
    mul_by_x_left,
    mul_by_x_right,
    predicate_report,
    sandwich,
    x_vector,
)
from helpers import (
    random_polynomial,
    random_rational,
    random_scalar_polynomial,
    reference_dirac_left,
    reference_dirac_right,
    reference_laplacian,
    reference_mul_by_x_left,
    reference_mul_by_x_right,
)


def poly(m, terms):
    return CliffordPolynomial(m, terms)


def sandwich_by_double_sum(p):
    """Independent oracle: literal sum_{i,j} e_i (d_i d_j p) e_j."""
    m = p.dim
    total = CliffordPolynomial.zero(m)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            term = p.partial(i).partial(j)
            total = total + term.mul_left(Multivector.basis_vector(m, i)).mul_right(
                Multivector.basis_vector(m, j)
            )
    return total


class TestDirac:
    def test_left_single_term(self):
        p = poly(2, {(1, 0): Multivector.basis_vector(2, 1)})  # x1 e1
        assert dirac_left(p) == CliffordPolynomial.constant(2, -1)

    def test_left_monogenic_example(self):
        p = poly(2, {(1, 0): Multivector.basis_vector(2, 1)}) - poly(
            2, {(0, 1): Multivector.basis_vector(2, 2)}
        )
        assert dirac_left(p).is_zero()
        assert dirac_right(p).is_zero()

    def test_constant_killed(self):
        assert dirac_left(CliffordPolynomial.constant(3, Multivector.blade(3, [1, 2]))).is_zero()

    def test_right_of_vector_variable(self):
        for m in (2, 3, 4):
            assert dirac_right(x_vector(m)) == CliffordPolynomial.constant(m, -m)

    def test_right_single_term(self):
        p = poly(2, {(1, 0): Multivector.basis_vector(2, 2)})  # x1 e2
        assert dirac_right(p) == CliffordPolynomial.constant(2, Multivector.blade(2, [1, 2]) * -1)


class TestSandwich:
    def test_x1_squared(self):
        assert sandwich(poly(2, {(2, 0): 1})) == CliffordPolynomial.constant(2, -2)

    def test_x1x2_vanishes(self):
        assert sandwich(poly(2, {(1, 1): 1})).is_zero()

    def test_low_degree_killed(self):
        rng = random.Random(1)
        for _ in range(10):
            p = random_polynomial(rng, 3, 1, homogeneous=False)
            assert sandwich(p).is_zero()

    def test_order_independence(self):
        rng = random.Random(2)
        for _ in range(300):
            m = rng.randint(2, 4)
            p = random_polynomial(rng, m, rng.randint(0, 6), homogeneous=False, max_terms=4)
            assert dirac_right(dirac_left(p)) == dirac_left(dirac_right(p))

    def test_double_sum_oracle(self):
        rng = random.Random(3)
        for _ in range(60):
            m = rng.randint(2, 4)
            p = random_polynomial(rng, m, rng.randint(0, 5), homogeneous=False)
            assert sandwich(p) == sandwich_by_double_sum(p)


TERM_RULE_PAIRS = [
    (dirac_left, reference_dirac_left),
    (dirac_right, reference_dirac_right),
    (laplacian, reference_laplacian),
    (mul_by_x_left, reference_mul_by_x_left),
    (mul_by_x_right, reference_mul_by_x_right),
]


def test_term_rule_oracle():
    """The five term-rule operators equal their Multivector-product definitions."""
    rng = random.Random(12)
    for i in range(120):
        m = 1 + i % 6
        p = random_polynomial(rng, m, rng.randint(0, 5), homogeneous=False)
        for op, reference in TERM_RULE_PAIRS:
            assert op(p) == reference(p), (op.__name__, p)


def many_blade_inputs():
    """Inputs at the check workload's m = 7 and 8 with dense blades, as (m, degree, p).

    Each input's first monomial carries all 2^m blades, and three monomials
    one unit away from it and one a degree below carry at least a quarter
    of them each, so many (monomial, blade, axis) terms land in one output
    slot.
    """
    rng = random.Random(14)
    inputs = []
    for m, degree in ((7, 2), (7, 3), (8, 2), (8, 3)):
        first = rng.choice(monomial_basis(m, degree))
        near = [b for b in monomial_basis(m, degree)
                if sum(abs(x - y) for x, y in zip(b, first)) == 2]
        lower = [b for b in monomial_basis(m, degree - 1) if all(x <= y for x, y in zip(b, first))]
        monos = [first] + rng.sample(near, 3) + [rng.choice(lower)]
        terms = {}
        for i, mono in enumerate(monos):
            n = 1 << m if i == 0 else rng.randint(1 << (m - 2), 1 << m)
            masks = rng.sample(range(1 << m), n)
            terms[mono] = Multivector(m, {mask: random_rational(rng) or 1 for mask in masks})
        p = CliffordPolynomial(m, terms)
        assert len(p.coefficient(first).terms()) == 1 << m
        inputs.append((m, degree, p))
    return inputs


def test_term_rule_oracle_many_blades():
    """As test_term_rule_oracle, on many_blade_inputs."""
    for m, degree, p in many_blade_inputs():
        for op, reference in TERM_RULE_PAIRS:
            assert op(p) == reference(p), (op.__name__, m, degree)


class TestLaplacian:
    def test_harmonic_example(self):
        p = poly(2, {(2, 0): 1, (0, 2): -1})
        assert laplacian(p).is_zero()

    def test_x1_squared(self):
        assert laplacian(poly(2, {(2, 0): 1})) == CliffordPolynomial.constant(2, 2)

    def test_factorization(self):
        rng = random.Random(4)
        for _ in range(100):
            m = rng.randint(2, 4)
            p = random_polynomial(rng, m, rng.randint(0, 6), homogeneous=False, max_terms=4)
            lap = laplacian(p)
            assert lap == -dirac_left(dirac_left(p))
            assert lap == -dirac_right(dirac_right(p))


class TestPredicates:
    def test_scalar_product_of_variables_is_inframonogenic(self):
        assert is_inframonogenic(poly(2, {(1, 1): 1}))

    def test_harmonic_but_not_inframonogenic(self):
        p = poly(2, {(1, 1): Multivector.basis_vector(2, 1)})  # x1 x2 e1
        assert is_harmonic(p)
        assert not is_inframonogenic(p)
        assert sandwich(p) == CliffordPolynomial.constant(2, Multivector.basis_vector(2, 2) * -2)

    def test_inframonogenic_implies_three_monogenic(self):
        sampler = KernelSampler(3, 4, seed=11)
        for _ in range(10):
            p = sampler.inframonogenic()
            assert is_k_monogenic(p, 3, "both")

    def test_k_monogenic_argument_validation(self):
        p = poly(2, {(1, 1): 1})
        with pytest.raises(ValueError):
            is_k_monogenic(p, 0)
        with pytest.raises(ValueError):
            is_k_monogenic(p, 2, "sideways")

    def test_k_monogenic_rejects_a_non_integer_order(self):
        p = poly(2, {(1, 0): Multivector.basis_vector(2, 1)})  # x1 e1
        for k in (5.5, 1.5, Fraction(7, 2), 2.0, "3"):
            with pytest.raises(ValueError, match="order"):
                is_k_monogenic(p, k)

    def test_k_monogenic_order_beyond_degree(self):
        """D^k p = 0 once k > deg p, so any larger order answers as fast as deg p + 1."""
        p = poly(2, {(3, 0): Multivector.basis_vector(2, 1)})  # D_L^3 (x1^3 e1) = 6
        assert not is_k_monogenic(p, 3, "left")
        for side in ("left", "right", "both"):
            assert is_k_monogenic(p, 4, side)
            assert is_k_monogenic(p, 10**12, side)
        assert is_k_monogenic(CliffordPolynomial.zero(2), 10**12)

    def test_monogenic_implies_inframonogenic(self):
        sampler = KernelSampler(3, 3, seed=12)
        for _ in range(10):
            assert is_inframonogenic(sampler.left_monogenic())
            assert is_inframonogenic(sampler.right_monogenic())

    def test_scalar_inframonogenic_is_harmonic(self):
        rng = random.Random(5)
        for _ in range(20):
            p = random_scalar_polynomial(rng, 3, rng.randint(2, 4), homogeneous=False)
            assert is_inframonogenic(p) == is_harmonic(p)

    def test_biharmonic(self):
        # |x|^2 is biharmonic but not harmonic
        sq = mul_by_x_left(mul_by_x_right(CliffordPolynomial.constant(2, 1)))
        assert not is_harmonic(sq)
        assert is_biharmonic(sq)


def reference_report(p):
    """predicate_report's verdicts from the Multivector-product reference operators."""
    left, right, lap = reference_dirac_left(p), reference_dirac_right(p), reference_laplacian(p)
    return {
        "left_monogenic": left.is_zero(),
        "right_monogenic": right.is_zero(),
        "two_sided_monogenic": left.is_zero() and right.is_zero(),
        "inframonogenic": reference_dirac_right(left).is_zero(),
        "three_monogenic_left": reference_dirac_left(reference_dirac_left(left)).is_zero(),
        "three_monogenic_right": reference_dirac_right(reference_dirac_right(right)).is_zero(),
        "harmonic": lap.is_zero(),
        "biharmonic": reference_laplacian(lap).is_zero(),
    }


def assert_predicates_match_reference(p):
    want = reference_report(p)
    assert list(predicate_report(p).items()) == list(want.items()), p
    assert is_left_monogenic(p) == want["left_monogenic"]
    assert is_right_monogenic(p) == want["right_monogenic"]
    assert is_two_sided_monogenic(p) == want["two_sided_monogenic"]
    assert is_inframonogenic(p) == want["inframonogenic"]
    assert is_harmonic(p) == want["harmonic"]
    assert is_biharmonic(p) == want["biharmonic"]
    powers = {}
    for side, reference in (("left", reference_dirac_left), ("right", reference_dirac_right)):
        q = p
        for k in (1, 2, 3):
            q = reference(q)
            powers[side, k] = q.is_zero()
            assert is_k_monogenic(p, k, side) == powers[side, k], (side, k, p)
    for k in (1, 2, 3):
        assert is_k_monogenic(p, k) == (powers["left", k] and powers["right", k])
    return want


def test_predicates_match_reference_operators():
    """predicate_report and every is_* predicate against the reference operators.

    Inhomogeneous inputs at m = 1..8 with mixed denominators, kernel
    samples (so that True verdicts occur) scaled by odd denominators, the
    dense-blade inputs at m = 7 and 8, kernel samples cut down to one
    sign-flip sector, and kernel samples plus one term in another sector
    (so that the second pass of predicate_report decides verdicts).
    """
    rng = random.Random(21)
    inputs = []
    for m in range(1, 9):
        for _ in range(6 if m <= 4 else 3):
            degree = rng.randint(0, 6 if m <= 4 else 3)
            p = random_polynomial(rng, m, degree, homogeneous=False)
            q = random_polynomial(rng, m, rng.randint(0, degree), homogeneous=False)
            inputs.append(p + q / rng.choice((3, 5, 7, 11)))
    for m, k in ((2, 5), (3, 4), (4, 3)):
        sampler = KernelSampler(m, k, seed=m)
        for draw in (sampler.left_monogenic, sampler.right_monogenic,
                     sampler.two_sided_monogenic, sampler.inframonogenic, sampler.harmonic):
            inputs.append(draw() / rng.choice((1, 3, 7)))
    inputs += [p for _, _, p in many_blade_inputs()]
    inputs += [CliffordPolynomial.zero(3), x_vector(5)]
    inputs += single_sector_kernel_inputs() + kernel_inputs_with_a_stray_term(rng)
    seen = Counter()
    for p in inputs:
        for name, verdict in assert_predicates_match_reference(p).items():
            seen[name, verdict] += 1
    assert all(seen[name, verdict] for name, _ in seen for verdict in (True, False)), seen


def sector_terms(numerators, sector, inside=True):
    """The numerators of the terms x^a e_A in sign-flip sector `sector` (or outside it)."""
    out = {}
    for a, blades in numerators.items():
        kept = {mask: x for mask, x in blades.items() if (_parity(a) ^ mask == sector) == inside}
        if kept:
            out[a] = kept
    return out


def first_sector(p):
    a, blades = next(iter(p._nums.items()))
    return _parity(a) ^ next(iter(blades))


def in_sector(p, sector):
    return CliffordPolynomial(p.dim, {a: Multivector(p.dim, {mask: Fraction(x, p._den)
                                                             for mask, x in blades.items()})
                                      for a, blades in sector_terms(p._nums, sector).items()})


def single_sector_kernel_inputs():
    """KernelSampler outputs cut down to their first term's sector; still in the kernel."""
    inputs = []
    for m, k in ((2, 4), (3, 3), (4, 3)):
        sampler = KernelSampler(m, k, seed=10 + m)
        for draw in (sampler.left_monogenic, sampler.right_monogenic,
                     sampler.two_sided_monogenic, sampler.inframonogenic, sampler.harmonic):
            p = draw()
            inputs.append(in_sector(p, first_sector(p)))
    return inputs


def kernel_inputs_with_a_stray_term(rng):
    """KernelSampler outputs plus one term in a sector other than the first term's."""
    inputs = []
    for m, k in ((2, 5), (3, 4), (4, 3)):
        sampler = KernelSampler(m, k, seed=20 + m)
        for draw in (sampler.left_monogenic, sampler.right_monogenic,
                     sampler.two_sided_monogenic, sampler.inframonogenic, sampler.harmonic):
            p = draw()
            sector = first_sector(p)
            mono = rng.choice([b for d in range(1, k + 2) for b in monomial_basis(m, d)
                               if b not in p._nums])
            stray = sector ^ rng.randrange(1, 1 << m)
            q = CliffordPolynomial(m, {**p.terms(), mono: Multivector(m, {stray ^ _parity(mono): 1})})
            assert first_sector(q) == sector and sector_terms(q._nums, sector, inside=False)
            inputs.append(q)
    return inputs


def recorded_calls(monkeypatch):
    """The (op, input numerators) of every integer-core call the operators module makes."""
    calls = []
    original = operators._apply_integer

    def recording(op, m, numerators):
        calls.append((op, numerators))
        return original(op, m, numerators)

    monkeypatch.setattr(operators, "_apply_integer", recording)
    return calls


def frozen(numerators):
    return tuple(sorted((a, tuple(sorted(blades.items()))) for a, blades in numerators.items()))


def test_predicate_report_computes_each_chain_prefix_once_per_part(monkeypatch):
    """Reference verdicts and key order; per part, no (op, input) twice and at most 7 chains.

    A part is the first term's sector or the rest of p; every call reads
    one part or a chain result from it.  Per part the seven chains apply
    D_L twice (D_L, D_L Lap), D_R three times (D_R, D_R D_L, D_R Lap) and
    Lap twice (Lap, Lap^2) at most.
    """
    rng = random.Random(9)
    sampler = KernelSampler(3, 4, seed=3)
    inputs = [random_polynomial(rng, m, rng.randint(0, 6), homogeneous=False)
              for m in (2, 3, 4) for _ in range(4)]
    inputs += [CliffordPolynomial.zero(3), x_vector(3), sampler.left_monogenic(),
               sampler.right_monogenic(), sampler.inframonogenic(), sampler.harmonic()]
    inputs += single_sector_kernel_inputs() + kernel_inputs_with_a_stray_term(rng)
    expected = [reference_report(p) for p in inputs]
    calls = recorded_calls(monkeypatch)
    most = Counter({"dirac_left": 2, "dirac_right": 3, "laplacian": 2})
    for p, want in zip(inputs, expected):
        calls.clear()
        assert list(predicate_report(p).items()) == list(want.items())
        assert len({(op, frozen(numerators)) for op, numerators in calls}) == len(calls)
        parts = ([], [])
        for op, numerators in calls:
            inside = frozen(sector_terms(numerators, first_sector(p)))
            assert inside in (frozen(numerators), ()), (op, numerators)
            parts[not inside].append(op)
        for ops in parts:
            assert not Counter(ops) - most, ops


def test_predicate_report_reads_only_a_deciding_first_sector(monkeypatch):
    """When the first term's sector decides every verdict, no call reads outside it.

    Single-sector inputs (kernel cut-downs and random ones) have nothing
    else; the multi-sector inputs are random ones whose first-sector part
    alone is refuted by every chain.
    """
    rng = random.Random(31)
    inputs = single_sector_kernel_inputs()
    deciding = []
    while len(deciding) < 8:
        p = random_polynomial(rng, rng.randint(2, 4), rng.randint(4, 6), max_terms=8)
        if p and not any(reference_report(in_sector(p, first_sector(p))).values()):
            deciding.append(p)
    for _ in range(6):
        p = random_polynomial(rng, rng.randint(1, 5), rng.randint(0, 5), homogeneous=False)
        if p:
            inputs.append(in_sector(p, first_sector(p)))
    inputs += deciding
    assert all(sector_terms(p._nums, first_sector(p), inside=False) for p in deciding)
    expected = [reference_report(p) for p in inputs]
    calls = recorded_calls(monkeypatch)
    for p, want in zip(inputs, expected):
        calls.clear()
        assert list(predicate_report(p).items()) == list(want.items())
        sector = first_sector(p)
        assert calls and len(calls) <= 7
        assert all(not sector_terms(numerators, sector, inside=False) for _, numerators in calls)


def test_each_primitive_maps_the_first_sector_into_itself():
    """op on the first sector's terms is op(p) restricted to that sector, op on the rest is the rest."""
    rng = random.Random(23)
    assert _parity((3, 0, 2, 1)) == 0b1001
    checked = 0
    for m in range(1, 7):
        for _ in range(4):
            p = random_polynomial(rng, m, rng.randint(0, 5), homogeneous=False, max_terms=8)
            if not p:
                continue
            sector = first_sector(p)
            first, rest = operators._sector_split(p._nums)
            assert first == sector_terms(p._nums, sector)
            assert rest == sector_terms(p._nums, sector, inside=False)
            for op in ("dirac_left", "dirac_right", "laplacian", "x_left", "x_right"):
                image = _apply_integer(op, m, p._nums)
                assert _apply_integer(op, m, first) == sector_terms(image, sector)
                assert _apply_integer(op, m, rest) == sector_terms(image, sector, inside=False)
                checked += bool(image)
    assert checked > 50


@pytest.mark.parametrize("m", range(1, 9))
def test_dirac_squares_are_minus_the_laplacian(m):
    """D_L^2 = D_R^2 = -Lap on the integer core, and on the Multivector-product references."""
    rng = random.Random(40 + m)
    inputs = [random_polynomial(rng, m, rng.randint(2, 5 if m <= 4 else 3), homogeneous=False)
              for _ in range(4)]
    inputs += [p for dim, _, p in many_blade_inputs() if dim == m]
    for p in inputs:
        lap = _apply_integer("laplacian", m, p._nums)
        minus = {a: {mask: -x for mask, x in blades.items()} for a, blades in lap.items()}
        assert reference_laplacian(p) == laplacian(p)
        for op, reference in (("dirac_left", reference_dirac_left), ("dirac_right", reference_dirac_right)):
            assert _apply_integer(op, m, _apply_integer(op, m, p._nums)) == minus
            assert reference(reference(p)) == -laplacian(p)
    assert any(_apply_integer("laplacian", m, p._nums) for p in inputs) or m == 1


class TestConjugateSum:
    def test_examples(self):
        e1 = CliffordPolynomial.constant(3, Multivector.basis_vector(3, 1))
        assert conjugate_sum(e1) == e1
        one3 = CliffordPolynomial.constant(3, 1)
        assert conjugate_sum(one3) == one3 * -3
        e12 = CliffordPolynomial.constant(2, Multivector.blade(2, [1, 2]))
        assert conjugate_sum(e12) == e12 * 2

    def test_eigen_identity_random_pure_grade(self):
        rng = random.Random(6)
        for _ in range(100):
            m = rng.randint(2, 5)
            grade = rng.randint(0, m)
            p = random_polynomial(rng, m, rng.randint(0, 3), homogeneous=False, grade=grade)
            eigen = (2 * grade - m) * ((-1) ** grade)
            assert conjugate_sum(p) == p * eigen


class TestIdentities:
    def test_specific_inputs(self):
        cases = [
            poly(2, {(2, 0): Multivector.basis_vector(2, 2)}),  # x1^2 e2
            CliffordPolynomial.constant(2, Multivector.blade(2, [1, 2])),
            poly(3, {(1, 1, 1): Multivector.blade(3, [1, 3])}),
        ]
        for p in cases:
            assert identity_report(p).all_hold

    def test_random_inputs(self):
        rng = random.Random(7)
        for _ in range(60):
            m = rng.randint(2, 4)
            p = random_polynomial(rng, m, rng.randint(0, 4), homogeneous=False)
            report = identity_report(p)
            assert report.unit_right and report.unit_left
            assert report.embed_left and report.embed_right


class TestKVectorSystem:
    def test_scalar_field(self):
        r0, r1, r2 = kvector_system_residuals(poly(2, {(1, 1): 1}))
        assert r0.is_zero() and r1.is_zero() and r2.is_zero()

    def test_vector_field_example(self):
        p = poly(2, {(2, 0): Multivector.basis_vector(2, 1)})  # x1^2 e1
        r0, r1, r2 = kvector_system_residuals(p)
        sand = sandwich(p)
        assert r1 == sand.grade(1)  # grade part is -2 e1 here; sign (-1)^(k-1) = +1
        assert sand.grade(1) == CliffordPolynomial.constant(2, Multivector.basis_vector(2, 1) * -2)

    def test_rows_match_graded_sandwich(self):
        rng = random.Random(8)
        for _ in range(60):
            m = rng.randint(2, 4)
            grade = rng.randint(0, m)
            p = random_polynomial(rng, m, rng.randint(2, 4), grade=grade)
            r0, r1, r2 = kvector_system_residuals(p)
            sand = sandwich(p)
            sign = 1 if grade % 2 == 0 else -1
            assert r0 == sand.grade(grade - 2) * sign
            assert r1 == sand.grade(grade) * -sign
            assert r2 == sand.grade(grade + 2) * -sign

    def test_vanishing_iff_inframonogenic(self):
        sampler = KernelSampler(3, 3, seed=13)
        for _ in range(10):
            p = sampler.inframonogenic(grade=1)
            r0, r1, r2 = kvector_system_residuals(p)
            assert r0.is_zero() and r1.is_zero() and r2.is_zero()

    def test_mixed_grade_rejected(self):
        p = poly(2, {(1, 1): Multivector(2, {0: 1, 1: 1})})
        with pytest.raises(ValueError):
            kvector_system_residuals(p)


class TestPlaneVectorFieldSystem:
    @staticmethod
    def residuals(f1, f2):
        r1 = f1.partial(1).partial(1) - f1.partial(2).partial(2) + f2.partial(1).partial(2) * 2
        r2 = f2.partial(1).partial(1) - f2.partial(2).partial(2) - f1.partial(1).partial(2) * 2
        return r1, r2

    def test_system_equivalent_to_sandwich(self):
        rng = random.Random(9)
        for _ in range(60):
            f1 = random_scalar_polynomial(rng, 2, rng.randint(2, 4), homogeneous=False)
            f2 = random_scalar_polynomial(rng, 2, rng.randint(2, 4), homogeneous=False)
            field = f1.mul_right(Multivector.basis_vector(2, 1)) + f2.mul_right(
                Multivector.basis_vector(2, 2)
            )
            r1, r2 = self.residuals(f1, f2)
            assert is_inframonogenic(field) == (r1.is_zero() and r2.is_zero())

    def test_kernel_samples_satisfy_the_system(self):
        sampler = KernelSampler(2, 4, seed=14)
        for _ in range(10):
            field = sampler.inframonogenic(grade=1)
            f1 = CliffordPolynomial(2, {mono: c.coefficient(0b01) for mono, c in field.items()})
            f2 = CliffordPolynomial(2, {mono: c.coefficient(0b10) for mono, c in field.items()})
            r1, r2 = self.residuals(f1, f2)
            assert r1.is_zero() and r2.is_zero()


class TestLinearMonogenicSplit:
    def test_vector_variable(self):
        split = linear_monogenic_split(x_vector(2), side="left")
        assert split.constant == Multivector.scalar(2, 1)
        assert split.remainder.is_zero()
        assert split.unique

    def test_pure_monogenic_input(self):
        sampler = KernelSampler(3, 3, seed=15)
        p = sampler.two_sided_monogenic()
        split = linear_monogenic_split(p, side="left")
        assert split.constant == Multivector.zero(3)
        assert split.remainder == p

    def test_shifted_example(self):
        m = 2
        monogenic = poly(2, {(1, 0): Multivector.basis_vector(2, 1)}) - poly(
            2, {(0, 1): Multivector.basis_vector(2, 2)}
        )
        p = x_vector(m) * 2 + monogenic
        for side in ("left", "right"):
            split = linear_monogenic_split(p, side=side)
            assert split.constant == Multivector.scalar(2, 2)
            assert split.remainder == monogenic

    def test_reconstruction_and_sidedness(self):
        sampler = KernelSampler(3, 2, seed=16)
        base = sampler.two_sided_monogenic()
        p = x_vector(3).mul_right(Multivector.scalar(3, 3)) + base
        left_split = linear_monogenic_split(p, side="left")
        assert is_right_monogenic(left_split.remainder)
        right_split = linear_monogenic_split(p, side="right")
        assert is_left_monogenic(right_split.remainder)
        recon = mul_by_x_right(
            CliffordPolynomial.constant(3, left_split.constant)
        ) + left_split.remainder
        assert recon == p

    def test_even_dimension_flags_non_uniqueness(self):
        split = linear_monogenic_split(x_vector(2), side="right")
        assert not split.unique
        assert split.constant == Multivector.scalar(2, 1)

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError, match="side must be 'left' or 'right', got 'up'"):
            linear_monogenic_split(x_vector(2), side="up")

    def test_hypothesis_failure_raises(self):
        # x1^2 is not inframonogenic
        with pytest.raises(ValueError):
            linear_monogenic_split(poly(2, {(2, 0): 1}), side="left")
        # x1 x2 is inframonogenic but e_j multiples are not
        with pytest.raises(ValueError):
            linear_monogenic_split(poly(2, {(1, 1): 1}), side="left")


class TestInclusionChain:
    def test_small_scale(self):
        for m, k in ((2, 3), (3, 2), (3, 4)):
            sampler = KernelSampler(m, k, seed=17)
            for _ in range(5):
                p = sampler.inframonogenic()
                assert is_k_monogenic(p, 3, "both")
                assert is_biharmonic(p)

    def test_products_with_x_of_two_sided_monogenic(self):
        for m, k in ((2, 2), (3, 2), (4, 1)):
            sampler = KernelSampler(m, k, seed=18)
            for _ in range(5):
                f = sampler.two_sided_monogenic()
                assert not f.is_zero()
                for q in (mul_by_x_left(f), mul_by_x_right(f)):
                    assert is_inframonogenic(q)
                    assert is_harmonic(q)
