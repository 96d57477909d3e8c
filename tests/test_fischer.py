import dataclasses
import random
import re
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest

from inframono import (
    AdjointnessReport,
    CliffordPolynomial,
    DecompositionChecks,
    KernelSampler,
    Multivector,
    adjointness_report,
    almansi_split,
    composition_rank,
    coords,
    dirac_left,
    fischer_decompose,
    fischer_inner,
    fischer_inner_differential,
    fischer_tower,
    from_coords,
    harmonic_inframonogenic_report,
    infra_space_dim,
    is_harmonic,
    is_inframonogenic,
    is_left_monogenic,
    is_right_monogenic,
    is_two_sided_monogenic,
    kernel_basis,
    laplacian,
    monomial_basis,
    monomial_count,
    mul_by_x_left,
    parse_polynomial,
    poly_basis,
    sandwich,
    sandwich_rank,
    space_dim,
    wrap_x,
    x_vector,
)
from inframono import fischer, linalg
from inframono.linalg import mat_vec, rank
from helpers import (
    all_sector_blocks,
    conjugation_pairs,
    dense_matrix,
    random_polynomial,
    random_scalar_polynomial,
    reference_laplacian,
    reference_rref,
    reference_sandwich,
    reference_wrap_x,
)

X1SQ = CliffordPolynomial.monomial(2, (2, 0), 1)
X1X2 = CliffordPolynomial.monomial(2, (1, 1), 1)


def sandwich_dense(m, k):
    """S: P(k) -> P(k-2) from the reference sandwich, independent of the sector blocks."""
    return dense_matrix(reference_sandwich, m, k, k - 2)


def embed_dense(m, k):
    """T: P(k-2) -> P(k) from the reference Q -> x Q x."""
    return dense_matrix(reference_wrap_x, m, k - 2, k)


def matmul(a, b):
    cols_b = len(b[0])
    return [
        [sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0)) for j in range(cols_b)]
        for i in range(len(a))
    ]


class TestFischerInner:
    def test_scalar_examples(self):
        assert fischer_inner(X1SQ, X1SQ) == 2
        p = CliffordPolynomial.monomial(2, (1, 0), Multivector.basis_vector(2, 1))
        assert fischer_inner(p, p) == 1
        assert fischer_inner(X1X2, X1SQ) == 0

    def test_differential_route_agrees(self):
        rng = random.Random(1)
        for _ in range(80):
            m = rng.randint(2, 3)
            k = rng.randint(0, 4)
            p = random_polynomial(rng, m, k)
            q = random_polynomial(rng, m, k)
            assert fischer_inner(p, q) == fischer_inner_differential(p, q)

    def test_symmetric_bilinear(self):
        rng = random.Random(2)
        for _ in range(40):
            m = rng.randint(2, 3)
            k = rng.randint(1, 4)
            p = random_polynomial(rng, m, k)
            q = random_polynomial(rng, m, k)
            r = random_polynomial(rng, m, k)
            assert fischer_inner(p, q) == fischer_inner(q, p)
            assert fischer_inner(p + r, q) == fischer_inner(p, q) + fischer_inner(r, q)

    def test_positive_definite_random(self):
        rng = random.Random(3)
        for _ in range(60):
            m = rng.randint(2, 4)
            p = random_polynomial(rng, m, rng.randint(0, 5))
            value = fischer_inner(p, p)
            assert (value > 0) == (not p.is_zero())

    def test_basis_sweep_positive_diagonal(self):
        for m in (2, 3):
            for k in range(0, 5):
                for mono, mask in poly_basis(m, k):
                    b = CliffordPolynomial(m, {mono: Multivector(m, {mask: 1})})
                    assert fischer_inner(b, b) > 0

    def test_errors(self):
        with pytest.raises(ValueError):
            fischer_inner(X1SQ, CliffordPolynomial.monomial(2, (1, 0), 1))
        with pytest.raises(ValueError):
            fischer_inner(X1SQ, CliffordPolynomial.monomial(3, (2, 0, 0), 1))
        with pytest.raises(ValueError):
            fischer_inner(X1SQ + CliffordPolynomial.constant(2, 1), X1SQ)


class TestAdjointness:
    def test_two_sided_example(self):
        one = CliffordPolynomial.constant(2, 1)
        lhs = fischer_inner(wrap_x(one), X1SQ)
        rhs = fischer_inner(one, sandwich(X1SQ))
        assert lhs == rhs == -2

    def test_zero_case(self):
        e1 = CliffordPolynomial.constant(2, Multivector.basis_vector(2, 1))
        assert fischer_inner(wrap_x(e1), X1X2) == fischer_inner(e1, sandwich(X1X2)) == 0

    def test_wrap_x_times(self):
        assert wrap_x(X1X2, 0) == X1X2
        with pytest.raises(ValueError, match="times"):
            wrap_x(X1X2, -1)
        with pytest.raises(ValueError, match="times"):
            wrap_x(X1X2, 1.5)

    def test_random_relations(self):
        rng = random.Random(4)
        for _ in range(100):
            m = rng.randint(2, 3)
            k = rng.randint(2, 4)
            q = random_polynomial(rng, m, k)
            p1 = random_polynomial(rng, m, k - 1)
            report = adjointness_report(p1, q)
            assert report.left is True and report.right is True
            p2 = random_polynomial(rng, m, k - 2)
            report2 = adjointness_report(p2, q)
            assert report2.two_sided is True

    def test_degree_gap_validation(self):
        with pytest.raises(ValueError):
            adjointness_report(X1SQ, X1SQ)

    @pytest.mark.parametrize("p, q, message", [
        (CliffordPolynomial.variable(3, 1), X1SQ, "dimension mismatch: 3 vs 2"),
        (X1X2 + CliffordPolynomial.constant(2, 1), X1SQ, "need homogeneous inputs"),
        (CliffordPolynomial.constant(2, 1), X1SQ + CliffordPolynomial.variable(2, 1), "need homogeneous inputs"),
        (CliffordPolynomial.variable(2, 1), CliffordPolynomial.zero(2), "right-hand side must be nonzero"),
    ])
    def test_input_validation(self, p, q, message):
        with pytest.raises(ValueError, match=message):
            adjointness_report(p, q)

    def test_all_hold(self):
        # a relation the degree gap leaves out (None) does not count against the others
        assert adjointness_report(CliffordPolynomial.constant(2, 1), X1SQ).all_hold
        assert adjointness_report(CliffordPolynomial.variable(2, 2), X1X2).all_hold
        assert AdjointnessReport(None, None, True).all_hold
        assert not AdjointnessReport(True, True, False).all_hold
        assert not AdjointnessReport(False, None, None).all_hold


class TestOperatorMatrices:
    def test_composition_is_bijective_on_lower_space(self):
        s = sandwich_dense(2, 2)
        t = embed_dense(2, 2)
        assert len(s) == 4 and len(s[0]) == 12
        assert len(t) == 12 and len(t[0]) == 4
        composed = matmul(s, t)
        assert len(composed) == 4 and len(composed[0]) == 4
        assert rank(composed) == 4

    def test_sandwich_full_row_rank(self):
        s = sandwich_dense(2, 2)
        assert rank(s) == 4 == space_dim(2, 0)
        assert space_dim(2, 2) - rank(s) == 8 == infra_space_dim(2, 2)

    def test_infra_dimension_by_rank_nullity(self):
        assert infra_space_dim(3, 2) == space_dim(3, 2) - space_dim(3, 0) == 40
        assert sandwich_rank(3, 2) == space_dim(3, 0)

    def test_matrices_agree_with_operators(self):
        rng = random.Random(5)
        for m, k in ((2, 2), (2, 3), (3, 2)):
            s = sandwich_dense(m, k)
            t = embed_dense(m, k)
            for _ in range(5):
                p = random_polynomial(rng, m, k)
                assert mat_vec(s, coords(p, k)) == coords(sandwich(p), k - 2)
                q = random_polynomial(rng, m, k - 2)
                assert mat_vec(t, coords(q, k - 2)) == coords(wrap_x(q), k)

    def test_sector_ranks_match_full_elimination(self):
        for m, k in ((2, 2), (2, 3), (2, 4), (3, 2)):
            assert sandwich_rank(m, k) == rank(sandwich_dense(m, k))
            composed = matmul(sandwich_dense(m, k), embed_dense(m, k))
            assert composition_rank(m, k) == rank(composed)

    def test_sandwich_rank_rejects_a_negative_degree(self):
        """Below degree 2 the ranks are 0; a negative degree raises as the other counts do."""
        assert sandwich_rank(3, 0) == sandwich_rank(3, 1) == 0
        assert composition_rank(3, 0) == composition_rank(3, 1) == 0
        for count in (sandwich_rank, composition_rank, infra_space_dim, monomial_count):
            with pytest.raises(ValueError, match="degree must be non-negative"):
                count(3, -1)

    @pytest.mark.parametrize("k", [2.5, 2.0, "2"])
    @pytest.mark.parametrize(
        "count",
        [
            monomial_count,
            space_dim,
            sandwich_rank,
            composition_rank,
            lambda m, k: kernel_basis(m, k, "harmonic"),
            lambda m, k: KernelSampler(m, k).harmonic(),
        ],
        ids=["monomial_count", "space_dim", "sandwich_rank", "composition_rank", "kernel_basis", "KernelSampler"],
    )
    def test_non_int_degree_rejected(self, count, k):
        """Also after degree 2 is cached: 2.0 == 2 must not hit the int's cache entry."""
        count(2, 2)
        with pytest.raises(ValueError, match=re.escape(f"degree must be an int, got {k!r}")):
            count(2, k)


class TestCoords:
    def test_round_trip(self):
        rng = random.Random(6)
        for _ in range(20):
            m = rng.randint(2, 3)
            k = rng.randint(0, 4)
            p = random_polynomial(rng, m, k)
            assert from_coords(m, k, coords(p, k)) == p

    def test_validation(self):
        with pytest.raises(ValueError):
            coords(X1SQ, 3)
        with pytest.raises(ValueError):
            from_coords(2, 2, [Fraction(0)])


class TestDecompose:
    def test_x1_squared(self):
        result = fischer_decompose(X1SQ)
        expected_infra = CliffordPolynomial(2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(-1, 2)})
        assert result.infra_part == expected_infra
        assert result.quotient == CliffordPolynomial.constant(2, Fraction(-1, 2))
        assert result.checks.all_ok

    def test_already_inframonogenic(self):
        result = fischer_decompose(X1X2)
        assert result.infra_part == X1X2
        assert result.quotient.is_zero()
        assert result.checks.all_ok

    def test_degree_one_trivial(self):
        p = x_vector(2)
        result = fischer_decompose(p)
        assert result.infra_part == p and result.quotient.is_zero()
        assert result.checks.all_ok

    def test_x_times_monogenic_has_zero_quotient(self):
        f = CliffordPolynomial.monomial(2, (1, 0), Multivector.basis_vector(2, 1)) - (
            CliffordPolynomial.monomial(2, (0, 1), Multivector.basis_vector(2, 2))
        )
        assert is_two_sided_monogenic(f)
        product = mul_by_x_left(f)
        assert is_inframonogenic(product)
        result = fischer_decompose(product)
        assert result.quotient.is_zero()
        assert result.infra_part == product

    def test_random_exactness(self):
        rng = random.Random(7)
        for _ in range(30):
            m = rng.randint(2, 3)
            k = rng.randint(2, 5)
            p = random_polynomial(rng, m, k, max_terms=8)
            result = fischer_decompose(p)
            assert result.infra_part + wrap_x(result.quotient) == p
            assert sandwich(result.infra_part).is_zero()
            assert result.checks.all_ok

    def test_orthogonality_against_basis(self):
        rng = random.Random(8)
        for _ in range(10):
            p = random_polynomial(rng, 2, 4, max_terms=8)
            result = fischer_decompose(p)
            for mono, mask in poly_basis(2, 2):
                witness = wrap_x(CliffordPolynomial(2, {mono: Multivector(2, {mask: 1})}))
                assert fischer_inner(result.infra_part, witness) == 0

    def test_non_homogeneous_rejected(self):
        with pytest.raises(ValueError):
            fischer_decompose(X1SQ + CliffordPolynomial.constant(2, 1))

    def test_json_document(self):
        doc = fischer_decompose(X1SQ).to_json_dict()
        assert doc["infra"] == "1/2*x1^2 - 1/2*x2^2"
        assert doc["quotient"] == "-1/2"
        assert doc["checks"] == {
            "reconstruction": True,
            "sandwich_zero": True,
            "orthogonal": True,
        }

    def test_reconstruction_flag_sees_a_lost_term(self, monkeypatch):
        build = fischer._from_sectors

        def lossy(*args):
            p = build(*args)
            return CliffordPolynomial(p.dim, dict(list(p.items())[1:]))

        monkeypatch.setattr(fischer, "_from_sectors", lossy)
        result = fischer_decompose(X1SQ)
        assert result.checks == DecompositionChecks(False, True, True)
        assert fischer_tower(X1SQ).checks.reconstruction is False


class TestTower:
    def test_x1_squared_layers(self):
        tower = fischer_tower(X1SQ)
        assert len(tower.layers) == 2
        assert tower.layers[0].component == CliffordPolynomial(
            2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(-1, 2)}
        )
        assert tower.layers[1].component == CliffordPolynomial.constant(2, Fraction(-1, 2))
        assert wrap_x(tower.layers[1].component, 1) == CliffordPolynomial(
            2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}
        )
        assert tower.checks.all_ok

    def test_degree_one_single_layer(self):
        tower = fischer_tower(x_vector(3))
        assert len(tower.layers) == 1
        assert tower.layers[0].component == x_vector(3)

    def test_random_reconstruction(self):
        rng = random.Random(9)
        for _ in range(10):
            m = rng.randint(2, 3)
            k = rng.randint(2, 5)
            p = random_polynomial(rng, m, k, max_terms=8)
            tower = fischer_tower(p)
            assert len(tower.layers) == k // 2 + 1
            assert tower.reconstruct() == p
            for layer in tower.layers:
                assert sandwich(layer.component).is_zero()
            assert tower.checks.all_ok

    def test_inframonogenic_input_has_zero_lower_layers(self):
        p = CliffordPolynomial(2, {(4, 0): 1, (2, 2): -6, (0, 4): 1})
        assert is_inframonogenic(p)
        tower = fischer_tower(p)
        assert [layer.s for layer in tower.layers] == [0, 1, 2]
        assert tower.layers[0].component == p
        assert tower.layers[1].component.is_zero() and tower.layers[2].component.is_zero()
        assert tower.first_quotient.is_zero()
        assert tower.checks == DecompositionChecks(True, True, True)

    def test_layers_are_iterated_decompositions(self):
        rng = random.Random(31)
        for m in (1, 2, 3):
            for k in range(7):
                p = random_polynomial(rng, m, k, max_terms=5)
                tower = fischer_tower(p)
                step = fischer_decompose(p)
                assert tower.first_quotient == step.quotient
                for layer in tower.layers:
                    assert layer.component == step.infra_part
                    step = fischer_decompose(step.quotient)
                assert step.infra_part.is_zero() and step.quotient.is_zero()

    def test_tower_equals_repeated_decompose(self):
        p = random_polynomial(random.Random(41), 4, 6)
        steps = [fischer_decompose(p)]
        while steps[-1].quotient:
            steps.append(fischer_decompose(steps[-1].quotient))
        tower = fischer_tower(p)
        assert [layer.component for layer in tower.layers] == [s.infra_part for s in steps]
        assert tower.first_quotient == steps[0].quotient
        assert tower.checks == DecompositionChecks(True, True, True)

    def test_non_homogeneous_rejected(self):
        with pytest.raises(ValueError, match="homogeneous"):
            fischer_tower(X1SQ + CliffordPolynomial.constant(2, 1))

    @pytest.mark.parametrize("flag", ["reconstruction", "sandwich_zero", "orthogonal"])
    def test_a_fault_in_a_later_step_fails_the_tower(self, monkeypatch, flag):
        decompose, calls = fischer.fischer_decompose, []

        def faulty_second_step(p):
            result = decompose(p)
            calls.append(p)
            if len(calls) == 2:
                result = dataclasses.replace(result, checks=dataclasses.replace(result.checks, **{flag: False}))
            return result

        monkeypatch.setattr(fischer, "fischer_decompose", faulty_second_step)
        tower = fischer_tower(parse_polynomial("x1^4*e12 + 2*x2^2*x3^2", 3))
        assert len(calls) == 3
        assert tower.checks == dataclasses.replace(DecompositionChecks(True, True, True), **{flag: False})


# Oracles that need no S o T inverse: the tower is unique, so planted
# layers must come back exactly, in every sector of every orbit.
PLANTED = [(m, k) for m in (2, 3, 4) for k in range(7)] + [(5, 4)]


@pytest.mark.parametrize("m,k", PLANTED)
def test_tower_recovers_planted_layers(m, k):
    planted = [KernelSampler(m, k - 2 * s, seed=s).inframonogenic() for s in range(k // 2 + 1)]
    p = CliffordPolynomial.zero(m)
    for s, layer in enumerate(planted):
        p = p + wrap_x(layer, s)
    tower = fischer_tower(p)
    assert [layer.component for layer in tower.layers] == planted
    assert tower.checks.all_ok


@pytest.mark.parametrize("m,k", [(2, 6), (3, 5), (3, 6), (4, 6), (5, 4)])
def test_scalar_tower_is_the_harmonic_fischer_decomposition(m, k):
    # on scalars the sandwich operator is -laplacian and x L x = -|x|^2 L
    rng = random.Random(10 * m + k)
    for _ in range(3):
        tower = fischer_tower(random_scalar_polynomial(rng, m, k, max_terms=8))
        for layer in tower.layers:
            assert layer.component.grades() <= {0}
            assert is_harmonic(layer.component)


def _harmonic_projection(p, k, norm_sq):
    """sum_j c_j |x|^(2j) lap^j p, with c_0 = 1, c_(j+1) = -c_j / (2 (j+1) (m + 2k - 2j - 4)).

    The harmonic part of a degree-k p in its classical Fischer decomposition
    (Axler, Bourdon, Ramey, Harmonic Function Theory, ch. 5); norm_sq(r) is
    |x|^2 r.  Only terms with 2j <= k can be nonzero, which keeps every
    denominator positive.
    """
    m = p.dim
    total, c, lap_j = CliffordPolynomial.zero(m), Fraction(1), p
    for j in range(k // 2 + 1):
        if j:
            c = -c / (2 * j * (m + 2 * k - 2 * (j - 1) - 4))
        term = lap_j
        for _ in range(j):
            term = norm_sq(term)
        total = total + term * c
        lap_j = reference_laplacian(lap_j)
    return total


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("top", [False, True], ids=["grade_0", "grade_m"])
def test_tower_steps_match_closed_form_harmonic_projection(m, top):
    # Grades 0 and m: the sandwich operator is -lap on q and (-1)^m lap on
    # q e_1..m, and x r x is -|x|^2 r and (-1)^m |x|^2 r, so each step is the
    # classical harmonic splitting, and the oracle needs no elimination.
    pseudoscalar = Multivector.blade(m, range(1, m + 1))
    sign = (-1) ** m if top else -1
    rng = random.Random(10 * m + top)
    for k in range(7 if m < 5 else 5):
        for _ in range(3):
            q = random_scalar_polynomial(rng, m, k, max_terms=8)
            p = q.mul_right(pseudoscalar) if top else q
            tower = fischer_tower(p)
            for layer in tower.layers:
                step = fischer_decompose(p)
                harmonic = _harmonic_projection(p, k - 2 * layer.s, lambda r: wrap_x(r) * sign)
                assert step.infra_part == harmonic
                assert layer.component == harmonic
                assert wrap_x(step.quotient) == p - harmonic
                p = step.quotient


class TestOrbitSolver:
    """The solver inverts and keeps one sector per orbit; the rest are its conjugates."""

    @pytest.mark.parametrize(
        "m,k",
        [(m, k) for m in (1, 2, 3, 4) for k in range(2, 7)] + [(5, 4), (5, 5), (6, 2), (6, 3), (6, 4)],
    )
    def test_every_sector_equals_direct_elimination(self, m, k):
        den, reps, sand, wrap, orbit = fischer._composition_solver(m, k)
        # every sector's S o T from blocks built without the orbit maps, inverted on its own
        all_sand, all_wrap = all_sector_blocks("sandwich", m, k), all_sector_blocks("wrap_x", m, k - 2)
        direct = [linalg.invert(block) for block in fischer._composition(all_sand, all_wrap)]
        assert len(reps) == len(sand) == len(wrap) == m // 2 + 1
        assert len(orbit) == len(direct) == 1 << m
        n = monomial_count(m, k - 2)
        for v, (j, inverse) in enumerate(zip(orbit, direct)):
            # sector v's inverse, expanded from its orbit's: entry (i, l) is s_i s_l R[src_i][src_l]
            weight = bin(v).count("1")
            assert j == min(weight, m - weight)
            source = conjugation_pairs(m, k - 2, v)
            if v == (1 << j) - 1:
                assert source == [(i, 1) for i in range(n)]
            rep = reps[j]
            matrix = [[s * t * rep[i][l] for l, t in source] for i, s in source]
            assert [[Fraction(x, den) for x in row] for row in matrix] == inverse
            assert sorted(i for i, _ in source) == list(range(n))
            assert all(s in (1, -1) for _, s in source)
        dens = [lcm(*(x.denominator for row in inverse for x in row)) for inverse in direct]
        assert den == lcm(*dens)
        # the held blocks are the representatives' own
        assert sand == tuple(all_sand[(1 << j) - 1] for j in range(m // 2 + 1))
        assert wrap == tuple(all_wrap[(1 << j) - 1] for j in range(m // 2 + 1))

    def test_singular_block_is_reported(self, monkeypatch):
        # S o T is invertible on every sector, so only a faulty elimination reaches this branch
        def singular(matrix):
            raise linalg.SingularMatrixError("matrix is singular")

        monkeypatch.setattr(linalg, "integer_inverse", singular)
        fischer._composition_solver.cache_clear()
        with pytest.raises(RuntimeError, match=r"singular on a sector of P\(2\) for m=3"):
            fischer._composition_solver(3, 4)

    @pytest.mark.parametrize("m,k", [(2, 4), (3, 6), (4, 6), (5, 4)])
    def test_cold_build_inverts_one_block_per_orbit(self, monkeypatch, m, k):
        """One inversion per pseudoscalar-merged orbit: j <-> m - j share one."""
        sizes = []
        integer_inverse = linalg.integer_inverse

        def counted(matrix):
            sizes.append(len(matrix))
            return integer_inverse(matrix)

        monkeypatch.setattr(linalg, "integer_inverse", counted)
        fischer._composition_solver.cache_clear()
        fischer._composition_solver(m, k)
        assert sizes == [monomial_count(m, k - 2)] * (m // 2 + 1)

    @pytest.mark.parametrize("m", [6, 7, 8])
    def test_dense_split_beyond_the_dense_oracle(self, m):
        """A seeded input on every monomial, so on most sectors, checked only with the polynomial operators."""
        rng = random.Random(m)
        p = CliffordPolynomial(m, {
            a: Multivector(m, {rng.randrange(1 << m): Fraction(rng.randint(1, 9), rng.randint(1, 4))})
            for a in monomial_basis(m, 4)
        })
        result = fischer_decompose(p)
        assert result.checks == DecompositionChecks(True, True, True)
        assert is_inframonogenic(result.infra_part)
        assert result.infra_part + wrap_x(result.quotient) == p

    def test_cold_solver_holds_little_memory(self):
        """A cold (8, 4) split holds floor(m/2)+1 blocks per operator, not 2^m, and the maps of its two degrees.

        31 MiB were held while all 2^m blocks were built; now 2.5 MiB, 0.8 MiB of them the solver,
        whose blocks are `sector_operator`'s cached ones.
        """
        fischer._composition_solver.cache_clear()
        fischer._conjugation.cache_clear()
        fischer.sector_operator.cache_clear()
        tracemalloc.start()
        try:
            solver = fischer._composition_solver(8, 4)
            maps = fischer._conjugation(8, 4), fischer._conjugation(8, 2)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            fischer._composition_solver.cache_clear()
            fischer._conjugation.cache_clear()
            fischer.sector_operator.cache_clear()
        assert len(solver[1]) == len(solver[2]) == len(solver[3]) == 5
        assert len(maps[0]) == len(maps[1]) == len(solver[4]) == 256
        assert held < 8 * 2**20


class TestAlmansi:
    def test_x1x2(self):
        split = almansi_split(X1X2)
        expected_x_part = CliffordPolynomial(
            2,
            {
                (0, 1): Multivector.basis_vector(2, 1) * Fraction(-1, 4),
                (1, 0): Multivector.basis_vector(2, 2) * Fraction(-1, 4),
            },
        )
        assert split.x_part == expected_x_part
        assert split.plain_part == X1X2 - mul_by_x_left(expected_x_part)
        assert is_left_monogenic(split.plain_part)
        assert is_left_monogenic(split.x_part)

    def test_monogenic_input_passes_through(self):
        sampler = KernelSampler(3, 3, seed=20)
        h = sampler.left_monogenic()
        split = almansi_split(h)
        assert split.plain_part == h
        assert split.x_part.is_zero()

    def test_pure_x_part(self):
        sampler = KernelSampler(3, 2, seed=21)
        f2 = sampler.left_monogenic()
        h = mul_by_x_left(f2)
        assert is_harmonic(h)
        split = almansi_split(h)
        assert split.plain_part.is_zero()
        assert split.x_part == f2

    def test_reconstruction_random(self):
        for m, k in ((2, 3), (3, 2), (3, 4)):
            sampler = KernelSampler(m, k, seed=22)
            for _ in range(5):
                h = sampler.harmonic()
                split = almansi_split(h)
                assert split.reconstruct() == h
                assert is_left_monogenic(split.plain_part)
                assert is_left_monogenic(split.x_part)
                assert dirac_left(h) == split.x_part * -m + (
                    CliffordPolynomial.zero(m) - (split.x_part * (2 * (k - 1)))
                )

    @pytest.mark.parametrize("h", [
        CliffordPolynomial.constant(2, Multivector.blade(2, [1, 2], 3)), CliffordPolynomial.zero(2),
    ])
    def test_constant_and_zero_are_their_own_plain_part(self, h):
        split = almansi_split(h)
        assert split.plain_part == h and split.x_part.is_zero()

    def test_not_harmonic_rejected(self):
        with pytest.raises(ValueError):
            almansi_split(X1SQ)
        with pytest.raises(ValueError):
            almansi_split(X1X2 + CliffordPolynomial.constant(2, 1))


class TestHarmonicInframonogenicReport:
    def test_inframonogenic_case(self):
        report = harmonic_inframonogenic_report(X1X2)
        assert report.inframonogenic and report.shifted_right_monogenic
        assert report.verdicts_agree
        assert report.x_part_two_sided is True
        assert report.plain_part_left_monogenic is True

    def test_counterexample(self):
        h = CliffordPolynomial.monomial(2, (1, 1), Multivector.basis_vector(2, 1))
        report = harmonic_inframonogenic_report(h)
        assert not report.inframonogenic and not report.shifted_right_monogenic
        assert report.verdicts_agree

    def test_saddle(self):
        h = CliffordPolynomial(2, {(2, 0): 1, (0, 2): -1})
        report = harmonic_inframonogenic_report(h)
        assert report.verdicts_agree
        assert report.inframonogenic == is_inframonogenic(h)

    def test_random_harmonics_agree(self):
        for m, k in ((2, 4), (3, 3)):
            sampler = KernelSampler(m, k, seed=23)
            for _ in range(10):
                report = harmonic_inframonogenic_report(sampler.harmonic())
                assert report.verdicts_agree


class TestKernelSampling:
    def test_sandwich_kernel_dimension(self):
        for m in (2, 3):
            for k in (2, 3, 4):
                expected = space_dim(m, k) - space_dim(m, k - 2)
                assert len(kernel_basis(m, k, "inframonogenic")) == expected

    @pytest.mark.parametrize("m,k", [(m, k) for m in (1, 2, 3, 4) for k in range(6)])
    def test_basis_is_the_reference_sector_nullspaces(self, m, k):
        """Sector by sector, one vector per free column of the RREF of the kind's stacked reference blocks."""
        table = fischer._monomial_table(m, k)[1]
        for kind, ops in fischer._KERNEL_OPERATORS.items():
            for grade in [None, *range(m + 1)]:
                expected = []
                for v in range(1 << m):
                    keep = [i for i, (_, par) in enumerate(table)
                            if grade is None or bin(v ^ par).count("1") == grade]
                    rows = []
                    for op in ops:
                        k_out = k + fischer._DEGREE_SHIFT[op]
                        if k_out >= 0:
                            dense = [[0] * len(keep) for _ in range(monomial_count(m, k_out))]
                            for c, i in enumerate(keep):
                                for r, value in all_sector_blocks(op, m, k)[v][i]:
                                    dense[r][c] = value
                            rows += dense
                    reduced, pivots = reference_rref(rows) if rows else ([], [])
                    for free in (c for c in range(len(keep)) if c not in pivots):
                        vec = [Fraction(int(c == free)) for c in range(len(keep))]
                        for r, c in enumerate(pivots):
                            vec[c] = -reduced[r][free]
                        expected.append(CliffordPolynomial(m, {
                            table[i][0]: Multivector(m, {v ^ table[i][1]: x}) for x, i in zip(vec, keep) if x
                        }))
                assert list(kernel_basis(m, k, kind, grade)) == expected, (kind, grade)

    @pytest.mark.parametrize("kind, k, message", [
        ("bogus", 2, "unknown kernel kind 'bogus'"),
        ("harmonic", -1, "degree must be non-negative, got -1"),
    ])
    def test_bad_kind_or_degree_rejected(self, kind, k, message):
        with pytest.raises(ValueError, match=message):
            kernel_basis(2, k, kind)

    def test_low_degree_whole_space(self):
        assert len(kernel_basis(2, 1, "inframonogenic")) == space_dim(2, 1)

    def test_dirac_kernel_contains_known_element(self):
        member = CliffordPolynomial.monomial(2, (1, 0), Multivector.basis_vector(2, 1)) - (
            CliffordPolynomial.monomial(2, (0, 1), Multivector.basis_vector(2, 2))
        )
        basis = kernel_basis(2, 1, "left_monogenic")
        vectors = [coords(b, 1) for b in basis]
        target = coords(member, 1)
        stacked = [list(col) for col in zip(*vectors)]  # columns = basis vectors
        augmented = [row + [t] for row, t in zip(stacked, target)]
        assert rank(stacked) == rank(augmented)  # member lies in the span

    def test_samples_satisfy_predicates(self):
        sampler = KernelSampler(3, 3, seed=24)
        assert is_inframonogenic(sampler.inframonogenic())
        assert is_left_monogenic(sampler.left_monogenic())
        assert is_right_monogenic(sampler.right_monogenic())
        assert is_two_sided_monogenic(sampler.two_sided_monogenic())
        assert laplacian(sampler.harmonic()).is_zero()
        scalar_sample = sampler.harmonic(grade=0)
        assert scalar_sample.is_pure_grade(0)
        assert is_inframonogenic(scalar_sample)

    def test_seed_stability(self):
        a = KernelSampler(3, 4, seed=99)
        b = KernelSampler(3, 4, seed=99)
        for _ in range(5):
            assert a.inframonogenic() == b.inframonogenic()
        c = KernelSampler(3, 4, seed=100)
        assert any(
            KernelSampler(3, 4, seed=99).inframonogenic() != c.inframonogenic()
            for _ in range(3)
        )

    def test_draw_stores_one_polynomial(self, monkeypatch):
        # with the basis cached, a draw sums it in one pass: no running total is rebuilt per term
        assert len(kernel_basis(3, 4, "harmonic", None)) > 1
        calls = []
        store = CliffordPolynomial._store

        def counting_store(self, *args):
            calls.append(args)
            store(self, *args)

        monkeypatch.setattr(CliffordPolynomial, "_store", counting_store)
        KernelSampler(3, 4, seed=5).harmonic()
        assert len(calls) == 1

    @pytest.mark.parametrize("grade", [-1, 3, 7, 1.5])
    def test_grade_out_of_range_rejected(self, grade):
        with pytest.raises(ValueError, match=f"got {grade}"):
            kernel_basis(2, 2, "harmonic", grade)
        with pytest.raises(ValueError, match="m = 2"):
            KernelSampler(2, 2).harmonic(grade)

    def test_trivial_kernel_raises(self):
        # in one variable, no degree-2 polynomial is harmonic or inframonogenic
        with pytest.raises(ValueError):
            KernelSampler(1, 2, seed=1).harmonic()
        with pytest.raises(ValueError):
            KernelSampler(1, 2, seed=1).inframonogenic()


def test_concurrent_decompositions_share_caches_safely():
    import concurrent.futures

    rng = random.Random(77)
    inputs = [random_polynomial(rng, 3, 4, max_terms=6) for _ in range(8)]
    expected = [fischer_decompose(p) for p in inputs]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(fischer_decompose, inputs))
    for got, want in zip(results, expected):
        assert got.infra_part == want.infra_part
        assert got.quotient == want.quotient
        assert got.checks.all_ok
