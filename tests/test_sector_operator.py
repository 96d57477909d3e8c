"""The compiled integer sector operators and the decomposition built on them."""

import random
from fractions import Fraction

import pytest

from inframono import (
    CliffordPolynomial,
    Multivector,
    coords,
    fischer_decompose,
    fischer_tower,
    from_coords,
    monomial_count,
    parse_polynomial,
    poly_basis,
    wrap_x,
)
from inframono import fischer
from inframono.fischer import sector_operator
from inframono.linalg import invert, mat_vec
from helpers import (
    all_sector_blocks,
    conjugation_pairs,
    dense_matrix,
    random_polynomial,
    reference_dirac_left,
    reference_dirac_right,
    reference_laplacian,
    reference_mul_by_x_left,
    reference_mul_by_x_right,
    reference_sandwich,
    reference_wrap_x,
)

# The product-based references, not the library's polynomial operators,
# which run the same integer core (`_apply_integer`) as the compiled columns.
REFERENCE_OPERATORS = {
    "dirac_left": (reference_dirac_left, -1),
    "dirac_right": (reference_dirac_right, -1),
    "x_left": (reference_mul_by_x_left, 1),
    "x_right": (reference_mul_by_x_right, 1),
    "laplacian": (reference_laplacian, -2),
    "sandwich": (reference_sandwich, -2),
    "wrap_x": (reference_wrap_x, 2),
}

CASES = [(m, k) for m in (1, 2, 3, 4) for k in range(7)] + [(5, k) for k in range(5)]


def matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


@pytest.mark.parametrize("m,k", CASES)
def test_columns_equal_polynomial_operators(m, k):
    """Every entry of every reference column equals the reference operator on that basis element.

    Element i of sector v is monomial i of the degree with the blade v xor its parity.  The
    representatives' blocks, all that `sector_operator` builds, are the reference's own.
    """
    table = fischer._monomial_table(m, k)[1]
    for op, (apply_fn, shift) in REFERENCE_OPERATORS.items():
        reference = all_sector_blocks(op, m, k)
        blocks = sector_operator(op, m, k)
        # columns are empty below degree 0, so the output table is never read there
        out_table = fischer._monomial_table(m, k + shift)[1] if k + shift >= 0 else None
        assert len(reference) == 1 << m
        assert len(blocks) == m // 2 + 1
        assert blocks == tuple(reference[(1 << j) - 1] for j in range(m // 2 + 1)), op
        for v, columns in enumerate(reference):
            assert len(columns) == len(table)
            for col, (mono, par) in zip(columns, table):
                mask = v ^ par
                image = apply_fn(CliffordPolynomial(m, {mono: Multivector(m, {mask: 1})}))
                got = {}
                for r, value in col:
                    assert isinstance(value, int) and value != 0
                    out_mono, out_par = out_table[r]
                    got[(out_mono, v ^ out_par)] = value
                want = {(mono2, mask2): value for mono2, coeff in image.items()
                        for mask2, value in coeff.items()}
                assert got == want, (op, m, k, mono, mask)
                assert [r for r, _ in col] == sorted({r for r, _ in col})


def test_unknown_operator_and_negative_degree_rejected():
    with pytest.raises(ValueError):
        sector_operator("dirac", 2, 2)
    with pytest.raises(ValueError):
        sector_operator("sandwich", 2, -1)


@pytest.mark.parametrize("m,k", [(m, k) for m in (1, 2, 3) for k in (2, 3, 4)])
def test_decompose_matches_dense_reference_solve(m, k):
    """The sector solve agrees with one dense solve of (S T) q = S p, S and T from the references."""
    s = dense_matrix(reference_sandwich, m, k, k - 2)
    composed = matmul(s, dense_matrix(reference_wrap_x, m, k - 2, k))
    rng = random.Random(100 * m + k)
    for _ in range(3):
        p = random_polynomial(rng, m, k, max_terms=8)
        rhs = [sum(a * b for a, b in zip(row, coords(p, k))) for row in s]
        q = from_coords(m, k - 2, mat_vec(invert(composed), rhs))
        result = fischer_decompose(p)
        assert result.quotient == q
        assert result.infra_part == p - wrap_x(q)


@pytest.mark.parametrize("m,k", [(m, k) for m in (1, 2, 3, 4) for k in range(2, 7)])
def test_composition_equals_dense_product(m, k):
    """Each dense S o T block is the product of the sandwich and wrap_x blocks, in every sector."""
    n, n_k = monomial_count(m, k - 2), monomial_count(m, k)
    sand, wrap = all_sector_blocks("sandwich", m, k), all_sector_blocks("wrap_x", m, k - 2)
    blocks = fischer._composition(sand, wrap)
    assert len(blocks) == 1 << m
    for v, block in enumerate(blocks):
        assert block == matmul(fischer._block(sand[v], n), fischer._block(wrap[v], n_k)), v
    reps = [(1 << j) - 1 for j in range(m // 2 + 1)]
    held = fischer._composition(sector_operator("sandwich", m, k), sector_operator("wrap_x", m, k - 2))
    assert held == [blocks[rep] for rep in reps]


def test_sector_operator_caches_one_block_per_orbit(monkeypatch):
    """After a split, towers and a cold `kernel_basis`, each cached `sector_operator` entry has m//2+1 blocks.

    A tower from degree k whose quotients are all nonzero builds one `_conjugation` map per degree
    it splits or returns, k//2 + 1.
    """
    real = fischer.sector_operator
    seen = {}

    def spy(op, m, k_in):
        seen[op, m, k_in] = len(blocks := real(op, m, k_in))
        return blocks

    monkeypatch.setattr(fischer, "sector_operator", spy)
    real.cache_clear()
    fischer._composition_solver.cache_clear()
    fischer.kernel_basis.cache_clear()
    fischer_decompose(CliffordPolynomial.monomial(3, (2, 1, 1), 1))
    fischer_tower(CliffordPolynomial.monomial(4, (3, 1, 1, 1), 1))
    fischer._conjugation.cache_clear()
    fischer_tower(CliffordPolynomial.monomial(4, (6, 0, 0, 0), 1))
    assert fischer._conjugation.cache_info().misses == 6 // 2 + 1
    fischer.kernel_basis(5, 3, "two_sided_monogenic")
    assert ("dirac_right", 5, 3) in seen
    assert real.cache_info().currsize == len(seen)
    assert all(n == m // 2 + 1 for (_, m, _), n in seen.items())


def _perturbed_solver(monkeypatch, m, k, j=0):
    """Replace the cached (m, k) solver by a copy with one entry of orbit j's inverse off by one."""
    real = fischer._composition_solver
    den, inverses, *held = real(m, k)
    block = [list(row) for row in inverses[j]]
    block[0][0] += 1
    fake = (den, inverses[:j] + (tuple(map(tuple, block)),) + inverses[j + 1:], *held)
    monkeypatch.setattr(fischer, "_composition_solver",
                        lambda m2, k2: fake if (m2, k2) == (m, k) else real(m2, k2))


def test_flags_catch_a_corrupted_inverse(monkeypatch):
    # x1^2 lies in sector 0 and its sandwich image -2 has the first local coordinate
    p = CliffordPolynomial.monomial(3, (2, 0, 0), 1)
    honest = fischer_decompose(p)
    assert honest.checks.all_ok and fischer_tower(p).checks.all_ok
    _perturbed_solver(monkeypatch, 3, 2)
    result = fischer_decompose(p)
    assert result.quotient != honest.quotient
    assert result.checks.sandwich_zero is False
    assert result.checks.orthogonal is False
    assert fischer_tower(p).checks.all_ok is False
    monkeypatch.undo()
    assert fischer_decompose(p).checks.all_ok


@pytest.mark.parametrize("j,v", [(0, 0b111), (1, 0b010)])
def test_flags_catch_a_corrupted_representative_in_another_sector(monkeypatch, j, v):
    """Sector v is no representative, so it is solved in orbit j's frame through signed permutations."""
    m, k = 3, 4
    p = CliffordPolynomial(m, {a: Multivector(m, {v ^ par: i + 1})
                               for i, (a, par) in enumerate(fischer._monomial_table(m, k)[1])})
    vec, _ = fischer._sector_coords(p, k)
    assert [u for u in range(1 << m) if any(vec.get(u, ()))] == [v]
    honest = fischer_decompose(p)
    assert honest.checks.all_ok
    _perturbed_solver(monkeypatch, m, k, j)
    result = fischer_decompose(p)
    assert result.quotient != honest.quotient
    assert result.checks.sandwich_zero is False


@pytest.mark.parametrize("m,text", [(2, "x1^2*e2"), (3, "x1^3*x2*e1"), (4, "2*x1*x2*x3^2*x4*e134")])
def test_a_one_term_split_applies_only_its_own_sectors_blocks(monkeypatch, m, text):
    """The solve and the reconstruction flag visit the one touched sector: four `_apply` calls."""
    p = parse_polynomial(text, m)
    k = p.degree()
    (v,) = fischer._sector_coords(p, k)[0]
    fischer_decompose(p)  # builds the solver outside the count
    _, _, sand, wrap, orbit = fischer._composition_solver(m, k)
    real, calls = fischer._apply, []

    def counted(columns, vec, n_rows):
        calls.append(columns)
        return real(columns, vec, n_rows)

    monkeypatch.setattr(fischer, "_apply", counted)
    assert fischer_decompose(p).checks.all_ok
    j = orbit[v]
    assert len(calls) == 4
    assert all(got is want for got, want in zip(calls, (sand[j], wrap[j], sand[j], wrap[j])))


@pytest.mark.parametrize("moved", [True, False])
@pytest.mark.parametrize("m,text", [(2, "x1^2"), (3, "x1^3*x2*e1"), (4, "x1^2*x2^2*e12")])
def test_reconstruction_flag_sees_a_term_in_an_untouched_sector(monkeypatch, m, text, moved):
    """Both parts lie in p's sectors; one term moved, or copied, to a blade of another sector fails the flag.

    The copy leaves p's sectors as they were, so only the walk over the sectors the parts touch sees it.
    """
    p = parse_polynomial(text, m)
    touched = set(fischer._sector_coords(p, p.degree())[0])
    build = fischer._from_sectors

    def misplaced(*args):
        terms = build(*args).terms()
        mono, coeff = next(iter(terms.items()))
        mask, x = next(iter(coeff.items()))
        u = min(set(range(1 << m)) - touched)
        terms[mono] = coeff + Multivector(m, {u ^ fischer._parity(mono): x})
        if moved:
            terms[mono] -= Multivector(m, {mask: x})
        return CliffordPolynomial(m, terms)

    assert fischer_decompose(p).checks.all_ok
    monkeypatch.setattr(fischer, "_from_sectors", misplaced)
    assert fischer_decompose(p).checks == fischer.DecompositionChecks(False, True, True)
    assert fischer_tower(p).checks.reconstruction is False


@pytest.mark.parametrize("m,k", [(2, 4), (3, 4), (4, 3)])
def test_parts_list_terms_by_their_first_sector(m, k):
    """A part lists monomials by (lowest sector of a term, graded-lex index), and blades by sector."""
    rng = random.Random(300 + m)
    p = random_polynomial(rng, m, k, max_terms=12)
    result = fischer_decompose(p)
    for part, degree in ((result.infra_part, k), (result.quotient, k - 2)):
        index = fischer._monomial_table(m, degree)[0]
        nums = part._nums
        first = {a: min(fischer._parity(a) ^ mask for mask in nums[a]) for a in nums}
        assert list(nums) == sorted(nums, key=lambda a: (first[a], index[a]))
        for a, blades in nums.items():
            assert list(blades) == sorted(blades, key=lambda mask: mask ^ fischer._parity(a))


def test_tower_flags_catch_a_corrupted_lower_layer(monkeypatch):
    p = CliffordPolynomial.monomial(2, (4, 0), Fraction(3, 2))
    _perturbed_solver(monkeypatch, 2, 2)
    tower = fischer_tower(p)
    assert tower.checks.sandwich_zero is False and not tower.checks.all_ok


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_columns_ascend_and_hold_nonzero_ints(m):
    """Every column of every sector block is strictly ascending by row and holds nonzero ints."""
    for op, (_, shift) in REFERENCE_OPERATORS.items():
        for k in range(5):
            n_rows = monomial_count(m, k + shift) if k + shift >= 0 else 0
            blocks = sector_operator(op, m, k)
            assert len(blocks) == m // 2 + 1
            for block in blocks:
                assert len(block) == monomial_count(m, k)
                for col in block:
                    rows = [r for r, _ in col]
                    assert rows == sorted(set(rows)), (op, k)
                    assert all(0 <= r < n_rows for r in rows)
                    assert all(type(x) is int and x for _, x in col), (op, k)


# Whether right multiplication by the pseudoscalar e_N passes the operator with the sign (-1)^(m-1).
PSEUDOSCALAR_ODD = {"sandwich": True, "wrap_x": True, "dirac_right": True, "dirac_left": False, "laplacian": False}


@pytest.mark.parametrize("m,k", [(m, k) for m in (1, 2, 3, 4, 5) for k in range(6)])
def test_every_sector_block_is_a_signed_conjugate_of_its_representative(m, k):
    """O_v[i][l] = eps s_i s_l O_rep[src_i][src_l], entry by entry, for every sector v.

    O_v is `all_sector_blocks`' block of sector v, built without the maps,
    and O_rep the representative's `sector_operator` block.  (src, s) is
    `_conjugation`'s map at the output degree for i and at the input
    degree for l, the identity with all signs +1 in a representative
    sector.  eps is 1 when |v| <= m/2.  On the pseudoscalar half the maps
    carry (-1)^((m-1) floor(k/2)), so eps is (-1)^((m-1)(odd + k//2 - k_out//2)):
    1 for the sandwich and wrap_x, which change the degree by 2 and have odd set.
    """
    for op, odd in PSEUDOSCALAR_ODD.items():
        k_out = k + REFERENCE_OPERATORS[op][1]
        if k_out < 0:
            continue
        n_in, n_out = monomial_count(m, k), monomial_count(m, k_out)
        reps = [fischer._block(columns, n_out) for columns in sector_operator(op, m, k)]
        for v, columns in enumerate(all_sector_blocks(op, m, k)):
            block = fischer._block(columns, n_out)
            weight = bin(v).count("1")
            j = min(weight, m - weight)
            eps = (-1) ** ((m - 1) * (odd + k // 2 - k_out // 2)) if 2 * weight > m else 1
            assert eps == 1 or op not in ("sandwich", "wrap_x")
            rows, cols = conjugation_pairs(m, k_out, v), conjugation_pairs(m, k, v)
            if v == (1 << j) - 1:
                assert rows == [(i, 1) for i in range(n_out)] and cols == [(l, 1) for l in range(n_in)]
            assert sorted(i for i, _ in rows) == list(range(n_out))
            assert sorted(l for l, _ in cols) == list(range(n_in))
            assert all(s in (1, -1) for _, s in rows + cols)
            rep = reps[j]
            assert block == [[eps * s * t * rep[i][l] for l, t in cols] for i, s in rows], (op, v)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_sector_scatter_and_gather_invert_each_other(m):
    rng = random.Random(m)
    for k in range(6):
        for _ in range(4):
            p = random_polynomial(rng, m, k)
            assert fischer._from_sectors(m, k, *fischer._sector_coords(p, k)) == p


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_sector_frames_are_the_inverse_maps_of_plain_coordinates(m):
    """Frame vector v is P_k^-1 of sector v's coordinates, read from `coords` in `poly_basis` order."""
    rng = random.Random(100 + m)
    for k in range(6):
        p = random_polynomial(rng, m, k)
        plain = [[Fraction(0)] * monomial_count(m, k) for _ in range(1 << m)]
        monos: list = []
        for (mono, mask), x in zip(poly_basis(m, k), coords(p, k)):
            if mono not in monos:
                monos.append(mono)
            parity = sum(1 << j for j, e in enumerate(mono) if e % 2)
            plain[parity ^ mask][monos.index(mono)] = x
        vec, den = fischer._sector_coords(p, k)
        for v in range(1 << m):
            pairs = conjugation_pairs(m, k, v)
            expected = [Fraction(0)] * len(pairs)
            for (i, s), x in zip(pairs, plain[v]):
                expected[i] = s * x
            assert [Fraction(x, den) for x in vec.get(v, [0] * len(pairs))] == expected, (k, v)
