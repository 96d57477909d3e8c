"""Fischer pairing and the inframonogenic decomposition of polynomial spaces.

The degree-k space P(k) of multivector polynomials splits as

    P(k) = I(k)  (+)  x P(k-2) x,

where I(k) is the kernel of the sandwich operator, and the two summands
are orthogonal for the Fischer inner product.  The splitting is computed
by solving, exactly over the rationals, the square system

    (S o T) Q = S(P),      S = sandwich,  T = Q -> x Q x,

on P(k-2).  All operators here commute with the sign flips
(x_j, e_j) -> (-x_j, -e_j), so each maps the sector parity(monomial) xor
blade-mask = v of one degree into the same sector of another.  A sector
of P(k) holds exactly one basis element per degree-k monomial, so the
matrix of S o T decomposes into 2^m independent square blocks the size
of the degree-(k-2) monomial count.  Permuting the coordinates,
(x_i, e_i) -> (x_sigma(i), e_sigma(i)), also commutes with S and T and
carries sector v onto sector sigma(v), and so does right multiplication
by the pseudoscalar e_N = e_1...e_m, up to a sign, onto v xor (2^m - 1).
The sectors thus fall into floor(m/2) + 1 orbits, one per
min(|v|, m - |v|).  Only each orbit's representative has its S and T
blocks built and S o T inverted, by fraction-free integer elimination:
every sector is solved in its representative's frame.

Every operator has an integer matrix in the (monomial, blade) basis,
built by `sector_operator` with `polynomials._apply_integer`, the
integer core the polynomial operators run as well, as sparse integer
columns for the orbit representatives only, cached.  A split scatters a
polynomial's integer numerators straight into the representative frame
of each sector it touches, solves those touched sectors only, and
gathers the two parts back into numerators; `kernel_basis` builds each
sector's dense block from its representative's columns through the same
maps.  The complete decomposition P(k) = sum_s x^s I(k-2s) x^s is that
step applied again to each quotient.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from . import linalg
from .algebra import _as_fraction, blade_sign, blades_in_order
from .operators import (
    dirac_left,
    dirac_right,
    is_inframonogenic,
    is_left_monogenic,
    is_right_monogenic,
    is_two_sided_monogenic,
    laplacian,
    sandwich,
)
from .polynomials import (
    CliffordPolynomial,
    Monomial,
    _apply_integer,
    _check_degree,
    _collect,
    _combination,
    _parity,
    euler,
    monomial_basis,
    monomial_count,
    mul_by_x_left,
    mul_by_x_right,
    space_dim,
)

# -- bases and coordinates ----------------------------------------------------


@lru_cache(maxsize=None, typed=True)
def poly_basis(m: int, k: int) -> tuple[tuple[Monomial, int], ...]:
    """Ordered basis of P(k): graded-lex monomials tensor (grade, mask) blades."""
    blades = blades_in_order(m)
    return tuple((mono, mask) for mono in monomial_basis(m, k) for mask in blades)


@lru_cache(maxsize=None)
def _monomial_table(m: int, k: int) -> tuple[dict[Monomial, int], tuple[tuple[Monomial, int], ...]]:
    """Index of each degree-k monomial, and (monomial, parity: mask of odd exponents) by index."""
    monos = monomial_basis(m, k)
    return {a: i for i, a in enumerate(monos)}, tuple((a, _parity(a)) for a in monos)


# Sector-local integer coordinates of the touched sectors only: key v holds sector v's
# numerators in its representative's frame; an absent sector is all zero.
SectorVector = dict[int, list[int]]


def _sector_coords(p: CliffordPolynomial, k: int) -> tuple[SectorVector, int]:
    """Numerators of a degree-k p's coordinates, P_k^-1 of each sector's, and their denominator.

    Touched sectors only: a sector's list is created at its first term.
    """
    index, table = _monomial_table(p.dim, k)
    maps = _conjugation(p.dim, k)
    vec: SectorVector = {}
    for mono, blades in p._nums.items():
        i = index[mono]
        par = table[i][1]
        for mask, x in blades.items():
            v = par ^ mask
            src, signs = maps[v]
            if v not in vec:
                vec[v] = [0] * len(table)
            vec[v][src[i]] = x if signs[par] > 0 else -x
    return vec, p._den


def _from_sectors(m: int, k: int, vec: SectorVector, den: int) -> CliffordPolynomial:
    """The polynomial with coordinates P_k vec / den, read from the touched sectors only.

    They are read in ascending v, which fixes the order of the monomials,
    and each is released once read; `_trusted` reduces the dict in place.
    """
    table = _monomial_table(m, k)[1]
    maps = _conjugation(m, k)
    nums: dict[Monomial, dict[int, int]] = {}
    for v in sorted(vec):
        src, signs = maps[v]
        values = vec.pop(v)
        for (mono, par), i in zip(table, src):
            if x := values[i]:
                nums.setdefault(mono, {})[v ^ par] = x if signs[par] > 0 else -x
    return CliffordPolynomial._trusted(m, den, nums)


def coords(p: CliffordPolynomial, k: int) -> list[Fraction]:
    """Coordinate vector of a homogeneous degree-k polynomial (zero allowed), in `poly_basis` order."""
    if not p.is_homogeneous(k):
        raise ValueError(f"polynomial is not homogeneous of degree {k}")
    return [Fraction(p._nums.get(mono, {}).get(mask, 0), p._den) for mono, mask in poly_basis(p.dim, k)]


def from_coords(m: int, k: int, vec: list[Fraction]) -> CliffordPolynomial:
    size = space_dim(m, k)
    if len(vec) != size:
        raise ValueError(f"expected {size} coordinates, got {len(vec)}")
    pairs = zip(poly_basis(m, k), map(_as_fraction, vec))
    return CliffordPolynomial._trusted(m, *_collect((mono, mask, x.numerator, x.denominator)
                                                    for (mono, mask), x in pairs))


# -- Fischer inner product -----------------------------------------------------


def _mono_factorial(mono: Monomial) -> int:
    return prod(map(factorial, mono))


def _check_pairing(p: CliffordPolynomial, q: CliffordPolynomial) -> None:
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    if not p.is_homogeneous() or not q.is_homogeneous():
        raise ValueError("Fischer pairing is defined on homogeneous polynomials")
    dp, dq = p.degree(), q.degree()
    if dp is not None and dq is not None and dp != dq:
        raise ValueError(f"degree mismatch: {dp} vs {dq}")


def fischer_inner(p: CliffordPolynomial, q: CliffordPolynomial) -> Fraction:
    """Closed-form Fischer pairing: sum over monomials of a! [conj(a) b]_0.

    For unit blades [conj(e_A) e_A]_0 = 1, so this is the a!-weighted dot
    product of coefficient vectors; positive definite by inspection.  It
    is taken on the integer numerators, over p's times q's denominator.
    """
    _check_pairing(p, q)
    small, large = (p._nums, q._nums) if len(p._nums) <= len(q._nums) else (q._nums, p._nums)
    total = 0
    for mono, blades in small.items():
        other = large.get(mono)
        if other:
            total += _mono_factorial(mono) * sum(x * other.get(mask, 0) for mask, x in blades.items())
    return Fraction(total, p._den * q._den)


def fischer_inner_differential(p: CliffordPolynomial, q: CliffordPolynomial) -> Fraction:
    """Fischer pairing evaluated the long way: [conj(P(d)) Q]_0.

    Each variable of p is replaced by the matching partial derivative, the
    coefficient is conjugated and multiplied from the left, and the scalar
    part of the resulting constant is taken.  Must agree with
    `fischer_inner` on every valid input pair.
    """
    _check_pairing(p, q)
    m = p.dim
    origin = (0,) * m
    total = Fraction(0)
    for mono, coeff in p.items():
        dq = q
        for j, e in enumerate(mono, start=1):
            for _ in range(e):
                dq = dq.partial(j)
            if dq.is_zero():
                break
        if dq.is_zero():
            continue
        const = dq.coefficient(origin)
        total += (coeff.conjugate() * const).scalar_part()
    return total


@dataclass(frozen=True)
class AdjointnessReport:
    """Exact verdicts for the three pairing adjunctions.

    For deg(P) = deg(Q) - 1:  <xP, Q> = -<P, left-Dirac Q>  and
    <Px, Q> = -<P, right-Dirac Q>.  For deg(P) = deg(Q) - 2:
    <xPx, Q> = <P, sandwich Q>.  Fields are None when the degree gap
    makes a relation inapplicable.
    """

    left: bool | None
    right: bool | None
    two_sided: bool | None

    @property
    def all_hold(self) -> bool:
        return all(v is not False for v in (self.left, self.right, self.two_sided))


def adjointness_report(p: CliffordPolynomial, q: CliffordPolynomial) -> AdjointnessReport:
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    if not p.is_homogeneous() or not q.is_homogeneous():
        raise ValueError("adjointness checks need homogeneous inputs")
    dq = q.degree()
    dp = p.degree()
    if dq is None:
        raise ValueError("right-hand side must be nonzero")
    left = right = two_sided = None
    if dp is None or dp == dq - 1:
        left = fischer_inner(mul_by_x_left(p), q) == -fischer_inner(p, dirac_left(q))
        right = fischer_inner(mul_by_x_right(p), q) == -fischer_inner(p, dirac_right(q))
    if dp is None or dp == dq - 2:
        two_sided = fischer_inner(wrap_x(p, 1), q) == fischer_inner(p, sandwich(q))
    if left is None and two_sided is None:
        raise ValueError(f"degree gap must be 1 or 2, got deg {dp} against {dq}")
    return AdjointnessReport(left, right, two_sided)


def wrap_x(p: CliffordPolynomial, times: int = 1) -> CliffordPolynomial:
    """x^s p x^s: the two-sided embedding applied s times."""
    if not isinstance(times, int) or times < 0:
        raise ValueError(f"times must be a non-negative integer, got {times}")
    for _ in range(times):
        p = mul_by_x_left(mul_by_x_right(p))
    return p


# -- compiled sector operators ----------------------------------------------------


# Degree change of each primitive, and each operator as the chain of
# primitives it applies first to last, by `polynomials._apply_integer` as
# the polynomial operators do: sandwich = right Dirac after left Dirac and
# wrap_x = x_left after x_right, as in `operators.sandwich` and `wrap_x`.
_PRIMITIVE_SHIFT = {"dirac_left": -1, "dirac_right": -1, "x_left": 1, "x_right": 1, "laplacian": -2}
_CHAINS = {**{op: (op,) for op in _PRIMITIVE_SHIFT},
           "sandwich": ("dirac_left", "dirac_right"), "wrap_x": ("x_right", "x_left")}
_DEGREE_SHIFT = {op: sum(_PRIMITIVE_SHIFT[step] for step in steps) for op, steps in _CHAINS.items()}

#: Columns of one sector block: per input monomial, (output monomial index, value) pairs.
SectorColumns = tuple[tuple[tuple[int, int], ...], ...]


@lru_cache(maxsize=None, typed=True)
def sector_operator(op: str, m: int, k_in: int) -> tuple[SectorColumns, ...]:
    """Sparse integer matrix of an operator on P(k_in), one block per sector orbit.

    ``op`` is one of dirac_left, dirac_right, x_left, x_right, laplacian,
    sandwich or wrap_x.  Entry j of the result is the block of the orbit
    representative 2^j - 1, j = 0..floor(m/2); `_conjugation` carries it
    onto every other sector of the orbit.  Column i is the image of the
    sector's basis element on the i-th degree-k_in monomial, as (monomial
    index in degree k_in + shift, value) pairs with nonzero integer
    values, ascending by index.  Columns are empty when the output degree
    is negative.  Every primitive keeps sectors, so one run of op's chain
    on the sum over j of x^a e_((2^j - 1) xor parity(a)) gives column a
    of every block; an output term's sector 2^j - 1 has bit length j.
    """
    if op not in _CHAINS:
        raise ValueError(f"unknown operator {op!r}")
    _check_degree(k_in)
    k_out = k_in + _DEGREE_SHIFT[op]
    index, table = _monomial_table(m, k_out) if k_out >= 0 else ({}, ())
    reps = [(1 << j) - 1 for j in range(m // 2 + 1)]
    blocks = [[] for _ in reps]
    for a, par in _monomial_table(m, k_in)[1]:
        numerators = {a: {rep ^ par: 1 for rep in reps}}
        for step in _CHAINS[op]:
            numerators = _apply_integer(step, m, numerators)
        columns = [[] for _ in reps]
        for b, blades in numerators.items():
            r = index[b]
            for mask, x in blades.items():
                columns[(mask ^ table[r][1]).bit_length()].append((r, x))
        for block, col in zip(blocks, columns):
            block.append(tuple(sorted(col)))
    return tuple(map(tuple, blocks))


def _apply(columns: SectorColumns, vec: list[int], n_rows: int) -> list[int]:
    """One sector block times a sector-local vector."""
    out = [0] * n_rows
    for col, x in zip(columns, vec):
        if x:
            for r, value in col:
                out[r] += value * x
    return out


def _block(columns: SectorColumns, n_rows: int, keep=None) -> list[list[int]]:
    """Dense rows of a block: column c is sign times ``columns[i]``, (i, sign) = keep[c], or all columns."""
    keep = [(i, 1) for i in range(len(columns))] if keep is None else keep
    mat = [[0] * len(keep) for _ in range(n_rows)]
    for c, (i, sign) in enumerate(keep):
        for r, value in columns[i]:
            mat[r][c] = sign * value
    return mat


@lru_cache(maxsize=None)
def _weights(m: int, k: int) -> tuple[int, ...]:
    """Fischer weights a! of the degree-k monomials; [conj(e_A) e_A]_0 = 1 for every blade."""
    return tuple(_mono_factorial(a) for a in monomial_basis(m, k))


# -- sector decomposition --------------------------------------------------------


def _orbit_index(m: int) -> tuple[int, ...]:
    """Entry v is sector v's orbit j = min(|v|, m - |v|) <= m/2, whose representative is 2^j - 1."""
    return tuple(min(w, m - w) for w in (v.bit_count() for v in range(1 << m)))


def _composition(sand, wrap) -> list[list[list[int]]]:
    """Dense integer blocks S o T of Q -> sandwich(x Q x) on P(k-2), one per (S, T) pair of a sector.

    Column i of a block is S T e_i, applied by `_apply`.
    """
    out = []
    for s_cols, t_cols in zip(sand, wrap):
        n, n_k = len(t_cols), len(s_cols)
        columns = [_apply(s_cols, _apply(t_cols, [int(i == l) for l in range(n)], n_k), n) for i in range(n)]
        out.append([list(row) for row in zip(*columns)])
    return out


@lru_cache(maxsize=None)
def _conjugation(m: int, k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every sector v of P(k) as the image of its orbit representative 2^j - 1, j = min(|v|, m - |v|).

    Entry v is (src, signs), the signed permutation P_k with
    (P_k x)_i = signs[par_i] x[src[i]], the identity for a representative:
    one sign per parity 0..2^m - 1, 0 where no degree-k monomial has it.
    The coordinate permutation sigma sends axes 0..j-1 onto the bits of
    u, v or v xor (2^m - 1) of weight j, and the others onto the rest,
    both in ascending order; it maps x^a e_A to x^sigma(a) times e_A
    with sigma applied to each factor, +-1 times a basis element once
    sorted.  When |v| > j, right multiplication by the pseudoscalar e_N
    then maps x^a e_A to the sign of e_A e_N times x^a e_(A xor N).  It
    passes D_R and x on the right with the sign (-1)^(m-1), so there the
    signs carry (-1)^((m-1) floor(k/2)) too, and S_v = P_(k-2) S_r P_k^-1
    and T_v = P_k T_r P_(k-2)^-1 in every sector; v and v xor (2^m - 1) share src.
    """
    full = (1 << m) - 1
    index, table = _monomial_table(m, k)
    flip = (-1) ** ((m - 1) * (k // 2))
    parities = {par for _, par in table}
    maps = [None] * (full + 1)
    for u in range(full + 1):
        j = u.bit_count()
        if 2 * j > m:
            continue
        sigma = [b for b in range(m) if u >> b & 1] + [b for b in range(m) if not u >> b & 1]
        src = tuple(index[tuple(a[t] for t in sigma)] for a, _ in table)
        # sigma keeps the order within u's bits and within the rest, so sorting the renamed
        # blade u xor par swaps each pair of a bit in u above a bit outside it
        sign = {par: blade_sign(u & ~par, par & ~u) for par in parities}
        maps[u] = (src, tuple(sign.get(par, 0) for par in range(full + 1)))
        if 2 * j < m:
            pseudo = {par: flip * x * blade_sign(u ^ par, full) for par, x in sign.items()}
            maps[u ^ full] = (src, tuple(pseudo.get(par, 0) for par in range(full + 1)))
    return tuple(maps)


@lru_cache(maxsize=None)
def _composition_solver(m: int, k: int) -> tuple:
    """What a split of P(k) reads, for orbit representatives only: (den, inverses, sand, wrap, orbit).

    Entry j of the next three values belongs to the representative
    r = 2^j - 1, j <= m/2: den times the inverse of its S o T block on
    P(k-2), by `linalg.integer_inverse`, den being the lcm of their
    reduced denominators, and its `sector_operator` blocks S_r of the
    sandwich on P(k) and T_r of wrap_x on P(k-2).  orbit is `_orbit_index(m)`:
    through `_conjugation`'s maps, sector v's system is orbit[v]'s.  Both
    sides of each j <-> m - j pair cost the same to invert, within a few
    percent from (3, 6) to (6, 6), so the side with j = 0 is taken.
    Singularity would contradict the direct-sum theorem and is treated as
    an internal error.
    """
    sand, wrap = sector_operator("sandwich", m, k), sector_operator("wrap_x", m, k - 2)
    inverses = []
    for block in _composition(sand, wrap):
        try:
            inverses.append(linalg.integer_inverse(block))
        except linalg.SingularMatrixError as exc:
            raise RuntimeError(
                f"sandwich composition is singular on a sector of P({k - 2}) "
                f"for m={m}; this indicates an implementation bug"
            ) from exc
    den = lcm(*(d for d, _ in inverses))
    scaled = tuple(tuple(tuple(x * (den // d) for x in row) for row in inverse) for d, inverse in inverses)
    return den, scaled, sand, wrap, _orbit_index(m)


def _orbit_rank(m: int, dense_blocks) -> int:
    """Sum over orbits j of the orbit's size times the exact rank of its representative's dense block."""
    return sum(_orbit_index(m).count(j) * linalg.rank(block) for j, block in enumerate(dense_blocks))


def composition_rank(m: int, k: int) -> int:
    """Rank of Q -> sandwich(x Q x) on P(k-2): orbit sizes times representatives' exact ranks."""
    _check_degree(k)
    if k < 2:
        return 0
    return _orbit_rank(m, _composition(sector_operator("sandwich", m, k), sector_operator("wrap_x", m, k - 2)))


def sandwich_rank(m: int, k: int) -> int:
    """Rank of the sandwich operator on P(k): orbit sizes times representatives' exact ranks."""
    blocks = sector_operator("sandwich", m, k)  # first, so that it checks k
    n = monomial_count(m, k - 2) if k >= 2 else 0
    return _orbit_rank(m, (_block(cols, n) for cols in blocks))


def infra_space_dim(m: int, k: int) -> int:
    """Dimension of the degree-k inframonogenic subspace, via the direct sum."""
    if k < 2:
        return space_dim(m, k)
    return space_dim(m, k) - space_dim(m, k - 2)


# -- the decomposition -----------------------------------------------------------


@dataclass(frozen=True)
class DecompositionChecks:
    reconstruction: bool
    sandwich_zero: bool
    orthogonal: bool

    @property
    def all_ok(self) -> bool:
        return self.reconstruction and self.sandwich_zero and self.orthogonal


class _Splitting:
    """What a single split and a tower share: m, k and the JSON document."""

    input: CliffordPolynomial
    checks: DecompositionChecks

    @property
    def m(self) -> int:
        return self.input.dim

    @property
    def k(self) -> int:
        return self.input.degree() or 0

    def _document(self, infra: str, quotient: CliffordPolynomial, layers: list[dict]) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "input": str(self.input),
            "infra": infra,
            "quotient": str(quotient),
            "layers": layers,
            "checks": {"reconstruction": self.checks.reconstruction, "sandwich_zero": self.checks.sandwich_zero,
                       "orthogonal": self.checks.orthogonal},
        }


@dataclass(frozen=True)
class DecompositionResult(_Splitting):
    """One splitting step P = infra_part + x quotient x on a fixed degree."""

    input: CliffordPolynomial
    infra_part: CliffordPolynomial
    quotient: CliffordPolynomial
    checks: DecompositionChecks

    def to_json_dict(self) -> dict:
        return self._document(str(self.infra_part), self.quotient, [])


def fischer_decompose(p: CliffordPolynomial) -> DecompositionResult:
    """Split a homogeneous p as infra_part + x quotient x, exactly.

    Degrees 0 and 1 are wholly inframonogenic and return a zero quotient.
    Above that, p's integer coordinates c are scattered into the
    orbit-representative frame (`_conjugation`) of each sector p touches,
    and split in those touched sectors only, as den c = infra + T_r q,
    with q = den (S_r T_r)^-1 S_r c from `_composition_solver`; infra and
    q are gathered back into polynomials through the same maps.  Two
    flags test the solve on those integers: S_r infra = 0, and
    T_r^t W infra = 0, i.e. the Fischer pairing of infra with x b x for
    every basis element b of P(k-2), W (the a! weights) being invariant
    under the maps.  The reconstruction flag tests what is returned: in
    every sector that p or either returned part touches, the coordinates
    of the returned infra_part plus T times those of the returned
    quotient must equal p's, compared exactly across the three
    denominators, so a wrong conversion back to polynomials makes it
    False, also when it lands in a sector p does not touch.
    """
    if not p.is_homogeneous():
        raise ValueError("decomposition requires a homogeneous polynomial")
    m, k = p.dim, p.degree()
    if k is None or k < 2:
        zero = CliffordPolynomial.zero(m)
        return DecompositionResult(p, p, zero, DecompositionChecks(True, True, True))
    solver_den, inverses, sand, wrap, orbit = _composition_solver(m, k)
    vec, den = _sector_coords(p, k)
    n_k, n_low = monomial_count(m, k), monomial_count(m, k - 2)
    weights = _weights(m, k)
    infra: SectorVector = {}
    quotient: SectorVector = {}
    sandwich_zero = orthogonal = True
    for v, c in vec.items():
        j = orbit[v]
        s_cols, t_cols = sand[j], wrap[j]
        rhs = _apply(s_cols, c, n_low)
        q = linalg.mat_vec(inverses[j], rhs) if any(rhs) else [0] * n_low
        inf = [solver_den * x - y for x, y in zip(c, _apply(t_cols, q, n_k))]
        sandwich_zero = sandwich_zero and not any(_apply(s_cols, inf, n_low))
        if orthogonal:
            weighted = [w * x for w, x in zip(weights, inf)]
            orthogonal = not any(sum(t * weighted[r] for r, t in col) for col in t_cols)
        infra[v] = inf
        quotient[v] = q
    infra_part = _from_sectors(m, k, infra, den * solver_den)
    quotient_part = _from_sectors(m, k - 2, quotient, den * solver_den)
    # infra_part + x quotient_part x == p, per coordinate x / di + y / dq == z / den, in every sector
    # any of the three touches: a term gathered into a sector p never touched must fail it
    got_infra, di = _sector_coords(infra_part, k)
    got_quotient, dq = _sector_coords(quotient_part, k - 2)
    zero_k, zero_low = [0] * n_k, [0] * n_low
    reconstruction = all(
        den * (dq * x + di * y) == di * dq * z
        for v in vec.keys() | got_infra.keys() | got_quotient.keys()
        for x, y, z in zip(got_infra.get(v, zero_k), _apply(wrap[orbit[v]], got_quotient.get(v, zero_low), n_k),
                           vec.get(v, zero_k))
    )
    checks = DecompositionChecks(reconstruction, sandwich_zero, orthogonal)
    return DecompositionResult(p, infra_part, quotient_part, checks)


@dataclass(frozen=True)
class TowerLayer:
    s: int
    component: CliffordPolynomial


@dataclass(frozen=True)
class FischerTower(_Splitting):
    """Complete splitting P = sum_s x^s L_s x^s with every L_s inframonogenic."""

    input: CliffordPolynomial
    layers: tuple[TowerLayer, ...]
    first_quotient: CliffordPolynomial
    checks: DecompositionChecks

    def reconstruct(self) -> CliffordPolynomial:
        return _combination(self.input.dim, [(1, wrap_x(layer.component, layer.s)) for layer in self.layers])

    def to_json_dict(self) -> dict:
        layers = [{"s": layer.s, "component": str(layer.component)} for layer in self.layers]
        return self._document(layers[0]["component"], self.first_quotient, layers)


def fischer_tower(p: CliffordPolynomial) -> FischerTower:
    """Iterate the splitting down to degree < 2; always floor(k/2)+1 layers.

    Step 0 is `fischer_decompose(p)` and step s+1 is `fischer_decompose`
    of step s's quotient; layer s is step s's infra part.  Each of the
    reconstruction, sandwich_zero and orthogonal flags is the AND of that
    flag over all steps.
    """
    if not p.is_homogeneous():
        raise ValueError("tower decomposition requires a homogeneous polynomial")
    steps = [fischer_decompose(p)]
    for _ in range((p.degree() or 0) // 2):
        steps.append(fischer_decompose(steps[-1].quotient))
    checks = DecompositionChecks(
        all(step.checks.reconstruction for step in steps),
        all(step.checks.sandwich_zero for step in steps),
        all(step.checks.orthogonal for step in steps),
    )
    layers = tuple(TowerLayer(s, step.infra_part) for s, step in enumerate(steps))
    return FischerTower(p, layers, steps[0].quotient, checks)


# -- Almansi splitting ------------------------------------------------------------


@dataclass(frozen=True)
class AlmansiSplit:
    """h = plain_part + x * x_part with both parts left monogenic."""

    plain_part: CliffordPolynomial
    x_part: CliffordPolynomial

    def reconstruct(self) -> CliffordPolynomial:
        return self.plain_part + mul_by_x_left(self.x_part)


def almansi_split(h: CliffordPolynomial) -> AlmansiSplit:
    """Split a harmonic homogeneous h into left monogenic pieces.

    The degree-(k-1) factor is recovered from the left Dirac action, on
    which m + 2E acts as the scalar m + 2k - 2 (never zero for k >= 1).
    """
    if not h.is_homogeneous():
        raise ValueError("Almansi splitting requires a homogeneous polynomial")
    if not laplacian(h).is_zero():
        raise ValueError("input is not harmonic")
    m = h.dim
    k = h.degree()
    if k is None or k == 0:
        return AlmansiSplit(h, CliffordPolynomial.zero(m))
    x_part = dirac_left(h) * Fraction(-1, m + 2 * k - 2)
    plain = h - mul_by_x_left(x_part)
    return AlmansiSplit(plain, x_part)


@dataclass(frozen=True)
class HarmonicInframonogenicReport:
    """Equivalence between inframonogenicity of a harmonic h and right
    monogenicity of (m + 2E) applied to its Almansi x_part.

    The two verdicts must always coincide; when h is inframonogenic the
    parts are additionally graded: x_part two-sided monogenic, plain_part
    left monogenic.
    """

    split: AlmansiSplit
    inframonogenic: bool
    shifted_right_monogenic: bool
    x_part_two_sided: bool | None
    plain_part_left_monogenic: bool | None

    @property
    def verdicts_agree(self) -> bool:
        return self.inframonogenic == self.shifted_right_monogenic


def harmonic_inframonogenic_report(h: CliffordPolynomial) -> HarmonicInframonogenicReport:
    split = almansi_split(h)
    shifted = split.x_part * h.dim + euler(split.x_part) * 2
    right_ok = is_right_monogenic(shifted)
    infra = is_inframonogenic(h)
    if infra:
        two_sided = is_two_sided_monogenic(split.x_part)
        plain_left = is_left_monogenic(split.plain_part)
    else:
        two_sided = None
        plain_left = None
    return HarmonicInframonogenicReport(split, infra, right_ok, two_sided, plain_left)


# -- exact kernel sampling ----------------------------------------------------------

_KERNEL_OPERATORS = {
    "inframonogenic": ("sandwich",),
    "left_monogenic": ("dirac_left",),
    "right_monogenic": ("dirac_right",),
    "two_sided_monogenic": ("dirac_left", "dirac_right"),
    "harmonic": ("laplacian",),
}


@lru_cache(maxsize=None, typed=True)
def kernel_basis(
    m: int, k: int, kind: str, grade: int | None = None
) -> tuple[CliffordPolynomial, ...]:
    """Exact rational basis of an operator kernel inside P(k).

    ``kind`` is one of inframonogenic / left_monogenic / right_monogenic /
    two_sided_monogenic / harmonic; ``grade`` optionally restricts the
    coefficients to a single blade grade.  Deterministic output order:
    sector by sector, the nullspace of the operators' stacked blocks,
    whose column i is signs[par_i] times the representative's column
    src[i] (`_conjugation`), row-equivalent to the sector's own block.
    """
    if kind not in _KERNEL_OPERATORS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    _check_degree(k)
    if grade is not None and (not isinstance(grade, int) or not 0 <= grade <= m):
        raise ValueError(f"grade must be in 0..{m} for m = {m}, got {grade}")
    operators = [
        (sector_operator(op, m, k), monomial_count(m, k + _DEGREE_SHIFT[op]))
        for op in _KERNEL_OPERATORS[kind]
        if k + _DEGREE_SHIFT[op] >= 0
    ]
    table = _monomial_table(m, k)[1]
    out: list[CliffordPolynomial] = []
    for v, (src, signs), j in zip(range(1 << m), _conjugation(m, k), _orbit_index(m)):
        keep = [
            i for i, (_, par) in enumerate(table)
            if grade is None or (v ^ par).bit_count() == grade
        ]
        if not keep:
            continue
        columns = [(src[i], signs[table[i][1]]) for i in keep]
        rows = [row for blocks, n in operators for row in _block(blocks[j], n, columns)]
        if rows:
            vectors = linalg.nullspace(rows)
        else:
            vectors = [[int(i == l) for l in range(len(keep))] for i in range(len(keep))]
        for vec in vectors:
            terms = ((table[i][0], v ^ table[i][1], x.numerator, x.denominator) for x, i in zip(vec, keep))
            out.append(CliffordPolynomial._trusted(m, *_collect(terms)))
    return tuple(out)


class KernelSampler:
    """Deterministic pseudo-random elements of the exact operator kernels.

    Same seed, same sequence of samples.  Every sample is a nonzero
    rational combination of an exact kernel basis, so it satisfies the
    matching predicate by construction.
    """

    def __init__(self, m: int, k: int, seed: int = 0):
        self._m = m
        self._k = k
        self._rng = random.Random(seed)

    def _draw(self, kind: str, grade: int | None) -> CliffordPolynomial:
        basis = kernel_basis(self._m, self._k, kind, grade)
        if not basis:
            raise ValueError(
                f"the {kind} kernel of degree {self._k} in dimension {self._m}"
                + (f" at grade {grade}" if grade is not None else "")
                + " is trivial"
            )
        while True:
            weights = [
                Fraction(self._rng.randint(-9, 9), self._rng.randint(1, 4)) for _ in basis
            ]
            if any(weights):
                break
        return _combination(self._m, zip(weights, basis))

    def inframonogenic(self, grade: int | None = None) -> CliffordPolynomial:
        return self._draw("inframonogenic", grade)

    def left_monogenic(self, grade: int | None = None) -> CliffordPolynomial:
        return self._draw("left_monogenic", grade)

    def right_monogenic(self, grade: int | None = None) -> CliffordPolynomial:
        return self._draw("right_monogenic", grade)

    def two_sided_monogenic(self, grade: int | None = None) -> CliffordPolynomial:
        return self._draw("two_sided_monogenic", grade)

    def harmonic(self, grade: int | None = None) -> CliffordPolynomial:
        return self._draw("harmonic", grade)
