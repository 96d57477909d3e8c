"""Dirac-type differential operators on Clifford polynomials.

Everything here is exact: the predicates are zero tests with no
tolerances.  The central object is the sandwich operator

    p  ->  sum_{i,j} e_i (d_i d_j p) e_j,

the composition of the left and right Dirac actions in either order.
Polynomials annihilated by it are called inframonogenic.  Both Dirac
actions and the Laplacian run one integer core,
`polynomials._apply_integer`, which reads each monomial's moves once and
applies them to all of its blades; the compiled sector operators of
`fischer` are built by the same core.

Polynomials are stored as integer numerators over one denominator; the
Dirac-type operators and the predicates run that core on the stored
numerators and build no Fraction.  Every operator has an integer matrix,
so the denominator cannot change whether a chain of them sends p to zero.
The predicates use D_L^2 = D_R^2 = -Lap, and that every operator maps
each sign-flip sector (see `fischer`) into itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Multivector
from .polynomials import (
    CliffordPolynomial,
    _Numerators,
    _apply_integer,
    _apply_primitive,
    _combination,
    _parity,
    mul_by_x_left,
    mul_by_x_right,
)


def dirac_left(p: CliffordPolynomial) -> CliffordPolynomial:
    """Left Dirac action: sum_j e_j (d/dx_j p)."""
    return _apply_primitive("dirac_left", p)


def dirac_right(p: CliffordPolynomial) -> CliffordPolynomial:
    """Right Dirac action: sum_j (d/dx_j p) e_j."""
    return _apply_primitive("dirac_right", p)


def sandwich(p: CliffordPolynomial) -> CliffordPolynomial:
    """Two-sided Dirac action sum_{i,j} e_i (d_i d_j p) e_j.

    Computed as right-after-left; the mixed partials commute, so applying
    the two actions in the other order gives the same polynomial.
    """
    return dirac_right(dirac_left(p))


def laplacian(p: CliffordPolynomial) -> CliffordPolynomial:
    """Laplace operator sum_j d^2/dx_j^2, equal to minus either Dirac square."""
    return _apply_primitive("laplacian", p)


def conjugate_sum(p: CliffordPolynomial) -> CliffordPolynomial:
    """sum_j e_j p e_j; multiplies a pure grade-g value by (-1)^g (2g - m)."""
    vectors = (Multivector.basis_vector(p.dim, j) for j in range(1, p.dim + 1))
    return _combination(p.dim, [(1, p.mul_left(e).mul_right(e)) for e in vectors])


# -- predicates --------------------------------------------------------------


def _vanishes(p: CliffordPolynomial, *ops: str) -> bool:
    """Whether applying ops in turn sends p to zero, decided on p's integer numerators."""
    numerators = p._nums
    for op in ops:
        numerators = _apply_integer(op, p.dim, numerators)
    return not numerators


def is_left_monogenic(p: CliffordPolynomial) -> bool:
    return _vanishes(p, "dirac_left")


def is_right_monogenic(p: CliffordPolynomial) -> bool:
    return _vanishes(p, "dirac_right")


def is_two_sided_monogenic(p: CliffordPolynomial) -> bool:
    return is_left_monogenic(p) and is_right_monogenic(p)


def is_inframonogenic(p: CliffordPolynomial) -> bool:
    return _vanishes(p, "dirac_left", "dirac_right")


def is_k_monogenic(p: CliffordPolynomial, k: int, side: str = "both") -> bool:
    """Annihilation by the k-th Dirac power from the given side(s).

    Each Dirac action lowers the degree by one, so D^k p = 0 once k > deg p;
    the power is capped at deg p + 1, whatever k.  D^k = (-Lap)^(k//2)
    D^(k mod 2) from either side: one Laplacian power for both sides.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"order must be a positive int, got {k!r}")
    if side not in ("left", "right", "both"):
        raise ValueError(f"side must be 'left', 'right' or 'both', got {side!r}")
    passes = min(k, (p.degree() or 0) + 1)
    numerators = p._nums
    for _ in range(passes // 2):
        numerators = _apply_integer("laplacian", p.dim, numerators)
    if passes % 2 == 0:
        return not numerators
    return all(not _apply_integer(f"dirac_{action_side}", p.dim, numerators)
               for action_side in ("left", "right") if side in (action_side, "both"))


def is_harmonic(p: CliffordPolynomial) -> bool:
    return _vanishes(p, "laplacian")


def is_biharmonic(p: CliffordPolynomial) -> bool:
    return _vanishes(p, "laplacian", "laplacian")


def _sector_split(numerators: _Numerators) -> tuple[_Numerators, _Numerators]:
    """Numerators in the first term's sign-flip sector v (blade v xor _parity(a) at x^a), and the rest."""
    first, rest = {}, {}
    sector = next((_parity(a) ^ next(iter(blades)) for a, blades in numerators.items()), 0)
    for a, blades in numerators.items():
        mask = sector ^ _parity(a)
        if mask in blades:
            first[a] = {mask: blades[mask]}
            blades = len(blades) > 1 and {b: x for b, x in blades.items() if b != mask}
        if blades:
            rest[a] = blades
    return first, rest


def predicate_report(p: CliffordPolynomial) -> dict[str, bool]:
    """All predicate verdicts in a fixed, printable order.

    The verdicts are those of the single predicates above (the three
    monogenic ones with k = 3).  Seven operator chains decide them, on
    p's numerators with the integer core: D_L, D_R, D_R D_L, Lap, and
    D_L Lap, D_R Lap and Lap^2, since D^3 p = -D Lap p.  The chains run
    first on the terms in the sector of p's first term, then, for the
    verdicts still True, on the other sectors.  The sectors' images have
    disjoint supports, so a verdict is False iff some part's chain result
    is nonempty.  Each chain prefix is computed at most once per part.
    """
    m = p.dim
    left = right = infra = lap = lap_left = lap_right = bilap = True
    for part in filter(None, _sector_split(p._nums)):
        if left or infra:
            d_left = _apply_integer("dirac_left", m, part)
            left = left and not d_left
            infra = infra and not (d_left and _apply_integer("dirac_right", m, d_left))
        right = right and not _apply_integer("dirac_right", m, part)
        if lap or lap_left or lap_right or bilap:
            d_lap = _apply_integer("laplacian", m, part)
            if d_lap:
                lap = False
                lap_left = lap_left and not _apply_integer("dirac_left", m, d_lap)
                lap_right = lap_right and not _apply_integer("dirac_right", m, d_lap)
                bilap = bilap and not _apply_integer("laplacian", m, d_lap)
    return {
        "left_monogenic": left,
        "right_monogenic": right,
        "two_sided_monogenic": left and right,
        "inframonogenic": infra,
        "three_monogenic_left": lap_left,
        "three_monogenic_right": lap_right,
        "harmonic": lap,
        "biharmonic": bilap,
    }


# -- algebraic identities -----------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Exact-equality verdicts for the product and embedding identities.

    ``unit_right``: sandwich(p e_j) = -2 d_j (left-Dirac p) - sandwich(p) e_j
    ``unit_left``:  sandwich(e_j p) = -2 d_j (right-Dirac p) - e_j sandwich(p)
    ``embed_left``:  Lap(x p) = 2 (left-Dirac p) + x Lap(p)
    ``embed_right``: Lap(p x) = 2 (right-Dirac p) + Lap(p) x
    """

    unit_right: bool
    unit_left: bool
    embed_left: bool
    embed_right: bool

    @property
    def all_hold(self) -> bool:
        return self.unit_right and self.unit_left and self.embed_left and self.embed_right


def identity_report(p: CliffordPolynomial) -> IdentityReport:
    """Evaluate both sides of each identity on p; all must agree exactly."""
    m = p.dim
    sand = sandwich(p)
    dleft = dirac_left(p)
    dright = dirac_right(p)
    lap = laplacian(p)

    unit_right = True
    unit_left = True
    for j in range(1, m + 1):
        e_j = Multivector.basis_vector(m, j)
        lhs_r = sandwich(p.mul_right(e_j))
        rhs_r = dleft.partial(j) * (-2) - sand.mul_right(e_j)
        if lhs_r != rhs_r:
            unit_right = False
        lhs_l = sandwich(p.mul_left(e_j))
        rhs_l = dright.partial(j) * (-2) - sand.mul_left(e_j)
        if lhs_l != rhs_l:
            unit_left = False

    embed_left = laplacian(mul_by_x_left(p)) == dleft * 2 + mul_by_x_left(lap)
    embed_right = laplacian(mul_by_x_right(p)) == dright * 2 + mul_by_x_right(lap)
    return IdentityReport(unit_right, unit_left, embed_left, embed_right)


# -- graded system for pure k-vector fields -----------------------------------


def _inner_left(p: CliffordPolynomial, g: int) -> CliffordPolynomial:
    return dirac_left(p).grade(g - 1) if g >= 1 else CliffordPolynomial.zero(p.dim)


def _outer_left(p: CliffordPolynomial, g: int) -> CliffordPolynomial:
    return dirac_left(p).grade(g + 1)


def kvector_system_residuals(
    p: CliffordPolynomial,
) -> tuple[CliffordPolynomial, CliffordPolynomial, CliffordPolynomial]:
    """The three graded residuals whose joint vanishing is inframonogenicity.

    For a pure grade-k field the rows are, with . and ^ the graded Dirac
    actions applied from the left,

        r0 = .(.F)    r1 = ^(.F) - .(^F)    r2 = ^(^F)

    and they equal (up to sign) the grade k-2, k, k+2 parts of sandwich(F).
    """
    g = p.pure_grade()
    if g is None:
        if p.is_zero():
            z = CliffordPolynomial.zero(p.dim)
            return (z, z, z)
        raise ValueError(f"input must be of pure grade, got grades {sorted(p.grades())}")
    inner = _inner_left(p, g)
    outer = _outer_left(p, g)
    r0 = _inner_left(inner, g - 1)
    r1 = _outer_left(inner, g - 1) - _inner_left(outer, g + 1)
    r2 = _outer_left(outer, g + 1)
    return (r0, r1, r2)


# -- constant-plus-monogenic certificate ---------------------------------------


@dataclass(frozen=True)
class LinearMonogenicSplit:
    """Certificate f = constant * x + monogenic remainder.

    ``side`` records which family of unit multiples was required to be
    inframonogenic: "left" means every e_j f was (remainder then right
    monogenic), "right" means every f e_j was (remainder left monogenic).
    ``unique`` is False only in the even-dimensional corner case where a
    grade m/2 component of the constant is undetermined; the minimal-norm
    choice (zero component) is returned there.
    """

    constant: Multivector
    remainder: CliffordPolynomial
    side: str
    unique: bool


def linear_monogenic_split(p: CliffordPolynomial, side: str = "left") -> LinearMonogenicSplit:
    """Split an inframonogenic p with inframonogenic unit multiples as c x + M.

    Requires sandwich(p) = 0 and, for side="left", sandwich(e_j p) = 0 for
    every j (then M is right monogenic); for side="right", sandwich(p e_j) = 0
    for every j (then M is left monogenic).  Raises ValueError when the
    hypothesis fails; the returned split is re-verified before returning.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    m = p.dim
    if not is_inframonogenic(p):
        raise ValueError("input is not inframonogenic")
    for j in range(1, m + 1):
        e_j = Multivector.basis_vector(m, j)
        candidate = p.mul_left(e_j) if side == "left" else p.mul_right(e_j)
        if not is_inframonogenic(candidate):
            raise ValueError(f"unit multiple with e{j} on the {side} is not inframonogenic")

    unique = True
    if side == "left":
        # d_j (right-Dirac p) = 0 for all j, so right-Dirac p is a constant g,
        # and (c x) under the right Dirac is -m c.
        g = dirac_right(p)
        if not g.is_homogeneous(0):
            raise ValueError("right Dirac action did not reduce to a constant")
        c = g.coefficient((0,) * m) * Fraction(-1, m)
    else:
        # Left-Dirac p is a constant g; the left Dirac of c x is
        # sum_j e_j c e_j, which scales grade g by (-1)^g (2g - m).
        g = dirac_left(p)
        if not g.is_homogeneous(0):
            raise ValueError("left Dirac action did not reduce to a constant")
        g_const = g.coefficient((0,) * m)
        terms: dict[int, Fraction] = {}
        for mask, coeff in g_const.items():
            grade = mask.bit_count()
            eigen = (2 * grade - m) * (-1 if grade & 1 else 1)
            if eigen == 0:
                # Hypothesis forces this component of g to vanish; a nonzero
                # value would contradict the certificate's existence.
                raise ValueError(
                    "constant term has a grade m/2 component the split cannot produce"
                )
            terms[mask] = coeff / eigen
        if m % 2 == 0:
            # The grade m/2 part of c is annihilated either way; return the
            # minimal-norm representative and flag the non-uniqueness.
            unique = False
        c = Multivector(m, terms)

    remainder = p - _times_x(c)
    check = dirac_right(remainder) if side == "left" else dirac_left(remainder)
    if not check.is_zero():
        raise ValueError("certificate verification failed: remainder is not monogenic")
    return LinearMonogenicSplit(constant=c, remainder=remainder, side=side, unique=unique)


def _times_x(c: Multivector) -> CliffordPolynomial:
    """The degree-one polynomial c x (constant on the left of the vector)."""
    return mul_by_x_right(CliffordPolynomial.constant(c.dim, c))
