import math
import random
import re
import struct
from fractions import Fraction

import pytest

from helpers import (
    random_polynomial,
    reference_family_field,
    reference_fd_hessian,
    reference_fd_laplacian,
    reference_fd_sandwich,
    reference_ode_system_residual,
    reference_scan,
)
from inframono import CliffordPolynomial, Multivector, laplacian, parse_polynomial, sandwich
from inframono.numeric import (
    GridScan,
    NumericMultivector,
    TrigExpFamily,
    family_harmonicity_scan,
    fd_hessian,
    fd_laplacian,
    fd_sandwich,
    grid_points,
    laplacian_scan,
    ode_system_residual,
    polynomial_function,
    sandwich_scan,
)

SMALL_POINTS = [(0.25, -0.125), (0.125, 0.0625), (-0.2, 0.15)]
STENCILS = [fd_hessian, fd_sandwich, fd_laplacian]
SCANS = [sandwich_scan, laplacian_scan]


def exact_value(p, point):
    rational = [Fraction(x).limit_denominator(10**6) for x in point]
    return NumericMultivector.from_exact(p.eval(rational))


class TestNumericMultivector:
    def test_blade_products_match_exact(self):
        rng = random.Random(1)
        for _ in range(50):
            m = rng.randint(1, 4)
            mask = rng.randrange(1 << m)
            other = rng.randrange(1 << m)
            exact = Multivector(m, {mask: 1}) * Multivector(m, {other: 3})
            numeric = NumericMultivector.from_exact(Multivector(m, {other: 3})).mul_blade_left(mask)
            assert numeric.coefficient(mask ^ other) == float(exact.coefficient(mask ^ other))
            exact_r = Multivector(m, {other: 3}) * Multivector(m, {mask: 1})
            numeric_r = NumericMultivector.from_exact(Multivector(m, {other: 3})).mul_blade_right(mask)
            assert numeric_r.coefficient(mask ^ other) == float(exact_r.coefficient(mask ^ other))

    def test_arithmetic(self):
        a = NumericMultivector.from_exact(Multivector(2, {0: 1, 3: 2}))
        b = a * 2.0 - a
        assert b.coefficient(3) == pytest.approx(2.0)
        assert (a / 2.0).coefficient(0) == pytest.approx(0.5)
        assert a.max_abs() == 2.0
        assert a.is_finite()

    def test_division_by_zero_is_ieee(self):
        # Python raises on v / 0.0; IEEE gives a signed inf, and NaN for 0 / 0
        a = NumericMultivector(2, [2.0, -3.0, 0.0, 0.0])
        for zero, sign in ((0.0, 1), (-0.0, -1)):
            got = (a / zero).values
            assert got[:2] == [sign * math.inf, -sign * math.inf]
            assert all(map(math.isnan, got[2:]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            NumericMultivector(2, [1.0, 2.0])
        small, large = NumericMultivector(2), NumericMultivector(3)
        for a, b in ((small, large), (large, small)):
            with pytest.raises(ValueError):
                a + b
            with pytest.raises(ValueError):
                a - b


class TestFamilyEval:
    def test_cosh_case_at_origin(self):
        fam = TrigExpFamily(1, 0, 1, 0, 1)
        value = fam((0.0, 0.0))
        assert value.coefficient(0b01) == pytest.approx(2.0)
        assert value.coefficient(0b10) == pytest.approx(0.0)

    def test_cos_zero_line(self):
        fam = TrigExpFamily(1.3, -0.4, 0.2, 0.9, 2.0)
        x2 = math.pi / (2 * fam.n)
        assert fam.f1(0.7, x2) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(5))
    def test_non_finite_parameters_rejected(self, slot, bad):
        params = [1.0, 0.0, 1.0, 0.0, 2.0]
        params[slot] = bad
        with pytest.raises(ValueError, match="must be finite"):
            TrigExpFamily(*params)

    def test_zero_parameters(self):
        fam = TrigExpFamily(0, 0, 0, 0, 1.5)
        assert fam((0.3, -0.8)).max_abs() == 0.0

    def test_cosh_sinh_reduction(self):
        # equal parameter pairs collapse to the hyperbolic form
        c1, c2, n = 0.7, -0.3, 1.2
        fam = TrigExpFamily(c1, c2, c1, c2, n)
        for x1, x2 in SMALL_POINTS:
            f1_expected = 2 * (c1 + c2 * x1) * math.cosh(n * x1) * math.cos(n * x2)
            f2_expected = -2 * (c1 + c2 * x1) * math.sinh(n * x1) * math.sin(n * x2)
            assert fam.f1(x1, x2) == pytest.approx(f1_expected, rel=1e-12)
            assert fam.f2(x1, x2) == pytest.approx(f2_expected, rel=1e-12)


class TestStencils:
    def test_sandwich_matches_exact_on_quadratic(self):
        p = CliffordPolynomial.monomial(2, (2, 0), 1)
        f = polynomial_function(p)
        expected = NumericMultivector.from_exact(sandwich(p).eval((0, 0)))
        for point in SMALL_POINTS:
            got = fd_sandwich(f, point, 1e-4)
            assert (got - expected).max_abs() <= 1e-8

    def test_sandwich_matches_exact_on_counterexample(self):
        p = CliffordPolynomial.monomial(2, (1, 1), Multivector.basis_vector(2, 1))
        f = polynomial_function(p)
        expected = NumericMultivector.from_exact(sandwich(p).eval((0, 0)))
        assert expected.coefficient(0b10) == -2.0
        for point in SMALL_POINTS:
            assert (fd_sandwich(f, point, 1e-4) - expected).max_abs() <= 1e-8

    def test_laplacian_matches_exact_on_harmonic(self):
        p = CliffordPolynomial(2, {(2, 0): 1, (0, 2): -1})
        f = polynomial_function(p)
        for point in SMALL_POINTS:
            assert fd_laplacian(f, point, 1e-4).max_abs() <= 1e-8

    def test_point_length_must_match_dimension(self):
        f = polynomial_function(CliffordPolynomial.monomial(2, (2, 0), 1))
        with pytest.raises(ValueError, match="point length 3 != dimension 2"):
            f((0.0, 0.0, 0.0))

    def test_invalid_step(self):
        f = polynomial_function(CliffordPolynomial.monomial(2, (2, 0), 1))
        with pytest.raises(ValueError):
            fd_sandwich(f, (0, 0), 0.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -1e-4])
    @pytest.mark.parametrize("stencil", [fd_hessian, fd_sandwich, fd_laplacian])
    def test_non_finite_or_negative_step(self, stencil, h):
        f = polynomial_function(CliffordPolynomial.monomial(2, (2, 0), 1))
        with pytest.raises(ValueError, match="step"):
            stencil(f, (0, 0), h)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_halving_factor_on_quartics(self, seed):
        rng = random.Random(seed)
        terms = {}
        for _ in range(4):
            mono = (rng.randint(0, 2) + 2, rng.randint(0, 2))
            terms[mono] = Multivector(2, {rng.randrange(4): rng.randint(1, 3)})
        p = CliffordPolynomial(2, terms)
        f = polynomial_function(p)
        point = (0.3, -0.4)
        rational = (Fraction(3, 10), Fraction(-4, 10))
        exact_s = NumericMultivector.from_exact(sandwich(p).eval(rational))
        exact_l = NumericMultivector.from_exact(laplacian(p).eval(rational))
        for fd, exact in ((fd_sandwich, exact_s), (fd_laplacian, exact_l)):
            coarse = (fd(f, point, 1e-2) - exact).max_abs()
            fine = (fd(f, point, 5e-3) - exact).max_abs()
            if coarse > 1e-9:  # skip degenerate draws with no truncation term
                assert 3.5 <= coarse / fine <= 4.5


class TestFamilyScans:
    def test_family_is_numerically_inframonogenic(self):
        fam = TrigExpFamily(1, 0, 1, 0, 1)
        scan = sandwich_scan(fam, grid_points(), 1e-4)
        assert scan.max_residual <= 1e-6

    def test_residual_decays_at_second_order(self):
        fam = TrigExpFamily(1.0, 0.8, -0.6, 0.5, 2.0)
        coarse = sandwich_scan(fam, grid_points(), 1e-2).max_residual
        fine = sandwich_scan(fam, grid_points(), 5e-3).max_residual
        assert 3.5 <= coarse / fine <= 4.5

    def test_harmonic_direction(self):
        harmonic, scan = family_harmonicity_scan(TrigExpFamily(1, 0, 1, 0, 2))
        assert harmonic and scan.max_residual <= 1e-6

    def test_non_harmonic_direction(self):
        harmonic, scan = family_harmonicity_scan(TrigExpFamily(1, 1, 1, 1, 2))
        assert not harmonic
        assert scan.max_residual >= 1e-2

    def test_harmonic_polynomial_scan(self):
        p = CliffordPolynomial(2, {(2, 0): 1, (0, 2): -1})
        scan = laplacian_scan(polynomial_function(p), [(0.2, 0.1), (0.1, -0.25)], 1e-4)
        assert scan.max_residual <= 1e-8

    @pytest.mark.parametrize("slot", [0, 3])
    @pytest.mark.parametrize("scan", [sandwich_scan, laplacian_scan])
    def test_non_finite_residual_is_an_error(self, scan, slot):
        # max() would keep the running maximum past a NaN and report a pass,
        # both across grid points and across the blade slots of one residual
        def field(point):
            values = [1.0, 0.0, 0.0, 0.0]
            values[slot] = math.nan if point[0] > 0.5 else 1.0
            return NumericMultivector(2, values)

        with pytest.raises(ValueError, match="non-finite residual"):
            scan(field, grid_points(3), 1e-4)

    @pytest.mark.parametrize("h", [1.2e154, 1e170])
    @pytest.mark.parametrize("op", STENCILS + SCANS)
    def test_step_whose_stencil_divisor_overflows(self, op, h):
        # 4 h^2 == inf would turn every mixed difference into 0.0; the step is rejected by name
        f = polynomial_function(parse_polynomial("1/8*x1*x2*e1", 2))
        where = grid_points(3) if op in SCANS else (0.0, 0.0)
        with pytest.raises(ValueError, match=re.escape(f"step {h} is too large: 4 h^2 overflows to inf")):
            op(f, where, h)

    def test_largest_steps_still_difference(self):
        # the exact sandwich of x1 x2 e1 / 8 is -1/4 e2, which the stencil of a quadratic hits exactly
        f = polynomial_function(parse_polynomial("1/8*x1*x2*e1", 2))
        assert sandwich_scan(f, grid_points(3), 1e150).max_residual == 0.25

    @pytest.mark.parametrize("scan", SCANS + [family_harmonicity_scan])
    def test_empty_grid_is_an_error(self, scan):
        # no point checked must not read as a zero residual or a harmonic verdict
        with pytest.raises(ValueError, match="the grid is empty"):
            scan(TrigExpFamily(1, 0, 1, 0, 2), [])

    def test_grid_may_be_any_iterable(self):
        family, grid = TrigExpFamily(1, 0.5, 1, 0, 2), grid_points(3)
        assert sandwich_scan(family, iter(grid)) == sandwich_scan(family, grid)
        with pytest.raises(ValueError, match="the grid is empty"):
            laplacian_scan(family, iter([]))

    def test_overflow_names_point_and_step(self):
        with pytest.raises(OverflowError, match=re.escape("at grid point (-1.0, -1.0) with step 1e+100")):
            sandwich_scan(TrigExpFamily(1, 1, 0, 0, 1), grid_points(3), 1e100)

    @pytest.mark.parametrize("scan, per_point", [(sandwich_scan, 9), (laplacian_scan, 5)])
    def test_one_evaluation_per_stencil_point(self, scan, per_point):
        # the centre serves both the stencil and the field scale
        calls = []
        family = TrigExpFamily(1, 0, 1, 0, 2)

        def field(point):
            calls.append(tuple(point))
            return family(point)

        scan(field, grid_points(3), 1e-4)
        assert len(calls) == len(set(calls)) == per_point * 9

    @pytest.mark.parametrize("scan", [sandwich_scan, laplacian_scan])
    def test_step_whose_square_underflows(self, scan):
        # h * h == 0.0 would divide the stencils by zero; the step is rejected by name
        with pytest.raises(ValueError, match="step 1e-200 is too small: its square underflows"):
            scan(TrigExpFamily(1, 0, 1, 0, 2), grid_points(3), 1e-200)

    def test_nan_step_is_an_error(self):
        with pytest.raises(ValueError, match="step"):
            sandwich_scan(TrigExpFamily(1, 0, 1, 0, 2), grid_points(3), math.nan)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_bad_tolerance_is_an_error(self, tol):
        # a NaN tolerance would turn every verdict into "not harmonic"
        with pytest.raises(ValueError, match=f"tolerance .* got {tol}"):
            family_harmonicity_scan(TrigExpFamily(1, 0, 1, 0, 2), grid_points(3), 1e-4, tol)

    def test_zero_tolerance_is_allowed(self):
        # a constant field: the Laplacian stencil is exactly zero
        harmonic, scan = family_harmonicity_scan(TrigExpFamily(1, 0, 0, 0, 0), grid_points(3), 1e-4, 0.0)
        assert harmonic and scan.max_residual == 0.0

    @pytest.mark.parametrize("side", [0, -2, 2.5, 3.0, "3"])
    def test_grid_side_must_be_positive(self, side):
        # a float or text side would otherwise fail later with a TypeError
        with pytest.raises(ValueError, match=re.escape(f"grid side must be an int of at least 1, got {side!r}")):
            grid_points(side)

    @pytest.mark.parametrize("lo, hi, name", [
        (1.0, math.nan, "hi"), (0, math.inf, "hi"), (-math.inf, 1.0, "lo"), (math.nan, math.nan, "lo"),
    ])
    def test_grid_bounds_must_be_finite(self, lo, hi, name):
        # a non-finite bound would put NaN or inf coordinates on the grid, and fail only in a scan
        with pytest.raises(ValueError, match=f"grid bound {name} must be finite"):
            grid_points(2, lo, hi)

    def test_grid_matches_linspace(self):
        # numpy.linspace is the reference grid; numpy is not a library dependency
        np = pytest.importorskip("numpy")
        for lo, hi in ((-1.0, 1.0), (0.0, 1.0), (-2.5, 0.3), (1.0, 1.0)):
            for side in range(1, 40):
                axis = [float(a) for a in np.linspace(lo, hi, side)]
                assert grid_points(side, lo, hi) == [(a, b) for a in axis for b in axis]

    def test_scan_reports_field_scale(self):
        scan = sandwich_scan(TrigExpFamily(1, 0, 1, 0, 1), grid_points(3), 1e-4)
        assert isinstance(scan, GridScan)
        assert scan.max_field > 0
        assert scan.max_relative <= scan.max_residual / scan.max_field + 1e-18


class TestOdeResiduals:
    def test_random_parameters(self):
        rng = random.Random(4)
        for _ in range(25):
            fam = TrigExpFamily(
                rng.uniform(-2, 2),
                rng.uniform(-2, 2),
                rng.uniform(-2, 2),
                rng.uniform(-2, 2),
                rng.uniform(-3, 3),
            )
            for x1 in (-1.0, 0.0, 1.0):
                r_alpha, r_beta = ode_system_residual(fam, x1)
                assert abs(r_alpha) <= 1e-10
                assert abs(r_beta) <= 1e-10

    def test_profile_derivatives_match_differences(self):
        fam = TrigExpFamily(1.0, 0.8, -0.6, 0.5, 2.0)
        h = 1e-5
        for profile in (fam.alpha, fam.beta):
            for order in (1, 2):
                for x1 in (-0.5, 0.25):
                    slope = (profile(x1 + h, order - 1) - profile(x1 - h, order - 1)) / (2 * h)
                    assert profile(x1, order) == pytest.approx(slope, rel=1e-6)
        with pytest.raises(ValueError):
            fam.alpha(0.0, 3)

    def test_zero_parameters_are_exact(self):
        fam = TrigExpFamily(0, 0, 0, 0, 2.0)
        assert ode_system_residual(fam, 0.3) == (0.0, 0.0)

    def test_constant_field(self):
        fam = TrigExpFamily(1.5, 0, -0.5, 0, 0.0)
        assert ode_system_residual(fam, -0.7) == (0.0, 0.0)

    def test_profiles_once_per_order(self, monkeypatch):
        orders = []
        profiles = TrigExpFamily._profiles

        def counted(self, x1, order):
            orders.append(order)
            return profiles(self, x1, order)

        monkeypatch.setattr(TrigExpFamily, "_profiles", counted)
        fam = TrigExpFamily(1.0, 0.8, -0.6, 0.5, 2.0)
        fam((0.3, -0.2))
        assert orders == [0]
        ode_system_residual(fam, 0.3)
        assert orders == [0, 0, 1, 2]


def bits(value) -> bytes:
    """Every float of a result, packed: -0.0 differs from 0.0 and a NaN compares by its bits."""
    if isinstance(value, GridScan):
        value = (value.max_residual, value.max_field)
    if isinstance(value, NumericMultivector):
        value = value.values
    if isinstance(value, (list, tuple)):
        return b"".join(map(bits, value))
    return struct.pack("d", value)


REFERENCE = {
    fd_hessian: reference_fd_hessian,
    fd_sandwich: reference_fd_sandwich,
    fd_laplacian: reference_fd_laplacian,
}
REFERENCE_SCAN = {sandwich_scan: reference_fd_sandwich, laplacian_scan: reference_fd_laplacian}
STEPS = [1e-4, 1e-2, 0.3]


def _family_draws() -> list[TrigExpFamily]:
    rng = random.Random(7)
    draws = [TrigExpFamily(*(rng.uniform(-2, 2) for _ in range(4)), rng.uniform(-3, 3)) for _ in range(12)]
    n_zero = TrigExpFamily(*(rng.uniform(-2, 2) for _ in range(4)), 0.0)
    zero_c = [TrigExpFamily(0, 0, 0, 0, 1.7), TrigExpFamily(0, 0, 0, 0, 0)]
    return draws + [n_zero, *zero_c, TrigExpFamily(1, 0, 1, 0, 2)]


FAMILIES = _family_draws()


def _special_field(point):
    # -0.0 at the centre's neighbours, inf and NaN off the axes, an overflowing 2.0 * centre
    x1, x2 = point
    signed_zero = 0.0 if x1 == 0 else -0.0
    return NumericMultivector(
        2, [signed_zero, math.inf if x1 > 0 else -x2, math.nan if x2 > 0 else -0.0, 1e308 * x1]
    )


class TestAgainstReference:
    """Slot-list kernels against the NumericMultivector chains of `helpers`, bit for bit."""

    def assert_stencils_match(self, f, reference_f, points, steps=STEPS):
        for h in steps:
            for point in points:
                for stencil, reference in REFERENCE.items():
                    assert bits(stencil(f, point, h)) == bits(reference(reference_f, point, h)), (point, h)

    def assert_scans_match(self, f, reference_f, grid, steps=STEPS):
        for h in steps:
            for scan, reference in REFERENCE_SCAN.items():
                assert bits(scan(f, grid, h)) == bits(reference_scan(reference, reference_f, grid, h)), h

    @pytest.mark.parametrize("index", range(len(FAMILIES)))
    def test_family(self, index):
        family, reference_f = FAMILIES[index], reference_family_field(FAMILIES[index])
        grid = grid_points(5)
        for point in grid:
            assert bits(family(point)) == bits(reference_f(point))
        self.assert_stencils_match(family, reference_f, grid_points(3) + SMALL_POINTS)
        self.assert_scans_match(family, reference_f, grid)
        for h in STEPS:
            harmonic, scan = family_harmonicity_scan(family, grid, h, 1e-6)
            worst, scale = reference_scan(reference_fd_laplacian, reference_f, grid, h)
            assert harmonic == (worst <= 1e-6) and bits(scan) == bits((worst, scale))
        for x1 in [-1.0, -0.5, 0.0, 0.5, 1.0, -0.37, 0.81]:
            assert bits(ode_system_residual(family, x1)) == bits(reference_ode_system_residual(family, x1))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_polynomial_fields(self, m):
        # beyond the plane, every (i, j) sign of the sandwich table is exercised
        rng = random.Random(m)
        for _ in range(4):
            f = polynomial_function(random_polynomial(rng, m, rng.randint(2, 4), homogeneous=False))
            points = [[rng.uniform(-1, 1) for _ in range(m)] for _ in range(3)]
            self.assert_stencils_match(f, f, points)
            self.assert_scans_match(f, f, points)

    def test_signed_zero_inf_and_nan(self):
        points = [(0.0, 0.0), (0.9, -0.3), (-0.9, 0.3), (0.0, 0.5), (1e-4, -1e-4)]
        self.assert_stencils_match(_special_field, _special_field, points, [1e-4, 0.5])
