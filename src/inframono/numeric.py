"""Floating-point evaluation and finite-difference verification, on plain floats.

Exactness lives elsewhere; this module exists to check the one
non-polynomial closed-form family of plane fields numerically.  Blade
products reuse the exact sign function from `algebra`, so the numeric
side cannot disagree with the exact side about orientation.  Fields must be
pure: one slot keeps the last completed grid scan's records for the next scan
of the same field object, an equal step and a bit-identical grid, so a
sandwich then a Laplacian scan costs 9 evaluations per point, not 14.
"""

from __future__ import annotations

import functools
import marshal
import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

from .algebra import Multivector, blade_sign, _check_dim
from .polynomials import CliffordPolynomial

Point = Sequence[float]
Field = Callable[[Point], "NumericMultivector"]
_Record = tuple["NumericMultivector", list[list[float]]]  # a point's centre and pure second differences


def _max_abs(values: Sequence[float]) -> float:
    """Largest magnitude; NaN if any slot is NaN, which the builtin max can skip."""
    return math.nan if any(map(math.isnan, values)) else max(map(abs, values))


class NumericMultivector:
    """Dense element of Cl(0, m) as a list of plain floats, blade-indexed by mask."""

    __slots__ = ("dim", "values")

    def __init__(self, dim: int, values: Sequence[float] | None = None):
        _check_dim(dim)
        self.dim = dim
        values = [0.0] * (1 << dim) if values is None else list(map(float, values))
        if len(values) != 1 << dim:
            raise ValueError(f"expected {1 << dim} blade slots, got {len(values)}")
        self.values = values

    @classmethod
    def _trusted(cls, dim: int, values: list[float]) -> "NumericMultivector":
        """Wrap a list of 1 << dim floats as is: no checks, no copy."""
        out = cls.__new__(cls)
        out.dim, out.values = dim, values
        return out

    @classmethod
    def from_exact(cls, a: Multivector) -> "NumericMultivector":
        out = [0.0] * (1 << a.dim)
        for mask, coeff in a.items():
            out[mask] = float(coeff)
        return cls(a.dim, out)

    def coefficient(self, mask: int) -> float:
        return self.values[mask]

    def __add__(self, other: "NumericMultivector") -> "NumericMultivector":
        return NumericMultivector(self.dim, [a + b for a, b in zip(self.values, other.values, strict=True)])

    def __sub__(self, other: "NumericMultivector") -> "NumericMultivector":
        return NumericMultivector(self.dim, [a - b for a, b in zip(self.values, other.values, strict=True)])

    def __mul__(self, factor: float) -> "NumericMultivector":
        return NumericMultivector(self.dim, [v * factor for v in self.values])

    __rmul__ = __mul__

    def __truediv__(self, factor: float) -> "NumericMultivector":
        if factor == 0:  # IEEE v / 0.0 is v * (signed inf): inf or NaN, where Python raises
            return self * math.copysign(math.inf, factor)
        return NumericMultivector(self.dim, [v / factor for v in self.values])

    def _mul_blade(self, mask: int, left: bool) -> "NumericMultivector":
        out = [0.0] * len(self.values)
        for b, v in enumerate(self.values):
            if v:
                out[mask ^ b] += (blade_sign(mask, b) if left else blade_sign(b, mask)) * v
        return NumericMultivector(self.dim, out)

    def mul_blade_left(self, mask: int) -> "NumericMultivector":
        """e_mask * self, with signs from the exact blade tables."""
        return self._mul_blade(mask, left=True)

    def mul_blade_right(self, mask: int) -> "NumericMultivector":
        """self * e_mask, with signs from the exact blade tables."""
        return self._mul_blade(mask, left=False)

    def max_abs(self) -> float:
        return _max_abs(self.values)

    def is_finite(self) -> bool:
        return all(map(math.isfinite, self.values))

    def __repr__(self) -> str:
        nz = {mask: v for mask, v in enumerate(self.values) if v}
        return f"NumericMultivector({self.dim}, {nz})"


def polynomial_function(p: CliffordPolynomial) -> Field:
    """Float-evaluating closure for an exact polynomial."""
    spec = [(mono, [(mask, x / p._den) for mask, x in blades.items()]) for mono, blades in p._nums.items()]
    dim = p.dim

    def evaluate(point: Point) -> NumericMultivector:
        if len(point) != dim:
            raise ValueError(f"point length {len(point)} != dimension {dim}")
        out = [0.0] * (1 << dim)
        for mono, blades in spec:
            factor = 1.0
            for c, e in zip(point, mono):
                if e:
                    factor *= c ** e
            for mask, value in blades:
                out[mask] += value * factor
        return NumericMultivector(dim, out)

    return evaluate


# -- finite-difference stencils -------------------------------------------------
# The kernels reduce a point's record (its centre and pure second differences) on blade-slot lists,
# with the IEEE operations, in the order, of the NumericMultivector chain they replace: bit-identical.


def _check_step(h: float) -> None:
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step must be finite and positive, got {h}")
    if h * h == 0:
        raise ValueError(f"step {h} is too small: its square underflows to 0.0")
    if math.isinf(4.0 * h * h):
        raise ValueError(f"step {h} is too large: 4 h^2 overflows to inf")


def _record(f: Field, coords: list[float], h: float) -> _Record:
    """The centre, then the central 3-point second difference along each axis."""
    center, hh, diffs = f(coords), h * h, []
    for i in range(center.dim):
        plus, minus = coords.copy(), coords.copy()
        plus[i], minus[i] = coords[i] + h, coords[i] - h
        plus, minus = f(plus).values, f(minus).values
        diffs.append([(p - c * 2.0 + q) / hh for p, c, q in zip(plus, center.values, minus, strict=True)])
    return center, diffs


def _hessian(f: Field, coords: list[float], record: _Record, h: float) -> list[list[list[float]]]:
    """The record's pure differences on the diagonal; 4-point mixed ones off it."""
    diffs, q, m = record[1], 4.0 * h * h, len(record[1])
    hess = [[entry] * m for entry in diffs]
    for i in range(m):
        for j in range(i + 1, m):
            corners = [coords.copy() for _ in range(4)]
            for corner, (a, b) in zip(corners, ((h, h), (h, -h), (-h, h), (-h, -h))):
                corner[i], corner[j] = coords[i] + a, coords[j] + b
            evals = [f(corner).values for corner in corners]
            hess[i][j] = hess[j][i] = [(pp - pm - mp + mm) / q for pp, pm, mp, mm in zip(*evals, strict=True)]
    return hess


@functools.cache
def _sandwich_signs(m: int) -> list[tuple[int, list[int]]]:
    """Per (i, j), i-major: e_i e_b e_j = signs[b] e_(b ^ flip), each sign taken as two blade products."""
    return [((1 << i) ^ (1 << j),
             [blade_sign(1 << i, b) * blade_sign((1 << i) ^ b, 1 << j) for b in range(1 << m)])
            for i in range(m) for j in range(m)]


def _sandwich(f: Field, coords: list[float], record: _Record, h: float) -> list[float]:
    total = [0.0] * len(record[0].values)
    entries = [entry for row in _hessian(f, coords, record, h) for entry in row]
    for (flip, signs), entry in zip(_sandwich_signs(record[0].dim), entries, strict=True):
        for b, v in enumerate(entry):
            total[b ^ flip] += signs[b] * v
    return total


def _laplacian(f: Field, coords: list[float], record: _Record, h: float) -> list[float]:
    total = [0.0] * len(record[0].values)
    for entry in record[1]:
        total = [t + d for t, d in zip(total, entry, strict=True)]
    return total


def _at(kernel: Callable, f: Field, point: Point, h: float) -> tuple[int, list]:
    _check_step(h)
    coords = list(map(float, point))
    record = _record(f, coords, h)
    return record[0].dim, kernel(f, coords, record, h)


def fd_hessian(f: Field, point: Point, h: float) -> list[list[NumericMultivector]]:
    """Central-difference Hessian: 3-point pure and 4-point mixed stencils."""
    dim, hess = _at(_hessian, f, point, h)
    return [[NumericMultivector(dim, entry) for entry in row] for row in hess]


def fd_sandwich(f: Field, point: Point, h: float) -> NumericMultivector:
    """Finite-difference sandwich: sum_{i,j} e_i H_ij e_j; O(h^2) consistent."""
    return NumericMultivector(*_at(_sandwich, f, point, h))


def fd_laplacian(f: Field, point: Point, h: float) -> NumericMultivector:
    """Finite-difference Laplacian: sum of the pure second differences."""
    return NumericMultivector(*_at(_laplacian, f, point, h))


# -- the closed-form plane field --------------------------------------------------


@dataclass(frozen=True)
class TrigExpFamily:
    """Plane vector field f1 e1 + f2 e2 built from one frequency n:

        f1 = [(c1 + c2 x1) exp(n x1) + (c3 + c4 x1) exp(-n x1)] cos(n x2)
        f2 = [(c3 + c4 x1) exp(-n x1) - (c1 + c2 x1) exp(n x1)] sin(n x2)

    Every parameter choice satisfies the sandwich equation on the whole
    plane; the field is harmonic exactly when c2 = c4 = 0 (for n != 0).
    """

    c1: float
    c2: float
    c3: float
    c4: float
    n: float

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")

    def _profiles(self, x1: float, order: int) -> tuple[float, float]:
        """d^order/dx1^order of (c1 + c2 x1) exp(n x1) and of (c3 + c4 x1) exp(-n x1)."""
        n = self.n
        up, down = self.c1 + self.c2 * x1, self.c3 + self.c4 * x1
        ep, em = math.exp(n * x1), math.exp(-n * x1)
        if order == 0:
            return up * ep, down * em
        if order == 1:
            return (self.c2 + n * up) * ep, (self.c4 - n * down) * em
        if order == 2:
            return (2 * n * self.c2 + n**2 * up) * ep, (-2 * n * self.c4 + n**2 * down) * em
        raise ValueError(f"derivative order must be 0, 1 or 2, got {order}")

    def alpha(self, x1: float, order: int = 0) -> float:
        """The f1 profile, or its order-th derivative in x1."""
        up, down = self._profiles(x1, order)
        return up + down

    def beta(self, x1: float, order: int = 0) -> float:
        """The f2 profile, or its order-th derivative in x1."""
        up, down = self._profiles(x1, order)
        return down - up

    def f1(self, x1: float, x2: float) -> float:
        return self.alpha(x1) * math.cos(self.n * x2)

    def f2(self, x1: float, x2: float) -> float:
        return self.beta(x1) * math.sin(self.n * x2)

    def __call__(self, point: Point) -> NumericMultivector:
        x1, x2 = point
        up, down = self._profiles(x1, 0)
        angle = self.n * x2
        values = [0.0, (up + down) * math.cos(angle), (down - up) * math.sin(angle), 0.0]
        return NumericMultivector._trusted(2, values)


def ode_system_residual(family: TrigExpFamily, x1: float) -> tuple[float, float]:
    """Residuals of the coupled profile equations at one x1.

    The separated ansatz reduces the sandwich equation to
    a'' + n^2 a + 2n b' = 0 and b'' + n^2 b + 2n a' = 0; the closed-form
    profiles solve both, so the residuals vanish to rounding error.
    """
    n = family.n
    (u0, d0), (u1, d1), (u2, d2) = (family._profiles(x1, order) for order in range(3))
    r_alpha = (u2 + d2) + n * n * (u0 + d0) + 2 * n * (d1 - u1)
    r_beta = (d2 - u2) + n * n * (d0 - u0) + 2 * n * (u1 + d1)
    return (r_alpha, r_beta)


# -- grid scans ---------------------------------------------------------------------


def grid_points(side: int = 5, lo: float = -1.0, hi: float = 1.0) -> list[tuple[float, float]]:
    """side x side lattice covering [lo, hi]^2, corners included."""
    if not isinstance(side, int) or side < 1:
        raise ValueError(f"grid side must be an int of at least 1, got {side!r}")
    for name, bound in (("lo", lo), ("hi", hi)):
        if not math.isfinite(bound):
            raise ValueError(f"grid bound {name} must be finite, got {bound}")
    lo, hi = float(lo), float(hi)
    step = (hi - lo) / max(side - 1, 1)
    axis = [lo + i * step for i in range(side)]
    if side > 1:
        axis[-1] = hi  # the end point is exact, as in numpy.linspace
    return [(a, b) for a in axis for b in axis]


@dataclass(frozen=True)
class GridScan:
    """Maximum residual of an operator over a grid, with the field scale."""

    max_residual: float
    max_field: float

    @property
    def max_relative(self) -> float:
        return self.max_residual / self.max_field if self.max_field else self.max_residual


_last_scan: tuple[Field, tuple[float, bytes], list[_Record]] | None = None  # field, (h, grid bits), records


def _scan(kernel: Callable, f: Field, grid: Sequence[Point], h: float) -> GridScan:
    """Grid maxima of the stencil residual and of |f|; a non-finite residual raises."""
    global _last_scan
    _check_step(h)
    grid = list(grid)  # an empty iterator is truthy
    if not grid:
        raise ValueError("the grid is empty: there is no point to check")
    coords = [list(map(float, point)) for point in grid]
    key = (h, marshal.dumps(coords, 2))  # format 2 writes each float's bits and shares no reference
    last, _last_scan = _last_scan, None
    reuse = last[2] if last is not None and last[0] is f and last[1] == key else None
    records, worst, scale = [], 0.0, 0.0
    for index, (point, at) in enumerate(zip(grid, coords)):
        try:
            record = reuse[index] if reuse else _record(f, at, h)
            residual = _max_abs(kernel(f, at, record, h))
        except OverflowError as exc:
            raise OverflowError(f"{exc} at grid point {tuple(point)} with step {h}") from exc
        if not math.isfinite(residual):
            raise ValueError(f"non-finite residual {residual} at grid point {tuple(point)}")
        records.append(record)
        worst = max(worst, residual)
        scale = max(scale, record[0].max_abs())
    _last_scan = (f, key, records)
    return GridScan(worst, scale)


def sandwich_scan(f: Field, grid: Sequence[Point], h: float = 1e-4) -> GridScan:
    """Grid maxima of the sandwich stencil and of |f|: 9 evaluations of f per plane point,
    4 when the last completed scan had this f (`is`), h and bit-identical grid; f is pure."""
    return _scan(_sandwich, f, grid, h)


def laplacian_scan(f: Field, grid: Sequence[Point], h: float = 1e-4) -> GridScan:
    """Grid maxima of the Laplacian stencil and of |f|: 5 evaluations of f per plane point,
    none when the last completed scan had this f (`is`), h and bit-identical grid; f is pure."""
    return _scan(_laplacian, f, grid, h)


def family_harmonicity_scan(
    family: TrigExpFamily, grid: Sequence[Point] | None = None, h: float = 1e-4, tol: float = 1e-6
) -> tuple[bool, GridScan]:
    """Harmonic verdict: grid maximum of the numeric Laplacian within tol; after a `sandwich_scan`
    of this family object, h and bit-identical grid it reads that scan's records and evaluates nothing."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tol}")
    scan = laplacian_scan(family, grid if grid is not None else grid_points(), h)
    return (scan.max_residual <= tol, scan)
