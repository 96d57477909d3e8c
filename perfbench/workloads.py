"""The benchmark's three workloads: seeded inputs, one operation, checks.

Inputs are generated here as polynomial text and plain numbers, from the
seed alone and without importing the library, so the library receives
only generated inputs.  Each workload lays its corpus out as one *pass*
with a fixed number of operations per stratum; the seed chooses the
contents (monomials, blades, rationals, sampler seeds, family
parameters), never the mix, so the cost of a pass barely depends on it.

Operations call the library only through the public names the CLI uses,
looked up on the module at call time so the traced run can wrap them.
Rendering is ``to_json_dict``/``str`` plus ``json.dumps``, as
``inframono <command> --format json`` prints.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

# -- polynomial text ---------------------------------------------------------


def _monomials(m: int, k: int) -> list[tuple[int, ...]]:
    if m == 1:
        return [(k,)]
    return [(e,) + rest for e in range(k, -1, -1) for rest in _monomials(m - 1, k - e)]


def _term_text(coeff: Fraction, mono: tuple[int, ...], mask: int) -> str:
    pieces = [str(abs(coeff))]
    pieces += [f"x{j}" if e == 1 else f"x{j}^{e}" for j, e in enumerate(mono, 1) if e]
    if mask:
        pieces.append("e" + "".join(str(j + 1) for j in range(mask.bit_length()) if mask >> j & 1))
    return "*".join(pieces)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def poly_text(rng: random.Random, m: int, monos: list[tuple[int, ...]], n_monos: int,
              blades_per_term: int) -> str:
    """``n_monos`` distinct monomials, each with ``blades_per_term`` distinct blades."""
    chunks = []
    for mono in rng.sample(monos, min(n_monos, len(monos))):
        for mask in rng.sample(range(1 << m), min(blades_per_term, 1 << m)):
            coeff = _rational(rng)
            body = _term_text(coeff, mono, mask)
            if not chunks:
                chunks.append(("-" if coeff < 0 else "") + body)
            else:
                chunks.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(chunks)


def render(doc: dict) -> str:
    """The CLI's JSON rendering; traced as ``cli.render``."""
    return json.dumps(doc, indent=2)


# -- fischer -------------------------------------------------------------------


class Fischer:
    """Parse, then ``fischer_decompose`` (3 in 4) or ``fischer_tower`` (1 in 4), then render.

    Every (m, k) of the grid gets the same number of operations per pass,
    half on sector-sparse inputs (1-2 single-blade terms) and half on
    dense ones (up to ten monomials with 3-blade coefficients).  (5, 6) is
    left out: its cold solver build alone takes about a minute.
    """

    name = "fischer"
    GRID = ((2, 2), (2, 4), (2, 6), (3, 2), (3, 4), (3, 6),
            (4, 2), (4, 4), (4, 6), (5, 2), (5, 4))
    SMALL_GRID = ((2, 2), (2, 4), (3, 2), (3, 4))
    OPS = ("decompose", "tower", "decompose", "decompose")
    modules = ("inframono",)
    entry_spans = ("fischer.fischer_decompose", "fischer.fischer_tower")

    def corpus(self, seed: int, small: bool) -> list[dict]:
        rng = random.Random(f"fischer/{seed}")
        items = []
        for slot, op in enumerate(self.OPS):
            for m, k in self.SMALL_GRID if small else self.GRID:
                monos = _monomials(m, k)
                for density in ("sparse", "dense"):
                    if density == "sparse":
                        text = poly_text(rng, m, monos, 1 + slot % 2, 1)
                    else:
                        text = poly_text(rng, m, monos, 10, 3)
                    items.append({"op": op, "m": m, "k": k, "density": density, "text": text})
        return items

    def key(self, item: dict):
        return (item["m"], item["k"])

    def start_pass(self, lib, corpus):
        return None

    def run(self, lib, item: dict, state):
        p = lib.inframono.parse_polynomial(item["text"], item["m"])
        if item["op"] == "decompose":
            result = lib.inframono.fischer_decompose(p)
        else:
            result = lib.inframono.fischer_tower(p)
        return result, render(result.to_json_dict())

    def check(self, lib, item: dict, result) -> bool:
        api = lib.inframono
        p = api.parse_polynomial(item["text"], item["m"])
        if not result.checks.all_ok:
            return False
        if item["op"] == "decompose":
            return (result.infra_part + api.wrap_x(result.quotient) == p
                    and api.is_inframonogenic(result.infra_part))
        return (result.reconstruct() == p
                and len(result.layers) == item["k"] // 2 + 1
                and all(api.is_inframonogenic(layer.component) for layer in result.layers))


# -- check -----------------------------------------------------------------------


class Check:
    """``inframono check`` (7 in 8) and ``inframono family`` (1 in 8).

    Check inputs span m = 2..8 at fixed degrees, two of seven slots not
    homogeneous, with dense coefficients (half the blades up to ten).
    Family parameters are drawn over criterion 9's range, unfiltered.
    No ``linalg`` and no cache is on this path.
    """

    name = "check"
    DIMS = tuple(range(2, 9))
    SMALL_DIMS = (2, 3)
    # (degree, homogeneous) per slot; the eighth slot is a family scan
    SLOTS = ((0, True), (2, True), (3, False), (4, True), (5, True), (6, False), (8, True), None)
    SMALL_SLOTS = ((0, True), (2, True), (3, False), None)
    GRID_SIDE, H, TOL = 5, 1e-4, 1e-6
    modules = ("inframono", "inframono.numeric")
    entry_spans = ("operators.predicate_report",)

    def corpus(self, seed: int, small: bool) -> list[dict]:
        rng = random.Random(f"check/{seed}")
        items = []
        for slot in self.SMALL_SLOTS if small else self.SLOTS:
            for m in self.SMALL_DIMS if small else self.DIMS:
                if slot is None:
                    c = [rng.uniform(-2.0, 2.0) for _ in range(4)]
                    items.append({"op": "family", "c": c, "n": rng.uniform(-3.0, 3.0)})
                    continue
                degree, homogeneous = slot
                degrees = [degree] if homogeneous else range(degree + 1)
                monos = [mono for d in degrees for mono in _monomials(m, d)]
                text = poly_text(rng, m, monos, 6, min((1 << m) // 2, 10))
                items.append({"op": "check", "m": m, "degree": degree, "text": text})
        return items

    def key(self, item: dict):
        return item["op"]

    def start_pass(self, lib, corpus):
        return None

    def run(self, lib, item: dict, state):
        if item["op"] == "check":
            p = lib.inframono.parse_polynomial(item["text"], item["m"])
            report = lib.inframono.predicate_report(p)
            return report, render({"m": item["m"], "input": str(p), "predicates": report})
        num = lib.numeric
        family = num.TrigExpFamily(*item["c"], item["n"])
        grid = num.grid_points(self.GRID_SIDE)
        sand = num.sandwich_scan(family, grid, self.H)
        harmonic, lap = num.family_harmonicity_scan(family, grid, self.H, self.TOL)
        axis = sorted({point[0] for point in grid})
        ode_max = max(max(abs(r) for r in num.ode_system_residual(family, x1)) for x1 in axis)
        doc = {
            "c": item["c"],
            "n": item["n"],
            "h": self.H,
            "grid_side": self.GRID_SIDE,
            "sandwich_max_residual": sand.max_residual,
            "sandwich_max_relative": sand.max_relative,
            "laplacian_max_residual": lap.max_residual,
            "harmonic": harmonic,
            "ode_max_residual": ode_max,
        }
        return doc, render(doc)

    def check(self, lib, item: dict, result) -> bool:
        if item["op"] == "family":
            # Finiteness only: FD accuracy belongs to acceptance criterion 9.
            return all(math.isfinite(v) for v in result.values() if isinstance(v, float))
        r = result
        implied = [
            r["two_sided_monogenic"] == (r["left_monogenic"] and r["right_monogenic"]),
            not r["two_sided_monogenic"] or r["inframonogenic"],
            not r["inframonogenic"] or r["biharmonic"],
            not r["left_monogenic"] or (r["harmonic"] and r["three_monogenic_left"]),
            not r["right_monogenic"] or (r["harmonic"] and r["three_monogenic_right"]),
            not r["harmonic"] or r["biharmonic"],
            # derivatives beyond the degree vanish
            item["degree"] > 1 or (r["inframonogenic"] and r["harmonic"]),
            item["degree"] > 2 or (r["three_monogenic_left"] and r["three_monogenic_right"]),
            item["degree"] > 3 or r["biharmonic"],
        ]
        return all(implied)


# -- sample ----------------------------------------------------------------------


class Sample:
    """One ``KernelSampler`` draw per (m, k, kind, grade) per pass.

    The warm work is building polynomials (weighted sums of up to 576
    basis elements); the cold work is rank-deficient ``nullspace``.
    """

    name = "sample"
    GRID = ((3, 4), (3, 6), (4, 4), (4, 5))
    SMALL_GRID = ((3, 4),)
    KINDS = ("inframonogenic", "left_monogenic", "right_monogenic",
             "two_sided_monogenic", "harmonic")
    GRADES = (None, 1, 2)
    PREDICATES = {
        "inframonogenic": "is_inframonogenic",
        "left_monogenic": "is_left_monogenic",
        "right_monogenic": "is_right_monogenic",
        "two_sided_monogenic": "is_two_sided_monogenic",
        "harmonic": "is_harmonic",
    }
    modules = ("inframono",)
    entry_spans = ("fischer.KernelSampler.draw",)

    def corpus(self, seed: int, small: bool) -> list[dict]:
        rng = random.Random(f"sample/{seed}")
        items = []
        for m, k in self.SMALL_GRID if small else self.GRID:
            sampler_seed = rng.randrange(1 << 31)
            draws = [(kind, grade) for kind in self.KINDS for grade in self.GRADES]
            rng.shuffle(draws)
            items += [{"m": m, "k": k, "sampler_seed": sampler_seed, "kind": kind, "grade": grade}
                      for kind, grade in draws]
        return items

    def key(self, item: dict):
        return (item["m"], item["k"], item["kind"], item["grade"])

    def start_pass(self, lib, corpus):
        """Fresh samplers, so every pass draws the same sequence."""
        return {(it["m"], it["k"]): lib.inframono.KernelSampler(it["m"], it["k"], it["sampler_seed"])
                for it in corpus}

    def run(self, lib, item: dict, samplers):
        sampler = samplers[(item["m"], item["k"])]
        poly = getattr(sampler, item["kind"])(item["grade"])
        doc = {"m": item["m"], "k": item["k"], "kind": item["kind"], "grade": item["grade"],
               "sample": str(poly)}
        return poly, render(doc)

    def check(self, lib, item: dict, poly) -> bool:
        grade = item["grade"]
        return (not poly.is_zero()
                and poly.is_homogeneous(item["k"])
                and (grade is None or poly.is_pure_grade(grade))
                and getattr(lib.inframono, self.PREDICATES[item["kind"]])(poly))


WORKLOADS = {w.name: w for w in (Fischer(), Check(), Sample())}
