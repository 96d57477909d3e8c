"""Command-line front end.

Subcommands: check, decompose, tower, inner, dims, almansi, family.
Output is deterministic text by default, or a stable JSON document with
``--format json``.  Exit codes: 0 success, 1 precondition failure,
2 parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .fischer import (
    almansi_split,
    fischer_decompose,
    fischer_tower,
    fischer_inner,
    infra_space_dim,
)
from .grammar import PolynomialSyntaxError, parse_polynomial
from .numeric import (
    TrigExpFamily,
    family_harmonicity_scan,
    grid_points,
    ode_system_residual,
    sandwich_scan,
)
from .operators import is_left_monogenic, predicate_report
from .polynomials import CliffordPolynomial, space_dim


def _text(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _lines(doc: dict, keys: Sequence[str]) -> list[str]:
    """Text lines: ``key = value``, or ``name: true|false`` for each entry of a dict value."""
    lines = []
    for key in keys:
        value = doc[key]
        if isinstance(value, dict):
            lines += [f"{name}: {_text(flag)}" for name, flag in value.items()]
        else:
            lines.append(f"{key} = {_text(value)}")
    return lines


def _emit(args: argparse.Namespace, doc: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)


def _read_polynomials(args: argparse.Namespace, expected: int | None) -> list[CliffordPolynomial]:
    if args.file is not None and args.polynomial:
        given = ", ".join(map(repr, args.polynomial))
        raise ValueError(f"got both --file {args.file} and argument(s) {given}; give one")
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8-sig") as handle:
            texts = [(f"line {n}", line.strip()) for n, line in enumerate(handle, 1) if line.strip()]
    else:
        texts = [(f"input {n}", text) for n, text in enumerate(args.polynomial, 1)]
    if expected is not None and len(texts) != expected:
        raise ValueError(f"expected {expected} polynomial(s), got {len(texts)}")
    if not texts:
        raise ValueError("no polynomial input given (positional argument or --file)")
    polys = []
    for where, text in texts:
        try:
            polys.append(parse_polynomial(text, args.m))
        except PolynomialSyntaxError as exc:
            if args.file is not None or len(texts) > 1:  # name the failing input
                exc.args = (f"{where}: {exc}",)
            raise
    return polys


def _cmd_check(args: argparse.Namespace) -> int:
    for poly in _read_polynomials(args, None):
        report = predicate_report(poly)
        doc = {"m": args.m, "input": str(poly), "predicates": report}
        _emit(args, doc, _lines(doc, ["predicates"]))
    return 0


def _check_degree_flag(args: argparse.Namespace, poly: CliffordPolynomial) -> None:
    if args.k is not None:
        degree = poly.degree() or 0
        if degree != args.k:
            raise ValueError(f"--k {args.k} does not match the input degree {degree}")


def _cmd_decompose(args: argparse.Namespace) -> int:
    for poly in _read_polynomials(args, None):
        _check_degree_flag(args, poly)
        result = fischer_decompose(poly)
        doc = result.to_json_dict()
        _emit(args, doc, _lines(doc, ["m", "k", "input", "infra", "quotient", "checks"]))
    return 0


def _cmd_tower(args: argparse.Namespace) -> int:
    for poly in _read_polynomials(args, None):
        _check_degree_flag(args, poly)
        tower = fischer_tower(poly)
        doc = tower.to_json_dict()
        layers = [f"layer {layer['s']} = {layer['component']}" for layer in doc["layers"]]
        _emit(args, doc, _lines(doc, ["m", "k", "input"]) + layers + _lines(doc, ["checks"]))
    return 0


def _cmd_inner(args: argparse.Namespace) -> int:
    p, q = _read_polynomials(args, 2)
    value = fischer_inner(p, q)
    doc = {"m": args.m, "left": str(p), "right": str(q), "value": str(value)}
    _emit(args, doc, [str(value)])
    return 0


def _cmd_dims(args: argparse.Namespace) -> int:
    m, k = args.m, args.k
    if k < 0:
        raise ValueError("--k must be non-negative")
    total = space_dim(m, k)
    lower = space_dim(m, k - 2) if k >= 2 else 0
    infra = infra_space_dim(m, k)
    doc = {
        "m": m,
        "k": k,
        "space_dim": total,
        "space_dim_lower": lower,
        "infra_dim": infra,
    }
    lines = [f"space_dim({m}, {k}) = {total}"]
    if k >= 2:
        lines.append(f"space_dim({m}, {k - 2}) = {lower}")
    lines.append(f"dim_infra({m}, {k}) = {infra}")
    _emit(args, doc, lines)
    return 0


def _cmd_almansi(args: argparse.Namespace) -> int:
    for poly in _read_polynomials(args, None):
        _check_degree_flag(args, poly)
        split = almansi_split(poly)
        doc = {
            "m": args.m,
            "k": poly.degree() or 0,
            "input": str(poly),
            "plain_part": str(split.plain_part),
            "x_part": str(split.x_part),
            "checks": {
                "reconstruction": split.reconstruct() == poly,
                "plain_left_monogenic": is_left_monogenic(split.plain_part),
                "x_left_monogenic": is_left_monogenic(split.x_part),
            },
        }
        _emit(args, doc, _lines(doc, ["m", "k", "input", "plain_part", "x_part", "checks"]))
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    family = TrigExpFamily(args.c1, args.c2, args.c3, args.c4, args.n)
    grid = grid_points(args.grid_side)
    sand = sandwich_scan(family, grid, args.h)
    harmonic, lap = family_harmonicity_scan(family, grid, args.h, args.tol)
    axis = sorted({point[0] for point in grid})
    ode_max = max(
        max(abs(r) for r in ode_system_residual(family, x1)) for x1 in axis
    )
    results = {
        "sandwich_max_residual": sand.max_residual,
        "sandwich_max_relative": sand.max_relative,
        "laplacian_max_residual": lap.max_residual,
        "harmonic": harmonic,
        "ode_max_residual": ode_max,
    }
    doc = {
        "c": [args.c1, args.c2, args.c3, args.c4],
        "n": args.n,
        "h": args.h,
        "grid_side": args.grid_side,
        **results,
    }
    _emit(args, doc, _lines(results, list(results)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inframono",
        description="Exact Clifford-polynomial toolkit: sandwich-equation "
        "predicates, Fischer decompositions, and numeric checks for the "
        "closed-form plane field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_k: bool = False, k_required: bool = False) -> None:
        p.add_argument("--m", type=int, required=True, help="number of generators (1..12)")
        if with_k:
            p.add_argument("--k", type=int, required=k_required, default=None, help="expected degree")
        p.add_argument("--format", choices=("text", "json"), default="text")

    def add_poly_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("polynomial", nargs="*", default=[])
        p.add_argument("--file", default=None, help="read one polynomial per line")

    p_check = sub.add_parser("check", help="evaluate every predicate on a polynomial")
    add_common(p_check)
    add_poly_input(p_check)
    p_check.set_defaults(handler=_cmd_check)

    p_dec = sub.add_parser("decompose", help="split P into infra part plus x*quotient*x")
    add_common(p_dec, with_k=True)
    add_poly_input(p_dec)
    p_dec.set_defaults(handler=_cmd_decompose)

    p_tow = sub.add_parser("tower", help="complete layered decomposition")
    add_common(p_tow, with_k=True)
    add_poly_input(p_tow)
    p_tow.set_defaults(handler=_cmd_tower)

    p_inner = sub.add_parser("inner", help="Fischer inner product of two polynomials")
    add_common(p_inner)
    add_poly_input(p_inner)
    p_inner.set_defaults(handler=_cmd_inner)

    p_dims = sub.add_parser("dims", help="space dimensions and the infra subspace dimension")
    add_common(p_dims, with_k=True, k_required=True)
    p_dims.set_defaults(handler=_cmd_dims)

    p_alm = sub.add_parser("almansi", help="split a harmonic polynomial into monogenic parts")
    add_common(p_alm, with_k=True)
    add_poly_input(p_alm)
    p_alm.set_defaults(handler=_cmd_almansi)

    p_fam = sub.add_parser("family", help="grid residuals for the closed-form plane field")
    p_fam.add_argument("--c1", type=float, required=True)
    p_fam.add_argument("--c2", type=float, required=True)
    p_fam.add_argument("--c3", type=float, required=True)
    p_fam.add_argument("--c4", type=float, required=True)
    p_fam.add_argument("--n", type=float, required=True)
    p_fam.add_argument("--h", type=float, default=1e-4)
    p_fam.add_argument("--grid-side", type=int, default=5)
    p_fam.add_argument("--tol", type=float, default=1e-6)
    p_fam.add_argument("--format", choices=("text", "json"), default="text")
    p_fam.set_defaults(handler=_cmd_family)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except PolynomialSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
