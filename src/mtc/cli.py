"""Command line interface.

    mtc list
    mtc check ising --n-range 0..2 --json
    mtc compute modular-data fibonacci
    mtc compute xi rep_z2_symmetric
    mtc compute z --perm "(1 2 3)" semion
    mtc compute annulus --i 1 --j 1 --k 1 --l 1 ising

Exit status: 0 all checks passed, 1 at least one check failed, 2 bad
usage or unreadable input.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .builtins import BUILTIN_NAMES
from .category import ToleranceConfig, modular_datum
from .errors import MtcError
from .frobenius import azumaya_defect, xi_formula
from .invariants import (annulus_coefficient, annulus_tree_count,
                         check_invariant, parse_cycles,
                         permutation_invariant)
from .report import TOOL_VERSION, json_document
from .suite import SUITE_NAMES, resolve_target, run_suite

USAGE_ERROR = 2


def _tolerance(args) -> ToleranceConfig:
    tol = args.tol
    if tol is None:
        tol = os.environ.get("MTC_TOL")
    if tol is None:
        return ToleranceConfig()
    return ToleranceConfig(atol=float(tol))


def _parse_n_range(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(tok) for tok in text.split(",") if tok]
    if not values:
        raise ValueError(f"empty n range: {text!r}")
    return tuple(values)


def _cmd_list(_args) -> int:
    for name in BUILTIN_NAMES:
        print(name)
    print("z_n(k)  (cyclic series, e.g. z_5(2))")
    return 0


def _cmd_check(args) -> int:
    suites = [name for text in args.suite or () if text
              for name in text.split(",")] or None
    report = run_suite(args.target, n_values=_parse_n_range(args.n_range),
                       tol_config=_tolerance(args), suites=suites,
                       seed=args.seed)
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        print(report.to_table())
    return 0 if report.passed else 1


def _complex_table(mat: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _cmd_modular_data(args) -> int:
    spec = resolve_target(args.target)
    md = modular_datum(spec, _tolerance(args))
    if args.json:
        sys.stdout.write(json_document(
            spec.name, rank=spec.rank, global_dim=float(md.global_dim),
            is_modular=bool(md.is_modular), S=_complex_table(md.S),
            T=[[float(z.real), float(z.imag)] for z in np.diag(md.T)],
            charge_conjugation=[[int(x) for x in row]
                                for row in md.charge_conjugation]))
        return 0
    print(f"target: {spec.name}")
    print(f"rank: {spec.rank}   global dim: {md.global_dim:.12g}   "
          f"modular: {md.is_modular}")
    with np.printoptions(precision=6, suppress=True, linewidth=120):
        print("S ="); print(md.S)
        print("T diagonal ="); print(np.diag(md.T))
    return 0


def _cmd_xi(args) -> int:
    spec = resolve_target(args.target)
    xi = xi_formula(spec)
    azumaya = azumaya_defect(spec) <= 1e-6
    if args.json:
        sys.stdout.write(json_document(
            spec.name, xi=[[float(z.real), float(z.imag)] for z in xi],
            azumaya=azumaya))
        return 0
    print(f"target: {spec.name}")
    for i, z in enumerate(xi):
        print(f"  xi[{spec.label_name(i)}] = {z.real:+.9f}{z.imag:+.9f}j")
    print(f"azumaya: {azumaya}")
    return 0


def _cmd_z(args) -> int:
    spec = resolve_target(args.target)
    perm = parse_cycles(args.perm, n=args.n_factors)
    z = permutation_invariant(spec.rank, perm)
    md = modular_datum(spec, _tolerance(args))
    report = check_invariant(z, md, len(perm), _tolerance(args).atol)
    if args.json:
        sys.stdout.write(json_document(
            spec.name, perm=[p + 1 for p in perm],
            Z=[[int(x) for x in row] for row in z],
            invariance=[c.to_record() for c in report.checks]))
        return 0 if report.passed else 1
    print(f"target: {spec.name}   perm: {args.perm}   "
          f"size: {z.shape[0]}x{z.shape[1]}")
    print(z)
    print(report.to_table())
    return 0 if report.passed else 1


def _cmd_annulus(args) -> int:
    spec = resolve_target(args.target)
    for flag in ("i", "j", "k", "l"):
        label = getattr(args, flag)
        if not 0 <= label < spec.rank:
            raise ValueError(f"label --{flag} {label} is outside [0, "
                             f"{spec.rank}): {spec.name} has rank {spec.rank}")
    ring = annulus_coefficient(spec, args.i, args.j, args.k, args.l)
    diag = annulus_tree_count(spec, args.i, args.j, args.k, args.l)
    if args.json:
        sys.stdout.write(json_document(
            spec.name, labels=[args.i, args.j, args.k, args.l],
            ring_route=ring, tree_route=diag, agree=ring == diag))
    else:
        print(f"A[{args.i},{args.j},{args.k} -> {args.l}] = {ring} "
              f"(ring), {diag} (trees)")
    return 0 if ring == diag else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtc",
        description="verification tools for braided fusion category data")
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list built-in categories") \
       .set_defaults(func=_cmd_list)

    check = sub.add_parser("check", help="run the verification suite")
    check.add_argument("target", help="built-in name or category file")
    check.add_argument("--n-range", default="0..2",
                       help="associator exponents, e.g. 0..2 or 0,3; a "
                            "negative range as --n-range=-1..1")
    check.add_argument("--tol", type=float, default=None,
                       help="numeric tolerance (default 1e-9 or $MTC_TOL)")
    check.add_argument("--seed", type=int, default=0,
                       help="seed for the sampled module-relation words "
                            "(ranks above 11)")
    check.add_argument("--suite", action="append", default=None,
                       help="comma-separated subset of: "
                            + ",".join(SUITE_NAMES)
                            + "; repeated options add up")
    check.add_argument("--json", action="store_true",
                       help="machine-readable deterministic output")
    check.set_defaults(func=_cmd_check)

    compute = sub.add_parser("compute", help="print derived data")
    csub = compute.add_subparsers(dest="quantity", required=True)

    cmd = csub.add_parser("modular-data", help="S and T matrices")
    cmd.add_argument("target")
    cmd.add_argument("--tol", type=float, default=None)
    cmd.add_argument("--json", action="store_true")
    cmd.set_defaults(func=_cmd_modular_data)

    cmd = csub.add_parser("xi", help="left-center weights of the canonical "
                                     "algebra")
    cmd.add_argument("target")
    cmd.add_argument("--json", action="store_true")
    cmd.set_defaults(func=_cmd_xi)

    cmd = csub.add_parser("z", help="permutation modular invariant")
    cmd.add_argument("target")
    cmd.add_argument("--perm", required=True,
                     help='cycle notation, e.g. "(1 2)" or "(1 2 3)"')
    cmd.add_argument("--n-factors", type=int, default=None,
                     help="number of factors (default: largest cycle entry)")
    cmd.add_argument("--tol", type=float, default=None)
    cmd.add_argument("--json", action="store_true")
    cmd.set_defaults(func=_cmd_z)

    cmd = csub.add_parser("annulus", help="annulus coefficient two ways")
    cmd.add_argument("target")
    cmd.add_argument("--i", type=int, required=True)
    cmd.add_argument("--j", type=int, required=True)
    cmd.add_argument("--k", type=int, required=True)
    cmd.add_argument("--l", type=int, required=True)
    cmd.add_argument("--json", action="store_true")
    cmd.set_defaults(func=_cmd_annulus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MtcError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
