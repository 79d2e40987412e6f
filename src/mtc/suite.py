"""The full verification suite for one category.

Sections run in dependency order: the axioms of the input data, its
modular data, the square of the category, the module associator family on
the square, the canonical algebra, and the permutation invariants.
Sections can be selected individually; everything downstream of a failed
load is reported, not swallowed.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np

from .builtins import BUILTIN_NAMES, get_category
from .category import (DEFAULT_TOL, CategorySpec, ToleranceConfig,
                       load_category, modular_datum, modular_group_relations,
                       validate_category, verlinde_fusion)
from .deligne import MAX_PRODUCT_RANK, deligne_power
from .errors import MtcError, SnapFailure
from .frobenius import frobenius_report
from .invariants import (annulus_coefficient, annulus_tree_count,
                         induced_decomposition_defect, invariant_report,
                         symmetric_group_check)
from .modcat import (alpha_functor_deviation, commutor_witness_deviation,
                     extract_twist, gamma_functor_deviation,
                     left_module_pentagon_deviation, module_commutor,
                     module_pentagon_deviation, module_triangle_deviation,
                     psi, psi_from_gamma, psi_shortcut_deviation)
from .report import VerificationReport, max_dev

SUITE_NAMES = ["category", "modular", "product", "module", "frobenius",
               "invariants"]

# module-layer sweeps enumerate r^k label tuples; above this budget a
# seeded sample of the same size is used instead
_SWEEP_BUDGET = 256


def resolve_target(target: str) -> CategorySpec:
    """A built-in name, a z_n(k) pattern, or a path to a category file."""
    try:
        if target in BUILTIN_NAMES or (target.startswith("z_")
                                       and "(" in target):
            return get_category(target)
        if os.path.exists(target):
            return load_category(target)
        return get_category(target)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None


def _label_tuples(rank: int, k: int, rng) -> list[tuple[int, ...]]:
    total = rank ** k
    if total <= _SWEEP_BUDGET:
        return list(itertools.product(range(rank), repeat=k))
    picks = rng.integers(0, rank, size=(_SWEEP_BUDGET, k))
    return [tuple(int(x) for x in row) for row in picks]


def _category_section(spec, report, tol_config):
    t0 = time.perf_counter()
    sub = validate_category(spec, tol_config)
    for c in sub.checks:
        c.wall_time = (time.perf_counter() - t0) / max(len(sub.checks), 1)
    report.extend(sub)
    return sub.passed


def _modular_section(spec, report, tol_config, md):
    t0 = time.perf_counter()
    if not md.is_modular:
        report.add_skip("verlinde_fusion", "verlinde-formula",
                        "S-matrix is degenerate")
        report.add_skip("modular_group", "modular-group-relations",
                        "S-matrix is degenerate")
        return md
    try:
        nval = verlinde_fusion(md, tol_config)
        dev = float(np.max(np.abs(nval - spec.ring.N)))
    except SnapFailure as exc:
        dev = 1.0
        report.add_deviation("verlinde_fusion", "verlinde-formula", dev,
                             tol_config.atol, detail=str(exc))
    else:
        report.add_deviation("verlinde_fusion", "verlinde-formula", dev, 0.5,
                             wall_time=time.perf_counter() - t0)
    t0 = time.perf_counter()
    _, rel = modular_group_relations(md, tol_config)
    for c in rel.checks:
        c.wall_time = (time.perf_counter() - t0) / max(len(rel.checks), 1)
    report.extend(rel)
    return md


def _product_section(spec, report, tol_config, md):
    t0 = time.perf_counter()
    prod = deligne_power(spec, 2)
    sub = validate_category(prod, tol_config)
    report.add_deviation("square_axioms", "product-coherence",
                         sub.max_deviation, tol_config.atol,
                         wall_time=time.perf_counter() - t0,
                         detail=f"{len(sub.checks)} checks on {prod.name}")
    if md is not None and md.is_modular:
        md2 = modular_datum(prod, tol_config)
        dev = float(np.max(np.abs(md2.S - np.kron(md.S, md.S))))
        report.add_deviation("square_s_matrix", "product-s-factorization",
                             dev, tol_config.atol)
    return prod


def _module_section(spec, report, tol_config, n_values, rng):
    # simples of the square are pairs of base labels; every word below
    # lives in the base category
    r = spec.rank
    atol = tol_config.atol

    t0 = time.perf_counter()
    worst = 0.0
    for m, x1, x2, y1, y2, z1, z2 in _label_tuples(r, 7, rng):
        X, Y, Z = ((x1,), (x2,)), ((y1,), (y2,)), ((z1,), (z2,))
        for n in n_values:
            worst = max_dev(worst, module_pentagon_deviation(
                spec, (m,), X, Y, Z, n))
    report.add_deviation("module_pentagon", "module-pentagon", worst, atol,
                         wall_time=time.perf_counter() - t0,
                         detail=f"n in {list(n_values)}")

    t0 = time.perf_counter()
    worst = 0.0
    for m, x1, x2, y1, y2, z1, z2 in _label_tuples(r, 7, rng)[:64]:
        X, Y, Z = ((x1,), (x2,)), ((y1,), (y2,)), ((z1,), (z2,))
        worst = max_dev(worst, left_module_pentagon_deviation(
            spec, X, Y, Z, (m,), n_values[0]))
    report.add_deviation("left_module_pentagon", "left-module-pentagon",
                         worst, atol, wall_time=time.perf_counter() - t0)

    t0 = time.perf_counter()
    worst = 0.0
    for m, x1, x2 in _label_tuples(r, 3, rng):
        for n in n_values:
            worst = max_dev(worst, module_triangle_deviation(
                spec, (m,), ((x1,), (x2,)), n))
    report.add_deviation("module_triangle", "module-unit-triangle", worst,
                         atol, wall_time=time.perf_counter() - t0)

    t0 = time.perf_counter()
    worst = 0.0
    for m, x1, x2, y1, y2 in _label_tuples(r, 5, rng):
        X, Y = ((x1,), (x2,)), ((y1,), (y2,))
        worst = max_dev(worst, gamma_functor_deviation(spec, (m,), X, Y,
                                                       n_values[0]))
        worst = max_dev(worst, psi_shortcut_deviation(spec, (m,), X, Y))
    report.add_deviation("twist_mismatch_functor", "twist-mismatch-equation",
                         worst, atol, wall_time=time.perf_counter() - t0)

    t0 = time.perf_counter()
    worst = 0.0
    n_top = max(n_values)
    for m, x1, x2, y1, y2 in _label_tuples(r, 5, rng)[:64]:
        X, Y = ((x1,), (x2,)), ((y1,), (y2,))
        direct = psi(spec, (m,), X, Y, n_top)
        worst = max_dev(worst, direct.deviation(
            psi_from_gamma(spec, (m,), X, Y, n_top)))
    report.add_deviation("associator_from_chain", "associator-chain", worst,
                         atol, wall_time=time.perf_counter() - t0)

    t0 = time.perf_counter()
    worst = 0.0
    for u, in _label_tuples(r, 1, rng):
        got = extract_twist(spec, (u,))
        blk = got.blocks.get(u)
        want = complex(spec.theta[u])
        worst = max_dev(worst, abs(blk[0, 0] - want) if blk is not None
                        else 1.0)
    report.add_deviation("twist_extraction", "twist-from-mismatch", worst,
                         atol, wall_time=time.perf_counter() - t0)

    t0 = time.perf_counter()
    worst = 0.0
    for m, x1, x2, y1, y2, z1, z2 in _label_tuples(r, 7, rng)[:32]:
        X, Y, Z = ((x1,), (x2,)), ((y1,), (y2,)), ((z1,), (z2,))
        worst = max_dev(worst,
                        alpha_functor_deviation(spec, (m,), X, Y, Z, "+"),
                        alpha_functor_deviation(spec, (m,), X, Y, Z, "-"))
    report.add_deviation("alpha_module_functor", "alpha-induction-functor",
                         worst, atol, wall_time=time.perf_counter() - t0)

    t0 = time.perf_counter()
    worst = 0.0
    for m, u, v, up, vp in _label_tuples(r, 5, rng)[:32]:
        worst = max_dev(worst, commutor_witness_deviation(
            spec, (m,), (u,), (v,), (up,), (vp,)))
    report.add_deviation("commutor_witness", "commutor-intertwiner", worst,
                         atol, wall_time=time.perf_counter() - t0)


def _invariants_section(spec, report, tol_config, md):
    if md is None or not md.is_modular:
        report.add_skip("permutation_invariants", "permutation-invariants",
                        "requires a nondegenerate S-matrix")
        return
    atol = tol_config.atol
    t0 = time.perf_counter()
    sub = invariant_report(spec, md, (1, 0), atol)
    report.add_deviation("transposition_invariant", "permutation-invariants",
                         sub.max_deviation, atol,
                         wall_time=time.perf_counter() - t0)
    if spec.rank ** 3 <= MAX_PRODUCT_RANK:
        t0 = time.perf_counter()
        sub3 = invariant_report(spec, md, (1, 2, 0), atol)
        report.add_deviation("three_cycle_invariant",
                             "permutation-invariants", sub3.max_deviation,
                             atol, wall_time=time.perf_counter() - t0)
        t0 = time.perf_counter()
        hom = symmetric_group_check(spec.rank, 3)
        report.add_deviation("symmetric_group_action",
                             "permutation-homomorphism", float(hom), 0.5,
                             wall_time=time.perf_counter() - t0)
    else:
        report.add_skip("three_cycle_invariant", "permutation-invariants",
                        "triple product exceeds the rank bound")

    t0 = time.perf_counter()
    worst = 0
    for i, j, k, l in itertools.product(range(spec.rank), repeat=4):
        worst = max(worst, abs(annulus_coefficient(spec, i, j, k, l)
                               - annulus_tree_count(spec, i, j, k, l)))
    report.add_deviation("annulus_counts", "annulus-coefficients",
                         float(worst), 0.5,
                         wall_time=time.perf_counter() - t0)
    report.add_deviation("induced_modules", "induced-module-decomposition",
                         float(induced_decomposition_defect(spec)), 0.5)


def run_suite(target: str, n_values=(0, 1, 2), tol_config=None, suites=None,
              seed: int = 0) -> VerificationReport:
    if tol_config is None:
        tol_config = DEFAULT_TOL
    chosen = list(SUITE_NAMES) if not suites else list(suites)
    unknown = [s for s in chosen if s not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}; "
                         f"choose from {SUITE_NAMES}")
    spec = resolve_target(target)
    n_values = tuple(int(n) for n in n_values)
    rng = np.random.default_rng(seed)

    report = VerificationReport(
        target=spec.name,
        options={"n_values": list(n_values), "seed": seed,
                 "atol": tol_config.atol, "suites": chosen})

    md = None
    if "category" in chosen:
        _category_section(spec, report, tol_config)
    if any(s in chosen for s in ("modular", "product", "invariants",
                                 "frobenius")):
        md = modular_datum(spec, tol_config)
    if "modular" in chosen:
        _modular_section(spec, report, tol_config, md)

    prod = None
    if "product" in chosen or "frobenius" in chosen:
        if spec.rank ** 2 > MAX_PRODUCT_RANK:
            for name in ("product", "frobenius"):
                if name in chosen:
                    report.add_skip(f"{name}_section", "product-coherence",
                                    "square exceeds the rank bound")
            chosen = [s for s in chosen if s not in ("product", "frobenius")]
        else:
            prod = _product_section(spec, report, tol_config, md) \
                if "product" in chosen else deligne_power(spec, 2)

    if "module" in chosen:
        _module_section(spec, report, tol_config, n_values, rng)

    if "frobenius" in chosen:
        t0 = time.perf_counter()
        frob = frobenius_report(
            spec, n_values=n_values, tol=max(tol_config.atol, 1e-8),
            prod=prod,
            expect_azumaya=(md.is_modular if md is not None else True))
        span = (time.perf_counter() - t0) / max(len(frob.checks), 1)
        for c in frob.checks:
            c.wall_time = span
        report.extend(frob)

    if "invariants" in chosen:
        _invariants_section(spec, report, tol_config, md)

    return report
