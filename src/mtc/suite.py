"""The full verification suite for one category.

Sections run in dependency order: the axioms of the input data, its
modular data, the square of the category, the module associator family on
the square, the canonical algebra, and the permutation invariants.
Sections can be selected individually; everything downstream of a failed
load is reported, not swallowed.  The module section is one table of
sweeps, each over the label tuples of one length: all of them while they
fit the sweep's budget, a seeded sample of that size otherwise.  Check
times are measured by the report, not here.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from .builtins import BUILTIN_NAMES, get_category
from .category import (DEFAULT_TOL, CategorySpec, load_category,
                       modular_datum, modular_group_relations,
                       validate_category, verlinde_fusion)
from .deligne import MAX_PRODUCT_RANK, deligne_power
from .errors import SnapFailure
from .frobenius import frobenius_report
from .invariants import (annulus_coefficient, annulus_tree_count,
                         induced_decomposition_defect, invariant_report,
                         symmetric_group_check)
from .modcat import (alpha_functor_deviation, commutor_witness_deviation,
                     extract_twist, gamma_functor_deviation,
                     left_module_pentagon_deviation,
                     module_pentagon_deviation, module_triangle_deviation,
                     psi, psi_from_gamma, psi_shortcut_deviation)
from .report import VerificationReport, max_dev

SUITE_NAMES = ["category", "modular", "product", "module", "frobenius",
               "invariants"]

# module-layer sweeps enumerate r^k label tuples; above a sweep's budget a
# seeded sample of that size is used instead.  This is the budget of the
# sweeps with no smaller cap.
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


def _label_tuples(rank: int, k: int, budget: int, rng
                  ) -> list[tuple[int, ...]]:
    """All r^k label tuples, or a seeded sample of ``budget`` of them."""
    if rank ** k <= budget:
        return list(itertools.product(range(rank), repeat=k))
    picks = rng.integers(0, rank, size=(budget, k))
    return [tuple(int(x) for x in row) for row in picks]


def _modular_section(spec, report, tol_config, md):
    if not md.is_modular:
        report.add_skip("verlinde_fusion", "verlinde-formula",
                        "S-matrix is degenerate")
        report.add_skip("modular_group", "modular-group-relations",
                        "S-matrix is degenerate")
        return
    try:
        nval = verlinde_fusion(md, tol_config)
        dev = float(np.max(np.abs(nval - spec.ring.N)))
    except SnapFailure as exc:
        dev = 1.0
        report.add_deviation("verlinde_fusion", "verlinde-formula", dev,
                             tol_config.atol, detail=str(exc))
    else:
        report.add_deviation("verlinde_fusion", "verlinde-formula", dev, 0.5)
    report.extend(modular_group_relations(md, tol_config)[1])


def _product_section(spec, report, tol_config, md):
    prod = deligne_power(spec, 2)
    sub = validate_category(prod, tol_config)
    report.add_deviation("square_axioms", "product-coherence",
                         sub.max_deviation, tol_config.atol,
                         detail=f"{len(sub.checks)} checks on {prod.name}")
    if md is not None and md.is_modular:
        md2 = modular_datum(prod, tol_config)
        dev = float(np.max(np.abs(md2.S - np.kron(md.S, md.S))))
        report.add_deviation("square_s_matrix", "product-s-factorization",
                             dev, tol_config.atol)
    return prod


def _square_objects(labels):
    """Objects of the square, one per consecutive pair of base labels."""
    it = iter(labels)
    return [((x1,), (x2,)) for x1, x2 in zip(it, it)]


def _module_section(spec, report, tol_config, n_values, rng):
    # a label tuple is (m, x1, x2, ...): the module M = (m,) and objects
    # (x1, x2), ... of the square; every word below lives in the base
    # category
    n0, n_top = n_values[0], max(n_values)

    def on_square(dev):
        return lambda t: dev((t[0],), *_square_objects(t[1:]))

    def twist(t):
        blk = extract_twist(spec, t).blocks.get(t[0])
        return (abs(blk[0, 0] - complex(spec.theta[t[0]]))
                if blk is not None else 1.0)

    # name, statement, tuple length, sample budget, deviation of one tuple
    sweeps = [
        ("module_pentagon", "module-pentagon", 7, _SWEEP_BUDGET,
         on_square(lambda m, X, Y, Z: max_dev(*(
             module_pentagon_deviation(spec, m, X, Y, Z, n)
             for n in n_values)))),
        ("left_module_pentagon", "left-module-pentagon", 7, 64,
         on_square(lambda m, X, Y, Z: left_module_pentagon_deviation(
             spec, X, Y, Z, m, n0))),
        ("module_triangle", "module-unit-triangle", 3, _SWEEP_BUDGET,
         on_square(lambda m, X: max_dev(*(
             module_triangle_deviation(spec, m, X, n) for n in n_values)))),
        ("twist_mismatch_functor", "twist-mismatch-equation", 5,
         _SWEEP_BUDGET,
         on_square(lambda m, X, Y: max_dev(
             gamma_functor_deviation(spec, m, X, Y, n0),
             psi_shortcut_deviation(spec, m, X, Y)))),
        ("associator_from_chain", "associator-chain", 5, 64,
         on_square(lambda m, X, Y: psi(spec, m, X, Y, n_top).deviation(
             psi_from_gamma(spec, m, X, Y, n_top)))),
        ("twist_extraction", "twist-from-mismatch", 1, _SWEEP_BUDGET, twist),
        ("alpha_module_functor", "alpha-induction-functor", 7, 32,
         on_square(lambda m, X, Y, Z: max_dev(
             alpha_functor_deviation(spec, m, X, Y, Z, "+"),
             alpha_functor_deviation(spec, m, X, Y, Z, "-")))),
        ("commutor_witness", "commutor-intertwiner", 5, 32,
         lambda t: commutor_witness_deviation(spec, *((x,) for x in t))),
    ]
    for name, tag, k, budget, deviation in sweeps:
        worst = max_dev(*(deviation(t) for t in
                          _label_tuples(spec.rank, k, budget, rng)))
        report.add_deviation(
            name, tag, worst, tol_config.atol,
            detail=f"n in {list(n_values)}" if name == "module_pentagon"
            else "")


def _invariants_section(spec, report, tol_config, md):
    if md is None or not md.is_modular:
        report.add_skip("permutation_invariants", "permutation-invariants",
                        "requires a nondegenerate S-matrix")
        return
    atol = tol_config.atol
    sub = invariant_report(spec, md, (1, 0), atol)
    report.add_deviation("transposition_invariant", "permutation-invariants",
                         sub.max_deviation, atol)
    if spec.rank ** 3 <= MAX_PRODUCT_RANK:
        sub3 = invariant_report(spec, md, (1, 2, 0), atol)
        report.add_deviation("three_cycle_invariant",
                             "permutation-invariants", sub3.max_deviation,
                             atol)
        hom = symmetric_group_check(spec.rank, 3)
        report.add_deviation("symmetric_group_action",
                             "permutation-homomorphism", float(hom), 0.5)
    else:
        report.add_skip("three_cycle_invariant", "permutation-invariants",
                        "triple product exceeds the rank bound")

    worst = 0
    for i, j, k, l in itertools.product(range(spec.rank), repeat=4):
        worst = max(worst, abs(annulus_coefficient(spec, i, j, k, l)
                               - annulus_tree_count(spec, i, j, k, l)))
    report.add_deviation("annulus_counts", "annulus-coefficients",
                         float(worst), 0.5)
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
        report.extend(validate_category(spec, tol_config))
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
        report.extend(frobenius_report(
            spec, n_values=n_values, tol=max(tol_config.atol, 1e-8),
            prod=prod,
            expect_azumaya=(md.is_modular if md is not None else True)))

    if "invariants" in chosen:
        _invariants_section(spec, report, tol_config, md)

    return report
