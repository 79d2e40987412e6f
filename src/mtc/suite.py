"""The full verification suite for one category.

Sections run in dependency order: the axioms of the input data, its
modular data, the square of the category, the module associator family on
the square, the canonical algebra, and the permutation invariants.
Sections can be selected individually; everything downstream of a failed
load is reported, not swallowed.  The module section is one table of
sweeps, each over the label tuples of one length: all of them while they
fit the sweep's budget, a seeded sample of that size otherwise.  Every
sweep takes its whole list at once and evaluates it as one braid-group
representation on fusion paths (``mtc.fusion_paths``); the per-tuple
functions of ``modcat`` are the single-tuple API and the tests' reference.
The sweeps of one tuple length share one ``WordTable``: their words, fusion
paths and generators, a generator with a unit letter being the identity.
Every sweep names its pairs of braids before any is compared, so the
first comparison of a length builds the paths and generators of all its
sweeps in one flush.  Check times are measured by the report, not here, so
a module check's time includes its length's flush when it is the first of
its length to be compared, and the first module check's time includes the
naming of every sweep's pairs.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from .builtins import BUILTIN_NAMES, get_category
from .category import (DEFAULT_TOL, CategorySpec, _square_report,
                       load_category, modular_datum, modular_group_relations,
                       validate_category, verlinde_fusion)
from .deligne import deligne_power
from .errors import RankOverflow, SnapFailure
from .frobenius import frobenius_report
from .fusion_paths import (PathStack, WordTable, _alpha_functor_pairs,
                           _associator_chain_pairs, _commutor_witness_pairs,
                           _left_module_pentagon_pairs,
                           _module_pentagon_pairs, _module_triangle_pairs,
                           _twist_extraction_pairs, _twist_mismatch_pairs,
                           _worst)
from .invariants import (annulus_defect, induced_decomposition_defect,
                         invariant_report, symmetric_group_check)
from .report import VerificationReport, exponents, max_dev

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
    return [tuple(row) for row in picks.tolist()]


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
    try:
        prod = deligne_power(spec, 2)
    except RankOverflow:
        report.add_skip("product_section", "product-coherence",
                        "square exceeds the rank bound")
        return
    sub = _square_report(prod, spec, tol_config)
    report.add_deviation("square_axioms", "product-coherence",
                         sub.max_deviation, tol_config.atol,
                         detail=f"{len(sub.checks)} checks on {prod.name}")
    if md.is_modular:
        md2 = modular_datum(prod, tol_config)
        dev = float(np.max(np.abs(md2.S - np.kron(md.S, md.S))))
        report.add_deviation("square_s_matrix", "product-s-factorization",
                             dev, tol_config.atol)


def _module_section(spec, report, tol_config, n_values, rng):
    # a label tuple is (m, x1, x2, ...): the module M = (m,) and objects
    # (x1, x2), ... of the square; every sweep takes its whole list at once
    n0, n_top = n_values[0], max(n_values)
    # name, statement, tuple length, sample budget, the namer of its (lhs,
    # rhs) pairs on a stack and its arguments after it
    sweeps = [
        ("module_pentagon", "module-pentagon", 7, _SWEEP_BUDGET,
         _module_pentagon_pairs, n_values),
        ("left_module_pentagon", "left-module-pentagon", 7, 64,
         _left_module_pentagon_pairs, n0),
        ("module_triangle", "module-unit-triangle", 3, _SWEEP_BUDGET,
         _module_triangle_pairs, n_values),
        ("twist_mismatch_functor", "twist-mismatch-equation", 5,
         _SWEEP_BUDGET, _twist_mismatch_pairs, n0),
        ("associator_from_chain", "associator-chain", 5, 64,
         _associator_chain_pairs, n_top),
        ("twist_extraction", "twist-from-mismatch", 1, _SWEEP_BUDGET,
         _twist_extraction_pairs),
        ("alpha_module_functor", "alpha-induction-functor", 7, 32,
         _alpha_functor_pairs),
        ("commutor_witness", "commutor-intertwiner", 5, 32,
         _commutor_witness_pairs),
    ]
    # every sweep names its pairs on a stack of its own tuples before the
    # first is compared, the stacks of one length on one word table, so
    # that the first comparison of a length builds the paths and
    # generators of all its sweeps in one flush; each stack is dropped
    # once its deviations are read
    tables, named = {}, []
    for name, tag, k, budget, pairs, *args in sweeps:
        if k not in tables:
            tables[k] = WordTable(spec, k)
        stack = PathStack(tables[k], _label_tuples(spec.rank, k, budget, rng))
        named.append((name, tag, stack, pairs(stack, *args)))
    named.reverse()
    while named:
        name, tag, stack, pairs = named.pop()
        report.add_deviation(
            name, tag, max_dev(*_worst(stack, pairs)), tol_config.atol,
            detail=f"n in {list(n_values)}" if name == "module_pentagon"
            else "")


def _invariants_section(spec, report, tol_config, md):
    if not md.is_modular:
        report.add_skip("permutation_invariants", "permutation-invariants",
                        "requires a nondegenerate S-matrix")
        return
    atol = tol_config.atol
    for name, perm, product in (
            ("transposition_invariant", (1, 0), "square"),
            ("three_cycle_invariant", (1, 2, 0), "triple product")):
        try:
            sub = invariant_report(spec, md, perm, atol)
        except RankOverflow:
            report.add_skip(name, "permutation-invariants",
                            f"{product} exceeds the rank bound")
            continue
        report.add_deviation(name, "permutation-invariants",
                             sub.max_deviation, atol)
    try:
        hom = symmetric_group_check(spec.rank, 3)
    except RankOverflow:
        report.add_skip("symmetric_group_action", "permutation-homomorphism",
                        "triple product exceeds the rank bound")
    else:
        report.add_deviation("symmetric_group_action",
                             "permutation-homomorphism", float(hom), 0.5)
    report.add_deviation("annulus_counts", "annulus-coefficients",
                         float(annulus_defect(spec)), 0.5)
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
    n_values = exponents(n_values)
    spec = resolve_target(target)
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

    if "product" in chosen:
        _product_section(spec, report, tol_config, md)

    if "module" in chosen:
        _module_section(spec, report, tol_config, n_values, rng)

    if "frobenius" in chosen:
        report.extend(frobenius_report(
            spec, n_values=n_values, tol=max(tol_config.atol, 1e-8),
            expect_azumaya=md.is_modular))

    if "invariants" in chosen:
        _invariants_section(spec, report, tol_config, md)

    return report
