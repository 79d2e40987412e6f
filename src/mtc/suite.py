"""The full verification suite for one category.

Sections run in dependency order: the axioms of the input data, its
modular data, the square of the category, the module associator family on
the square, the canonical algebra, and the permutation invariants.
Sections can be selected individually; everything downstream of a failed
load is reported, not swallowed.  The product section reads the base
alone and builds no square: the square's F, R, twists and dimensions are
the Kronecker products of the base's, so each check of
``validate_category`` on it follows from two arrays of the base's
(``category._square_report``), the pentagon's and hexagons' sides those
that the category section computed, and its S-matrix from the base's
twists and dimensions and the product rules (``category._s_matrix``).  It
keeps the rank bound of the square, ``deligne.MAX_PRODUCT_RANK``, and is
skipped above it.  The module section certifies the paper's
module identities by two relations of the braid-group representation on
fusion paths (``mtc.fusion_paths``): ``braid_relations`` on the words of
four letters and ``twist_relation`` on those of three.  With the three
facts that hold by construction, they make that representation one of the
framed braid groupoid, and each identity of the section compares two equal
framed braids, so it holds on every label tuple.  That is exact only where
the relations hold exactly: a relation deviation eps allows each identity
a multiple of eps (``mtc.fusion_paths``).  Each relation runs on all its
words while they fit ``_WORD_BUDGET``, and on a seeded sample of that many
distinct words otherwise (``fusion_paths._words``), in stacks of at most
``_ROUND_ROWS`` words (``fusion_paths.sweep``); its ``detail`` states
which.  The eight sweeps of the identities themselves are
``fusion_paths.module_sweeps``, the tests' reference, and the per-tuple
functions of ``modcat`` remain the single-tuple API.  Check times are
measured by the report, not here.
"""

from __future__ import annotations

import os

import numpy as np

from .builtins import BUILTIN_NAMES, get_category
from .category import (DEFAULT_TOL, CategorySpec, _s_matrix, _square_report,
                       load_category, modular_datum, modular_group_relations,
                       validate_category, verlinde_fusion)
from .deligne import MAX_PRODUCT_RANK, _product_rules
from .errors import RankOverflow, SnapFailure
from .frobenius import frobenius_report
from .fusion_paths import (_words, braid_relation_pairs, sweep,
                           twist_relation_pairs)
from .invariants import (annulus_defect, induced_decomposition_defect,
                         invariant_report, symmetric_group_check)
from .report import VerificationReport, exponents, max_dev

SUITE_NAMES = ["category", "modular", "product", "module", "frobenius",
               "invariants"]

# the module relations enumerate r^k words; above this budget each draws a
# seeded sample of that many distinct words instead.  Every builtin,
# z_5(2) and z_11(1) (11^4 = 14,641 words) fit it.
_WORD_BUDGET = 1 << 14


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
    if spec.rank ** 2 > MAX_PRODUCT_RANK:
        report.add_skip("product_section", "product-coherence",
                        "square exceeds the rank bound")
        return
    sub = _square_report(spec, tol_config)
    report.add_deviation("square_axioms", "product-coherence",
                         sub.max_deviation, tol_config.atol,
                         detail=f"{len(sub.checks)} checks on {sub.target}")
    if md.is_modular:
        S = _s_matrix(_product_rules(spec.ring, spec.ring)[0],
                      np.kron(spec.theta, spec.theta),
                      np.kron(spec.dims, spec.dims))
        dev = float(np.max(np.abs(S - np.kron(md.S, md.S))))
        report.add_deviation("square_s_matrix", "product-s-factorization",
                             dev, tol_config.atol)


def _module_section(spec, report, tol_config, seed):
    # name, statement, word length and the namer of each relation's pairs
    rng = np.random.default_rng(seed)
    for name, tag, k, pairs in (
            ("braid_relations", "braid-relations", 4, braid_relation_pairs),
            ("twist_relation", "twist-relation", 3, twist_relation_pairs)):
        words, coverage = _words(spec.rank, k, _WORD_BUDGET, rng, seed)
        report.add_deviation(name, tag, max_dev(*sweep(spec, words, pairs)),
                             tol_config.atol, detail=coverage)


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
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be a non-negative Python int, not "
                         f"{seed!r}")
    spec = resolve_target(target)

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
        _module_section(spec, report, tol_config, seed)

    if "frobenius" in chosen:
        report.extend(frobenius_report(
            spec, n_values=n_values, tol=max(tol_config.atol, 1e-8),
            expect_azumaya=md.is_modular))

    if "invariants" in chosen:
        _invariants_section(spec, report, tol_config, md)

    return report
