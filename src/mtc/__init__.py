"""Skeletal modular tensor categories, their Deligne squares, permutation
module categories over them, and the induced torus partition functions."""

from .builtins import BUILTIN_NAMES, get_category
from .category import (CategorySpec, FusionRing, ModularDatum, ToleranceConfig,
                       load_category, modular_datum, modular_group_relations,
                       save_category, validate_category, verlinde_fusion)
from .deligne import deligne_pair, deligne_power, pair_morphism
from .errors import (CategoryFileError, MtcError, NotModular, NotPremodular,
                     RingAxiomError, SnapFailure)
from .frobenius import (PermutationAlgebra, frobenius_report,
                        left_center_labels, xi_formula)
from . import modcat  # noqa: F401 (the single-tuple module API, mtc.modcat)
from .invariants import (annulus_coefficient, annulus_tree_count,
                         check_invariant, parse_cycles, permutation_invariant,
                         transposition_invariant)
from .report import CheckResult, VerificationReport
from .suite import SUITE_NAMES, resolve_target, run_suite

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "CategoryFileError",
    "CategorySpec",
    "CheckResult",
    "FusionRing",
    "ModularDatum",
    "MtcError",
    "NotModular",
    "NotPremodular",
    "PermutationAlgebra",
    "RingAxiomError",
    "SUITE_NAMES",
    "SnapFailure",
    "ToleranceConfig",
    "VerificationReport",
    "annulus_coefficient",
    "annulus_tree_count",
    "check_invariant",
    "deligne_pair",
    "deligne_power",
    "frobenius_report",
    "get_category",
    "left_center_labels",
    "load_category",
    "modular_datum",
    "modular_group_relations",
    "pair_morphism",
    "parse_cycles",
    "permutation_invariant",
    "resolve_target",
    "run_suite",
    "save_category",
    "transposition_invariant",
    "validate_category",
    "verlinde_fusion",
    "xi_formula",
    "__version__",
]
