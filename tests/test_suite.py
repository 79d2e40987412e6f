"""The suite runner: measured check times, the coverage of the module
section's relations and of the capped module sweeps, and the goldens."""

import itertools
import json
import pathlib
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import mtc.engine as engine
import mtc.modcat as modcat
import mtc.suite as suite
from mtc import fusion_paths
from mtc.builtins import BUILTIN_NAMES
from mtc.category import CategorySpec, FusionRing, save_category
from mtc.fusion_paths import module_sweeps
from mtc.report import VerificationReport
from mtc.suite import run_suite

from conftest import MODULAR
from test_nonunitary import FIXTURES

GOLDEN = pathlib.Path(__file__).parent / "golden"
ROOT = pathlib.Path(__file__).resolve().parent.parent

# far below every check's tolerance, and above the last-bit differences
# that BLAS builds on different machines can leave in a deviation
GOLDEN_DEVIATION_ATOL = 1e-13


def test_report_times_each_check_since_the_previous():
    rep = VerificationReport("clock")
    time.sleep(0.1)
    rep.add_deviation("slow", "t", 0.0, 1.0)
    rep.add_skip("fast", "t", "nothing to do")
    sub = VerificationReport("sub")
    sub.add_deviation("inner", "t", 0.0, 1.0)
    kept = sub.checks[0].wall_time
    time.sleep(0.1)
    rep.extend(sub)
    rep.add_deviation("after", "t", 0.0, 1.0)
    slow, fast, inner, after = (c.wall_time for c in rep.checks)
    assert slow >= 0.1 > fast
    assert inner == kept
    assert after < 0.1


def test_suite_check_times_are_measured():
    """Each check carries its own time, not a share of its section's."""
    t0 = time.perf_counter()
    report = run_suite("fibonacci", suites=["category", "frobenius"])
    elapsed = time.perf_counter() - t0
    times = {c.name: c.wall_time for c in report.checks}
    assert len(times) == len(report.checks)
    assert min(times.values()) >= 0.0
    assert sum(times.values()) <= elapsed
    assert times["pentagon"] > times["ring_axioms"]
    frob = [c.wall_time for c in report.checks
            if c.theorem_tag.startswith(("algebra", "coalgebra"))]
    assert len(set(frob)) > 1


# the capped sweeps of ``module_sweeps``, by check name and the function
# that names their pairs on a stack in ``fusion_paths``
CAPPED = {"left_module_pentagon": "left_module_pentagon_pairs",
          "associator_from_chain": "associator_chain_pairs",
          "alpha_module_functor": "alpha_functor_pairs",
          "commutor_witness": "commutor_witness_pairs"}


def test_capped_sweeps_reach_every_module(monkeypatch):
    """On a rank-2 category the sampled or enumerated tuples of each capped
    sweep include both modules M = 0 and M = 1."""
    seen = {}

    def record(name):
        def pairs(stack, *args):
            seen.setdefault(name, set()).update(
                (int(m),) for m in stack.labels[:, 0])
            return []
        return pairs

    for name, function in CAPPED.items():
        monkeypatch.setattr(fusion_paths, function, record(name))
    report = module_sweeps(suite.get_category("fibonacci"))
    assert report.passed
    assert seen == {name: {(0,), (1,)} for name in CAPPED}


MODULE_CHECKS = ["module_pentagon", "left_module_pentagon", "module_triangle",
                 "twist_mismatch_functor", "associator_from_chain",
                 "twist_extraction", "alpha_module_functor",
                 "commutor_witness"]


@pytest.mark.parametrize("target", BUILTIN_NAMES)
def test_module_sweeps_make_no_per_tuple_call(monkeypatch, target):
    """Every module relation and sweep runs on fusion paths, and their
    local blocks come from the F- and R-tables: with the per-tuple
    structures of ``modcat``, which its deviation functions all build on,
    and the engine's split transforms and left whiskering made to raise,
    the module section and ``module_sweeps`` still run and pass."""
    def refuse(*args, **kwargs):
        raise AssertionError("a module sweep called modcat per tuple or "
                             "whiskered through the engine")

    for name in ("psi", "psi_hat", "gamma", "alpha_induction"):
        monkeypatch.setattr(modcat, name, refuse)
    for name in ("split_transform", "_whisker_left"):
        monkeypatch.setattr(engine, name, refuse)
    report = run_suite(target, suites=["module"])
    assert [c.name for c in report.checks] == ["braid_relations",
                                               "twist_relation"]
    assert report.passed
    report = module_sweeps(suite.get_category(target))
    assert [c.name for c in report.checks] == MODULE_CHECKS
    assert report.passed


# The coverage of the module relations: the words of each, four letters for
# braid_relations and three for twist_relation, all of them up to 2^14.
COVERAGE = {
    "ising": ("exhaustive 81/81 words", "exhaustive 27/27 words"),
    "z_5(2)": ("exhaustive 625/625 words", "exhaustive 125/125 words"),
    "z_11(1)": ("exhaustive 14641/14641 words",
                "exhaustive 1331/1331 words"),
    "z_13(1)": ("sampled 16384/28561 words seed=3",
                "exhaustive 2197/2197 words"),
}


@pytest.mark.parametrize("target", COVERAGE)
def test_module_relations_state_their_coverage(target):
    """Each relation's detail states how many of its words it ran on; above
    the budget, that is a sample of distinct words, seeded by the suite's
    seed."""
    report = run_suite(target, suites=["module"], seed=3)
    assert [(c.name, c.status, c.detail) for c in report.checks] == [
        ("braid_relations", "pass", COVERAGE[target][0]),
        ("twist_relation", "pass", COVERAGE[target][1])]


def test_sampled_module_reports_are_deterministic(monkeypatch):
    """Above the word budget the module section samples its words with the
    suite's seed: two runs on z_13(1) with one seed read the same words and
    serialize to the same JSON, and another seed reads other words."""
    drawn = []

    def recorded(spec, words, pairs, *args):
        if pairs is fusion_paths.braid_relation_pairs:
            drawn.append(words)
        return fusion_paths.sweep(spec, words, pairs, *args)

    monkeypatch.setattr(suite, "sweep", recorded)
    a, b, c = (run_suite("z_13(1)", suites=["module"], seed=seed).to_json()
               for seed in (5, 5, 6))
    assert a == b != c
    assert drawn[0] == drawn[1] != drawn[2]


def _words(rank, k, seed):
    """The words of a relation, drawn as the suite draws them."""
    return fusion_paths._words(rank, k, suite._WORD_BUDGET,
                               np.random.default_rng(seed), seed)


@pytest.mark.parametrize("rank, k", [(3, 4), (13, 4), (30, 3)])
def test_relation_words_are_distinct(rank, k):
    """The words of a relation: every word in lexicographic order while
    they fit ``_WORD_BUDGET``, otherwise that many distinct words in that
    order, the same for the same seed and not for another, each a tuple of
    Python ints as ``PathStack`` requires."""
    words, _ = _words(rank, k, 1)
    if rank ** k <= suite._WORD_BUDGET:
        assert words == list(itertools.product(range(rank), repeat=k))
        return
    assert len(words) == suite._WORD_BUDGET
    assert words == sorted(set(words))
    assert all(type(x) is int and 0 <= x < rank for w in words for x in w)
    assert all(type(w) is tuple and len(w) == k for w in words)
    again, _ = _words(rank, k, 1)
    other, _ = _words(rank, k, 2)
    assert again == words != other


# The coverage that ``module_sweeps`` states for each sweep on ising: its
# budget is 256, or 64 or 32 for the capped sweeps, and its tuples are
# drawn in the order of the sweeps from one generator seeded with 0.
ISING_COVERAGE = {
    "module_pentagon": "n in [0, 1, 2]; sampled 256/2187 words seed=0",
    "left_module_pentagon": "sampled 64/2187 words seed=0",
    "module_triangle": "exhaustive 27/27 words",
    "twist_mismatch_functor": "exhaustive 243/243 words",
    "associator_from_chain": "sampled 64/243 words seed=0",
    "twist_extraction": "exhaustive 3/3 words",
    "alpha_module_functor": "sampled 32/2187 words seed=0",
    "commutor_witness": "sampled 32/243 words seed=0",
}


def test_module_sweeps_state_their_coverage(monkeypatch):
    """Each sweep runs on distinct tuples and its detail says how many, as
    the relations' details do; the module pentagon's also lists its
    exponents."""
    drawn, sweep = [], fusion_paths.sweep

    def recorded(spec, tuples, pairs, *args):
        drawn.append(tuples)
        return sweep(spec, tuples, pairs, *args)

    monkeypatch.setattr(fusion_paths, "sweep", recorded)
    report = module_sweeps(suite.get_category("ising"))
    assert {c.name: c.detail for c in report.checks} == ISING_COVERAGE
    assert [len(set(tuples)) for tuples in drawn] == \
        [256, 64, 27, 243, 64, 3, 32, 32]


@pytest.mark.parametrize("target", BUILTIN_NAMES)
def test_report_matches_golden(target):
    """The JSON report of each builtin equals its committed golden file:
    names, statuses, tolerances, details, order, options and summary
    exactly, and each max_deviation to GOLDEN_DEVIATION_ATOL.

    After a change that is meant to alter a report, regenerate its file
    from the repository root with

        PYTHONPATH=src python3 -m mtc.cli check <target> --json \\
            > "tests/golden/<target>.json"
    """
    _assert_matches_golden(run_suite(target), target)


@pytest.mark.parametrize("build", FIXTURES.values(), ids=FIXTURES)
def test_non_unitary_report_matches_golden(build, tmp_path):
    """The JSON report of each non-unitary fixture's saved file equals its
    committed golden file, compared as ``test_report_matches_golden``
    compares the builtins'.

    After a change that is meant to alter a report, regenerate its file
    from the repository root with

        PYTHONPATH=src:tests python3 -c '
        from test_nonunitary import FIXTURES
        from mtc.category import save_category
        save_category(FIXTURES["<name>"](), "/tmp/<name>.json")'
        PYTHONPATH=src python3 -m mtc.cli check /tmp/<name>.json --json \\
            > "tests/golden/<name>.json"
    """
    spec = build()
    path = tmp_path / f"{spec.name}.json"
    save_category(spec, path)
    _assert_matches_golden(run_suite(str(path)), spec.name)


def _assert_matches_golden(report, name):
    """The report equals ``golden/<name>.json``: every field exactly but
    each max_deviation, which is held to GOLDEN_DEVIATION_ATOL."""
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    got = json.loads(report.to_json())
    want_devs = [c.pop("max_deviation") for c in want["checks"]]
    got_devs = [c.pop("max_deviation") for c in got["checks"]]
    assert got == want
    moved = {c["name"]: (w, g) for c, w, g in
             zip(got["checks"], want_devs, got_devs)
             if not abs(g - w) <= GOLDEN_DEVIATION_ATOL}
    assert not moved, f"golden -> now: {moved}"


@pytest.mark.parametrize("target", ["z_13(1)", "z_25(1)"])
def test_invariants_above_the_product_bound_skip_the_transposition(target):
    """z_13(1) and z_25(1) have rank^2 > 128: the transposition invariant,
    which needs the square, is skipped with its reason like the three-cycle
    one, and the annulus and induced-module checks still run, at rank 25
    over 390,625 quadruples and 625 pairs (i, j)."""
    report = run_suite(target, suites=["invariants"])
    checks = {c.name: c for c in report.checks}
    assert checks["transposition_invariant"].status == "skipped"
    assert checks["transposition_invariant"].detail == \
        "square exceeds the rank bound"
    assert checks["three_cycle_invariant"].status == "skipped"
    assert checks["annulus_counts"].status == "pass"
    assert checks["induced_modules"].status == "pass"


def test_only_the_product_section_skips_above_the_product_bound():
    """z_13(1) has rank 13 and 13^2 > 128: the product section, which needs
    the square, is skipped with its reason, while the frobenius section,
    which reads only the base, runs all 38 of its checks and passes."""
    report = run_suite("z_13(1)", suites=["product", "frobenius"])
    product, *frobenius = report.checks
    assert (product.name, product.status, product.detail) == (
        "product_section", "skipped", "square exceeds the rank bound")
    assert len(frobenius) == 38
    assert all(c.status == "pass" for c in frobenius)


def test_invariants_above_the_triple_bound_skip_the_homomorphism():
    """z_7(1) has rank 7 and 7^3 > 128 >= 7^2: the transposition invariant
    runs, and the three-cycle invariant and the homomorphism check, which
    need the triple product, are each listed as skipped with the reason."""
    checks = {c.name: c for c in run_suite(
        "z_7(1)", suites=["invariants"]).checks}
    assert checks["transposition_invariant"].status == "pass"
    for name in ("three_cycle_invariant", "symmetric_group_action"):
        assert (checks[name].status, checks[name].detail) == (
            "skipped", "triple product exceeds the rank bound")


def test_empty_n_values_are_refused(monkeypatch):
    """An empty n_values is refused before the target is even resolved."""
    monkeypatch.setattr(suite, "resolve_target", None)
    with pytest.raises(ValueError, match="n_values"):
        run_suite("semion", n_values=())


@pytest.mark.parametrize("n_values", [(1.7,), (True,), (np.int64(2),)],
                         ids=["float", "bool", "int64"])
def test_non_integer_n_values_are_refused(monkeypatch, n_values):
    """A module level that is not a Python int is refused before the target
    is resolved, rather than run as int(n) (1.7 as 1) and recorded so."""
    monkeypatch.setattr(suite, "resolve_target", None)
    with pytest.raises(ValueError, match="n_values"):
        run_suite("semion", n_values=n_values, suites=["module"])


@pytest.mark.parametrize("seed", [-1, 1.0, True, np.int64(3)],
                         ids=["negative", "float", "bool", "int64"])
def test_bad_seeds_are_refused(monkeypatch, seed):
    """A seed that is not a non-negative Python int is refused before the
    target is resolved, with a message naming the seed, not numpy's bare
    "expected non-negative integer" from the module section."""
    monkeypatch.setattr(suite, "resolve_target", None)
    with pytest.raises(ValueError, match="seed must be a non-negative "
                                         "Python int"):
        run_suite("semion", seed=seed, suites=["module"])


def test_suite_leaves_numpy_ma_unimported():
    """A bare ``np.unique`` imports ``numpy.ma`` (about 10 ms and 0.9 MB
    per process): the whole suite on every builtin runs without it.  A
    fresh interpreter, since any test may have imported it here."""
    script = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
              "from mtc.builtins import BUILTIN_NAMES\n"
              "from mtc.suite import run_suite\n"
              "for name in BUILTIN_NAMES:\n"
              "    run_suite(name)\n"
              "    assert 'numpy.ma' not in sys.modules, name\n")
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", MODULAR)
def test_negative_exponents_pass_the_module_section(name):
    """The module section does not depend on ``n_values``: at n = -2 and -1
    its rows equal those at the default, and pass.  So do the sweeps at
    those n; the associator chain runs at max(n_values) = -1, where the
    gamma chain steps psi^(0) back once rather than leaving it at
    psi^(0)."""
    rows = [[c.to_record() for c in run_suite(
        name, n_values=n_values, suites=["module"]).checks]
        for n_values in ((-2, -1), (0, 1, 2))]
    assert rows[0] == rows[1]
    assert all(row["status"] == "pass" for row in rows[0])
    report = module_sweeps(suite.get_category(name), n_values=(-2, -1))
    assert report.passed, [(c.name, c.max_deviation) for c in report.checks
                           if c.status == "fail"]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_the_ring_caches_only_its_keys_and_bases(monkeypatch, name):
    """After every section, the ring's cache holds one table of fusion
    vertices (``r_keys``), one of two-vertex paths and F-keys
    (``f_keys``) and the tree bases, and no second table of either."""
    specs, resolve = [], suite.resolve_target
    monkeypatch.setattr(suite, "resolve_target", lambda target: (
        specs.append(resolve(target)), specs[-1])[1])
    run_suite(name)
    assert sorted(specs[0].ring._cache) == ["f_keys", "r_keys", "roots",
                                            "trees"]


@pytest.mark.parametrize("target", [*BUILTIN_NAMES, "z_5(2)", "z_11(1)"])
def test_the_suite_builds_no_square(monkeypatch, target):
    """``run_suite`` builds one CategorySpec and one FusionRing, the base's:
    the product section derives the square's checks from the base's arrays
    and builds no square, and no other section builds a spec or a ring."""
    built = []
    for cls in (CategorySpec, FusionRing):
        def counting(self, *args, __init__=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            __init__(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    report = run_suite(target)
    assert report.passed
    assert "square_axioms" in {c.name for c in report.checks}
    assert sorted(built) == ["CategorySpec", "FusionRing"]


def test_the_product_section_of_z_11_stays_small():
    """The product section of z_11(1), whose square has rank 121, allocates
    at most 100 MB at its peak under ``tracemalloc`` (about 640 MB when it
    built the square) and passes every check."""
    tracemalloc.start()
    try:
        report = run_suite("z_11(1)", suites=["product"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(c.name, c.status) for c in report.checks] == [
        ("square_axioms", "pass"), ("square_s_matrix", "pass")]
    assert peak < 100e6, peak
