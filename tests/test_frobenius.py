"""The diagonal algebra in the square of a category: algebra and coalgebra
axioms, the duality pairing, the left-center idempotent, and the Azumaya
classification; and the report's channel path against the whiskered maps
of ``PermutationAlgebra``."""

import inspect
import json
import math
import pathlib
import sys

import numpy as np
import pytest

import mtc.deligne as deligne
import mtc.engine as engine
import mtc.frobenius as frobenius
from conftest import random_rep_a4
from mtc import get_category
from mtc.builtins import BUILTIN_NAMES
from mtc.category import CategorySpec, _r_double, validate_category
from mtc.deligne import pair_morphism
from mtc.engine import direct_sum, identity, tensor, trace_formula
from mtc.errors import NotPremodular, ShapeMismatch, XiNotZeroOne
from mtc.frobenius import (PermutationAlgebra, _delta_first, _m_first,
                           azumaya_defect, frobenius_report, fusion_basis,
                           fusion_cobasis, left_center_labels, xi_formula)
from mtc.report import FAIL, PASS, max_dev
from mtc.suite import run_suite
from test_gauge import TARGETS, gauge
from test_nonunitary import FIXTURES

GOLDEN = pathlib.Path(__file__).parent / "golden"

_ALGEBRAS = {}


def algebra_of(spec_of, name):
    if name not in _ALGEBRAS:
        _ALGEBRAS[name] = PermutationAlgebra(spec_of(name))
    return _ALGEBRAS[name]


# ---------------------------------------------------------------------------
# summand bookkeeping


def test_summand_words(spec_of):
    """A = sum_i (dual i, i) with dual slots mirrored."""
    alg = algebra_of(spec_of, "ising")
    base = spec_of("ising")
    r = base.rank
    for i in range(r):
        ib = int(base.dual[i])
        assert alg.labels[i] == ib * r + i
        assert alg.dual_labels[i] == i * r + ib
    assert abs(alg.dim - base.global_dim()) < 1e-12


def test_quantum_dimension(spec_of):
    alg = algebra_of(spec_of, "fibonacci")
    qdim = sum(trace_formula(identity(alg.prod, w)) for w in alg.words)
    assert abs(qdim - spec_of("fibonacci").global_dim()) < 1e-12


def test_sum_morphism_guards(spec_of):
    """A and its dual are different sums, and a component must map a
    summand of the source to a summand of the target."""
    alg = algebra_of(spec_of, "z_3(1)")
    ident = alg.identity()
    assert alg.words != alg.dual_words
    with pytest.raises(ShapeMismatch):
        ident @ identity(alg.prod, alg.dual_words)
    for key, word in (((0, 0), alg.dual_words[1]), ((3, 0), alg.words[0]),
                      ((-1, 0), alg.words[2])):
        with pytest.raises(ShapeMismatch):
            direct_sum(alg.prod, alg.words, alg.words,
                       {key: identity(alg.prod, word)})


# ---------------------------------------------------------------------------
# algebra axioms, swept over n


@pytest.mark.parametrize("name", ["semion", "fibonacci", "ising", "z_3(1)",
                                  "rep_z2_symmetric"])
@pytest.mark.parametrize("n", [-1, 0, 2])
def test_algebra_axioms(spec_of, name, n):
    """Associativity, unit, coassociativity, counit, Frobenius,
    specialness, all at machine precision."""
    alg = algebra_of(spec_of, name)
    idA = alg.identity()
    eta, eps = alg.unit(), alg.counit()
    m = alg.multiplication(n)
    de = alg.comultiplication(n)
    assert (m @ tensor(m, idA)).deviation(m @ tensor(idA, m)) < 1e-12
    assert (m @ tensor(eta, idA)).deviation(idA) < 1e-12
    assert (m @ tensor(idA, eta)).deviation(idA) < 1e-12
    assert (tensor(de, idA) @ de).deviation(tensor(idA, de) @ de) < 1e-12
    assert (tensor(eps, idA) @ de).deviation(idA) < 1e-12
    mid = de @ m
    assert (tensor(idA, m) @ tensor(de, idA)).deviation(mid) < 1e-12
    assert (tensor(m, idA) @ tensor(idA, de)).deviation(mid) < 1e-12
    assert (m @ de).deviation(idA) < 1e-12


def test_structure_morphisms_are_built_once(spec_of):
    alg = algebra_of(spec_of, "semion")
    assert alg.multiplication(1) is alg.multiplication(1)


def test_counit_of_unit_is_global_dimension(spec_of):
    for name in ("semion", "ising"):
        alg = algebra_of(spec_of, name)
        val = (alg.counit() @ alg.unit()).blocks[0][0, 0]
        assert abs(val - spec_of(name).global_dim()) < 1e-12


# ---------------------------------------------------------------------------
# pairing


@pytest.mark.parametrize("name", ["semion", "fibonacci", "ising"])
def test_pairing_closed_form(spec_of, name):
    """|phi_i| = Dim/d_i and phi_i(n)/phi_i(0) = theta_i^(-2n)."""
    alg = algebra_of(spec_of, name)
    base = spec_of(name)
    phi0 = alg.pairing_scalars(0)
    assert np.max(np.abs(np.abs(phi0) * base.dims / alg.dim - 1.0)) < 1e-12
    for n in (-2, 1, 3):
        ratio = alg.pairing_scalars(n) / phi0
        want = base.theta.astype(np.complex128) ** (-2 * n)
        assert np.max(np.abs(ratio - want)) < 1e-11


def test_pairing_symmetry(spec_of):
    """The two closures of eps o m against the duality agree."""
    alg = algebra_of(spec_of, "fibonacci")
    em = alg.counit() @ alg.multiplication(0)
    idA, idAv = alg.identity(), alg.identity_dual()
    p1 = tensor(em, idAv) @ tensor(idA, alg.cup_A())
    p2 = tensor(idAv, em) @ tensor(alg.cup_A_twisted(), idA)
    assert p1.deviation(p2) < 1e-12


def test_coproduct_recovered_from_pairing(spec_of):
    """Delta = (m (x) Phi^-1) o (id_A (x) cup_A), exactly."""
    alg = algebra_of(spec_of, "ising")
    for n in (0, 1):
        de = alg.comultiplication(n)
        rebuilt = tensor(alg.multiplication(n),
                         alg.pairing_iso(n).inverse()) \
            @ tensor(alg.identity(), alg.cup_A())
        assert de.deviation(rebuilt) < 1e-12


def test_gauge_independence(spec_of, rng):
    """Rescaling the fusion basis by random phases leaves the structure
    maps untouched: each component of m^(1) and Delta^(1), rebuilt with
    f_alpha -> lam f_alpha and its dual vector scaled by 1 / lam, agrees
    with the algebra's."""
    alg = algebra_of(spec_of, "ising")
    base, prod, r = alg.base, alg.prod, alg.rank
    m, de = alg.multiplication(1), alg.comultiplication(1)
    m_comps, de_comps = {}, {}
    for i in range(r):
        for j in range(r):
            for k in base.ring.channels(i, j):
                m_terms, de_terms = [], []
                for alpha in range(base.ring.n(i, j, k)):
                    lam = np.exp(2j * np.pi * rng.random())
                    m_terms.append(pair_morphism(
                        prod, _m_first(base, i, j, k, alpha, 1) * (1.0 / lam),
                        fusion_basis(base, i, j, k, alpha) * lam))
                    de_terms.append(pair_morphism(
                        prod, _delta_first(base, i, j, k, alpha, 1) * lam,
                        fusion_cobasis(base, i, j, k, alpha) * (1.0 / lam)))
                weight = base.dims[i] * base.dims[j] / (alg.dim
                                                        * base.dims[k])
                m_comps[(k, i * r + j)] = sum(m_terms[1:], m_terms[0])
                de_comps[(i * r + j, k)] = \
                    sum(de_terms[1:], de_terms[0]) * weight
    assert direct_sum(prod, m.src, m.dst, m_comps).deviation(m) < 1e-12
    assert direct_sum(prod, de.src, de.dst, de_comps).deviation(de) < 1e-12


# ---------------------------------------------------------------------------
# twist intertwiner


@pytest.mark.parametrize("name", ["semion", "fibonacci", "ising"])
@pytest.mark.parametrize("n", [-2, 0, 1])
def test_sigma_intertwines_adjacent_exponents(spec_of, name, n):
    """sigma maps the n-th structure maps onto the (n+1)-st."""
    alg = algebra_of(spec_of, name)
    sig = alg.sigma()
    sig_inv = sig.inverse()
    lhs_m = sig @ alg.multiplication(n) @ tensor(sig_inv, sig_inv)
    assert alg.multiplication(n + 1).deviation(lhs_m) < 1e-12
    lhs_d = tensor(sig, sig) @ alg.comultiplication(n) @ sig_inv
    assert alg.comultiplication(n + 1).deviation(lhs_d) < 1e-12


# ---------------------------------------------------------------------------
# left center


@pytest.mark.parametrize("name", ["semion", "fibonacci", "ising", "z_3(1)",
                                  "rep_z2_symmetric"])
def test_center_idempotent_matches_formula(spec_of, name):
    """The projector built from m, Delta, sigma is idempotent with diagonal
    weights equal to the scalar formula, for every n."""
    alg = algebra_of(spec_of, name)
    for n in (-1, 0, 1):
        proj = alg.left_center_idempotent(n)
        assert (proj @ proj).deviation(proj) < 1e-12
        assert np.max(np.abs(alg.xi(n) - xi_formula(spec_of(name)))) < 1e-12


def test_braiding_only_projectors_fail(spec_of):
    """Single-crossing bubbles cannot reproduce the center weights: they
    give pure double twists instead.  Kept as a pinned negative control."""
    alg = algebra_of(spec_of, "semion")
    base = spec_of("semion")
    want = xi_formula(base)
    for over in (True, False):
        proj = alg.multiplication(0) @ alg.braiding(over) \
            @ alg.comultiplication(0)
        diag = np.array([proj.blocks[x][0, 0] for x in alg.labels])
        assert np.max(np.abs(diag - want)) > 0.5


@pytest.mark.parametrize("name", ["semion", "fibonacci", "ising", "z_3(1)"])
def test_modular_builtins_are_azumaya(spec_of, name):
    assert azumaya_defect(spec_of(name)) < 1e-12
    assert left_center_labels(spec_of(name)) == [0]


def test_symmetric_category_full_center(spec_of):
    """For the symmetric control every xi weight is 1 and nothing is
    projected out."""
    base = spec_of("rep_z2_symmetric")
    assert np.max(np.abs(xi_formula(base) - 1.0)) < 1e-12
    assert left_center_labels(base) == [0, 1]
    assert azumaya_defect(base) > 0.9


def test_intermediate_xi_rejected(spec_of):
    """Twist data placing a weight strictly between 0 and 1 is refused."""
    base = spec_of("rep_z2_symmetric")
    detuned = CategorySpec("detuned_z2", base.ring, base.dims,
                           [1.0, np.exp(1j * np.pi / 3)], dict(base.F),
                           dict(base.R))
    with pytest.raises(XiNotZeroOne):
        left_center_labels(detuned)


# ---------------------------------------------------------------------------
# report plumbing


def test_frobenius_report_passes(spec_of):
    rep = frobenius_report(spec_of("fibonacci"), n_values=(-1, 0, 1))
    assert rep.passed, rep.summary()
    names = [c.name for c in rep.checks]
    assert "twist_intertwiner" in names
    assert "azumaya" in names


def test_frobenius_report_control_mode(spec_of):
    rep = frobenius_report(spec_of("rep_z2_symmetric"), n_values=(0,),
                           expect_azumaya=False)
    assert rep.passed, rep.summary()
    control = [c for c in rep.checks if c.name == "azumaya_control"]
    assert len(control) == 1
    assert "defect" in control[0].detail


@pytest.mark.parametrize("target", [*BUILTIN_NAMES, "rep_a4_random"])
def test_frobenius_section_holds_bit_for_bit(target):
    """Every deviation of each builtin's frobenius section, and of
    ``frobenius_report`` at n = -1, 0 on the random Rep(A4) data, equals
    the one pinned in ``golden/frobenius_section.json`` exactly, so a
    refactor of the channel path cannot drift within the golden files'
    tolerance.  Rep(A4) has a channel of multiplicity 2, whose block
    entries are summed per key before the keys are added per root, an
    order the multiplicity-free builtins do not test.

    After a change that is meant to move these deviations, regenerate the
    file from the repository root with

        PYTHONPATH=src:tests python3 -c '
        import json
        from conftest import random_rep_a4
        from mtc.builtins import BUILTIN_NAMES
        from mtc.frobenius import frobenius_report
        from mtc.suite import run_suite
        reports = {t: run_suite(t, suites=["frobenius"])
                   for t in BUILTIN_NAMES}
        reports["rep_a4_random"] = frobenius_report(random_rep_a4(),
                                                    n_values=(-1, 0))
        print(json.dumps({t: {c.name: c.max_deviation for c in r.checks}
                          for t, r in reports.items()}, indent=1))' \
            > tests/golden/frobenius_section.json
    """
    pinned = json.loads((GOLDEN / "frobenius_section.json").read_text(
        "utf-8"))[target]
    report = frobenius_report(random_rep_a4(), n_values=(-1, 0)) \
        if target == "rep_a4_random" else run_suite(target,
                                                    suites=["frobenius"])
    assert {c.name: c.max_deviation for c in report.checks} == pinned


@pytest.mark.parametrize("n_values", [(), (True,), (0.0,)],
                         ids=["empty", "bool", "float"])
def test_frobenius_report_refuses_non_integer_n_values(spec_of, n_values):
    """No exponent, or one that is not a Python int, is refused as
    ``run_suite`` refuses it, not run as the int it equals and recorded
    as [n=True] or [n=0.0]."""
    with pytest.raises(ValueError, match="n_values must list Python ints"):
        frobenius_report(spec_of("fibonacci"), n_values=n_values)


def test_monodromy_reads_the_shared_double_braiding_table():
    """On z_3(1), whose labels 1 and 2 are each other's duals, the ribbon
    check and the frobenius section read one table of double braidings:
    after both, the spec holds it once, and D^1 at each channel (i, j, k)
    is its block at (dual(i), dual(j), dual(k))."""
    spec = get_category("z_3(1)")
    validate_category(spec)
    frobenius_report(spec)
    assert len(spec._cache["r_double"]) == 1
    D = _r_double(spec).table()
    dual = spec.dual.tolist()
    monodromy = frobenius._monodromy(spec, 1).table()
    assert list(monodromy) == list(D)
    for (i, j, k), block in monodromy.items():
        assert np.array_equal(block, D[dual[i], dual[j], dual[k]])


# ---------------------------------------------------------------------------
# the channel path against the whiskered maps


def reference_deviations(base, n_values) -> dict:
    """{check name: deviation} of every check of ``frobenius_report`` but
    the Azumaya one, each identity composed, tensored and compared on the
    direct sums of ``PermutationAlgebra`` by the engine."""
    alg = PermutationAlgebra(base)
    idA, idAv = alg.identity(), alg.identity_dual()
    eta, eps = alg.unit(), alg.counit()
    qdim = sum(trace_formula(identity(alg.prod, w)) for w in alg.words)
    out = {"algebra_dimension": abs(qdim - alg.dim)}
    for n in n_values:
        m, de = alg.multiplication(n), alg.comultiplication(n)
        sfx = f"[n={n}]"
        out[f"associativity{sfx}"] = \
            (m @ tensor(m, idA)).deviation(m @ tensor(idA, m))
        out[f"unit{sfx}"] = max_dev((m @ tensor(eta, idA)).deviation(idA),
                                    (m @ tensor(idA, eta)).deviation(idA))
        out[f"coassociativity{sfx}"] = \
            (tensor(de, idA) @ de).deviation(tensor(idA, de) @ de)
        out[f"counit{sfx}"] = max_dev(
            (tensor(eps, idA) @ de).deviation(idA),
            (tensor(idA, eps) @ de).deviation(idA))
        mid = de @ m
        out[f"frobenius{sfx}"] = max_dev(
            (tensor(idA, m) @ tensor(de, idA)).deviation(mid),
            (tensor(m, idA) @ tensor(idA, de)).deviation(mid))
        out[f"specialness{sfx}"] = max_dev(
            (m @ de).deviation(idA),
            abs((eps @ eta).blocks[0][0, 0] - alg.dim))
        em = eps @ m
        out[f"symmetry{sfx}"] = \
            (tensor(em, idAv) @ tensor(idA, alg.cup_A())).deviation(
                tensor(idAv, em) @ tensor(alg.cup_A_twisted(), idA))
        phi = alg.pairing_scalars(n)
        out[f"pairing_modulus{sfx}"] = float(np.max(np.abs(
            np.abs(phi) * np.abs(base.dims) / alg.dim - 1.0)))
        if n != 0:
            out[f"pairing_twist_ratio{sfx}"] = float(np.max(np.abs(
                phi / alg.pairing_scalars(0) - base.theta ** (-2 * n))))
        out[f"coproduct_from_pairing{sfx}"] = de.deviation(
            tensor(m, alg.pairing_iso(n).inverse())
            @ tensor(idA, alg.cup_A()))
        proj = alg.left_center_idempotent(n)
        out[f"center_idempotent{sfx}"] = (proj @ proj).deviation(proj)
        out[f"center_weights{sfx}"] = float(np.max(np.abs(
            alg.xi(n) - xi_formula(base))))
    sig = alg.sigma()
    sig_inv = sig.inverse()
    n0 = n_values[0]
    out["twist_intertwiner"] = max_dev(
        alg.multiplication(n0 + 1).deviation(
            sig @ alg.multiplication(n0) @ tensor(sig_inv, sig_inv)),
        alg.comultiplication(n0 + 1).deviation(
            tensor(sig, sig) @ alg.comultiplication(n0) @ sig_inv))
    return out


# fixture -> (spec builder, exponents).  The builtins and both non-unitary
# fixtures sit in a real gauge, where F, its inverse and its transpose
# agree to rounding; only the gauged and the random data would catch an
# F-move in the wrong convention.
REFERENCE_CASES = {
    **{name: (lambda name=name: get_category(name), (-2, -1, 0, 1, 2))
       for name in BUILTIN_NAMES},
    **{name: (build, (-2, -1, 0, 1, 2)) for name, build in FIXTURES.items()},
    **{f"{name}-gauged": (lambda name=name: gauge(TARGETS[name](), seed=7),
                          (-2, -1, 0, 1, 2)) for name in TARGETS},
    # multiplicity 2 and incoherent data, so deviations from 1 to 1e5
    "rep_a4_random": (random_rep_a4, (-1, 0)),
}


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_channel_checks_match_the_whiskered_reference(case):
    """Every check's deviation from the channel coefficients equals the one
    the direct sums give, check by check and in order: to 1e-13 where the
    identity holds, and to 1e-10 relative where the data break it."""
    build, n_values = REFERENCE_CASES[case]
    base = build()
    want = reference_deviations(base, n_values)
    got = {c.name: c.max_deviation for c in frobenius_report(
        base, n_values=n_values).checks[:-1]}
    assert list(got) == list(want)
    far = {name: (want[name], dev) for name, dev in got.items()
           if not abs(dev - want[name]) <= 1e-13 + 1e-10 * want[name]}
    assert not far, f"reference -> channels: {far}"


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_channel_tables_equal_the_diagrams(case):
    """Column alpha of the block of m^(n) at each channel (i, j, k) is the
    block of ``_m_first(i, j, k, alpha, n)`` at dual(k), and that of
    Delta^(n) is the block of ``_delta_first`` weighted by d_i d_j / (Dim
    d_k), for n = -1, 0, 1 and every channel: the tables follow from the
    n = 0 diagrams by the interchange law, laid out on the R keys."""
    base = REFERENCE_CASES[case][0]()
    d, dim, dual = base.dims, base.global_dim(), base.dual
    for n in (-1, 0, 1):
        for table, first, weight in (
                (frobenius._m_channels, _m_first, lambda i, j, k: 1.0),
                (frobenius._delta_channels, _delta_first,
                 lambda i, j, k: d[i] * d[j] / (dim * d[k]))):
            blocks = table(base, n).table()
            assert len(blocks) == np.count_nonzero(base.ring.N)
            for (i, j, k), block in blocks.items():
                want = np.stack([
                    weight(i, j, k) * first(base, i, j, k, alpha, n).blocks[
                        int(dual[k])].ravel()
                    for alpha in range(base.ring.n(i, j, k))], axis=1)
                np.testing.assert_allclose(
                    block, want, rtol=1e-13,
                    atol=1e-13 * max(1.0, np.abs(want).max()),
                    err_msg=f"{table.__name__}({n}) at {(i, j, k)}")


@pytest.mark.parametrize("target", BUILTIN_NAMES)
def test_frobenius_section_builds_no_direct_sum(monkeypatch, target):
    """The report runs on channel coefficients read from F and R: with
    every method of ``PermutationAlgebra``, ``pair_morphism``, every
    function of ``mtc.engine`` wherever a module of ``mtc`` holds it, and
    ``Morphism.__init__`` made to raise, the frobenius section still
    passes with its golden checks."""
    def refuse(*args, **kwargs):
        raise AssertionError("the frobenius section built a direct sum or "
                             "called the engine")

    for name, value in vars(PermutationAlgebra).items():
        if callable(value):
            monkeypatch.setattr(PermutationAlgebra, name, refuse)
    for module in (deligne, frobenius):
        monkeypatch.setattr(module, "pair_morphism", refuse)
    for module in [m for name, m in sys.modules.items()
                   if name == "mtc" or name.startswith("mtc.")]:
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value.__module__ == "mtc.engine":
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(engine.Morphism, "__init__", refuse)
    report = run_suite(target, suites=["frobenius"])
    golden = json.loads((GOLDEN / f"{target}.json").read_text("utf-8"))
    names = [c["name"] for c in golden["checks"]]
    first = names.index("algebra_dimension")
    last = next(i for i, x in enumerate(names) if x.startswith("azumaya"))
    assert [c.name for c in report.checks] == names[first:last + 1]
    assert report.passed


def test_a_nan_braiding_fails_every_check_that_reads_it(spec_of):
    """fibonacci with R[tau, tau; tau] = NaN or inf: every channel of m and
    Delta on two taus reads it, through the braiding of its diagram or its
    monodromy, so every check of them fails with a NaN deviation.  Only the
    unit and counit checks, which read the unit channels, and the checks of
    dims and twists alone pass.  An infinite entry of F[tau, tau, tau; tau]
    also reaches the unit channels, through the scale of tau's cap, so
    only the checks of dims and twists pass."""
    fib = spec_of("fibonacci")
    alone = ("algebra_dimension", "azumaya")
    for table, key, block, passing in (
            ("R", (1, 1, 1), [[np.nan]], alone + ("unit", "counit")),
            ("R", (1, 1, 1), [[np.inf]], alone + ("unit", "counit")),
            ("F", (1, 1, 1, 1), fib.F[1, 1, 1, 1] + [[np.inf, 0], [0, 0]],
             alone)):
        F, R = dict(fib.F), dict(fib.R)
        (F if table == "F" else R)[key] = np.array(block)
        spec = CategorySpec("fibonacci-non-finite", fib.ring, fib.dims,
                            fib.theta, F, R)
        with np.errstate(invalid="ignore"):
            checks = frobenius_report(spec, n_values=(0, 1, 2)).checks
        for check in checks:
            if check.name.split("[")[0] in passing:
                assert check.status == PASS, (table, block, check.name)
            else:
                assert check.status == FAIL, (table, block, check.name)
                assert math.isnan(check.max_deviation), (table, block,
                                                          check.name)


def test_a_zero_pairing_is_a_located_error(spec_of):
    """With theta_1 = 1 on semion's F and R the twisted loop of A closes to
    1 - 1 = 0, so Phi^(0) vanishes on every summand.  Inverting it for
    ``coproduct_from_pairing`` raises NotPremodular naming the first label,
    with no division by zero before it."""
    semion = spec_of("semion")
    spec = CategorySpec("semion-untwisted", semion.ring, semion.dims,
                        [1.0, 1.0], dict(semion.F), dict(semion.R))
    with pytest.raises(NotPremodular,
                       match=r"Phi\^\(0\) is zero on the summand \(0, 0\) "
                             r"of A, label 0$"):
        frobenius_report(spec, n_values=(0, 1))
