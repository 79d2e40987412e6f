"""The diagonal algebra in the square of a category: algebra and coalgebra
axioms, the duality pairing, the left-center idempotent, and the Azumaya
classification."""

import numpy as np
import pytest

from mtc.category import CategorySpec
from mtc.deligne import pair_morphism
from mtc.engine import direct_sum, identity, tensor, trace_formula
from mtc.errors import ShapeMismatch, XiNotZeroOne
from mtc.frobenius import (PermutationAlgebra, azumaya_defect,
                           frobenius_report, fusion_basis, fusion_cobasis,
                           left_center_labels, xi_formula)

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
                        prod, alg._m_first(i, j, k, alpha, 1) * (1.0 / lam),
                        fusion_basis(base, i, j, k, alpha) * lam))
                    de_terms.append(pair_morphism(
                        prod, alg._delta_first(i, j, k, alpha, 1) * lam,
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
