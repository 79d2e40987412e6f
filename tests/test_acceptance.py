"""Acceptance gate: one test per advertised guarantee, each printing a
single pass/fail line with the measured deviation and its tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
whole module finishes in well under two minutes.
"""

import itertools

import numpy as np

from mtc import modular_datum, validate_category, verlinde_fusion
from mtc.builtins import BUILTIN_NAMES
from mtc.category import modular_group_relations
from mtc.engine import tensor
from mtc.frobenius import PermutationAlgebra, frobenius_report, xi_formula
from mtc.invariants import (annulus_coefficient, annulus_tree_count,
                            symmetric_group_check, transposition_invariant)
from mtc.modcat import (commutor_witness_deviation, extract_twist,
                        gamma_functor_deviation,
                        left_module_pentagon_deviation,
                        module_pentagon_deviation)
from mtc.suite import run_suite

from conftest import MODULAR

def emit(num, label, dev, tol, ok):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{label}]: {status} "
          f"(max deviation {dev:.3e}, tolerance {tol:.1e})")
    assert ok, f"criterion {num:02d} failed: {dev:.3e} > {tol:.1e}"


def pair_tuples(rank, k):
    return itertools.product(range(rank), repeat=k)


# ---------------------------------------------------------------------------


def test_criterion_01_coherence(spec_of):
    """Pentagon, both hexagons, ribbon compatibility on every builtin."""
    worst = 0.0
    ok = True
    for name in BUILTIN_NAMES:
        rep = validate_category(spec_of(name))
        worst = max(worst, rep.max_deviation)
        ok = ok and rep.passed
    emit(1, "coherence", worst, 1e-9, ok and worst < 1e-9)


def test_criterion_02_verlinde_round_trip(spec_of):
    """Fusion rules recovered from S, exact after integer snapping."""
    worst = 0
    for name in MODULAR:
        s = spec_of(name)
        N = verlinde_fusion(modular_datum(s))
        worst = max(worst, int(np.max(np.abs(N - s.ring.N))))
    emit(2, "verlinde round trip", float(worst), 1e-6, worst == 0)


def test_criterion_03_modular_group_relations(spec_of):
    """Defining relations of the modular group with unimodular anomaly."""
    worst = 0.0
    ok = True
    for name in MODULAR:
        gamma, rep = modular_group_relations(modular_datum(spec_of(name)))
        worst = max(worst, rep.max_deviation, abs(abs(gamma) - 1.0))
        ok = ok and rep.passed
    emit(3, "modular group relations", worst, 1e-9, ok and worst < 1e-9)


def test_criterion_04_module_pentagon(spec_of):
    """Right and left mixed pentagons over the full simple sweep,
    exponents -2..2, on semion, fibonacci, ising."""
    worst = 0.0
    for name in ("semion", "fibonacci", "ising"):
        s = spec_of(name)
        r = s.rank
        for m, x1, x2, y1, y2, z1, z2 in pair_tuples(r, 7):
            M = (m,)
            X, Y, Z = ((x1,), (x2,)), ((y1,), (y2,)), ((z1,), (z2,))
            for n in (-2, -1, 0, 1, 2):
                worst = max(
                    worst,
                    module_pentagon_deviation(s, M, X, Y, Z, n),
                    left_module_pentagon_deviation(s, X, Y, Z, M, n))
    emit(4, "module pentagon", worst, 1e-9, worst < 1e-9)


def test_criterion_05_twist_module_functor(spec_of):
    """The twist mismatch intertwines consecutive associators, and the
    regular-module extraction returns every simple twist."""
    worst = 0.0
    for name in ("semion", "fibonacci", "ising"):
        s = spec_of(name)
        r = s.rank
        for m, x1, x2, y1, y2 in pair_tuples(r, 5):
            for n in (-2, -1, 0, 1):
                worst = max(worst, gamma_functor_deviation(
                    s, (m,), ((x1,), (x2,)), ((y1,), (y2,)), n))
    ok = worst < 1e-9
    round_trip = 0.0
    for name in BUILTIN_NAMES:
        s = spec_of(name)
        for u in range(s.rank):
            ext = extract_twist(s, (u,))
            round_trip = max(round_trip,
                             abs(ext.blocks[u][0, 0] - s.theta[u]))
    ok = ok and round_trip < 1e-12
    emit(5, "twist-module functor", max(worst, round_trip), 1e-9, ok)


def test_criterion_06_commutor_witness(spec_of):
    """The module commutor intertwines the two braided inductions for all
    simple five-tuples on fibonacci and ising."""
    worst = 0.0
    for name in ("fibonacci", "ising"):
        s = spec_of(name)
        r = s.rank
        for u, v, m, up, vp in pair_tuples(r, 5):
            worst = max(worst, commutor_witness_deviation(
                s, (m,), (u,), (v,), (up,), (vp,)))
    emit(6, "commutor witness", worst, 1e-9, worst < 1e-9)


def test_criterion_07_frobenius_suite(spec_of):
    """All algebra axioms for exponents -2..2 on fibonacci and semion,
    plus the twist intertwiner on every adjacent pair."""
    worst = 0.0
    ok = True
    axioms = ("associativity", "unit", "coassociativity", "counit",
              "frobenius", "specialness", "symmetry")
    for name in ("fibonacci", "semion"):
        rep = frobenius_report(spec_of(name), n_values=(-2, -1, 0, 1, 2),
                               tol=1e-8)
        ok = ok and rep.passed
        for c in rep.checks:
            if c.name.split("[")[0] in axioms:
                worst = max(worst, c.max_deviation)
        alg = PermutationAlgebra(spec_of(name))
        sig = alg.sigma()
        sig_inv = sig.inverse()
        for n in (-2, -1, 0, 1):
            dev = max(
                alg.multiplication(n + 1).deviation(
                    sig @ alg.multiplication(n)
                    @ tensor(sig_inv, sig_inv)),
                alg.comultiplication(n + 1).deviation(
                    tensor(sig, sig) @ alg.comultiplication(n)
                    @ sig_inv))
            ok = ok and dev < 1e-9
            worst = max(worst, dev)
    emit(7, "frobenius suite", worst, 1e-8, ok and worst < 1e-8)


def test_criterion_08_azumaya(spec_of):
    """xi = (1, 0, ..., 0) and P = (1/Dim) unit after counit on every
    modular builtin; the symmetric control shows xi = (1, 1) and a
    two-component projector instead."""
    worst = 0.0
    proj_dev = 0.0
    for name in MODULAR:
        s = spec_of(name)
        xi = xi_formula(s)
        want = np.zeros(s.rank, dtype=np.complex128)
        want[0] = 1.0
        worst = max(worst, float(np.max(np.abs(xi - want))))
        alg = PermutationAlgebra(s)
        proj = alg.left_center_idempotent(0)
        eta_eps = alg.unit() @ alg.counit()
        proj_dev = max(proj_dev,
                       proj.deviation(eta_eps * (1.0 / alg.dim)))
    ok = worst < 1e-9 and proj_dev < 1e-8

    ctrl = spec_of("rep_z2_symmetric")
    xi = xi_formula(ctrl)
    ok = ok and np.max(np.abs(xi - 1.0)) < 1e-9
    alg = PermutationAlgebra(ctrl)
    proj = alg.left_center_idempotent(0)
    ranks = []
    for x in alg.labels:
        ranks.append(int(np.linalg.matrix_rank(proj.blocks[x], tol=1e-6)))
    ok = ok and ranks == [1, 1]
    # and the Azumaya form of P genuinely fails there
    ok = ok and proj.deviation(alg.unit() @ alg.counit()
                               * (1.0 / alg.dim)) > 0.1
    emit(8, "azumaya obstruction", max(worst, proj_dev), 1e-8, ok)


def test_criterion_09_permutation_invariant(spec_of):
    """The transposition matrix commutes with the doubled modular data,
    and pi -> Z[pi] is a homomorphism on all six elements."""
    worst = 0.0
    for name in MODULAR:
        s = spec_of(name)
        md = modular_datum(s)
        z = transposition_invariant(s.rank).astype(np.complex128)
        ss = np.kron(md.S, md.S)
        tt = np.kron(md.T, md.T)
        worst = max(worst,
                    float(np.max(np.abs(ss @ z - z @ ss))),
                    float(np.max(np.abs(tt @ z - z @ tt))))
    hom_defect = symmetric_group_check(spec_of("fibonacci").rank, 3)
    ok = worst < 1e-9 and hom_defect == 0
    emit(9, "permutation invariant", worst, 1e-9, ok)


def test_criterion_10_annulus_coefficients(spec_of):
    """Ring convolution equals tree enumeration for every quadruple on
    every builtin, in exact integers."""
    worst = 0
    for name in BUILTIN_NAMES:
        s = spec_of(name)
        for quad in pair_tuples(s.rank, 4):
            worst = max(worst, abs(annulus_coefficient(s, *quad)
                                   - annulus_tree_count(s, *quad)))
    emit(10, "annulus coefficients", float(worst), 0.5, worst == 0)


def test_criterion_11_determinism():
    """Two identical runs serialize to byte-identical JSON, including a
    target whose sweeps are genuinely randomized."""
    a = run_suite("ising", n_values=(0, 1), suites=["category", "module"],
                  seed=11).to_json()
    b = run_suite("ising", n_values=(0, 1), suites=["category", "module"],
                  seed=11).to_json()
    ok = a == b and len(a) > 0
    emit(11, "deterministic reports", 0.0 if ok else 1.0, 0.5, ok)
