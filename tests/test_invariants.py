"""Permutation modular invariants on n-fold products, cycle parsing, and
the annulus / induced-module integer counts."""

import dataclasses
import itertools

import numpy as np
import pytest

from mtc import get_category, modular_datum
from mtc.errors import RankOverflow, ShapeMismatch
from mtc.invariants import (adjacent_decomposition, annulus_coefficient,
                            annulus_defect, annulus_tables,
                            annulus_tree_count, check_invariant,
                            induced_decomposition_defect,
                            induced_multiplicities, invariant_report,
                            module_multiplicities, parse_cycles,
                            permutation_invariant, permutation_pattern,
                            symmetric_group_check, transposition_invariant)

from conftest import BUILTINS, MODULAR, random_rep_a4

# the builtins and the Rep(A4) ring, whose 3 (x) 3 holds 3 twice
RINGS = BUILTINS + ["rep_a4_random"]


def _spec(spec_of, name):
    return random_rep_a4() if name == "rep_a4_random" else spec_of(name)


# ---------------------------------------------------------------------------
# permutation matrices


def test_transposition_is_swap_pattern():
    for rank in (2, 3):
        z = transposition_invariant(rank)
        assert np.array_equal(z, permutation_pattern(rank, (1, 0)))
        assert np.array_equal(z @ z, np.eye(rank * rank, dtype=np.int64))


def test_pattern_is_homomorphism():
    """Z[p] Z[q] = Z[p o q] in exact integers, full S3 and sampled S4."""
    for p in itertools.permutations(range(3)):
        for q in itertools.permutations(range(3)):
            pq = tuple(p[q[a]] for a in range(3))
            lhs = permutation_pattern(2, p) @ permutation_pattern(2, q)
            assert np.array_equal(lhs, permutation_pattern(2, pq))
    p, q = (1, 3, 0, 2), (2, 0, 3, 1)
    pq = tuple(p[q[a]] for a in range(4))
    lhs = permutation_pattern(2, p) @ permutation_pattern(2, q)
    assert np.array_equal(lhs, permutation_pattern(2, pq))


def test_adjacent_decomposition_rebuilds_pattern():
    """The bubble-sort swap sequence reproduces the delta pattern for
    every element of S4 at rank 2."""
    for perm in itertools.permutations(range(4)):
        z = permutation_invariant(2, perm)
        assert np.array_equal(z, permutation_pattern(2, perm))
        assert len(adjacent_decomposition(perm)) <= 6


def test_trace_counts_cycles():
    """tr Z[pi] = rank^(number of cycles), an independent integer oracle."""
    rank = 3
    for perm, cycles in (((0, 1, 2), 3), ((1, 0, 2), 2), ((1, 2, 0), 1),
                         ((2, 1, 0), 2)):
        z = permutation_invariant(rank, perm)
        assert int(np.trace(z)) == rank ** cycles


def test_permutation_invariant_guards():
    with pytest.raises(ValueError):
        permutation_invariant(2, (0, 0))
    with pytest.raises(RankOverflow):
        permutation_invariant(3, (4, 3, 2, 1, 0))


@pytest.mark.parametrize("rank", [2, 3])
def test_symmetric_group_homomorphism(rank):
    assert symmetric_group_check(rank, 3) == 0


# ---------------------------------------------------------------------------
# cycle notation


def test_parse_cycles_basic():
    assert parse_cycles("(1 2)") == (1, 0)
    assert parse_cycles("(1 2 3)") == (1, 2, 0)
    assert parse_cycles("(1,2)(3)") == (1, 0, 2)
    assert parse_cycles("(2 3)", n=4) == (0, 2, 1, 3)


def test_parse_cycles_rejects_bad_input():
    for bad in ("", "1 2", "(1 2", "(0 1)", "(1 1)", "(a b)"):
        with pytest.raises(ValueError):
            parse_cycles(bad)
    with pytest.raises(ValueError):
        parse_cycles("(1 5)", n=3)


# ---------------------------------------------------------------------------
# modular invariance


@pytest.mark.parametrize("name", MODULAR)
def test_transposition_invariant_commutes(spec_of, name):
    """The swap matrix commutes with S (x) S and matches T phases."""
    spec = spec_of(name)
    md = modular_datum(spec)
    rep = check_invariant(transposition_invariant(spec.rank), md, 2)
    assert rep.passed, rep.summary()
    assert rep.max_deviation < 1e-9


def test_three_cycle_invariant(spec_of):
    spec = spec_of("fibonacci")
    md = modular_datum(spec)
    rep = invariant_report(spec, md, (1, 2, 0))
    assert rep.passed, rep.summary()


def test_perturbed_matrix_fails_s_commutation(spec_of):
    """Adding a single off-pattern entry breaks exactly the S-commutation
    (and integrality stays fine since the entry is integral)."""
    spec = spec_of("fibonacci")
    md = modular_datum(spec)
    z = transposition_invariant(spec.rank).copy()
    z[1, 1] += 1
    rep = check_invariant(z, md, 2)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["s_commutation"].status == "fail"
    assert by_name["integrality"].status == "pass"
    assert not rep.passed


def test_t_matching_reads_every_nonzero_entry(spec_of):
    """An entry joining two labels of different twist fails t-invariance
    by |T_a - T_b|, and a NaN twist fails it instead of passing."""
    spec = spec_of("fibonacci")
    md = modular_datum(spec)
    z = np.eye(spec.rank ** 2, dtype=np.int64)
    z[0, 1] = 1
    t = np.diag(md.T)
    by_name = {c.name: c for c in check_invariant(z, md, 2).checks}
    assert by_name["t_matching"].status == "fail"
    assert by_name["t_matching"].max_deviation == pytest.approx(
        abs(t[0] - t[1]), abs=1e-12)
    nan_t = md.T.copy()
    nan_t[1, 1] = np.nan
    rep = check_invariant(transposition_invariant(spec.rank),
                          dataclasses.replace(md, T=nan_t), 2)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["t_matching"].status == "fail"


def test_identity_is_always_invariant(spec_of):
    for name in MODULAR:
        spec = spec_of(name)
        md = modular_datum(spec)
        rep = check_invariant(np.eye(spec.rank ** 2, dtype=np.int64), md, 2)
        assert rep.passed


def test_check_invariant_shape_guard(spec_of):
    md = modular_datum(spec_of("ising"))
    with pytest.raises(ShapeMismatch):
        check_invariant(np.eye(4, dtype=np.int64), md, 2)


# ---------------------------------------------------------------------------
# annulus and induction counts


@pytest.mark.parametrize("name", RINGS)
def test_annulus_routes_agree(spec_of, name):
    """Ring convolution and explicit tree enumeration give the same
    integers for every index quadruple, and the whole-array tables of
    both routes hold the scalar values entry for entry."""
    spec = _spec(spec_of, name)
    ring, trees = annulus_tables(spec)
    for quad in itertools.product(range(spec.rank), repeat=4):
        assert ring[quad] == annulus_coefficient(spec, *quad)
        assert trees[quad] == annulus_tree_count(spec, *quad)
        assert ring[quad] == trees[quad]
    assert annulus_defect(spec) == 0


def test_annulus_known_values(spec_of):
    spec = spec_of("ising")
    # sigma sigma sigma -> sigma twice
    assert annulus_coefficient(spec, 1, 1, 1, 1) == 2
    assert annulus_coefficient(spec, 1, 1, 1, 0) == 0
    fib = spec_of("fibonacci")
    assert annulus_coefficient(fib, 1, 1, 1, 1) == 2
    assert annulus_coefficient(fib, 1, 1, 1, 0) == 1


@pytest.mark.parametrize("name", RINGS)
def test_induced_modules_decompose_by_fusion(spec_of, name):
    """Each per-(i, j) table equals its scalar sum over q and the fusion
    decomposition sum_k N_ij^k M_k, and the whole-array defect is zero."""
    spec = _spec(spec_of, name)
    N, dual, r = spec.ring.N, spec.dual, spec.rank
    labels = range(r)
    for k in labels:
        assert module_multiplicities(spec, k).tolist() == [
            [int(N[dual[a], k, b]) for b in labels] for a in labels]
    for i, j in itertools.product(labels, repeat=2):
        got = induced_multiplicities(spec, i, j)
        assert got.tolist() == [
            [sum(int(N[dual[q], i, a]) * int(N[q, j, b]) for q in labels)
             for b in labels] for a in labels]
        assert np.array_equal(got, sum(
            int(N[i, j, k]) * module_multiplicities(spec, k) for k in labels))
    assert induced_decomposition_defect(spec) == 0


def test_induced_multiplicities_unit_column(spec_of):
    """A (x) (0,0) is the algebra itself, whose summand pattern is the
    antidiagonal delta(b, dual(a))."""
    spec = spec_of("z_3(1)")
    got = induced_multiplicities(spec, 0, 0)
    want = module_multiplicities(spec, 0)
    assert np.array_equal(got, want)
    for a in range(spec.rank):
        assert want[a, int(spec.dual[a])] == 1
    assert int(want.sum()) == spec.rank
