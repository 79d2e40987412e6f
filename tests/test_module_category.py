"""Module-category layer: the associator family psi^(n), its pentagon and
triangle coherence, twist mismatches, and the two braided inductions."""

import itertools

import numpy as np
import pytest

from mtc import get_category
from mtc.engine import block_crossing, embed
from mtc.errors import InvalidWord
from mtc.modcat import (alpha_functor_deviation, alpha_induction,
                        commutor_witness_deviation, extract_twist, gamma,
                        gamma_functor_deviation, left_module_pentagon_deviation,
                        module_commutor,
                        module_pentagon_deviation, module_triangle_deviation,
                        psi, psi_from_gamma, psi_shortcut_deviation)


def label_pairs(rank):
    """All simple objects of the square as pairs of base words."""
    return [((u,), (v,)) for u in range(rank) for v in range(rank)]


@pytest.mark.parametrize("label", [-1, 3])
def test_module_words_outside_the_rank_are_refused(spec_of, label):
    """A module word with label -1 or 3 on ising raises InvalidWord; -1 is
    not read as the last label, and 3 does not end in an IndexError."""
    spec = spec_of("ising")
    X, Y, Z = ((1,), (2,)), ((1,), (1,)), ((2,), (1,))
    with pytest.raises(InvalidWord):
        psi(spec, (label,), X, Y)
    with pytest.raises(InvalidWord):
        module_pentagon_deviation(spec, (label,), X, Y, Z, 0)


@pytest.mark.parametrize("call", [
    lambda s: psi(s, [1], ([1], [1]), ((), ()), 0),
    lambda s: gamma(s, [1], ((1,), ())),
    lambda s: module_commutor(s, [1], (1,), (1,)),
    lambda s: module_pentagon_deviation(s, [1], ((1,), (1,)), ((), ()),
                                        ((), ()), 0),
    lambda s: module_triangle_deviation(s, [1], ((1,), ())),
    lambda s: psi_shortcut_deviation(s, (1,), ([1], ()), ((1,), ())),
    lambda s: alpha_functor_deviation(s, (1,), ((1,), ()), ((), ()),
                                      ([1], ()))],
    ids=["psi", "gamma", "module_commutor", "module_pentagon_deviation",
         "module_triangle_deviation", "psi_shortcut_deviation",
         "alpha_functor_deviation"])
def test_list_words_are_refused_before_concatenation(call):
    """A list word raises InvalidWord, not the TypeError of adding a list
    to a tuple, on a fresh spec."""
    with pytest.raises(InvalidWord):
        call(get_category("ising"))


# ---------------------------------------------------------------------------
# associator coherence


@pytest.mark.parametrize("name,n", [("semion", 0), ("semion", -2),
                                    ("fibonacci", 1), ("fibonacci", -1),
                                    ("ising", 2)])
def test_right_pentagon(spec_of, rng, name, n):
    """Mixed pentagon for the right action, sampled quadruples."""
    spec = spec_of(name)
    r = spec.rank
    tuples = list(itertools.product(range(r), repeat=7))
    idx = rng.choice(len(tuples), size=min(24, len(tuples)), replace=False)
    for t in idx:
        m, x1, x2, y1, y2, z1, z2 = tuples[t]
        dev = module_pentagon_deviation(
            spec, (m,), ((x1,), (x2,)), ((y1,), (y2,)), ((z1,), (z2,)), n)
        assert dev < 1e-10


@pytest.mark.parametrize("name,n", [("semion", 1), ("fibonacci", -2),
                                    ("ising", 0)])
def test_left_pentagon(spec_of, rng, name, n):
    spec = spec_of(name)
    r = spec.rank
    tuples = list(itertools.product(range(r), repeat=7))
    idx = rng.choice(len(tuples), size=min(16, len(tuples)), replace=False)
    for t in idx:
        m, x1, x2, y1, y2, z1, z2 = tuples[t]
        dev = left_module_pentagon_deviation(
            spec, ((x1,), (x2,)), ((y1,), (y2,)), ((z1,), (z2,)), (m,), n)
        assert dev < 1e-10


@pytest.mark.parametrize("name", ["semion", "fibonacci", "ising"])
def test_triangle(spec_of, name):
    """Acting with the unit object is strictly trivial for every n."""
    spec = spec_of(name)
    for m in range(spec.rank):
        for X in label_pairs(spec.rank):
            for n in (-1, 0, 2):
                assert module_triangle_deviation(spec, (m,), X, n) < 1e-12


def test_longer_module_words(spec_of):
    """Coherence is not limited to simple module objects."""
    spec = spec_of("fibonacci")
    X, Y, Z = ((1,), (1,)), ((1,), (0,)), ((0,), (1,))
    assert module_pentagon_deviation(spec, (1,), X, Y, Z, 1) < 1e-10
    # module word of length 2, associator exponent swept
    for n in (-1, 0, 1):
        assert module_pentagon_deviation(spec, (1, 1), X, Y, ((1,), (1,)),
                                         n) < 1e-10


# ---------------------------------------------------------------------------
# shortcuts and the gamma chain


@pytest.mark.parametrize("name", ["semion", "fibonacci", "ising"])
def test_psi_shortcuts(spec_of, name):
    """psi^(0) is a single over-crossing, psi^(1) the matching
    under-crossing."""
    spec = spec_of(name)
    r = spec.rank
    for (m, x1, x2, y1, y2) in itertools.product(range(r), repeat=5):
        if m + x1 + x2 == 0:
            continue
        dev = psi_shortcut_deviation(spec, (m,), ((x1,), (x2,)),
                                     ((y1,), (y2,)))
        assert dev < 1e-11


def test_psi_zero_has_single_chirality(spec_of):
    """Replacing the over-crossing by the under-crossing in psi^(0) is
    wrong by an order-one amount: the two chiralities are distinct."""
    spec = spec_of("semion")
    M, X, Y = (1,), ((1,), (1,)), ((1,), (1,))
    (U, V), (Up, Vp) = (((1,), (1,))), (((1,), (1,)))
    wrong = embed(block_crossing(spec, (1, 1), 1, False),
                  left=(1, 1), right=(1,))
    dev = psi(spec, M, X, Y, 0).deviation(wrong)
    assert dev > 0.5


@pytest.mark.parametrize("name,n", [("semion", -2), ("semion", 1),
                                    ("fibonacci", 0), ("fibonacci", -1),
                                    ("ising", 1)])
def test_gamma_intertwines_adjacent_exponents(spec_of, rng, name, n):
    """The twist-mismatch square sends psi^(n) to psi^(n+1)."""
    spec = spec_of(name)
    r = spec.rank
    tuples = list(itertools.product(range(r), repeat=5))
    idx = rng.choice(len(tuples), size=min(20, len(tuples)), replace=False)
    for t in idx:
        m, x1, x2, y1, y2 = tuples[t]
        dev = gamma_functor_deviation(spec, (m,), ((x1,), (x2,)),
                                      ((y1,), (y2,)), n)
        assert dev < 1e-10


def test_psi_rebuilt_from_gamma_chain(spec_of):
    """Conjugating psi^(0) by gamma twice lands exactly on psi^(2)."""
    spec = spec_of("fibonacci")
    M, X, Y = (1,), ((1,), (1,)), ((1,), (0,))
    rebuilt = psi_from_gamma(spec, M, X, Y, 2)
    assert rebuilt.deviation(psi(spec, M, X, Y, 2)) < 1e-11


@pytest.mark.parametrize("name", ["semion", "fibonacci", "ising", "z_3(1)"])
def test_twist_extraction_round_trip(spec_of, name):
    """gamma data of the regular module recovers every simple twist."""
    spec = spec_of(name)
    for u in range(spec.rank):
        ext = extract_twist(spec, (u,))
        assert abs(ext.blocks[u][0, 0] - spec.theta[u]) < 1e-12


def test_twist_extraction_on_words(spec_of):
    """On a longer word the extraction is the root twist blockwise."""
    spec = spec_of("ising")
    ext = extract_twist(spec, (1, 1))
    for c, blk in ext.blocks.items():
        if blk.size:
            assert np.max(np.abs(blk - spec.theta[c] * np.eye(blk.shape[0]))) \
                < 1e-12


# ---------------------------------------------------------------------------
# braided inductions


@pytest.mark.parametrize("name,sign", [("semion", "+"), ("semion", "-"),
                                       ("fibonacci", "+"), ("fibonacci", "-")])
def test_alpha_induction_functor(spec_of, rng, name, sign):
    """Both braided inductions carry a module-functor structure."""
    spec = spec_of(name)
    r = spec.rank
    tuples = list(itertools.product(range(r), repeat=7))
    idx = rng.choice(len(tuples), size=min(12, len(tuples)), replace=False)
    for t in idx:
        m, x1, x2, y1, y2, z1, z2 = tuples[t]
        dev = alpha_functor_deviation(spec, (m,), ((x1,), (x2,)),
                                      ((y1,), (y2,)), ((z1,), (z2,)), sign)
        assert dev < 1e-10


def test_alpha_signs_differ(spec_of):
    """The two inductions genuinely differ on a braiding-sensitive input."""
    spec = spec_of("semion")
    M, X, Y = (1,), ((1,), (0,)), ((1,), (0,))
    plus = alpha_induction(spec, M, X, Y, "+")
    minus = alpha_induction(spec, M, X, Y, "-")
    assert plus.deviation(minus) > 0.5
    with pytest.raises(ValueError):
        alpha_induction(spec, M, X, Y, "x")


@pytest.mark.parametrize("name", ["semion", "fibonacci"])
def test_commutor_witness(spec_of, rng, name):
    """The module commutor intertwines the plus and minus inductions."""
    spec = spec_of(name)
    r = spec.rank
    tuples = list(itertools.product(range(r), repeat=5))
    idx = rng.choice(len(tuples), size=min(16, len(tuples)), replace=False)
    for t in idx:
        m, u, v, up, vp = tuples[t]
        dev = commutor_witness_deviation(spec, (m,), (u,), (v,), (up,), (vp,))
        assert dev < 1e-10


def test_commutor_word_map(spec_of):
    spec = spec_of("ising")
    g = module_commutor(spec, (1,), (2,), (1,))
    assert g.src == (1, 2, 1)
    assert g.dst == (1, 1, 2)

