"""Fusion-tree diagram engine: tree bases, composition, braiding words,
duality snakes, and the two trace routes."""

import itertools

import numpy as np
import pytest

from mtc import get_category, modular_datum
from mtc.engine import (Morphism, as_scalar, block_crossing, braid_generator,
                        cap, cap_twisted, compose, cup, cup_twisted,
                        double_braiding, dual_word, embed, identity,
                        nested_cap, nested_cup, tensor, trace_diagrammatic,
                        trace_formula, trees, twist_endo)
from mtc.errors import (PositionOutOfRange, ShapeMismatch,
                        TraceOnNonEndomorphism, WordTooLong)

from conftest import BUILTINS


# ---------------------------------------------------------------------------
# helpers


def random_endo(spec, word, rng):
    """Endomorphism with dense random blocks in the tree basis."""
    blocks = {}
    for c, ts in trees(spec, word).items():
        n = len(ts)
        blocks[c] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return Morphism(spec, word, word, blocks)


def random_words(spec, rng, count, min_len=1, max_len=3):
    out = []
    for _ in range(count):
        n = int(rng.integers(min_len, max_len + 1))
        out.append(tuple(int(x) for x in rng.integers(0, spec.rank, n)))
    return out


# ---------------------------------------------------------------------------
# tree bases


@pytest.mark.parametrize("name", BUILTINS)
def test_tree_counts_match_fusion_ring(spec_of, name):
    """The number of trees with a given root equals the iterated fusion
    dimension computed in the ring."""
    spec = spec_of(name)
    r = spec.rank
    for word in itertools.product(range(r), repeat=3):
        want = spec.ring.word_dims(word)
        got = trees(spec, word)
        for c in range(r):
            assert len(got.get(c, ())) == want[c]


def test_word_length_cap(spec_of):
    with pytest.raises(WordTooLong):
        trees(spec_of("semion"), (1,) * 9)


def test_composition_shape_guard(spec_of):
    spec = spec_of("ising")
    with pytest.raises(ShapeMismatch):
        identity(spec, (1, 1)) @ identity(spec, (1, 2))


def test_nan_blocks_are_not_close(spec_of):
    """A NaN entry in any root block makes the deviation NaN."""
    spec = spec_of("ising")
    ident = identity(spec, (1, 1))
    blocks = {c: blk.copy() for c, blk in ident.blocks.items()}
    blocks[2][0, 0] = np.nan
    bad = Morphism(spec, (1, 1), (1, 1), blocks)
    assert np.isnan(bad.deviation(ident))
    assert np.isnan(ident.deviation(bad))
    assert np.isnan(bad.max_abs())


# ---------------------------------------------------------------------------
# monoidal structure


@pytest.mark.parametrize("name", ["fibonacci", "ising"])
def test_tensor_interchange(spec_of, rng, name):
    """(f1 (x) g1) o (f2 (x) g2) = (f1 o f2) (x) (g1 o g2)."""
    spec = spec_of(name)
    for w1, w2 in zip(random_words(spec, rng, 4, 1, 2),
                      random_words(spec, rng, 4, 1, 2)):
        f1, f2 = random_endo(spec, w1, rng), random_endo(spec, w1, rng)
        g1, g2 = random_endo(spec, w2, rng), random_endo(spec, w2, rng)
        lhs = tensor(f1, g1) @ tensor(f2, g2)
        rhs = tensor(f1 @ f2, g1 @ g2)
        assert lhs.deviation(rhs) < 1e-10 * max(1.0, rhs.max_abs())


def test_embed_is_tensor_with_identities(spec_of, rng):
    spec = spec_of("ising")
    f = random_endo(spec, (1,), rng)
    lhs = embed(spec, f, left=(2,), right=(1,))
    rhs = tensor(tensor(identity(spec, (2,)), f), identity(spec, (1,)))
    assert lhs.deviation(rhs) < 1e-12


# ---------------------------------------------------------------------------
# braiding


@pytest.mark.parametrize("name", ["semion", "fibonacci", "ising", "z_3(1)"])
def test_yang_baxter(spec_of, name):
    """sigma_1 sigma_2 sigma_1 = sigma_2 sigma_1 sigma_2 on all 3-letter
    words."""
    spec = spec_of(name)
    r = spec.rank
    for word in itertools.product(range(r), repeat=3):
        b1 = braid_generator(spec, word, 1)
        b2 = braid_generator(spec, b1.dst, 2)
        b3 = braid_generator(spec, b2.dst, 1)
        lhs = b3 @ b2 @ b1
        c1 = braid_generator(spec, word, 2)
        c2 = braid_generator(spec, c1.dst, 1)
        c3 = braid_generator(spec, c2.dst, 2)
        rhs = c3 @ c2 @ c1
        assert lhs.deviation(rhs) < 1e-12


@pytest.mark.parametrize("name", ["semion", "fibonacci", "ising", "z_3(1)"])
def test_braid_inverse(spec_of, name):
    """An over-crossing followed by the matching under-crossing is the
    identity."""
    spec = spec_of(name)
    r = spec.rank
    for word in itertools.product(range(r), repeat=2):
        fwd = braid_generator(spec, word, 1, over=True)
        back = braid_generator(spec, fwd.dst, 1, over=False)
        assert (back @ fwd).deviation(identity(spec, word)) < 1e-12


def test_block_crossing_is_generator_chain(spec_of):
    """The k-block crossing equals the explicit product of elementary
    generators, and it is natural against double braidings."""
    spec = spec_of("ising")
    word = (1, 2, 1)
    lhs = block_crossing(spec, word, 2, True)
    g1 = braid_generator(spec, word, 2, True)
    g2 = braid_generator(spec, g1.dst, 1, True)
    assert lhs.deviation(g2 @ g1) < 1e-12


@pytest.mark.parametrize("name", ["semion", "fibonacci", "ising"])
def test_double_braiding_powers(spec_of, name):
    """D^n D^-n = id and D^n = (D^1)^n for n up to 3."""
    spec = spec_of(name)
    word = (1,) * 3
    ident = identity(spec, word)
    d1 = double_braiding(spec, word, 1, 1)
    for n in (1, 2, 3):
        dn = double_braiding(spec, word, 1, n)
        dneg = double_braiding(spec, word, 1, -n)
        assert (dn @ dneg).deviation(ident) < 1e-12
        powered = ident
        for _ in range(n):
            powered = d1 @ powered
        assert dn.deviation(powered) < 1e-12


@pytest.mark.parametrize("name", ["semion", "fibonacci", "ising", "z_3(1)"])
def test_ribbon_identity(spec_of, name):
    """theta_{a (x) b} = D_{a,b} o (theta_a (x) theta_b) blockwise."""
    spec = spec_of(name)
    r = spec.rank
    for a in range(r):
        for b in range(r):
            word = (a, b)
            lhs = twist_endo(spec, word, 1)
            letter_twists = identity(spec, word) * (spec.theta[a] * spec.theta[b])
            rhs = double_braiding(spec, word, 1, 1) @ letter_twists
            assert lhs.deviation(rhs) < 1e-12


def test_braid_position_guard(spec_of):
    with pytest.raises(PositionOutOfRange):
        braid_generator(spec_of("ising"), (1, 1), 2)


# ---------------------------------------------------------------------------
# duality


@pytest.mark.parametrize("name", BUILTINS)
def test_snake_identities(spec_of, name):
    """Both zig-zags for both orientations of the duality pairing."""
    spec = spec_of(name)
    for i in range(spec.rank):
        ibar = int(spec.dual[i])
        ident = identity(spec, (i,))
        z1 = embed(spec, cap(spec, i), left=(i,)) \
            @ embed(spec, cup(spec, i), right=(i,))
        assert z1.deviation(ident) < 1e-12
        z2 = embed(spec, cap_twisted(spec, i), right=(i,)) \
            @ embed(spec, cup_twisted(spec, i), left=(i,))
        assert z2.deviation(ident) < 1e-12
        identbar = identity(spec, (ibar,))
        z3 = embed(spec, cap(spec, i), right=(ibar,)) \
            @ embed(spec, cup(spec, i), left=(ibar,))
        assert z3.deviation(identbar) < 1e-12
        z4 = embed(spec, cap_twisted(spec, i), left=(ibar,)) \
            @ embed(spec, cup_twisted(spec, i), right=(ibar,))
        assert z4.deviation(identbar) < 1e-12


@pytest.mark.parametrize("name", BUILTINS)
def test_loop_values(spec_of, name):
    """A closed loop evaluates to the quantum dimension."""
    spec = spec_of(name)
    for i in range(spec.rank):
        loop = as_scalar(cap_twisted(spec, i) @ cup(spec, i))
        assert abs(loop - spec.dims[i]) < 1e-12
        loop2 = as_scalar(cap(spec, i) @ cup_twisted(spec, i))
        assert abs(loop2 - spec.dims[i]) < 1e-12


def test_nested_cups_close_words(spec_of):
    spec = spec_of("ising")
    for word in ((1,), (1, 2), (1, 1, 2)):
        wbar = dual_word(spec, word)
        scal = as_scalar(nested_cap(spec, word) @ nested_cup(spec, word))
        want = float(np.prod([spec.dims[i] for i in word]))
        assert abs(scal - want) < 1e-10
        assert nested_cup(spec, word).dst == word + wbar


# ---------------------------------------------------------------------------
# traces


@pytest.mark.parametrize("name", ["semion", "fibonacci", "ising", "z_3(1)"])
def test_trace_routes_agree(spec_of, rng, name):
    """The diagrammatic closure and the weighted block-trace formula agree
    on random endomorphisms."""
    spec = spec_of(name)
    for word in random_words(spec, rng, 5, 1, 3):
        f = random_endo(spec, word, rng)
        t1 = trace_diagrammatic(f)
        t2 = trace_formula(f)
        assert abs(t1 - t2) < 1e-9 * max(1.0, abs(t2))


def test_trace_of_identity_is_dimension(spec_of):
    spec = spec_of("fibonacci")
    word = (1, 1)
    want = spec.dims[1] ** 2
    assert abs(trace_diagrammatic(identity(spec, word)) - want) < 1e-12


@pytest.mark.parametrize("name", ["semion", "fibonacci", "ising", "z_3(1)"])
def test_s_matrix_from_double_braiding_trace(spec_of, name):
    """tr D_{(i,j)} / sqrt(Dim) reproduces every S-matrix entry."""
    spec = spec_of(name)
    md = modular_datum(spec)
    dim = np.sqrt(spec.global_dim())
    for i in range(spec.rank):
        for j in range(spec.rank):
            tr = trace_diagrammatic(double_braiding(spec, (i, j), 1, 1))
            assert abs(tr / dim - md.S[i, j]) < 1e-10


def test_trace_requires_endomorphism(spec_of):
    spec = spec_of("ising")
    with pytest.raises(TraceOnNonEndomorphism):
        trace_diagrammatic(braid_generator(spec, (1, 2), 1))
    with pytest.raises(TraceOnNonEndomorphism):
        trace_formula(cup(spec, 1))


# ---------------------------------------------------------------------------
# unitarity of the builtin braid data


@pytest.mark.parametrize("name", ["semion", "fibonacci", "ising"])
def test_braid_blocks_unitary(spec_of, name):
    """For the unitary builtins the braid generator is a unitary matrix in
    every root block."""
    spec = spec_of(name)
    word = (1, 1, 1)
    b = braid_generator(spec, word, 2)
    assert (b.dagger() @ b).deviation(identity(spec, word)) < 1e-12
