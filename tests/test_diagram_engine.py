"""Fusion-tree diagram engine: tree bases, composition, braiding words,
duality snakes, and the two trace routes."""

import itertools

import numpy as np
import pytest

from mtc import get_category, modular_datum
from mtc.engine import (MAX_WORD_LENGTH, Morphism, as_scalar, block_crossing,
                        braid_generator, cap, cap_twisted, cup,
                        cup_twisted, direct_sum, double_braiding, dual_word,
                        embed, identity, nested_cap, nested_cup,
                        split_transform, tensor, trace_diagrammatic,
                        trace_formula, tree_positions, trees, twist_endo)
from mtc.errors import (InvalidWord, PositionOutOfRange, ShapeMismatch,
                        TraceOnNonEndomorphism, WordTooLong)
from mtc.frobenius import PermutationAlgebra

from conftest import BUILTINS, random_rep_a4


# ---------------------------------------------------------------------------
# helpers


def random_endo(spec, word, rng):
    """Endomorphism with dense random blocks in the tree basis."""
    blocks = {}
    for c, ts in trees(spec, word).items():
        n = len(ts)
        blocks[c] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return Morphism(spec, word, word, blocks)


def random_map(spec, src, dst, rng):
    """Morphism src -> dst with dense random blocks in the tree bases."""
    tsrc, tdst = trees(spec, src), trees(spec, dst)
    blocks = {}
    for c in set(tsrc) & set(tdst):
        shape = (len(tdst[c]), len(tsrc[c]))
        blocks[c] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Morphism(spec, src, dst, blocks)


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
    spec = spec_of("semion")
    with pytest.raises(WordTooLong):
        trees(spec, (1,) * 9)
    with pytest.raises(WordTooLong):
        spec.ring.tree_basis((1,) * 9)


@pytest.mark.parametrize("label", [-1, 3])
def test_labels_outside_the_rank_are_refused(spec_of, label):
    """Ising has rank 3, so -1 and 3 are not labels of a word."""
    spec = spec_of("ising")
    f = identity(spec, (1,))
    for call in (lambda: trees(spec, (label,)),
                 lambda: trees(spec, (1, label)),
                 lambda: identity(spec, (label,)),
                 lambda: embed(f, left=(label,)),
                 lambda: embed(f, right=(label,))):
        with pytest.raises(InvalidWord):
            call()


@pytest.mark.parametrize("helper", [
    cup, cap, cup_twisted, cap_twisted,
    lambda spec, i: nested_cup(spec, (i,)),
    lambda spec, i: nested_cap(spec, (i,)),
    lambda spec, i: dual_word(spec, (i,))],
    ids=["cup", "cap", "cup_twisted", "cap_twisted", "nested_cup",
         "nested_cap", "dual_word"])
@pytest.mark.parametrize("label", [-1, 3])
def test_duality_helpers_refuse_labels_outside_the_rank(spec_of, helper,
                                                        label):
    """The dual of a label is looked up only after its word is checked, so
    neither -1 (read as the last label by indexing) nor the rank gets
    through."""
    with pytest.raises(InvalidWord):
        helper(spec_of("ising"), label)


@pytest.mark.parametrize("word", [[1], (1.0,), (True,), (np.int64(1),),
                                  "1"])
def test_words_other_than_int_tuples_are_refused(word):
    """The check runs when a word's basis is first built, so a fresh spec
    sees each of these before an equal int tuple is cached."""
    with pytest.raises(InvalidWord):
        trees(get_category("ising"), word)


@pytest.mark.parametrize("call", [
    lambda spec: cup(spec, 1.0),
    lambda spec: cup(spec, True),
    lambda spec: trees(spec, (1.0, 1.0, 1.0)),
    lambda spec: identity(spec, (True, 1, 1)),
    lambda spec: trees(spec, (np.int64(1), 1, 1))],
    ids=["cup_float", "cup_bool", "trees_float", "identity_bool",
         "trees_numpy_int"])
def test_words_equal_to_cached_int_tuples_are_refused(call):
    """(1.0,), (True,) and (np.int64(1),) equal (1,) and hash like it, so
    they find its cached basis; the types are checked on that hit too."""
    spec = get_category("ising")
    identity(spec, (1,))
    identity(spec, (1, 1, 1))
    with pytest.raises(InvalidWord):
        call(spec)


def test_composition_shape_guard(spec_of):
    spec = spec_of("ising")
    with pytest.raises(ShapeMismatch):
        identity(spec, (1, 1)) @ identity(spec, (1, 2))


def test_blocks_at_roots_outside_both_words_are_refused(spec_of):
    """sigma has root 1 only, so a block at root 0 is an error, not dropped."""
    spec = spec_of("ising")
    one = np.ones((1, 1))
    with pytest.raises(ShapeMismatch, match=r"roots \[0\]"):
        Morphism(spec, (1,), (1,), {0: one, 1: one})


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


def _reference_tensor(f, g):
    """f (x) g by the kron/split/solve route: both sides are written in the
    split bases of their cut, f_a (x) g_b is placed on each (a, b, mu), and
    the result is brought back to the tree bases by solving with the split
    transform of the target."""
    spec = f.spec
    src = f.src + g.src
    dst = f.dst + g.dst
    ssrc = split_transform(spec, src, len(f.src))
    sdst = split_transform(spec, dst, len(f.dst))
    tsrc = trees(spec, src)
    tdst = trees(spec, dst)
    blocks = {}
    for c in set(tsrc) & set(tdst):
        Ms, cols_s, _ = ssrc[c]
        Md, cols_d, _ = sdst[c]
        big = np.zeros((len(cols_d), len(cols_s)), dtype=np.complex128)
        gs = {}
        for j, (a, si, b, ti, mu) in enumerate(cols_s):
            gs.setdefault((a, b, mu), []).append(j)
        gd = {}
        for j, (a, si, b, ti, mu) in enumerate(cols_d):
            gd.setdefault((a, b, mu), []).append(j)
        for key, js in gs.items():
            a, b, _ = key
            jd = gd.get(key)
            if jd is None:
                continue
            fa = f.blocks.get(a)
            gb = g.blocks.get(b)
            if fa is None or gb is None:
                continue
            big[np.ix_(jd, js)] = np.kron(fa, gb)
        blocks[c] = np.linalg.solve(Md.T, big @ Ms.T)
    return Morphism(spec, src, dst, blocks)


def _relative_error(got, want):
    """Largest entry deviation over the largest entry of the reference;
    the layout of root blocks must agree exactly."""
    assert (got.src, got.dst) == (want.src, want.dst)
    assert {c: b.shape for c, b in got.blocks.items()} == \
        {c: b.shape for c, b in want.blocks.items()}
    dev = got.deviation(want)
    scale = want.max_abs()
    return dev / scale if scale else dev


@pytest.mark.parametrize("name", BUILTINS + ["rep_a4_random"])
def test_whiskering_matches_reference_tensor(spec_of, name):
    """tensor and embed on one or both sides agree with the kron/split/solve
    reference to a relative 1e-12 (left whiskering alone exactly), on maps between random words of length
    0-3 (source and target differ; the empty word is included) whiskered
    by words of length 0-2.  Rep(A4) with random non-unitary F has a
    fusion multiplicity of 2, reached by the all-top-label words of the
    second trial."""
    spec = random_rep_a4() if name == "rep_a4_random" else spec_of(name)
    rng = np.random.default_rng(5)
    top = (spec.rank - 1,)
    for trial in range(24):
        src, dst, w, w2 = random_words(spec, rng, 4, 0, 3)
        u, v = random_words(spec, rng, 2, 0, 2)
        if trial % 2:
            dst, w2 = src[::-1], w[::-1]
        if trial == 0:
            src = dst = ()
        if trial == 1:
            src, dst, w, w2, u, v = top, top * 3, top * 2, top, top * 2, top
        f = random_map(spec, src, dst, rng)
        g = random_map(spec, w, w2, rng)
        assert _relative_error(tensor(f, g), _reference_tensor(f, g)) < 1e-12
        id_u, id_v = identity(spec, u), identity(spec, v)
        left = _reference_tensor(id_u, f)
        # left whiskering keeps the reference's arithmetic exactly
        assert _relative_error(embed(f, left=u), left) == 0.0
        assert _relative_error(embed(f, right=v),
                               _reference_tensor(f, id_v)) < 1e-12
        assert _relative_error(embed(f, left=u, right=v),
                               _reference_tensor(left, id_v)) < 1e-12


# ---------------------------------------------------------------------------
# direct sums of words


def _sum_spec(spec_of, name):
    return random_rep_a4() if name == "rep_a4_random" else spec_of(name)


def component(m, d, s):
    """The word morphism from summand s of m's source sum to summand d of
    its target sum, sliced out of m's blocks."""
    ring = m.spec.ring
    bs, bd = ring.sum_basis(m.src), ring.sum_basis(m.dst)
    src, dst = m.src[s], m.dst[d]
    roots = trees(m.spec, src).keys() & trees(m.spec, dst).keys()
    return Morphism(m.spec, src, dst,
                    {c: m.blocks[c][bd[c][d]:bd[c][d + 1],
                                    bs[c][s]:bs[c][s + 1]] for c in roots})


def random_sum_map(spec, src, dst, rng):
    """Sum morphism src -> dst with random components, each present with
    probability 3/4, and the components themselves."""
    comps = {(d, s): random_map(spec, x, y, rng)
             for d, y in enumerate(dst) for s, x in enumerate(src)
             if rng.random() < 0.75}
    return direct_sum(spec, src, dst, comps), comps


@pytest.mark.parametrize("name", ["ising", "rep_a4_random"])
def test_tensor_of_sums_is_the_tensor_of_components(spec_of, name):
    """Component ((d, d'), (s, s')) of f (x) g is f_ds (x) g_d's' to a
    relative 1e-12, and the summands of the result are the pairs, f's index
    major.  The sums hold words of length 0-2, the empty word included; on
    Rep(A4) the top label fused with itself has multiplicity 2."""
    spec = _sum_spec(spec_of, name)
    rng = np.random.default_rng(11)
    top = spec.rank - 1
    for trial in range(4):
        ends = [tuple(random_words(spec, rng, int(rng.integers(2, 4)), 0, 2))
                for _ in range(4)]
        if trial == 0:
            ends = [((top,), ()), ((top, top), (1,)), ((top,), (top, 1)),
                    ((top, top), (), (top,))]
        (f, fc), (g, gc) = (random_sum_map(spec, ends[0], ends[1], rng),
                            random_sum_map(spec, ends[2], ends[3], rng))
        fg = tensor(f, g)
        assert fg.src == tuple(a + b for a in f.src for b in g.src)
        assert fg.dst == tuple(a + b for a in f.dst for b in g.dst)
        for (d, s), (d2, s2) in itertools.product(
                itertools.product(range(len(f.dst)), range(len(f.src))),
                itertools.product(range(len(g.dst)), range(len(g.src)))):
            want = tensor(
                fc.get((d, s), Morphism(spec, f.src[s], f.dst[d], {})),
                gc.get((d2, s2), Morphism(spec, g.src[s2], g.dst[d2], {})))
            got = component(fg, d * len(g.dst) + d2, s * len(g.src) + s2)
            assert _relative_error(got, want) < 1e-12


@pytest.mark.parametrize("name", ["ising", "rep_a4_random"])
def test_whiskering_a_sum_of_one_is_the_word_result(spec_of, name):
    """A sum of one word runs the summand plans with one summand, which
    give the word's blocks bit for bit."""
    spec = _sum_spec(spec_of, name)
    rng = np.random.default_rng(12)
    top = (spec.rank - 1,)
    for trial in range(8):
        src, dst = random_words(spec, rng, 2, 0, 3)
        u, v = random_words(spec, rng, 2, 0, 2)
        if trial == 0:
            src, dst, u, v = top, top * 3, top * 2, top
        f = random_map(spec, src, dst, rng)
        one = direct_sum(spec, (src,), (dst,), {(0, 0): f})
        for left, right in ((u, ()), ((), v), (u, v)):
            want = embed(f, left=left, right=right)
            got = embed(one, left=left, right=right)
            assert (got.src, got.dst) == ((want.src,), (want.dst,))
            assert got.blocks.keys() == want.blocks.keys()
            for c, blk in want.blocks.items():
                assert np.array_equal(got.blocks[c], blk)


def _rotation(spec, words, p, q, x, angle=0.3):
    """The sum morphism that is the identity on every summand but p and q
    and rotates those two into each other through x : words[p] -> words[q]
    and its dagger; it is invertible, though it maps summand p to two."""
    c, s = np.cos(angle), np.sin(angle)
    comps = {(i, i): identity(spec, w) * (c if i in (p, q) else 1.0)
             for i, w in enumerate(words)}
    comps[q, p] = x * s
    comps[p, q] = x.dagger() * (-s)
    return direct_sum(spec, words, words, comps)


@pytest.mark.parametrize("name", ["ising", "rep_a4_random"])
def test_inverse_of_a_sum_that_mixes_summands(spec_of, name):
    """On ising, two summands of A (x) A of the Frobenius algebra that share
    a root are mixed by a 2 x 2 rotation through the braiding; on Rep(A4)
    two words with a multiplicity-2 root, through a block crossing."""
    if name == "ising":
        alg = PermutationAlgebra(spec_of("ising"))
        spec, words, r = alg.prod, alg.pairs, alg.rank
        p, q = 1 * r + 2, 2 * r + 1
        x = braid_generator(spec, words[p], 1)
    else:
        spec = random_rep_a4()
        words, p, q = ((3, 3, 1), (1, 3, 3), (3,)), 0, 1
        x = block_crossing(spec, words[p], 2)
    rot = _rotation(spec, words, p, q, x)
    inv = rot.inverse()
    assert (inv.src, inv.dst) == (words, words)
    assert (rot @ inv).deviation(identity(spec, words)) < 1e-12
    assert (inv @ rot).deviation(identity(spec, words)) < 1e-12


def test_embed_past_word_cap(spec_of):
    """Whiskering onto a word that would exceed the cap raises."""
    spec = spec_of("ising")
    f = identity(spec, (1,) * 5)
    pad = (1,) * (MAX_WORD_LENGTH - 4)
    with pytest.raises(WordTooLong):
        embed(f, left=pad)
    with pytest.raises(WordTooLong):
        embed(f, right=pad)


def test_embed_is_tensor_with_identities(spec_of, rng):
    spec = spec_of("ising")
    f = random_endo(spec, (1,), rng)
    lhs = embed(f, left=(2,), right=(1,))
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


def _reference_braid_local(spec, q, a, b, d, over):
    """Matrix of id_q (x) c_{a,b} from Hom(q a b, d) to Hom(q b a, d) in
    left-nested bases, computed as F(q,b,a;d) D F(q,a,b;d)^-1 with D the
    R-action on the right-nested channel slot."""
    _, pos_s, cols_s, _ = spec.ring.f_basis(q, a, b, d)
    rows_d, _, cols_d, _ = spec.ring.f_basis(q, b, a, d)
    D = np.zeros((len(cols_d), len(cols_s)), dtype=np.complex128)
    for jj, (x2, g2, d2) in enumerate(cols_d):
        for ii, (x, g, d1) in enumerate(cols_s):
            if x2 != x or d2 != d1:
                continue
            if over:
                rmat = spec.r_block(a, b, x)
            else:
                rmat = np.linalg.inv(spec.r_block(b, a, x))
            D[jj, ii] = rmat[g2, g]
    local = spec.f_block(q, b, a, d) @ D \
        @ np.linalg.inv(spec.f_block(q, a, b, d))
    return local, pos_s, rows_d


def _reference_braid(spec, word, p, over):
    """Braid generator of strands p and p+1 by walking every tree of the
    word: the 3-leaf piece (q, a, b -> A_{p+1}) of each tree goes through
    the local F R F^-1 matrix, and the rest of the tree is kept."""
    a, b = word[p - 1], word[p]
    dst_word = word[:p - 1] + (b, a) + word[p + 1:]
    tsrc = trees(spec, word)
    tdst = trees(spec, dst_word)
    dpos = tree_positions(spec, dst_word)
    blocks = {}
    for c, ts in tsrc.items():
        if c not in tdst:
            continue
        B = np.zeros((len(tdst[c]), len(ts)), dtype=np.complex128)
        for i_src, (L, M) in enumerate(ts):
            if p == 1:
                q = 0
                x_old, al = word[0], 0
            elif p == 2:
                q = word[0]
                x_old, al = L[0], M[0]
            else:
                q = L[p - 3]
                x_old, al = L[p - 2], M[p - 2]
            local, pos_src, rows_dst = _reference_braid_local(
                spec, q, a, b, L[p - 1], over)
            i_loc = pos_src[(x_old, al, M[p - 1])]
            for j_loc, (x2, al2, bt2) in enumerate(rows_dst):
                val = local[j_loc, i_loc]
                if val == 0:
                    continue
                if p == 1:
                    L2, M2 = L, (bt2,) + M[1:]
                else:
                    L2 = L[:p - 2] + (x2,) + L[p - 1:]
                    M2 = M[:p - 2] + (al2, bt2) + M[p:]
                B[dpos[c][(L2, M2)], i_src] += val
        blocks[c] = B
    return Morphism(spec, word, dst_word, blocks)


@pytest.mark.parametrize("name", BUILTINS + ["rep_a4_random"])
def test_braid_generator_matches_reference(spec_of, name):
    """Whiskered R-blocks agree with the tree-walking F R F^-1 reference
    to a relative 1e-12, over and under, at every position of every word
    of length 2-3 and of seeded words of length 4.  Rep(A4) with random
    non-unitary F reaches a fusion multiplicity of 2."""
    spec = random_rep_a4() if name == "rep_a4_random" else spec_of(name)
    rng = np.random.default_rng(6)
    words = [w for n in (2, 3)
             for w in itertools.product(range(spec.rank), repeat=n)]
    words += random_words(spec, rng, 12, 4, 4)
    for word in words:
        for p in range(1, len(word)):
            for over in (True, False):
                got = braid_generator(spec, word, p, over)
                want = _reference_braid(spec, word, p, over)
                assert _relative_error(got, want) < 1e-12


@pytest.mark.parametrize("name", ["semion", "fibonacci", "ising", "z_3(1)",
                                  "rep_a4_random"])
def test_braid_inverse(spec_of, name):
    """An over-crossing followed by the matching under-crossing is the
    identity."""
    spec = random_rep_a4() if name == "rep_a4_random" else spec_of(name)
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
    spec = spec_of("ising")
    with pytest.raises(PositionOutOfRange):
        braid_generator(spec, (1, 1), 2)
    for k in (3, -1):
        with pytest.raises(PositionOutOfRange):
            block_crossing(spec, (1, 1), k)
        with pytest.raises(PositionOutOfRange):
            split_transform(spec, (1, 1), k)
    with pytest.raises(PositionOutOfRange):
        double_braiding(spec, (1, 1), 5)


def test_failed_calls_store_nothing():
    """A call that raises leaves no entry in its cache section."""
    spec = get_category("ising")
    with pytest.raises(PositionOutOfRange):
        block_crossing(spec, (1, 1), 3)
    with pytest.raises(PositionOutOfRange):
        braid_generator(spec, (1, 1), 2)
    assert not spec._cache.get("block_crossing")
    assert not spec._cache.get("braid_gen")


def test_list_words_are_refused_by_a_warm_cache():
    """An unhashable word misses the cache, so the word check refuses it
    also once the section holds entries."""
    spec = get_category("ising")
    block_crossing(spec, (1, 1), 1)
    with pytest.raises(InvalidWord):
        block_crossing(spec, [1, 1], 1)


def test_list_words_are_refused_by_braid_generator():
    """A list word raises InvalidWord on a fresh spec, where no cached
    generator holds its crossing."""
    spec = get_category("ising")
    with pytest.raises(InvalidWord):
        braid_generator(spec, [1, 1], 1)


def test_spellings_of_one_call_share_a_cache_entry():
    """Defaults are filled in and keywords put in their positions, so the
    short, full and keyword calls are one entry and one object."""
    spec = get_category("ising")
    word = (1, 2)
    short = braid_generator(spec, word, 1)
    assert braid_generator(spec, word, 1, True) is short
    assert braid_generator(spec, word, 1, over=True) is short
    assert list(spec._cache["braid_gen"]) == [(word, 1, True)]


# ---------------------------------------------------------------------------
# duality


@pytest.mark.parametrize("name", BUILTINS)
def test_snake_identities(spec_of, name):
    """Both zig-zags for both orientations of the duality pairing."""
    spec = spec_of(name)
    for i in range(spec.rank):
        ibar = int(spec.dual[i])
        ident = identity(spec, (i,))
        z1 = embed(cap(spec, i), left=(i,)) \
            @ embed(cup(spec, i), right=(i,))
        assert z1.deviation(ident) < 1e-12
        z2 = embed(cap_twisted(spec, i), right=(i,)) \
            @ embed(cup_twisted(spec, i), left=(i,))
        assert z2.deviation(ident) < 1e-12
        identbar = identity(spec, (ibar,))
        z3 = embed(cap(spec, i), right=(ibar,)) \
            @ embed(cup(spec, i), left=(ibar,))
        assert z3.deviation(identbar) < 1e-12
        z4 = embed(cap_twisted(spec, i), left=(ibar,)) \
            @ embed(cup_twisted(spec, i), right=(ibar,))
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
