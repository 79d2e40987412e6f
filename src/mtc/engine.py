"""Fusion-tree diagram calculus.

A word is a tuple of Python ints in [0, rank).  Nothing here converts
words: the public memoised tables refuse look-alike arguments on every
call, ``embed`` checks its words before it concatenates them, and
``FusionRing.tree_basis`` raises ``InvalidWord`` (or ``WordTooLong``) for a
label out of range when it first builds a word's basis.

A morphism src -> dst is one complex array ``flat`` on the ``Layout`` of
(src, dst): for each root c common to both endpoints, the matrix over the
bases of Hom(src, c) (columns) and Hom(dst, c) (rows) lies row-major at
c's offset.  ``blocks`` reads them as views.  An endpoint is a word, with
the left-nested fusion-tree basis, or a direct sum of words given as a
tuple of words, with its summands' trees concatenated in summand order;
``_summands`` reads a word as a sum of one, so both share every code path.
A tree for a word of length n is a pair (labels, mults) with labels the
intermediate charges (A_2, ..., A_n) and mults the fusion-vertex
multiplicities; A_1 = w_1 and A_0 = 0 are implicit, and trees with a common
root are ordered by (labels, mults).  Every basis, its positions and every
layout come from their one owner, the spec's ``FusionRing`` in
``mtc.category``: ``tree_basis``, ``sum_basis``, ``split_basis``,
``f_basis`` and ``layout``.  Tables that depend on N alone are memoised on
the ring by ``category.cached`` (``compose`` and ``whisker_right``), those
that depend on F and R on the spec: ``finv``, ``split``, ``whisker_left``,
``braid_gen``, ``block_crossing``, ``double_braiding``, ``cap_scale``,
``cup_twisted`` and ``cap_twisted``.

Because the tree bases and their duals are normalized to f_i o fbar_j =
delta_ij id_c, composition of morphisms is plain per-root matrix
multiplication, which also sums over the summands in between; a cached
plan per (src, mid, dst) writes every product into one new flat array.
Sums, scalar multiples and deviations are one vector operation on ``flat``.
Right whiskering f (x) id_v leaves the tail of every left-nested tree
untouched, so it is a cached gather from f's flat array.  Left whiskering
id_u (x) g gathers g's entries into the split bases of the cuts and
conjugates by the split transforms of the summands, block-diagonally, with
the inverse of the target's cached on its plan.  ``tensor`` is their
composite (f (x) id) o (id (x) g), and ``embed`` applies them directly.
An elementary braiding is the R-blocks of its two letters whiskered into
the word, so ``split_transform`` is the one place that applies F-moves.
The cup is the fusion tree 1 -> i (x) dual(i) itself, and the cap is
scaled by ``_cap_scale``, 1 / F^-1[i, dual(i), i; i]_00 with no absolute
value taken, so that the first snake identity is exact.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from .category import MAX_WORD_LENGTH  # noqa: F401 (re-exported)
from .category import (CategorySpec, Layout, _blocks, _check_words,
                       _f_inverses, _inverses, _r_inverses, _summands, cached)
from .errors import PositionOutOfRange, ShapeMismatch, TraceOnNonEndomorphism
from .fusion_paths import _crossing as _crossing_positions
from .report import max_dev


# ---------------------------------------------------------------------------
# trees


def trees(spec: CategorySpec, word):
    """All left-nested fusion trees of the word, grouped by root."""
    return spec.ring.tree_basis(word)


def tree_positions(spec: CategorySpec, word):
    """{root: {tree: position}} for the trees of the word."""
    return spec.ring.tree_positions(word)


def _juxtapose(x, y):
    """The endpoint x (x) y: two words concatenated, otherwise the sum of
    every summand of x followed by every summand of y, x's index major."""
    xs, ys = _summands(x), _summands(y)
    if xs is not x and ys is not y:  # two words
        return x + y
    return tuple([a + b for a in xs for b in ys])


@cached("finv")
def _finv(spec, a, b, c, d):
    """F[a,b,c,d]^-1, read from the spec's table of inverse F-blocks."""
    return _f_inverses(spec).table()[a, b, c, d]


# ---------------------------------------------------------------------------
# morphisms


def _views(layout: Layout, flat):
    """(root, block) for every root of the layout, the blocks views into
    flat."""
    for c, (o, r, k) in layout.roots.items():
        yield c, flat[o:o + r * k].reshape(r, k)


class Morphism:
    """Linear map between two endpoints, each a word or a direct sum of
    words given as a tuple of words: one complex array ``flat`` on the
    ``Layout`` of (src, dst).

    The constructor checks the words, the roots and the shape of every
    block it is given; a root without a block is 0.
    """

    __slots__ = ("spec", "layout", "flat")

    def __init__(self, spec, src, dst, blocks):
        layout = spec.ring.layout(src, dst)
        stray = set(blocks) - layout.roots.keys()
        if stray:
            raise ShapeMismatch(f"blocks at roots {sorted(stray)} that "
                                f"{src} and {dst} do not share")
        flat = np.zeros(layout.size, dtype=np.complex128)
        for c, (o, r, k) in layout.roots.items():
            blk = blocks.get(c)
            if blk is not None:
                blk = np.asarray(blk, dtype=np.complex128)
                if blk.shape != (r, k):
                    raise ShapeMismatch(
                        f"block at root {c} has shape {blk.shape}, "
                        f"expected {(r, k)}")
                flat[o:o + r * k] = blk.ravel()
        self.spec, self.layout, self.flat = spec, layout, flat

    @property
    def src(self):
        return self.layout.src

    @property
    def dst(self):
        return self.layout.dst

    @property
    def blocks(self):
        """{root: block}, read-only views into ``flat`` built on each read."""
        flat = self.flat.view()
        flat.flags.writeable = False
        return MappingProxyType(dict(_views(self.layout, flat)))

    def __matmul__(self, other: "Morphism") -> "Morphism":
        if not isinstance(other, Morphism):
            return NotImplemented
        layout, steps, partial = _compose_plan(self.spec.ring, self.layout,
                                               other.layout)
        flat = (np.zeros if partial else np.empty)(layout.size,
                                                   dtype=np.complex128)
        F, G = self.flat, other.flat
        for o, oe, r, k, fo, fe, m, go, ge in steps:
            np.matmul(F[fo:fe].reshape(r, m), G[go:ge].reshape(m, k),
                      out=flat[o:oe].reshape(r, k))
        return _built(self.spec, layout, flat)

    def __add__(self, other):
        _check_same(self, other, "sum")
        return _built(self.spec, self.layout, self.flat + other.flat)

    def __sub__(self, other):
        _check_same(self, other, "difference")
        return _built(self.spec, self.layout, self.flat - other.flat)

    def __mul__(self, scalar):
        return _built(self.spec, self.layout, self.flat * scalar)

    __rmul__ = __mul__

    def dagger(self) -> "Morphism":
        return _blockwise(self, self.spec.ring.layout(self.dst, self.src),
                          lambda c, blk: blk.conj().T)

    def inverse(self) -> "Morphism":
        """The inverse map; a singular block raises NotPremodular naming
        the word and root."""
        def inv(c, blk):
            if blk.shape[0] != blk.shape[1]:
                raise ShapeMismatch(f"block at root {c} is not square")
            return _inverses(blk[None], lambda _: f"morphism on the word "
                             f"{self.src} at root {c} is singular")[0]
        return _blockwise(self, self.spec.ring.layout(self.dst, self.src),
                          inv)

    def deviation(self, other: "Morphism") -> float:
        """The largest entry of |self - other|; NaN if an entry is NaN.  A
        zero deviation is ``max_dev``'s own 0.0, one float object for every
        caller that keeps its deviations."""
        _check_same(self, other, "comparison")
        if not self.flat.size:
            return 0.0
        return max_dev(float(np.abs(self.flat - other.flat).max()))

    def max_abs(self) -> float:
        if not self.flat.size:
            return 0.0
        return max_dev(float(np.abs(self.flat).max()))

    def __repr__(self):
        return f"Morphism({self.src} -> {self.dst})"


def _check_same(f, g, what):
    """Refuse two morphisms whose endpoints or fusion rules differ."""
    if f.layout is not g.layout:
        if f.src != g.src or f.dst != g.dst:
            raise ShapeMismatch(f"{what} of morphisms with different words")
        _check_rules(f.layout, g.layout, what)


def _check_rules(x: Layout, y: Layout, what):
    """Refuse layouts of two rings whose N or dual differ."""
    if x.rules is not y.rules and not all(map(np.array_equal, x.rules,
                                              y.rules)):
        raise ShapeMismatch(f"{what} of morphisms of categories with "
                            f"different fusion rules")


def _blockwise(f: Morphism, layout: Layout, fn) -> Morphism:
    """The morphism on the layout whose block at each root c of f is
    fn(c, f's block); the layout has f's roots, in f's order."""
    flat = np.empty(layout.size, dtype=np.complex128)
    for (c, blk), (_, out) in zip(_views(f.layout, f.flat),
                                  _views(layout, flat)):
        out[...] = fn(c, blk)
    return _built(f.spec, layout, flat)


def _built(spec, layout: Layout, flat) -> Morphism:
    """The morphism whose flat array on the layout is ``flat``, for results
    whose layout comes from a plan or an operand: nothing is checked."""
    out = Morphism.__new__(Morphism)
    out.spec, out.layout, out.flat = spec, layout, flat
    return out


@cached("compose")
def _compose_plan(ring, outer: Layout, inner: Layout):
    """(layout, steps, partial) of outer o inner.  For each root that all
    three endpoints have, the step (offset, end, rows, cols, outer's offset,
    end, mid, inner's offset, end) multiplies outer's rows x mid block by
    inner's mid x cols block into the result's; ``partial`` when some root
    of the result has no step and stays 0.  Plans with equal steps share
    one tuple."""
    if inner.dst != outer.src:
        raise ShapeMismatch(
            f"cannot compose: inner endpoints {inner.dst} != {outer.src}")
    _check_rules(outer, inner, "composition")
    layout = ring.layout(inner.src, outer.dst)
    steps = []
    for c, (o, r, k) in layout.roots.items():
        if c in outer.roots and c in inner.roots:
            fo, _, m = outer.roots[c]
            go = inner.roots[c][0]
            steps.append((o, o + r * k, r, k, fo, fo + r * m, m,
                          go, go + m * k))
    steps = tuple(steps)
    steps = ring._cache.setdefault("steps", {}).setdefault(steps, steps)
    return layout, steps, len(steps) < len(layout.roots)


def identity(spec: CategorySpec, obj) -> Morphism:
    layout = spec.ring.layout(obj, obj)
    flat = np.zeros(layout.size, dtype=np.complex128)
    for o, n, _ in layout.roots.values():
        flat[o:o + n * n:n + 1] = 1.0
    return _built(spec, layout, flat)


def direct_sum(spec: CategorySpec, src, dst, comps) -> Morphism:
    """The morphism src -> dst whose component from summand s of src to
    summand d of dst is the word morphism comps[d, s], and 0 where comps
    has none."""
    layout = spec.ring.layout(src, dst)
    S, D = _summands(src), _summands(dst)
    bsrc, bdst = layout.bsrc, layout.bdst
    flat = np.zeros(layout.size, dtype=np.complex128)
    out = dict(_views(layout, flat))
    for (d, s), m in comps.items():
        if not (0 <= d < len(D) and 0 <= s < len(S)) \
                or (m.src, m.dst) != (S[s], D[d]):
            raise ShapeMismatch(f"component ({d}, {s}) maps {m.src} -> "
                                f"{m.dst}, not a summand of {src} -> {dst}")
        _check_rules(layout, m.layout, "direct sum")
        for c, blk in _views(m.layout, m.flat):
            out[c][bdst[c][d]:bdst[c][d + 1], bsrc[c][s]:bsrc[c][s + 1]] = blk
    return _built(spec, layout, flat)


def as_scalar(m: Morphism) -> complex:
    if m.src != () or m.dst != ():
        raise ShapeMismatch("scalar extraction needs an endomorphism of the "
                            "empty word")
    return complex(m.flat[0])


# ---------------------------------------------------------------------------
# split transforms and whiskering


def _check_cut(word, k):
    if not 0 <= k <= len(word):
        raise PositionOutOfRange(f"cut {k} invalid for word of length {len(word)}")


@cached("split")
def split_transform(spec: CategorySpec, word, k: int):
    """Change of basis between trees of the word and split pairs at cut k.

    Returns {root: (M, cols, colpos)} where column (a, si, b, ti, mu) is the
    vector f^{ab->c}_mu o (tree_si(u) (x) tree_ti(v)), u = word[:k],
    v = word[k:], expanded as M[:, col] over the trees of the full word.
    An empty u or v makes the split pairs the trees of the word, so M is
    the identity; any other cut peels the last letter z of v off by an
    F-move from the transform of word[:-1] at the same cut.
    """
    _check_cut(word, k)
    u, v = word[:k], word[k:]
    if not u or not v:
        return {c: (np.eye(len(ts), dtype=np.complex128),)
                + spec.ring.split_basis(u, v, c)
                for c, ts in trees(spec, word).items()}
    z = v[-1]
    tv = trees(spec, v)
    tpos = tree_positions(spec, word)
    sub = split_transform(spec, word[:-1], k)
    tprev = trees(spec, word[:-1])
    tv2_pos = tree_positions(spec, v[:-1])
    out = {}
    for c, ts in trees(spec, word).items():
        cols, colpos = spec.ring.split_basis(u, v, c)
        M = np.zeros((len(ts), len(cols)), dtype=np.complex128)
        for j, (a, si, b, ti, mu) in enumerate(cols):
            b2, t2, (_, (beta,)) = _cut(tv[b][ti], len(v) - 1, v)
            t2i = tv2_pos[b2][t2]
            Finv = _finv(spec, a, b2, z, c)
            frows, _, _, fcol_pos = spec.ring.f_basis(a, b2, z, c)
            row_of = fcol_pos[(b, beta, mu)]
            for idx, (e, alpha2, beta2) in enumerate(frows):
                coeff = Finv[row_of, idx]
                if coeff == 0:
                    continue
                # e in a (x) b2 is a root of word[:-1], and the column
                # (a, si, b2, t2i, alpha2) is a split pair there
                Msub, _, colpos_sub = sub[e]
                vec = Msub[:, colpos_sub[(a, si, b2, t2i, alpha2)]]
                for ri in np.nonzero(vec)[0]:
                    rtree = tprev[e][ri]
                    new_tree = (rtree[0] + (c,), rtree[1] + (beta2,))
                    M[tpos[c][new_tree], j] += coeff * vec[ri]
        out[c] = (M, cols, colpos)
    return out


def _cut(tree, k, word):
    """Split a tree of the word after its first k letters into (root of
    those letters, their subtree, tail).  The tail is the rest of the tree,
    which a map on the first k letters never touches; for k = 0 the empty
    prefix has root 0 and the first letter, if any, enters the tail as
    0 (x) w_1 -> w_1."""
    L, M = tree
    if k == 0:
        return 0, ((), ()), (word[:1] + L, (0,)[:len(word)] + M)
    a = word[0] if k == 1 else L[k - 2]
    return a, (L[:k - 1], M[:k - 1]), (L[k - 1:], M[k - 1:])


def _block_diag(mats):
    """The block-diagonal matrix of square matrices; one is itself."""
    if len(mats) == 1:
        return mats[0]
    ends = np.cumsum([len(m) for m in mats])
    out = np.zeros((ends[-1], ends[-1]), dtype=np.complex128)
    for m, end in zip(mats, ends):
        out[end - len(m):end, end - len(m):end] = m
    return out


@cached("whisker_right")
def _right_plan(ring, f: Layout, v):
    """(layout, [output positions, input positions]) of f (x) id_v for f
    on the layout f: the gather from f's flat array into the output's.  The
    output's component from summand (s, t) to (d, t) is f's from s to d
    whiskered by summand t of v, and 0 between different t: an entry is
    f's entry between the subtrees of the first letters when both have the
    same root and the same tail."""
    S, D, V = _summands(f.src), _summands(f.dst), _summands(v)
    out = ring.layout(_juxtapose(f.src, v), _juxtapose(f.dst, v))
    osrc, odst = out.bsrc, out.bdst
    by_tail = {}  # (root, t, subtree root, tail) -> [(output column, f's)]
    for k, word in enumerate(_summands(out.src)):
        s, t = divmod(k, len(V))
        pos = ring.tree_positions(S[s])
        for c, ts in ring.tree_basis(word).items():
            for j, tree in enumerate(ts, osrc[c][k]):
                a, sub, tail = _cut(tree, len(S[s]), word)
                by_tail.setdefault((c, t, a, tail), []).append(
                    (j, f.bsrc[a][s] + pos[a][sub]))
    out_idx, in_idx = [], []
    for k, word in enumerate(_summands(out.dst)):
        d, t = divmod(k, len(V))
        pos = ring.tree_positions(D[d])
        for c, ts in ring.tree_basis(word).items():
            for i, tree in enumerate(ts, odst[c][k]):
                a, sub, tail = _cut(tree, len(D[d]), word)
                cols = by_tail.get((c, t, a, tail))
                if cols is None:
                    continue
                row = out.roots[c][0] + i * osrc[c][-1]
                fo, _, fk = f.roots[a]
                frow = fo + (f.bdst[a][d] + pos[a][sub]) * fk
                for j, jf in cols:
                    out_idx.append(row + j)
                    in_idx.append(frow + jf)
    return out, np.array([out_idx, in_idx], dtype=np.intp)


@cached("whisker_left")
def _left_plan(spec, u, g: Layout):
    """(layout, [output positions, input positions], steps) of id_u (x) g
    for g on the layout g.  The output's component from summand (q, e) to
    (q, d) is g's from e to d whiskered by summand q of u, and 0 between
    different q.  The gather fills, root by root, the matrix X in the split
    bases of the cuts that equals kron(id, g_b) on the columns (a, si, b,
    ti, mu) of each (a, b, mu).  A step (offset, end, rows, cols, A, B) of
    a root of the output gives its block A X B: B is the transpose of the
    split transforms Ms of the output's source summands and A the inverse
    of that of Md of its target summands, each block-diagonal.  A root
    where both are the identity has no step: its block is X."""
    U, S, D = _summands(u), _summands(g.src), _summands(g.dst)
    out = spec.ring.layout(_juxtapose(u, g.src), _juxtapose(u, g.dst))
    osrc, odst = out.bsrc, out.bdst
    ssrc = [split_transform(spec, w + x, len(w)) for w in U for x in S]
    sdst = [split_transform(spec, w + y, len(w)) for w in U for y in D]
    out_idx, in_idx = [], []
    for k, split in enumerate(ssrc):
        q, e = divmod(k, len(S))
        for c, (_, cols_s, _) in split.items():
            if c not in out.roots:  # no tree of the target at c
                continue
            o, _, ok = out.roots[c]
            for j, (a, si, b, ti, mu) in enumerate(cols_s):
                if b not in g.roots:
                    continue
                go, _, gk = g.roots[b]
                for d in range(len(D)):
                    kd, n0 = q * len(D) + d, g.bdst[b][d]
                    for td in range(g.bdst[b][d + 1] - n0):
                        row = odst[c][kd] + sdst[kd][c][2][(a, si, b, td, mu)]
                        out_idx.append(o + row * ok + osrc[c][k] + j)
                        in_idx.append(go + (n0 + td) * gk + g.bsrc[b][e] + ti)
    steps = []
    for c, (o, r, k) in out.roots.items():
        Md = _block_diag([t[c][0] for t in sdst if c in t])
        Ms = _block_diag([t[c][0] for t in ssrc if c in t])
        if not (np.array_equal(Md, np.eye(r))
                and np.array_equal(Ms, np.eye(k))):
            A = _inverses(Md.T[None], lambda _: f"split transform of "
                          f"{out.dst} at root {c} is singular")[0]
            steps.append((o, o + r * k, r, k, A, Ms.T))
    return out, np.array([out_idx, in_idx], dtype=np.intp), tuple(steps)


def _whisker_right(f: Morphism, v) -> Morphism:
    """f (x) id_v, a re-indexing of f's flat array."""
    if not v:
        return f
    layout, idx = _right_plan(f.spec.ring, f.layout, v)
    flat = np.zeros(layout.size, dtype=np.complex128)
    flat[idx[0]] = f.flat[idx[1]]
    return _built(f.spec, layout, flat)


def _whisker_left(u, g: Morphism) -> Morphism:
    """id_u (x) g, conjugating g's blocks by the cached split transforms."""
    if not u:
        return g
    layout, idx, steps = _left_plan(g.spec, u, g.layout)
    flat = np.zeros(layout.size, dtype=np.complex128)
    flat[idx[0]] = g.flat[idx[1]]
    for o, oe, r, k, A, B in steps:
        blk = flat[o:oe].reshape(r, k)
        np.matmul(A, blk @ B, out=blk)
    return _built(g.spec, layout, flat)


def tensor(f: Morphism, g: Morphism) -> Morphism:
    """Horizontal juxtaposition f (x) g = (f (x) id) o (id (x) g)."""
    _check_rules(f.layout, g.layout, "tensor")
    return _whisker_right(f, g.dst) @ _whisker_left(f.src, g)


def embed(f: Morphism, *, left=(), right=()) -> Morphism:
    """id_left (x) f (x) id_right; left and right are words or sums of
    words, checked before they are concatenated."""
    _check_words(left, right)
    return _whisker_right(_whisker_left(left, f), right)


# ---------------------------------------------------------------------------
# braiding


def _crossing(spec, a, b, over):
    """c_{a,b} (over) or c_{b,a}^-1 (under) on the two-letter word (a, b):
    the R-block or the inverse R-block at every root."""
    table = (_blocks(spec, "R") if over else _r_inverses(spec)).table()
    return Morphism(spec, (a, b), (b, a),
                    {c: table[a, b, c] for c in trees(spec, (a, b))})


@cached("braid_gen")
def braid_generator(spec: CategorySpec, word, p: int, over: bool = True
                    ) -> Morphism:
    """Elementary braiding of strands p and p+1 (1-based).

    ``over`` selects c_{w_p, w_{p+1}}; otherwise the inverse braiding
    c_{w_{p+1}, w_p}^-1 is used.  The crossing's R-blocks are whiskered by
    the letters before it; the letters after it re-index the cached
    generator of the prefix ending at strand p+1.
    """
    n = len(word)
    if not 1 <= p <= n - 1:
        raise PositionOutOfRange(
            f"braid position {p} invalid for word of length {n}")
    if p + 1 < n:
        return _whisker_right(braid_generator(spec, word[:p + 1], p, over),
                              word[p + 1:])
    return _whisker_left(word[:p - 1],
                         _crossing(spec, word[p - 1], word[p], over))


@cached("block_crossing")
def block_crossing(spec: CategorySpec, word, k: int, over: bool = True
                   ) -> Morphism:
    """Braid the first k strands past the rest: U (x) V -> V (x) U.

    With ``over`` the result is c_{U,V} (every U strand crosses over every V
    strand); with ``over=False`` it is c_{V,U}^-1.
    """
    _check_cut(word, k)
    cur = identity(spec, word)
    for p in _crossing_positions(1, k, len(word) - k):
        cur = braid_generator(spec, cur.dst, p, over) @ cur
    return cur


@cached("double_braiding")
def double_braiding(spec: CategorySpec, word, k: int, n: int = 1) -> Morphism:
    """n-th power of the monodromy c_{V,U} o c_{U,V} with U = word[:k]."""
    _check_cut(word, k)
    if n == 0:
        return identity(spec, word)
    if n == 1:
        c1 = block_crossing(spec, word, k, True)
        c2 = block_crossing(spec, c1.dst, len(word) - k, True)
        return c2 @ c1
    base = double_braiding(spec, word, k, 1)

    def power(c, blk):
        # a negative power inverts first, as np.linalg.matrix_power does
        if n < 0:
            blk = _inverses(blk[None], lambda _: f"monodromy on the word "
                            f"{word} at root {c} is singular")[0]
        return np.linalg.matrix_power(blk, abs(n))
    return _blockwise(base, base.layout, power)


def twist_endo(spec: CategorySpec, word, power: int = 1) -> Morphism:
    """Ribbon twist of the whole word, theta_c^power on each root block."""
    return Morphism(spec, word, word,
                    {c: (spec.theta[c] ** power) * np.eye(len(ts))
                     for c, ts in trees(spec, word).items()})


# ---------------------------------------------------------------------------
# duality


def _dual(spec: CategorySpec, i: int) -> int:
    """dual(i), once the word (i,) has passed its check."""
    trees(spec, (i,))
    return int(spec.dual[i])


def cup(spec: CategorySpec, i: int) -> Morphism:
    """b_i : 1 -> i (x) dual(i), the fusion-tree coevaluation."""
    ib = _dual(spec, i)
    return Morphism(spec, (), (i, ib), {0: np.array([[1.0]])})


@cached("cap_scale")
def _cap_scale(spec, i):
    """1 / F^-1[i, dual(i), i; i] at the vacuum channels: the inverse of the
    zigzag (id_i (x) raw cap) o (cup (x) id_i) of the unscaled cap."""
    return 1 / _finv(spec, i, _dual(spec, i), i, i)[0, 0]


def cap(spec: CategorySpec, i: int) -> Morphism:
    """d_i : dual(i) (x) i -> 1, normalized so the first snake is exact."""
    ib = _dual(spec, i)
    return Morphism(spec, (ib, i), (), {0: np.array([[_cap_scale(spec, i)]])})


@cached("cup_twisted")
def cup_twisted(spec: CategorySpec, i: int) -> Morphism:
    """bt_i = (id (x) theta_i) o c_{i, dual(i)} o b_i : 1 -> dual(i) (x) i."""
    ib = _dual(spec, i)
    tw = tensor(identity(spec, (ib,)), twist_endo(spec, (i,), 1))
    return tw @ braid_generator(spec, (i, ib), 1, True) @ cup(spec, i)


@cached("cap_twisted")
def cap_twisted(spec: CategorySpec, i: int) -> Morphism:
    """dt_i = d_i o c_{i, dual(i)} o (theta_i (x) id) : i (x) dual(i) -> 1."""
    ib = _dual(spec, i)
    tw = tensor(twist_endo(spec, (i,), 1), identity(spec, (ib,)))
    return cap(spec, i) @ braid_generator(spec, (i, ib), 1, True) @ tw


def dual_word(spec: CategorySpec, word):
    return tuple(_dual(spec, x) for x in reversed(word))


def nested_cup(spec: CategorySpec, word) -> Morphism:
    """1 -> w (x) dual(w), cups nested outside-in."""
    if not word:
        return identity(spec, ())
    x = word[0]
    xb = _dual(spec, x)
    inner = nested_cup(spec, word[1:])
    return embed(inner, left=(x,), right=(xb,)) @ cup(spec, x)


def nested_cap(spec: CategorySpec, word) -> Morphism:
    """w (x) dual(w) -> 1 with twisted caps, matching nested_cup."""
    if not word:
        return identity(spec, ())
    x = word[0]
    xb = _dual(spec, x)
    inner = nested_cap(spec, word[1:])
    return cap_twisted(spec, x) @ embed(inner, left=(x,), right=(xb,))


def trace_diagrammatic(f: Morphism) -> complex:
    """Quantum trace by closing the diagram with nested cups and caps."""
    if f.src != f.dst:
        raise TraceOnNonEndomorphism(f"trace of {f.src} -> {f.dst}")
    spec = f.spec
    w = f.src
    wd = dual_word(spec, w)
    closed = nested_cap(spec, w) @ tensor(f, identity(spec, wd)) \
        @ nested_cup(spec, w)
    return as_scalar(closed)


def trace_formula(f: Morphism) -> complex:
    """Quantum trace as sum_c d_c tr(block_c)."""
    if f.src != f.dst:
        raise TraceOnNonEndomorphism(f"trace of {f.src} -> {f.dst}")
    return complex(sum(f.spec.dims[c] * np.trace(blk)
                       for c, blk in _views(f.layout, f.flat)))
