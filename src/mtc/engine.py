"""Fusion-tree diagram calculus.

A word is a tuple of Python ints in [0, rank).  Nothing here converts or
checks words: ``FusionRing.tree_basis`` checks each word and raises
``InvalidWord`` (or ``WordTooLong``), and every word reaches it before a
basis is used.

A morphism between tensor words w -> w' is stored per simple root c as a
matrix over the left-nested fusion-tree bases of Hom(w, c) and Hom(w', c).
A tree for a word of length n is a pair (labels, mults) with labels the
intermediate charges (A_2, ..., A_n) and mults the fusion-vertex
multiplicities; A_1 = w_1 and A_0 = 0 are implicit.  Trees with a common
root are ordered lexicographically by (labels, mults).  The engine reads
every basis and its positions from their one owner, the spec's
``FusionRing`` in ``mtc.category``: ``tree_basis``, ``split_basis`` and
``f_basis``.  What depends on F and R is memoised on the spec by
``category.cached``, one section per table: ``finv``, ``split``,
``whisker_right``, ``whisker_left``, ``braid_gen``, ``block_crossing``,
``double_braiding`` and ``cap_scale``.

Because the tree bases and their duals are normalized to f_i o fbar_j =
delta_ij id_c, composition of morphisms is plain per-root matrix
multiplication.  Right whiskering f (x) id_v leaves the tail of every
left-nested tree untouched, so it is a re-indexing of f's blocks by a
cached gather.  Left whiskering id_u (x) g places g's blocks in the split
basis of the cut by a cached gather and conjugates by the cached split
transforms.  ``tensor`` is their composite (f (x) id) o (id (x) g), and
``embed`` applies them directly.  An elementary braiding is the R-blocks
of its two letters whiskered into the word, so ``split_transform`` is the
one place that applies F-moves.  Duality morphisms go through a calibrated
cup/cap gauge.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .category import MAX_WORD_LENGTH, CategorySpec, cached  # noqa: F401 (re-exported)
from .errors import PositionOutOfRange, ShapeMismatch, TraceOnNonEndomorphism
from .report import max_dev


# ---------------------------------------------------------------------------
# trees


def trees(spec: CategorySpec, word):
    """All left-nested fusion trees of the word, grouped by root."""
    return spec.ring.tree_basis(word)


def tree_positions(spec: CategorySpec, word):
    """{root: {tree: position}} for the trees of the word."""
    return spec.ring.tree_positions(word)


@cached("finv")
def _finv(spec, a, b, c, d):
    return np.linalg.inv(spec.f_block(a, b, c, d))


# ---------------------------------------------------------------------------
# morphisms


class Morphism:
    """Linear map between the tensor products of two words."""

    __slots__ = ("spec", "src", "dst", "blocks")

    def __init__(self, spec, src, dst, blocks):
        self.spec = spec
        self.src = src
        self.dst = dst
        tsrc = trees(spec, src)
        tdst = trees(spec, dst)
        roots = set(tsrc) & set(tdst)
        stray = set(blocks) - roots
        if stray:
            raise ShapeMismatch(f"blocks at roots {sorted(stray)} that "
                                f"{src} and {dst} do not share")
        full = {}
        for c in roots:
            shape = (len(tdst[c]), len(tsrc[c]))
            blk = blocks.get(c)
            if blk is None:
                blk = np.zeros(shape, dtype=np.complex128)
            else:
                blk = np.asarray(blk, dtype=np.complex128)
                if blk.shape != shape:
                    raise ShapeMismatch(
                        f"block at root {c} has shape {blk.shape}, "
                        f"expected {shape}")
            full[c] = blk
        self.blocks = full

    @classmethod
    def trusted(cls, spec, src, dst, blocks) -> "Morphism":
        """Morphism from blocks already complete and of the right shapes;
        nothing is checked."""
        out = cls.__new__(cls)
        out.spec, out.src, out.dst, out.blocks = spec, src, dst, blocks
        return out

    def __matmul__(self, other: "Morphism") -> "Morphism":
        if not isinstance(other, Morphism):
            return NotImplemented
        if other.dst != self.src:
            raise ShapeMismatch(
                f"cannot compose: inner words {other.dst} != {self.src}")
        blocks = {c: self.blocks[c] @ other.blocks[c]
                  for c in set(self.blocks) & set(other.blocks)}
        return Morphism(self.spec, other.src, self.dst, blocks)

    def __add__(self, other):
        if self.src != other.src or self.dst != other.dst:
            raise ShapeMismatch("sum of morphisms with different words")
        return Morphism(self.spec, self.src, self.dst,
                        {c: self.blocks[c] + other.blocks[c]
                         for c in self.blocks})

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, scalar):
        return Morphism(self.spec, self.src, self.dst,
                        {c: blk * scalar for c, blk in self.blocks.items()})

    __rmul__ = __mul__

    def dagger(self) -> "Morphism":
        return Morphism(self.spec, self.dst, self.src,
                        {c: blk.conj().T for c, blk in self.blocks.items()})

    def inverse(self) -> "Morphism":
        blocks = {}
        for c, blk in self.blocks.items():
            if blk.shape[0] != blk.shape[1]:
                raise ShapeMismatch(f"block at root {c} is not square")
            blocks[c] = np.linalg.inv(blk)
        return Morphism(self.spec, self.dst, self.src, blocks)

    def deviation(self, other: "Morphism") -> float:
        if self.src != other.src or self.dst != other.dst:
            raise ShapeMismatch("comparing morphisms with different words")
        return max_dev(*(float(np.max(np.abs(blk - other.blocks[c])))
                         for c, blk in self.blocks.items() if blk.size))

    def max_abs(self) -> float:
        return max_dev(*(float(np.max(np.abs(blk)))
                         for blk in self.blocks.values() if blk.size))

    def __repr__(self):
        return f"Morphism({self.src} -> {self.dst})"


def identity(spec: CategorySpec, word) -> Morphism:
    return Morphism(spec, word, word,
                    {c: np.eye(len(ts), dtype=np.complex128)
                     for c, ts in trees(spec, word).items()})


def as_scalar(m: Morphism) -> complex:
    if m.src != () or m.dst != ():
        raise ShapeMismatch("scalar extraction needs an endomorphism of the "
                            "empty word")
    return complex(m.blocks[0][0, 0])


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
                if e not in sub:
                    continue
                Msub, _, colpos_sub = sub[e]
                col_sub = colpos_sub.get((a, si, b2, t2i, alpha2))
                if col_sub is None:
                    continue
                vec = Msub[:, col_sub]
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
    prefix has root 0 and the first letter enters the tail as
    0 (x) w_1 -> w_1."""
    L, M = tree
    if k == 0:
        return 0, ((), ()), ((word[0],) + L, (0,) + M)
    a = word[0] if k == 1 else L[k - 2]
    return a, (L[:k - 1], M[:k - 1]), (L[k - 1:], M[k - 1:])


def _block_offsets(tsrc, tdst):
    """Sorted common roots of two tree bases and each root block's offset
    in the row-major concatenation of the blocks in that order."""
    roots = sorted(set(tsrc) & set(tdst))
    offsets, n = {}, 0
    for c in roots:
        offsets[c] = n
        n += len(tdst[c]) * len(tsrc[c])
    return roots, offsets, n


class _Plan(NamedTuple):
    """A cached whiskering: a gather from the input's blocks, concatenated
    row-major in the order of ``roots``, into one flat output array."""

    roots: tuple
    size: int
    idx: np.ndarray  # [output offsets, input offsets], one pair per entry
    layout: tuple  # per output root: (root, offset, rows, columns, ...)


def _gather(m: Morphism, plan: _Plan) -> np.ndarray:
    flat = np.zeros(plan.size, dtype=np.complex128)
    if plan.roots:
        flat[plan.idx[0]] = np.concatenate(
            [m.blocks[c].ravel() for c in plan.roots])[plan.idx[1]]
    return flat


@cached("whisker_right")
def _right_plan(spec, src, dst, v):
    """Plan of f (x) id_v for f : src -> dst.  An output entry is f's entry
    between the subtrees of the first letters when both trees have the same
    root there and the same tail after it, and 0 otherwise."""
    sword, dword = src + v, dst + v
    tsrc, tdst = trees(spec, sword), trees(spec, dword)
    tf_src = trees(spec, src)
    psrc, pdst = tree_positions(spec, src), tree_positions(spec, dst)
    roots, f_off, _ = _block_offsets(tf_src, trees(spec, dst))
    out_roots, out_off, size = _block_offsets(tsrc, tdst)
    out_idx, in_idx, layout = [], [], []
    for c in out_roots:
        shape = (len(tdst[c]), len(tsrc[c]))
        by_tail = {}
        for j, tree in enumerate(tsrc[c]):
            a, sub, tail = _cut(tree, len(src), sword)
            by_tail.setdefault((a, tail), []).append((j, psrc[a][sub]))
        for i, tree in enumerate(tdst[c]):
            a, sub, tail = _cut(tree, len(dst), dword)
            cols = by_tail.get((a, tail))
            if cols is None:
                continue
            row = out_off[c] + i * shape[1]
            frow = f_off[a] + pdst[a][sub] * len(tf_src[a])
            for j, jf in cols:
                out_idx.append(row + j)
                in_idx.append(frow + jf)
        layout.append((c, out_off[c]) + shape)
    return _Plan(tuple(roots), size,
                 np.array([out_idx, in_idx], dtype=np.intp), tuple(layout))


@cached("whisker_left")
def _left_plan(spec, u, src, dst):
    """Plan of id_u (x) g for g : src -> dst.  The gather fills, root by
    root, the matrix in the split bases of the cut that equals
    kron(id, g_b) on the columns (a, si, b, ti, mu) of each (a, b, mu); the
    layout adds the cached split transforms Md and Ms of the target and
    source words."""
    sword, dword = u + src, u + dst
    ssrc = split_transform(spec, sword, len(u))
    sdst = split_transform(spec, dword, len(u))
    tg_src, tg_dst = trees(spec, src), trees(spec, dst)
    roots, g_off, _ = _block_offsets(tg_src, tg_dst)
    out_roots, out_off, size = _block_offsets(trees(spec, sword),
                                              trees(spec, dword))
    out_idx, in_idx, layout = [], [], []
    for c in out_roots:
        Ms, cols_s, _ = ssrc[c]
        Md, cols_d, colpos_d = sdst[c]
        for j, (a, si, b, ti, mu) in enumerate(cols_s):
            if b not in g_off:
                continue
            width = len(tg_src[b])
            for td in range(len(tg_dst[b])):
                out_idx.append(out_off[c] + colpos_d[(a, si, b, td, mu)]
                               * len(cols_s) + j)
                in_idx.append(g_off[b] + td * width + ti)
        layout.append((c, out_off[c], len(cols_d), len(cols_s), Md, Ms))
    return _Plan(tuple(roots), size,
                 np.array([out_idx, in_idx], dtype=np.intp), tuple(layout))


def _whisker_right(f: Morphism, v) -> Morphism:
    """f (x) id_v, a re-indexing of f's blocks."""
    if not v:
        return f
    plan = _right_plan(f.spec, f.src, f.dst, v)
    flat = _gather(f, plan)
    return Morphism.trusted(f.spec, f.src + v, f.dst + v,
                            {c: flat[o:o + r * k].reshape(r, k)
                             for c, o, r, k in plan.layout})


def _whisker_left(u, g: Morphism) -> Morphism:
    """id_u (x) g, conjugating g's blocks by the cached split transforms."""
    if not u:
        return g
    plan = _left_plan(g.spec, u, g.src, g.dst)
    flat = _gather(g, plan)
    return Morphism.trusted(
        g.spec, u + g.src, u + g.dst,
        {c: np.linalg.solve(Md.T, flat[o:o + r * k].reshape(r, k) @ Ms.T)
         for c, o, r, k, Md, Ms in plan.layout})


def tensor(f: Morphism, g: Morphism) -> Morphism:
    """Horizontal juxtaposition f (x) g = (f (x) id) o (id (x) g)."""
    return _whisker_right(f, g.dst) @ _whisker_left(f.src, g)


def embed(f: Morphism, *, left=(), right=()) -> Morphism:
    """id_left (x) f (x) id_right."""
    return _whisker_right(_whisker_left(left, f), right)


# ---------------------------------------------------------------------------
# braiding


def _crossing(spec, a, b, over):
    """c_{a,b} (over) or c_{b,a}^-1 (under) on the two-letter word (a, b):
    the R-block itself at every root."""
    roots = trees(spec, (a, b))
    if over:
        blocks = {c: spec.r_block(a, b, c) for c in roots}
    else:
        blocks = {c: np.linalg.inv(spec.r_block(b, a, c)) for c in roots}
    return Morphism(spec, (a, b), (b, a), blocks)


@cached("braid_gen")
def braid_generator(spec: CategorySpec, word, p: int, over: bool = True
                    ) -> Morphism:
    """Elementary braiding of strands p and p+1 (1-based).

    ``over`` selects c_{w_p, w_{p+1}}; otherwise the inverse braiding
    c_{w_{p+1}, w_p}^-1 is used.  The crossing's R-blocks are whiskered by
    the letters before it; the letters after it re-index the cached
    generator of the prefix ending at strand p+1.
    """
    trees(spec, word)  # the word check, before the word is sliced
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
    m = len(word) - k
    cur = identity(spec, word)
    cur_word = word
    for t in range(1, m + 1):
        for p in range(k + t - 1, t - 1, -1):
            gen = braid_generator(spec, cur_word, p, over)
            cur = gen @ cur
            cur_word = gen.dst
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
    return Morphism(spec, word, word,
                    {c: np.linalg.matrix_power(blk, int(n))
                     for c, blk in base.blocks.items()})


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
    ib = _dual(spec, i)
    raw = Morphism(spec, (ib, i), (), {0: np.array([[1.0]])})
    zig = tensor(identity(spec, (i,)), raw) @ tensor(cup(spec, i),
                                                     identity(spec, (i,)))
    return 1.0 / zig.blocks[i][0, 0]


def cap(spec: CategorySpec, i: int) -> Morphism:
    """d_i : dual(i) (x) i -> 1, normalized so the first snake is exact."""
    ib = _dual(spec, i)
    return Morphism(spec, (ib, i), (), {0: np.array([[_cap_scale(spec, i)]])})


def cup_twisted(spec: CategorySpec, i: int) -> Morphism:
    """bt_i = (id (x) theta_i) o c_{i, dual(i)} o b_i : 1 -> dual(i) (x) i."""
    ib = _dual(spec, i)
    tw = tensor(identity(spec, (ib,)), twist_endo(spec, (i,), 1))
    return tw @ braid_generator(spec, (i, ib), 1, True) @ cup(spec, i)


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
                       for c, blk in f.blocks.items()))
