"""Fusion-tree diagram calculus.

A morphism between tensor words w -> w' is stored per simple root c as a
matrix over the left-nested fusion-tree bases of Hom(w, c) and Hom(w', c).
A tree for a word of length n is a pair (labels, mults) with labels the
intermediate charges (A_2, ..., A_n) and mults the fusion-vertex
multiplicities; A_1 = w_1 and A_0 = 0 are implicit.  Trees with a common
root are ordered lexicographically by (labels, mults).  The engine reads
every basis and its positions from their one owner, ``CategorySpec`` in
``mtc.category``: ``tree_basis``, ``split_basis`` and ``f_basis``.

Because the tree bases and their duals are normalized to f_i o fbar_j =
delta_ij id_c, composition of morphisms is plain per-root matrix
multiplication.  Tensor products are computed through cached split
transforms, braidings through cached local F' R F^-1 matrices, and duality
morphisms through a calibrated cup/cap gauge.
"""

from __future__ import annotations

import numpy as np

from .category import CategorySpec
from .errors import (PositionOutOfRange, ShapeMismatch, TraceOnNonEndomorphism,
                     WordTooLong)
from .report import max_dev

MAX_WORD_LENGTH = 8


def _cache(spec: CategorySpec, section: str) -> dict:
    return spec._cache.setdefault(section, {})


# ---------------------------------------------------------------------------
# trees


def _word(word):
    word = tuple(int(x) for x in word)
    if len(word) > MAX_WORD_LENGTH:
        raise WordTooLong(
            f"word of length {len(word)} exceeds the cap {MAX_WORD_LENGTH}")
    return word


def trees(spec: CategorySpec, word):
    """All left-nested fusion trees of the word, grouped by root."""
    return spec.tree_basis(_word(word))


def tree_positions(spec: CategorySpec, word):
    """{root: {tree: position}} for the trees of the word."""
    return spec.tree_positions(_word(word))


def _finv(spec, a, b, c, d):
    cache = _cache(spec, "finv")
    key = (a, b, c, d)
    if key not in cache:
        cache[key] = np.linalg.inv(spec.f_block(a, b, c, d))
    return cache[key]


# ---------------------------------------------------------------------------
# morphisms


class Morphism:
    """Linear map between the tensor products of two words."""

    __slots__ = ("spec", "src", "dst", "blocks")

    def __init__(self, spec, src, dst, blocks):
        self.spec = spec
        self.src = tuple(int(x) for x in src)
        self.dst = tuple(int(x) for x in dst)
        tsrc = trees(spec, self.src)
        tdst = trees(spec, self.dst)
        full = {}
        for c in set(tsrc) & set(tdst):
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
    word = tuple(int(x) for x in word)
    return Morphism(spec, word, word,
                    {c: np.eye(len(ts), dtype=np.complex128)
                     for c, ts in trees(spec, word).items()})


def compose(*morphisms: Morphism) -> Morphism:
    """Compose right to left: compose(f, g, h) = f o g o h."""
    out = morphisms[0]
    for m in morphisms[1:]:
        out = out @ m
    return out


def as_scalar(m: Morphism) -> complex:
    if m.src != () or m.dst != ():
        raise ShapeMismatch("scalar extraction needs an endomorphism of the "
                            "empty word")
    return complex(m.blocks[0][0, 0])


# ---------------------------------------------------------------------------
# split transforms and tensor products


def split_transform(spec: CategorySpec, word, k: int):
    """Change of basis between trees of the word and split pairs at cut k.

    Returns {root: (M, cols, colpos)} where column (a, si, b, ti, mu) is the
    vector f^{ab->c}_mu o (tree_si(u) (x) tree_ti(v)), u = word[:k],
    v = word[k:], expanded as M[:, col] over the trees of the full word.
    """
    word = tuple(int(x) for x in word)
    cache = _cache(spec, "split")
    key = (word, k)
    if key in cache:
        return cache[key]
    if not 0 <= k <= len(word):
        raise PositionOutOfRange(f"cut {k} invalid for word of length {len(word)}")
    u, v = word[:k], word[k:]
    tu = trees(spec, u)
    tv = trees(spec, v)
    tpos = tree_positions(spec, word)
    if len(v) > 1:
        z = v[-1]
        sub = split_transform(spec, word[:-1], k)
        tprev = trees(spec, word[:-1])
        tv2_pos = tree_positions(spec, v[:-1])
    out = {}
    for c, ts in trees(spec, word).items():
        cols, colpos = spec.split_basis(u, v, c)
        if not v:
            # the split basis of (word, ()) at root c is (c, i, 0, 0, 0)
            out[c] = (np.eye(len(ts), dtype=np.complex128), cols, colpos)
            continue
        M = np.zeros((len(ts), len(cols)), dtype=np.complex128)
        for j, (a, si, b, ti, mu) in enumerate(cols):
            if len(v) == 1:
                s = tu[a][si]
                tree = ((), ()) if k == 0 else (s[0] + (c,), s[1] + (mu,))
                M[tpos[c][tree], j] = 1.0
                continue
            t = tv[b][ti]
            if len(v) == 2:
                b2 = v[0]
                t2 = ((), ())
            else:
                b2 = t[0][-2]
                t2 = (t[0][:-1], t[1][:-1])
            beta = t[1][-1]
            t2i = tv2_pos[b2][t2]
            Finv = _finv(spec, a, b2, z, c)
            frows, _, _, fcol_pos = spec.f_basis(a, b2, z, c)
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
    cache[key] = out
    return out


def tensor(f: Morphism, g: Morphism) -> Morphism:
    """Horizontal juxtaposition f (x) g."""
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


def embed(spec: CategorySpec, f: Morphism, left=(), right=()) -> Morphism:
    """id_left (x) f (x) id_right."""
    out = f
    if tuple(left):
        out = tensor(identity(spec, left), out)
    if tuple(right):
        out = tensor(out, identity(spec, right))
    return out


# ---------------------------------------------------------------------------
# braiding


def _braid_local(spec, q, a, b, d, over):
    """Matrix of id_q (x) c_{a,b} from Hom(q a b, d) to Hom(q b a, d) in
    left-nested bases, computed as F(q,b,a;d) D F(q,a,b;d)^-1 with D the
    R-action on the right-nested channel slot."""
    cache = _cache(spec, "braid_local")
    key = (q, a, b, d, bool(over))
    if key in cache:
        return cache[key]
    cols_s = spec.f_cols(q, a, b, d)
    cols_d = spec.f_cols(q, b, a, d)
    D = np.zeros((len(cols_d), len(cols_s)), dtype=np.complex128)
    rmats = {}
    for jj, (x2, g2, d2) in enumerate(cols_d):
        for ii, (x, g, d1) in enumerate(cols_s):
            if x2 != x or d2 != d1:
                continue
            if x not in rmats:
                if over:
                    rmats[x] = spec.r_block(a, b, x)
                else:
                    rmats[x] = np.linalg.inv(spec.r_block(b, a, x))
            D[jj, ii] = rmats[x][g2, g]
    local = spec.f_block(q, b, a, d) @ D @ _finv(spec, q, a, b, d)
    out = (local, spec.f_basis(q, a, b, d)[1], spec.f_rows(q, b, a, d))
    cache[key] = out
    return out


def braid_generator(spec: CategorySpec, word, p: int, over: bool = True
                    ) -> Morphism:
    """Elementary braiding of strands p and p+1 (1-based).

    ``over`` selects c_{w_p, w_{p+1}}; otherwise the inverse braiding
    c_{w_{p+1}, w_p}^-1 is used.
    """
    word = tuple(int(x) for x in word)
    n = len(word)
    if not 1 <= p <= n - 1:
        raise PositionOutOfRange(
            f"braid position {p} invalid for word of length {n}")
    cache = _cache(spec, "braid_gen")
    key = (word, p, bool(over))
    if key in cache:
        return cache[key]
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
            A_next = L[p - 1]
            bt = M[p - 1]
            local, pos_src, rows_dst = _braid_local(spec, q, a, b, A_next,
                                                    over)
            i_loc = pos_src[(x_old, al, bt)]
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
    out = Morphism(spec, word, dst_word, blocks)
    cache[key] = out
    return out


def block_crossing(spec: CategorySpec, word, k: int, over: bool = True
                   ) -> Morphism:
    """Braid the first k strands past the rest: U (x) V -> V (x) U.

    With ``over`` the result is c_{U,V} (every U strand crosses over every V
    strand); with ``over=False`` it is c_{V,U}^-1.
    """
    word = tuple(int(x) for x in word)
    cache = _cache(spec, "block_crossing")
    key = (word, k, bool(over))
    if key in cache:
        return cache[key]
    m = len(word) - k
    cur = identity(spec, word)
    cur_word = word
    for t in range(1, m + 1):
        for p in range(k + t - 1, t - 1, -1):
            gen = braid_generator(spec, cur_word, p, over)
            cur = gen @ cur
            cur_word = gen.dst
    cache[key] = cur
    return cur


def double_braiding(spec: CategorySpec, word, k: int, n: int = 1) -> Morphism:
    """n-th power of the monodromy c_{V,U} o c_{U,V} with U = word[:k]."""
    word = tuple(int(x) for x in word)
    n = int(n)
    cache = _cache(spec, "double_braiding")
    key = (word, k, n)
    if key in cache:
        return cache[key]
    if n == 0:
        out = identity(spec, word)
    else:
        base_key = (word, k, 1)
        if base_key in cache:
            base = cache[base_key]
        else:
            c1 = block_crossing(spec, word, k, True)
            c2 = block_crossing(spec, c1.dst, len(word) - k, True)
            base = c2 @ c1
            cache[base_key] = base
        if n == 1:
            out = base
        else:
            out = Morphism(spec, word, word,
                           {c: np.linalg.matrix_power(blk, n)
                            for c, blk in base.blocks.items()})
    cache[key] = out
    return out


def twist_endo(spec: CategorySpec, word, power: int = 1) -> Morphism:
    """Ribbon twist of the whole word, theta_c^power on each root block."""
    word = tuple(int(x) for x in word)
    return Morphism(spec, word, word,
                    {c: (spec.theta[c] ** power) * np.eye(len(ts))
                     for c, ts in trees(spec, word).items()})


# ---------------------------------------------------------------------------
# duality


def cup(spec: CategorySpec, i: int) -> Morphism:
    """b_i : 1 -> i (x) dual(i), the fusion-tree coevaluation."""
    ib = int(spec.dual[i])
    return Morphism(spec, (), (i, ib), {0: np.array([[1.0]])})


def _cap_scale(spec, i):
    cache = _cache(spec, "cap_scale")
    if i in cache:
        return cache[i]
    ib = int(spec.dual[i])
    raw = Morphism(spec, (ib, i), (), {0: np.array([[1.0]])})
    zig = tensor(identity(spec, (i,)), raw) @ tensor(cup(spec, i),
                                                     identity(spec, (i,)))
    s = zig.blocks[int(i)][0, 0]
    cache[i] = 1.0 / s
    return cache[i]


def cap(spec: CategorySpec, i: int) -> Morphism:
    """d_i : dual(i) (x) i -> 1, normalized so the first snake is exact."""
    ib = int(spec.dual[i])
    return Morphism(spec, (ib, i), (), {0: np.array([[_cap_scale(spec, i)]])})


def cup_twisted(spec: CategorySpec, i: int) -> Morphism:
    """bt_i = (id (x) theta_i) o c_{i, dual(i)} o b_i : 1 -> dual(i) (x) i."""
    ib = int(spec.dual[i])
    tw = tensor(identity(spec, (ib,)), twist_endo(spec, (i,), 1))
    return tw @ braid_generator(spec, (i, ib), 1, True) @ cup(spec, i)


def cap_twisted(spec: CategorySpec, i: int) -> Morphism:
    """dt_i = d_i o c_{i, dual(i)} o (theta_i (x) id) : i (x) dual(i) -> 1."""
    ib = int(spec.dual[i])
    tw = tensor(twist_endo(spec, (i,), 1), identity(spec, (ib,)))
    return cap(spec, i) @ braid_generator(spec, (i, ib), 1, True) @ tw


def dual_word(spec: CategorySpec, word):
    return tuple(int(spec.dual[x]) for x in reversed(tuple(word)))


def nested_cup(spec: CategorySpec, word) -> Morphism:
    """1 -> w (x) dual(w), cups nested outside-in."""
    word = tuple(int(x) for x in word)
    if not word:
        return identity(spec, ())
    x = word[0]
    xb = int(spec.dual[x])
    inner = nested_cup(spec, word[1:])
    return embed(spec, inner, (x,), (xb,)) @ cup(spec, x)


def nested_cap(spec: CategorySpec, word) -> Morphism:
    """w (x) dual(w) -> 1 with twisted caps, matching nested_cup."""
    word = tuple(int(x) for x in word)
    if not word:
        return identity(spec, ())
    x = word[0]
    xb = int(spec.dual[x])
    inner = nested_cap(spec, word[1:])
    return cap_twisted(spec, x) @ embed(spec, inner, (x,), (xb,))


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
