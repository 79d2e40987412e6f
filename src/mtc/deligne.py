"""Deligne tensor products of skeletal categories.

Labels of a product are flattened row-major: the pair (a1, a2) becomes
a1 * rank2 + a2, so iterated products of one base category have labels in
base-rank positional notation.  All structure data factorizes; the only
care point is the F-table, whose canonical row order (e, alpha, beta)
interleaves the two factors and therefore differs from a plain Kronecker
product of the factor blocks.
"""

from __future__ import annotations

import numpy as np

from .category import CategorySpec, FusionRing
from .engine import Morphism, tree_positions, trees
from .errors import RankOverflow, ShapeMismatch

MAX_PRODUCT_RANK = 128


def _pair_tables(shell: CategorySpec, s1: CategorySpec, s2: CategorySpec):
    ring = shell.ring
    rank = ring.rank
    r2 = s2.rank
    F = {}
    R = {}
    for A in range(1, rank):
        a1, a2 = divmod(A, r2)
        for B in range(1, rank):
            b1, b2 = divmod(B, r2)
            for Cc in range(1, rank):
                c1, c2 = divmod(Cc, r2)
                for D in ring.word_dims((A, B, Cc)).nonzero()[0]:
                    D = int(D)
                    d1, d2 = divmod(D, r2)
                    F1 = s1.f_block(a1, b1, c1, d1)
                    F2 = s2.f_block(a2, b2, c2, d2)
                    _, rp1, _, cp1 = s1.f_basis(a1, b1, c1, d1)
                    _, rp2, _, cp2 = s2.f_basis(a2, b2, c2, d2)
                    rows, _, cols, _ = shell.f_basis(A, B, Cc, D)
                    blk = np.zeros((len(rows), len(cols)),
                                   dtype=np.complex128)
                    for i, (E, al, bt) in enumerate(rows):
                        e1, e2 = divmod(E, r2)
                        al1, al2 = divmod(al, s2.ring.n(a2, b2, e2))
                        bt1, bt2 = divmod(bt, s2.ring.n(e2, c2, d2))
                        i1 = rp1[(e1, al1, bt1)]
                        i2 = rp2[(e2, al2, bt2)]
                        for j, (Ff, gm, dl) in enumerate(cols):
                            f1, f2 = divmod(Ff, r2)
                            gm1, gm2 = divmod(gm, s2.ring.n(b2, c2, f2))
                            dl1, dl2 = divmod(dl, s2.ring.n(a2, f2, d2))
                            blk[i, j] = (F1[i1, cp1[(f1, gm1, dl1)]]
                                         * F2[i2, cp2[(f2, gm2, dl2)]])
                    F[(A, B, Cc, D)] = blk
            for Cc in ring.channels(A, B):
                c1, c2 = divmod(Cc, r2)
                R[(A, B, Cc)] = np.kron(s1.r_block(a1, b1, c1),
                                        s2.r_block(a2, b2, c2))
    return F, R


def deligne_pair(s1: CategorySpec, s2: CategorySpec, name=None) -> CategorySpec:
    """The product category of two skeletal presentations."""
    r1, r2 = s1.rank, s2.rank
    rank = r1 * r2
    if rank > MAX_PRODUCT_RANK:
        raise RankOverflow(
            f"product rank {rank} exceeds the cap {MAX_PRODUCT_RANK}")
    N = np.einsum("ijk,lmn->iljmkn", s1.ring.N, s2.ring.N).reshape(
        rank, rank, rank)
    dual = [int(s1.dual[a1]) * r2 + int(s2.dual[a2])
            for a1 in range(r1) for a2 in range(r2)]
    ring = FusionRing(N, dual)
    dims = np.kron(s1.dims, s2.dims)
    theta = np.kron(s1.theta, s2.theta)
    if name is None:
        name = f"{s1.name}*{s2.name}"
    shell = CategorySpec(name, ring, dims, theta, {}, {})
    F, R = _pair_tables(shell, s1, s2)
    names = None
    if s1.label_names and s2.label_names:
        names = [f"({x},{y})" for x in s1.label_names for y in s2.label_names]
    return CategorySpec(name, ring, dims, theta, F, R, label_names=names)


def deligne_power(spec: CategorySpec, n: int) -> CategorySpec:
    """n-fold product of one category with itself, folded pairwise."""
    if n < 1:
        raise ValueError("power must be at least 1")
    if spec.rank ** n > MAX_PRODUCT_RANK:
        raise RankOverflow(
            f"rank {spec.rank}^{n} exceeds the cap {MAX_PRODUCT_RANK}")
    out = spec
    for _ in range(n - 1):
        out = deligne_pair(out, spec)
    if n > 1:
        out.name = f"{spec.name}^{n}"
        out.product_of = (spec.name, n)
    return out


# ---------------------------------------------------------------------------
# morphism pairing


def _factor_words(word, r2):
    w1 = tuple(x // r2 for x in word)
    w2 = tuple(x % r2 for x in word)
    return w1, w2


def product_tree_map(prod: CategorySpec, s1: CategorySpec, s2: CategorySpec,
                     word):
    """Per root, the factor-tree indices of each product tree.

    Returns {root: list of (i1, i2)} aligned with the product tree order;
    the factor roots are divmod(root, s2.rank).
    """
    cache = prod._cache.setdefault("ptree_map", {})
    if word in cache:
        return cache[word]
    r2 = s2.rank
    w1, w2 = _factor_words(word, r2)
    t1pos = tree_positions(s1, w1)
    t2pos = tree_positions(s2, w2)
    out = {}
    for root, ts in trees(prod, word).items():
        c1, c2 = divmod(root, r2)
        pairs = []
        for (L, M) in ts:
            L1 = tuple(l // r2 for l in L)
            L2 = tuple(l % r2 for l in L)
            M1 = []
            M2 = []
            prev2 = w2[0] if word else 0
            for j, (lab, mult) in enumerate(zip(L, M)):
                lab2 = lab % r2
                m1, m2 = divmod(mult, s2.ring.n(prev2, w2[j + 1], lab2))
                M1.append(m1)
                M2.append(m2)
                prev2 = lab2
            pairs.append((t1pos[c1][(L1, tuple(M1))],
                          t2pos[c2][(L2, tuple(M2))]))
        out[root] = pairs
    cache[word] = out
    return out


def _interleave(w1, w2, r2):
    if len(w1) != len(w2):
        raise ShapeMismatch("paired morphisms must have words of equal length")
    return tuple(a * r2 + b for a, b in zip(w1, w2))


def pair_morphism(prod: CategorySpec, f1: Morphism, f2: Morphism) -> Morphism:
    """The morphism f1 x f2 of the product category.

    Source and target words pair the factor letters positionally, so both
    factors must have source words of one common length and likewise for
    targets.
    """
    s1, s2 = f1.spec, f2.spec
    r2 = s2.rank
    if prod.rank != s1.rank * r2:
        raise ShapeMismatch("product category does not match the factors")
    src = _interleave(f1.src, f2.src, r2)
    dst = _interleave(f1.dst, f2.dst, r2)
    smap = product_tree_map(prod, s1, s2, src)
    dmap = product_tree_map(prod, s1, s2, dst)
    blocks = {}
    for root in set(smap) & set(dmap):
        c1, c2 = divmod(root, r2)
        B1 = f1.blocks.get(c1)
        B2 = f2.blocks.get(c2)
        if B1 is None or B2 is None:
            continue
        si1 = [p[0] for p in smap[root]]
        si2 = [p[1] for p in smap[root]]
        di1 = [p[0] for p in dmap[root]]
        di2 = [p[1] for p in dmap[root]]
        blocks[root] = B1[np.ix_(di1, si1)] * B2[np.ix_(di2, si2)]
    return Morphism(prod, src, dst, blocks)
