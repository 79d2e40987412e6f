"""Deligne tensor products of skeletal categories.

Labels of a product are flattened row-major: the pair (a1, a2) becomes
a1 * rank2 + a2, so iterated products of one base category have labels in
base-rank positional notation.  A multiplicity index pairs the same way,
(m1, m2) -> m1 * n2 + m2.  Every product block, of the F- and R-tables and
of a paired morphism, is its two factor blocks paired over the product's
trees, and ``product_tree_map`` is the one decoder of a product tree into
its factor trees.  Trees are decoded on the rings, so the maps built while
pairing the tables are cached on the product ring and reused by
``pair_morphism``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .category import CategorySpec, FusionRing, _summands, cached
from .engine import Morphism
from .errors import RankOverflow, ShapeMismatch

MAX_PRODUCT_RANK = 128


def _pair_block(B1, B2, rows, cols):
    """The block of B1 x B2 between product bases given as lists of
    factor-index pairs (i1, i2): entry (i, j) is B1[r1, c1] * B2[r2, c2]
    with rows[i] = (r1, r2) and cols[j] = (c1, c2)."""
    (r1, r2), (c1, c2) = zip(*rows), zip(*cols)
    return B1.take(r1, 0).take(c1, 1) * B2.take(r2, 0).take(c2, 1)


def _pair_tables(ring: FusionRing, s1: CategorySpec, s2: CategorySpec):
    """F and R of the product on ``ring``, each block paired from the factor
    blocks.

    The rows of F[A,B,C,D] are the trees of (A, B, C) at D.  Its columns
    (f, gamma, delta) are, in the same order, the trees of (B, C, A) at D:
    they agree on (f, gamma), and the delta counts N[A,f,D] = N[f,A,D]
    agree because the fusion ring of braided data commutes.  Both factor
    F-blocks are indexed the same way, so ``product_tree_map`` of the two
    words gives the factor rows and columns of every product entry.  R[A,B,C]
    maps the trees of (A, B) at C to those of (B, A).
    """
    r2 = s2.rank
    labels = range(1, ring.rank)
    F = {}
    for word in itertools.product(labels, repeat=3):
        rows = product_tree_map(ring, s1.ring, s2.ring, word)
        cols = product_tree_map(ring, s1.ring, s2.ring, word[1:] + word[:1])
        for D in sorted(rows):
            k1, k2 = _factor_words(word + (D,), r2)
            F[word + (D,)] = _pair_block(s1.f_block(*k1), s2.f_block(*k2),
                                         rows[D], cols[D])
    R = {}
    for A, B in itertools.product(labels, repeat=2):
        rows = product_tree_map(ring, s1.ring, s2.ring, (B, A))
        cols = product_tree_map(ring, s1.ring, s2.ring, (A, B))
        for C in sorted(cols):
            k1, k2 = _factor_words((A, B, C), r2)
            R[(A, B, C)] = _pair_block(s1.r_block(*k1), s2.r_block(*k2),
                                       rows[C], cols[C])
    return F, R


def deligne_pair(s1: CategorySpec, s2: CategorySpec) -> CategorySpec:
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
    F, R = _pair_tables(ring, s1, s2)
    names = None
    if s1.label_names and s2.label_names:
        names = [f"({x},{y})" for x in s1.label_names for y in s2.label_names]
    return CategorySpec(f"{s1.name}*{s2.name}", ring,
                        np.kron(s1.dims, s2.dims), np.kron(s1.theta, s2.theta),
                        F, R, label_names=names)


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


@cached("ptree_map")
def product_tree_map(prod: FusionRing, ring1: FusionRing, ring2: FusionRing,
                     word):
    """Per root, the factor-tree indices of each product tree.

    Returns {root: list of (i1, i2)} aligned with the product tree order;
    the factor roots are divmod(root, ring2.rank).  Cached on ``prod``, the
    ring built from ``ring1`` and ``ring2``.
    """
    r2 = ring2.rank
    w1, w2 = _factor_words(word, r2)
    t1pos = ring1.tree_positions(w1)
    t2pos = ring2.tree_positions(w2)
    out = {}
    for root, ts in prod.tree_basis(word).items():
        c1, c2 = divmod(root, r2)
        pairs = []
        for (L, M) in ts:
            L1, L2 = _factor_words(L, r2)
            # vertex j fuses ((w2[0],) + L2)[j] and w2[j + 1] into L2[j]
            ms = [divmod(m, ring2.n(x, y, z))
                  for m, x, y, z in zip(M, w2[:1] + L2, w2[1:], L2)]
            M1 = tuple(m1 for m1, _ in ms)
            M2 = tuple(m2 for _, m2 in ms)
            pairs.append((t1pos[c1][(L1, M1)], t2pos[c2][(L2, M2)]))
        out[root] = pairs
    return out


def _interleave(w1, w2, r2):
    if len(w1) != len(w2):
        raise ShapeMismatch("paired morphisms must have words of equal length")
    return tuple(a * r2 + b for a, b in zip(w1, w2))


def pair_morphism(prod: CategorySpec, f1: Morphism, f2: Morphism) -> Morphism:
    """The morphism f1 x f2 of the product category.

    Source and target words pair the factor letters positionally, so both
    factors must have source words of one common length and likewise for
    targets.  Direct sums of words are refused.
    """
    if any(_summands(end) is end
           for f in (f1, f2) for end in (f.src, f.dst)):
        raise ShapeMismatch("paired morphisms must map words, not direct "
                            "sums of words")
    s1, s2 = f1.spec, f2.spec
    r2 = s2.rank
    if prod.rank != s1.rank * r2:
        raise ShapeMismatch("product category does not match the factors")
    src = _interleave(f1.src, f2.src, r2)
    dst = _interleave(f1.dst, f2.dst, r2)
    smap = product_tree_map(prod.ring, s1.ring, s2.ring, src)
    dmap = product_tree_map(prod.ring, s1.ring, s2.ring, dst)
    blocks = {}
    for root in set(smap) & set(dmap):
        c1, c2 = divmod(root, r2)
        B1 = f1.blocks.get(c1)
        B2 = f2.blocks.get(c2)
        if B1 is not None and B2 is not None:
            blocks[root] = _pair_block(B1, B2, dmap[root], smap[root])
    return Morphism(prod, src, dst, blocks)
