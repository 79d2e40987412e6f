"""Deligne tensor products of skeletal categories.

Labels of a product are flattened row-major: the pair (a1, a2) becomes
a1 * rank2 + a2, so iterated products of one base category have labels in
base-rank positional notation.  A multiplicity index pairs the same way,
(m1, m2) -> m1 * n2 + m2.

Every product block, of F, of R or of a paired morphism, is the Kronecker
product of two factor blocks, so every entry is exactly the product of its
two factor entries, with its rows and columns sorted by ``_product_order``
into the product basis.  A basis element is a row of labels: (e, alpha,
beta) for an F row, (f, gamma, delta) for an F column, L + M for a tree
(L, M).  As m2 < n2, product rows sort as the two factor rows interleaved,
(x1, y1, x2, y2, ...), where Kronecker order is (x1, x2, ..., y1, y2, ...);
the two agree on rows of one label, as on the two-letter words of R.

``deligne_pair`` reads the factors' block stacks and pairs every two
stacks of given sizes in one broadcast product, written straight into
the flat array that the product spec holds, laid out by the product
ring's keys; the spec adds the identities of the unit strands.
"""

from __future__ import annotations

import numpy as np

from .category import (CategorySpec, FusionRing, _Blocks, _blocks, _f_keys,
                       _groups, _Laid, _mult, _r_keys, _ranges, _summands,
                       cached)
from .engine import Morphism
from .errors import RankOverflow, ShapeMismatch

MAX_PRODUCT_RANK = 128


def _f_labels(ring: FusionRing) -> list:
    """The labels of the rows (e, alpha, beta) and of the columns (f,
    gamma, delta) of the ring's F-blocks, as ``FusionRing.f_basis`` orders
    them: for each, {n: the labels of the blocks of size n, stacked (count,
    n, 3) in key order}."""
    K = _f_keys(ring)
    x, y, z, w, v = K.paths
    m = _mult(ring.N, z, w, v)
    h = _mult(ring.N, x, y, z) * m
    # entry k of a path is row or column k of its channel, (z, k // m, k % m)
    t = np.repeat(np.arange(len(h)), h)
    k = _ranges(0, h)
    labels = np.stack([z[t], *np.divmod(k, m[t])], axis=1)
    first = np.cumsum(K.size) - K.size
    out = []
    for block, offset in ((K.row, K.rowoff), (K.col, K.coloff)):
        lab = np.empty_like(labels)
        lab[first[block[t]] + offset[t] + k] = labels
        out.append({n: lab[first[idx, None] + np.arange(n)]
                    for n, (idx, _) in K.groups.items()})
    return out


def _kron(x, y):
    """The Kronecker products of two stacks of matrices, pair by pair."""
    n, r1, c1 = x.shape
    _, r2, c2 = y.shape
    return (x[:, :, None, :, None] * y[:, None, :, None, :]).reshape(
        n, r1 * r2, c1 * c2)


def _product_order(lab1, lab2):
    """Per pair of factor bases, given as stacks of label rows (n, k1, w)
    and (n, k2, w), the Kronecker positions of the product basis in its own
    order: the interleaved rows (x1, y1, ..., xw, yw) sorted ascending.
    Rows without labels keep Kronecker order."""
    n, k1, w = lab1.shape
    k2 = lab2.shape[1]
    if not w:
        return np.broadcast_to(np.arange(k1 * k2), (n, k1 * k2))
    keys = np.empty((w, 2, n, k1, k2), dtype=np.int64)
    keys[:, 0] = lab1.transpose(2, 0, 1)[..., None]
    keys[:, 1] = lab2.transpose(2, 0, 1)[:, :, None, :]
    return np.lexsort(keys.reshape(2 * w, n, k1 * k2)[::-1])


def _paired(b1: _Blocks, b2: _Blocks, keys, r2, strands, block) -> _Laid:
    """The product's blocks, laid out by its ``keys``, at every pair of
    factor keys whose product key has no unit among its first ``strands``
    labels.  ``block(n1, p1, n2, p2)`` pairs the blocks at positions p1 of
    the first factor's stack of size n1 with those at p2 of the second's of
    size n2, every pair of one pair of sizes at once."""
    k1, k2 = b1.keys, b2.keys
    lab1, lab2 = (np.stack(k.labels(), axis=1) for k in (k1, k2))
    i1, i2 = np.divmod(np.arange(len(lab1) * len(lab2)), len(lab2))
    prod = lab1[i1] * r2 + lab2[i2]
    keep = np.flatnonzero((prod[:, :strands] > 0).all(axis=1))
    i1, i2, n1, n2 = i1[keep], i2[keep], k1.size[i1[keep]], k2.size[i2[keep]]
    at = keys.start[keys.find(*prod[keep].T)]
    flat = np.empty(keys.total + int(keys.size.max()) ** 2,
                    dtype=np.complex128)
    for p, (s1, s2) in _groups([n1, n2], int(max(k1.size.max(),
                                                 k2.size.max())) + 1):
        flat[at[p, None] + np.arange((s1 * s2) ** 2)] = block(
            s1, k1.pos[i1[p]], s2, k2.pos[i2[p]]).reshape(len(p), -1)
    return _Laid(flat)


def _pair_tables(ring: FusionRing, s1: CategorySpec, s2: CategorySpec):
    """F and R of the product on ``ring``, paired from the factor blocks.

    The product key (A, B, C, D) of a pair of factor F-keys pairs them
    label by label; keys with a unit among A, B, C are not paired, as the
    spec makes their identities.  The pairs are grouped by their two block
    sizes, and each group is one broadcast product, the Kronecker product
    of its factor blocks, whose rows and columns are then sorted into the
    product basis.  R[A,B,C] maps the trees of (A, B) at C to those of
    (B, A); there Kronecker order is the product's order.
    """
    r2 = s2.rank
    f1, f2 = _blocks(s1, "F"), _blocks(s2, "F")
    (rows1, cols1), (rows2, cols2) = _f_labels(s1.ring), _f_labels(s2.ring)

    def f_block(n1, p1, n2, p2):
        rows = _product_order(rows1[n1][p1], rows2[n2][p2])
        cols = _product_order(cols1[n1][p1], cols2[n2][p2])
        return np.take_along_axis(np.take_along_axis(
            _kron(f1.stack(n1)[p1], f2.stack(n2)[p2]), rows[:, :, None], 1),
            cols[:, None, :], 2)

    R1, R2 = _blocks(s1, "R"), _blocks(s2, "R")
    return (_paired(f1, f2, _f_keys(ring), r2, 3, f_block),
            _paired(R1, R2, _r_keys(ring), r2, 2, lambda n1, p1, n2, p2:
                    _kron(R1.stack(n1)[p1], R2.stack(n2)[p2])))


def _product_rules(ring1: FusionRing, ring2: FusionRing):
    """N and dual of the product of two fusion rings, labels row-major.

    Its slices at the unit of either factor are the other factor's N, so
    a ring equal to this one has exactly these factors, in this order."""
    rank = ring1.rank * ring2.rank
    N = np.einsum("ijk,lmn->iljmkn", ring1.N, ring2.N).reshape(
        rank, rank, rank)
    return N, (ring1.dual[:, None] * ring2.rank + ring2.dual).ravel()


def deligne_pair(s1: CategorySpec, s2: CategorySpec) -> CategorySpec:
    """The product category of two skeletal presentations."""
    r1, r2 = s1.rank, s2.rank
    rank = r1 * r2
    if rank > MAX_PRODUCT_RANK:
        raise RankOverflow(
            f"product rank {rank} exceeds the cap {MAX_PRODUCT_RANK}")
    ring = FusionRing(*_product_rules(s1.ring, s2.ring))
    F, R = _pair_tables(ring, s1, s2)
    names = None
    if s1.label_names and s2.label_names:
        names = [f"({x},{y})" for x in s1.label_names for y in s2.label_names]
    return CategorySpec(f"{s1.name}*{s2.name}", ring,
                        np.kron(s1.dims, s2.dims), np.kron(s1.theta, s2.theta),
                        F, R, label_names=names)


def deligne_power(spec: CategorySpec, n: int) -> CategorySpec:
    """n-fold product of one category with itself, folded pairwise."""
    if type(n) is not int or n < 1:
        raise ValueError(f"power must be a Python int of at least 1, "
                         f"not {n!r}")
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


@cached("ptree_map")
def product_tree_map(prod: FusionRing, ring1: FusionRing, ring2: FusionRing,
                     word):
    """Per root, the product order of the Kronecker grid of factor trees:
    {root: perm}, the product tree at position p pairing factor trees i1
    and i2 with perm[p] = i1 * k2 + i2, k2 the second factor's tree count
    at root % ring2.rank.  Cached on ``prod``, the ring built from
    ``ring1`` and ``ring2``."""
    roots = prod.tree_basis(word)
    r2 = ring2.rank
    t1 = ring1.tree_basis(tuple(x // r2 for x in word))
    t2 = ring2.tree_basis(tuple(x % r2 for x in word))
    out = {}
    for root in roots:
        c1, c2 = divmod(root, r2)
        lab1, lab2 = (np.array([L + M for L, M in ts], dtype=np.int64)
                      for ts in (t1[c1], t2[c2]))
        out[root] = _product_order(lab1[None], lab2[None])[0]
    return out


def _interleave(w1, w2, r2):
    if len(w1) != len(w2):
        raise ShapeMismatch("paired morphisms must have words of equal length")
    return tuple(a * r2 + b for a, b in zip(w1, w2))


def pair_morphism(prod: CategorySpec, f1: Morphism, f2: Morphism) -> Morphism:
    """The morphism f1 x f2 of the product category.

    Source and target words pair the factor letters positionally, so both
    factors must have source words of one common length and likewise for
    targets.  f1 and f2 must lie on categories with the fusion rules of
    the product's first and second factor; direct sums of words are
    refused.  The block at each root is the Kronecker product of the
    factor blocks, its rows in the product order of the target's trees and
    its columns in that of the source's.
    """
    if any(_summands(end) is end
           for f in (f1, f2) for end in (f.src, f.dst)):
        raise ShapeMismatch("paired morphisms must map words, not direct "
                            "sums of words")
    s1, s2 = f1.spec, f2.spec
    N, dual = _product_rules(s1.ring, s2.ring)
    if not (np.array_equal(N, prod.ring.N)
            and np.array_equal(dual, prod.ring.dual)):
        raise ShapeMismatch("the product's fusion rules are not those of "
                            "the morphisms' categories, in order")
    r2 = s2.rank
    src = _interleave(f1.src, f2.src, r2)
    dst = _interleave(f1.dst, f2.dst, r2)
    smap = product_tree_map(prod.ring, s1.ring, s2.ring, src)
    dmap = product_tree_map(prod.ring, s1.ring, s2.ring, dst)
    b1, b2 = f1.blocks, f2.blocks
    blocks = {}
    for root in smap.keys() & dmap.keys():
        c1, c2 = divmod(root, r2)
        if c1 in b1 and c2 in b2:
            blk = _kron(b1[c1][None], b2[c2][None])[0]
            blocks[root] = blk[np.ix_(dmap[root], smap[root])]
    return Morphism(prod, src, dst, blocks)
