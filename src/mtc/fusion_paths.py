"""The module sweeps of the suite as one braid-group representation on
fusion paths, batched over every label tuple of a sweep.

The tuples of a sweep have one length L, and every word of its identities
orders a tuple's letters: a word order is a permutation of 0..L-1, the same
for every tuple.  ``PathStack`` holds the fusion paths of each word order
for all tuples at once: 0 = A_0, A_1 = w_1, A_2, ..., A_L with vertex
multiplicities mu_1 = 0, mu_2, ..., mu_L, sorted per (tuple, root) in the
order of ``FusionRing.tree_basis``.  A ``Braid`` between two word orders is
one square block per (tuple, root), rows over the target's trees and
columns over the source's.  The size of a block, the number of trees of
the tuple's letters at the root, does not depend on their order, so blocks
of equal size are stacked into one array (B, n, n), never padded.

The braid generator sigma_p changes only A_p, mu_p and mu_{p+1}; every
other label of a path is its context.  On the paths of one context it is
the block of ``engine.braid_generator`` on the word (A_{p-1}, w_p, w_{p+1})
at p = 2 and root A_{p+1} (for p = 1 that of (w_1, w_2) at root A_2, the
R-block), and a path's position in that block is its rank in the context
sorted by (A_p, mu_p, mu_{p+1}).  So sigma_p on a whole stack is one gather
of cached local blocks into dense generator blocks and one batched
``np.matmul`` per block size, and no F-move is computed here.  A block
crossing and a monodromy are the generator sequences of
``engine.block_crossing`` and ``engine.double_braiding``; an inverse is one
stacked ``np.linalg.inv`` per block size, and D^n is
``np.linalg.matrix_power`` of the stacked D.  The twist of the first k
letters, whiskered on the right, is diagonal: theta_{A_k} on each path.

``psi``, ``psi_hat``, ``gamma``, ``psi_from_gamma``, ``alpha_induction``
and ``module_commutor`` are then products of local generators, their
inverses and diagonal twists, so they compose strictly.  The engine
whiskers a multi-letter composite through ``split_transform``, whose
F-move paths agree only when F satisfies the pentagon: on coherent data
both agree to rounding, and on incoherent F these sweeps test the braid
relations of the generators, while F's own pentagon is the ``pentagon``
check of ``validate_category``.  Some identities hold here by
construction: the unit triangle (psi^(n) with a unit object is D^-n o D^n
or the identity braid), the left module pentagon, the n = 0 half of the
psi shortcut (psi^(0) is the crossing it is compared with) and the twist
extraction (it reads back the twists it is compared with).  The per-tuple
functions of ``modcat`` remain the single-tuple API and reference.
"""

from __future__ import annotations

import numpy as np

from .category import CategorySpec, _check_words
from .engine import braid_generator
from .errors import (InvalidWord, NotPremodular, PositionOutOfRange,
                     ShapeMismatch)


def _crossing(start: int, k: int, m: int) -> tuple:
    """Generator positions of the block crossing of strands start ..
    start + k - 1 past the next m, in the order ``engine.block_crossing``
    applies them."""
    return tuple(start - 1 + p for t in range(1, m + 1)
                 for p in range(k + t - 1, t - 1, -1))


def _monodromy(start: int, k: int, m: int) -> tuple:
    """Generator positions of ``engine.double_braiding`` with power 1: the
    k strands from ``start`` cross over the next m, then those m cross
    back over them."""
    return _crossing(start, k, m) + _crossing(start, m, k)


def _packed(digits, radices) -> list:
    """Sort keys for the rows of the digit columns, most significant first:
    consecutive digits are packed into one int64 column while the product
    of their radices stays below 2^62, so that ``np.lexsort`` of the
    reversed list orders the rows lexicographically by the digits."""
    keys, span = [], 1 << 62
    for col, radix in zip(digits, radices):
        if span * radix < 1 << 62:
            keys[-1] = keys[-1] * radix + col
            span *= radix
        else:
            keys.append(col.astype(np.int64))
            span = radix
    return keys


class _Where:
    """The word and root of each block of a ``PathStack``, to name a block
    in an error.  A braid holds this rather than its stack, so that the
    stack's memo of braids makes no reference cycle and is freed with the
    stack."""

    __slots__ = ("labels", "members", "tuple_of", "root_of")

    def __init__(self, labels, members, tuple_of, root_of):
        self.labels, self.members = labels, members
        self.tuple_of, self.root_of = tuple_of, root_of

    def singular(self, order, n: int, bad) -> str:
        """Where a braid from ``order`` is singular, given the positions
        ``bad`` of its singular blocks of size n: the first one's word and
        root."""
        if not len(bad):
            return f"a braid on the word order {order} is singular"
        b = self.members[n][bad[0]]
        word = tuple(self.labels[self.tuple_of[b], list(order)].tolist())
        return (f"braid on the word {word} is singular at root "
                f"{int(self.root_of[b])}: an F- or R-block is not invertible")


class Braid:
    """A morphism between two word orders of one ``PathStack``: ``blocks``
    maps each block size n to the stacked blocks (B_n, n, n)."""

    __slots__ = ("where", "src", "dst", "blocks")

    def __init__(self, where: _Where, src, dst, blocks):
        self.where, self.src, self.dst = where, src, dst
        self.blocks = blocks

    def __matmul__(self, other: "Braid") -> "Braid":
        if other.dst != self.src:
            raise ShapeMismatch(f"cannot compose: inner word order "
                                f"{other.dst} != {self.src}")
        return Braid(self.where, other.src, self.dst,
                     {n: x @ other.blocks[n] for n, x in self.blocks.items()})

    def inverse(self) -> "Braid":
        """The inverse map, one stacked ``np.linalg.inv`` per block size.  A
        block that is not finite inverts to NaN, so that its tuple fails; a
        singular one raises NotPremodular naming its word and root."""
        blocks = {}
        for n, x in self.blocks.items():
            finite = np.isfinite(x).all(axis=(1, 2))
            blocks[n] = np.full_like(x, np.nan)
            try:
                blocks[n][finite] = np.linalg.inv(x[finite])
            except np.linalg.LinAlgError:
                zero = np.linalg.det(x[finite]) == 0
                raise NotPremodular(self.where.singular(
                    self.src, n, np.flatnonzero(finite)[zero])) from None
        return Braid(self.where, self.dst, self.src, blocks)

    def power(self, e: int) -> "Braid":
        """The e-th power of an endomorphism, block by block; a negative
        power is that of the inverse, as ``np.linalg.matrix_power``
        computes it."""
        if self.src != self.dst:
            raise ShapeMismatch(f"power of a map {self.src} -> {self.dst}")
        if e < 0:
            return self.inverse().power(-e)
        return Braid(self.where, self.src, self.dst,
                     {n: np.linalg.matrix_power(x, e)
                      for n, x in self.blocks.items()})


class _Paths:
    """The fusion paths of one word order, sorted by (tuple, root, tree):
    labels ``A`` (paths, L + 1), multiplicities ``mu`` (paths, L + 1,
    column 0 unused), the tuple ``t``, the (tuple, root) ``block`` and the
    position ``pos`` within it."""

    __slots__ = ("A", "mu", "t", "block", "pos")


class PathStack:
    """The label tuples of a sweep, each a tuple of L Python ints in
    [0, rank), with their fusion paths for every word order that a braid
    reaches.  Braids built from generator sequences are memoised per
    (source order, positions, over)."""

    def __init__(self, spec: CategorySpec, tuples):
        tuples = list(tuples)
        _check_words(*tuples)
        if len({len(t) for t in tuples}) != 1 or not tuples[0]:
            raise InvalidWord("label tuples must be non-empty and share one "
                              "length")
        labels = np.array(tuples, dtype=np.intp)
        if not 0 <= labels.min() <= labels.max() < spec.rank:
            raise InvalidWord(f"labels must lie in [0, {spec.rank})")
        self.spec, self.labels = spec, labels
        self._paths, self._contexts, self._braids = {}, {}, {}
        ident = self.paths(tuple(range(labels.shape[1])))
        starts = np.flatnonzero(np.r_[True, np.diff(ident.block) != 0])
        sizes = np.diff(np.r_[starts, len(ident.block)])
        self.tuple_of = ident.t[starts]  # the tuple of each block
        self.first_block = np.searchsorted(self.tuple_of,
                                           np.arange(len(labels)))
        self.root_of = ident.A[starts, -1]
        self.size_of = sizes
        self.members = {int(n): np.flatnonzero(sizes == n)
                        for n in np.unique(sizes)}
        self.where = _Where(labels, self.members, self.tuple_of,
                            self.root_of)
        # a generator is built in one flat buffer: the blocks of size n
        # from base[n] on, block b at offset[b]
        self.offset = np.zeros(len(sizes), dtype=np.intp)
        self.base, end = {}, 0
        for n, bs in self.members.items():
            self.base[n] = end
            self.offset[bs] = end + np.arange(len(bs)) * n * n
            end += len(bs) * n * n
        self.flat_size = end

    def __len__(self):
        return len(self.labels)

    # -- paths -------------------------------------------------------------

    def paths(self, order) -> _Paths:
        """The sorted fusion paths of the words ``labels[:, order]``."""
        if order in self._paths:
            return self._paths[order]
        ring = self.spec.ring
        words = self.labels[:, list(order)]
        T, L = words.shape
        t = np.arange(T)
        A = [np.zeros(T, dtype=np.intp), words[:, 0]]
        mu = [np.zeros(T, dtype=np.intp), np.zeros(T, dtype=np.intp)]
        for k in range(1, L):
            x, y = A[-1], words[t, k]
            i, z = ring.fusion_channels(x, y)
            mult = ring.N[x[i], y[i], z]
            parent = np.repeat(i, mult)
            within = np.arange(len(parent)) \
                - np.repeat(np.cumsum(mult) - mult, mult)
            t = t[parent]
            A = [a[parent] for a in A] + [np.repeat(z, mult)]
            mu = [m[parent] for m in mu] + [within]
        # tree order within (tuple, root): labels A_2..A_L, then mu_2..mu_L
        r, m = ring.rank, int(ring.N.max())
        keys = _packed([t, A[-1]] + A[2:] + mu[2:],
                       [T, r] + [r] * (L - 1) + [m] * (L - 1))
        tree_order = np.lexsort(keys[::-1])
        out = _Paths()
        out.A = np.stack(A, axis=1)[tree_order]
        out.mu = np.stack(mu, axis=1)[tree_order]
        out.t = t[tree_order]
        key = out.t * ring.rank + out.A[:, -1]
        first = np.r_[True, key[1:] != key[:-1]]
        out.block = np.cumsum(first) - 1
        out.pos = np.arange(len(key)) - np.flatnonzero(first)[out.block]
        self._paths[order] = out
        return out

    def _by_context(self, order, p: int):
        """(sorted, starts): the indices of the paths of ``order`` sorted
        by their context at sigma_p, every label but A_p, mu_p and
        mu_{p+1}, with each context in local order (A_p, mu_p, mu_{p+1});
        and where each context begins.  Memoised."""
        if (order, p) in self._contexts:
            return self._contexts[order, p]
        paths = self.paths(order)
        L = paths.A.shape[1] - 1
        r, m = self.spec.rank, int(self.spec.ring.N.max())
        others = [k for k in range(1, L + 1) if k != p]
        tails = [k for k in range(2, L + 1) if k not in (p, p + 1)]
        context = _packed(
            [paths.t] + [paths.A[:, k] for k in others]
            + [paths.mu[:, k] for k in tails],
            [len(self)] + [r] * len(others) + [m] * len(tails))
        local = _packed([paths.A[:, p], paths.mu[:, p], paths.mu[:, p + 1]],
                        [r, m, m])
        ranked = np.lexsort(local[::-1] + context[::-1])
        change = np.zeros(len(ranked), dtype=bool)
        change[0] = True
        for key in context:
            key = key[ranked]
            change[1:] |= key[1:] != key[:-1]
        self._contexts[order, p] = ranked, np.flatnonzero(change)
        return self._contexts[order, p]

    # -- braids ------------------------------------------------------------

    def _from_flat(self, src, dst, flat) -> Braid:
        """The braid whose blocks lie in one flat buffer as ``offset``
        places them."""
        return Braid(self.where, src, dst, {
            n: flat[self.base[n]:self.base[n] + len(bs) * n * n].reshape(
                len(bs), n, n) for n, bs in self.members.items()})

    def identity(self, order) -> Braid:
        return Braid(self.where, order, order, {
            n: np.broadcast_to(np.eye(n, dtype=np.complex128),
                               (len(bs), n, n)).copy()
            for n, bs in self.members.items()})

    def twist(self, order, k: int, power: int = 1) -> Braid:
        """theta_{A_k}^power on each path of the words of ``order``: the
        twist of their first k letters whiskered on the right, as
        ``engine.twist_endo`` of word[:k] embedded with right=word[k:]."""
        paths = self.paths(order)
        if not 0 <= k < paths.A.shape[1]:
            raise PositionOutOfRange(f"prefix {k} invalid for words of "
                                     f"length {len(order)}")
        n = self.size_of[paths.block]
        out = np.zeros(self.flat_size, dtype=np.complex128)
        out[self.offset[paths.block] + paths.pos * (n + 1)] = \
            (self.spec.theta ** power)[paths.A[:, k]]
        return self._from_flat(order, order, out)

    def generator(self, order, p: int, over: bool = True) -> Braid:
        """sigma_p (1-based) on the words of ``order``, as
        ``engine.braid_generator`` with the same ``over``; memoised with
        the braids."""
        key = (order, (p,), over)
        if key in self._braids:
            return self._braids[key]
        L = len(order)
        if not 1 <= p < L:
            raise PositionOutOfRange(f"braid position {p} invalid for words "
                                     f"of length {L}")
        dst = order[:p - 1] + (order[p], order[p - 1]) + order[p + 1:]
        src_paths, dst_paths = self.paths(order), self.paths(dst)
        # both words have the same contexts, each with as many paths as its
        # local block has trees, so the two sorts align
        js, starts = self._by_context(order, p)
        is_, _ = self._by_context(dst, p)
        size = np.diff(np.r_[starts, len(js)])
        # one local block per (A_{p-1}, w_p, w_{p+1}, A_{p+1}), coded with
        # A_{p-1} + 1 = 0 for the two-letter word of p = 1
        r = self.spec.rank
        first = js[starts]
        t0, A0 = src_paths.t[first], src_paths.A[first]
        a = self.labels[t0, order[p - 1]]
        b = self.labels[t0, order[p]]
        x = A0[:, p - 1] if p > 1 else np.full(len(starts), -1)
        code = (((x + 1) * r + a) * r + b) * r + A0[:, p + 1]
        keys, local = np.unique(code, return_inverse=True)
        flat, at = [], [0]
        for key in keys.tolist():
            rest, y = divmod(key, r)
            rest, b_ = divmod(rest, r)
            x_, a_ = divmod(rest, r)
            word = (a_, b_) if x_ == 0 else (x_ - 1, a_, b_)
            gen = braid_generator(self.spec, word, len(word) - 1, over)
            o, rows, cols = gen.layout.roots[y]
            flat.append(gen.flat[o:o + rows * cols])
            at.append(at[-1] + rows * cols)
        values, at = np.concatenate(flat), np.array(at)
        # every (row, column) pair of every context group
        count = size * size
        g = np.repeat(np.arange(len(starts)), count)
        q = np.arange(len(g)) - np.repeat(np.cumsum(count) - count, count)
        li, lj = np.divmod(q, size[g])
        i = is_[starts[g] + li]
        j = js[starts[g] + lj]
        blocks = src_paths.block[j]
        n = self.size_of[blocks]
        out = np.zeros(self.flat_size, dtype=np.complex128)
        out[self.offset[blocks] + dst_paths.pos[i] * n + src_paths.pos[j]] = \
            values[at[local[g]] + li * size[g] + lj]
        self._braids[key] = self._from_flat(order, dst, out)
        return self._braids[key]

    def braid(self, order, positions, over: bool = True) -> Braid:
        """The product of the generators at ``positions``, applied in
        turn to the words of ``order``; memoised."""
        key = (order, positions, over)
        if key in self._braids:
            return self._braids[key]
        if not positions:
            return self.identity(order)
        cur = self.generator(order, positions[0], over)
        for p in positions[1:]:
            cur = self.generator(cur.dst, p, over) @ cur
        self._braids[key] = cur
        return cur

    # -- results -----------------------------------------------------------

    def deviations(self, f: Braid, g: Braid) -> np.ndarray:
        """Per tuple, the largest entry of |f - g| over its blocks; NaN if
        one of them is NaN."""
        if (f.src, f.dst) != (g.src, g.dst):
            raise ShapeMismatch("comparison of braids between different "
                                "word orders")
        dev = np.empty(len(self.size_of))
        for n, bs in self.members.items():
            dev[bs] = np.abs(f.blocks[n] - g.blocks[n]).max(axis=(1, 2))
        return np.maximum.reduceat(dev, self.first_block)

    def blocks(self, f: Braid, k: int) -> dict:
        """{root: block} of tuple k, rows over the trees of its word in
        ``f.dst`` and columns over those in ``f.src``, as ``Morphism.blocks``
        of the same map."""
        out = {}
        for n, bs in self.members.items():
            for s in np.flatnonzero(self.tuple_of[bs] == k):
                out[int(self.root_of[bs[s]])] = f.blocks[n][s]
        return dict(sorted(out.items()))


def psi(stack: PathStack, order, mu: int, up: int, v: int, n: int = 0
        ) -> Braid:
    """``modcat.psi`` for every tuple: ``order`` is the source word
    (M, U, U', V, V', ...) with len(M) + len(U) = mu, len(U') = up and
    len(V) = v; strands after V are whiskered.

      D^-n_{MUV,U'} o c_{U',V} o D^n_{MU,U'}
    """
    cross = stack.braid(order, _crossing(mu + 1, up, v))
    if not n:
        return cross
    before = stack.braid(order, _monodromy(1, mu, up)).power(n)
    after = stack.braid(cross.dst, _monodromy(1, mu + v, up)).power(-n)
    return after @ cross @ before


def psi_hat(stack: PathStack, order, u: int, up: int, v: int, n: int = 0
            ) -> Braid:
    """``modcat.psi_hat`` for every tuple: ``order`` is the source word
    (U, U', V, V', M) with len(U) = u, counting strands whiskered on the
    left, len(U') = up and len(V) = v; V' and M fill the rest.

      D^n_{V,U'V'M} o c^-1_{V,U'} o D^-n_{V,V'M}
    """
    rest = len(order) - u - up - v
    cross = stack.braid(order, _crossing(u + 1, up, v), False)
    if not n:
        return cross
    before = stack.braid(order, _monodromy(u + up + 1, v, rest)).power(-n)
    after = stack.braid(cross.dst, _monodromy(u + 1, v, up + rest)).power(n)
    return after @ cross @ before


def _moved(order, start: int, k: int, m: int) -> tuple:
    """The word order after its k letters from index ``start`` cross the
    next m."""
    return order[:start] + order[start + k:start + k + m] \
        + order[start:start + k] + order[start + k + m:]


def gamma(stack: PathStack, order, m: int, u: int) -> Braid:
    """``modcat.gamma`` for every tuple: ``order`` is the word (M, U, V,
    ...) with len(M) = m and len(U) = u; V and the rest are whiskered.

      theta^-1_{M(x)U} o (theta_M (x) id_U)
    """
    return stack.twist(order, m + u, -1) @ stack.twist(order, m)


def psi_from_gamma(stack: PathStack, order, m: int, u: int, up: int,
                   v: int, n: int) -> Braid:
    """``modcat.psi_from_gamma`` for every tuple: psi^(0) conjugated n
    times by the gamma chain; ``order`` is the source word (M, U, U', V,
    V', ...) with len(M) = m, len(U) = u, len(U') = up and len(V) = v."""
    cur = psi(stack, order, m + u, up, v)
    outer = gamma(stack, cur.dst, m, u) @ gamma(stack, cur.dst, m + u + v,
                                                up)
    inner = gamma(stack, order, m, u + up).inverse()
    for _ in range(n):
        cur = outer @ cur @ inner
    return cur


def module_commutor(stack: PathStack, order, m: int, u: int, v: int
                    ) -> Braid:
    """``modcat.module_commutor`` for every tuple, from the word (M, U, V,
    ...) to (M, V, U, ...) with len(M) = m, len(U) = u and len(V) = v:

      [(c_{V,M} o c_{M,V}) (x) id_U] o (id_M (x) c_{U,V})
    """
    cross = stack.braid(order, _crossing(m + 1, u, v))
    return stack.braid(cross.dst, _monodromy(1, m, v)) @ cross


def alpha_induction(stack: PathStack, order, m: int, x, y,
                    over: bool = True) -> Braid:
    """``modcat.alpha_induction`` for every tuple, sign "+" as ``over``:
    ``order`` is the source word (M, U', V', U, V, ...) of (M . Y) . X with
    len(M) = m, X = U x V of lengths ``x`` and Y = U' x V' of lengths
    ``y``; the strands after V are whiskered.

      psi_{M,X,Y} o (id_M . c_{Y,X}) o psi_{M,Y,X}^-1
    """
    (u, v), (up, vp) = x, y
    back = psi(stack, _moved(order, m + up, vp, u), m + up, u, vp).inverse()
    cu = stack.braid(back.dst, _crossing(m + 1, up, u), over)
    cv = stack.braid(cu.dst, _crossing(m + u + up + 1, vp, v), over)
    return psi(stack, cv.dst, m + u, up, v) @ (cv @ cu) @ back


# A pentagon tuple is (m, x1, x2, y1, y2, z1, z2): the module M = (m,) and
# the objects X = (x1,) x (x2,), Y and Z of the square, at slots
# M, U1, V1, U2, V2, U3, V3 = 0, ..., 6.


def module_pentagon_deviations(spec: CategorySpec, tuples, n_values=(0,)
                               ) -> list:
    """``modcat.module_pentagon_deviation`` of every tuple, its largest
    over ``n_values``:

      psi_{M.X,Y,Z} o psi_{M,X,Y(x)Z}  against
      (psi_{M,X,Y} . id_Z) o psi_{M,X(x)Y,Z}
    """
    stack = PathStack(spec, tuples)
    worst = np.zeros(len(stack))
    for n in n_values:
        lhs = psi(stack, (0, 1, 2, 3, 5, 4, 6), 4, 1, 1, n) \
            @ psi(stack, (0, 1, 3, 5, 2, 4, 6), 2, 2, 1, n)
        rhs = psi(stack, (0, 1, 3, 2, 4, 5, 6), 2, 1, 1, n) \
            @ psi(stack, (0, 1, 3, 5, 2, 4, 6), 3, 1, 2, n)
        worst = np.maximum(worst, stack.deviations(lhs, rhs))
    return worst.tolist()


def left_module_pentagon_deviations(spec: CategorySpec, tuples, n: int = 0
                                    ) -> list:
    """``modcat.left_module_pentagon_deviation`` of every tuple:

      psi_hat_{X,Y,Z.M} o psi_hat_{X(x)Y,Z,M}  against
      (id_X (x) psi_hat_{Y,Z,M}) o psi_hat_{X,Y(x)Z,M}
    """
    stack = PathStack(spec, tuples)
    lhs = psi_hat(stack, (1, 3, 2, 4, 5, 6, 0), 1, 1, 1, n) \
        @ psi_hat(stack, (1, 3, 5, 2, 4, 6, 0), 2, 1, 2, n)
    rhs = psi_hat(stack, (1, 2, 3, 5, 4, 6, 0), 3, 1, 1, n) \
        @ psi_hat(stack, (1, 3, 5, 2, 4, 6, 0), 1, 2, 1, n)
    return stack.deviations(lhs, rhs).tolist()


# A tuple of the other sweeps is (m, x1, x2, y1, y2, ...) at slots M, U1,
# V1, U2, V2, ... = 0, 1, ..., except for the commutor's (m, u, v, u', v')
# and the single label of the twist extraction.


def module_triangle_deviations(spec: CategorySpec, tuples, n_values=(0,)
                               ) -> list:
    """``modcat.module_triangle_deviation`` of every (m, x1, x2), its
    largest over ``n_values``: psi_{M,1,X} and psi_{M,X,1} against the
    identity."""
    stack = PathStack(spec, tuples)
    order = (0, 1, 2)
    ident = stack.identity(order)
    worst = np.zeros(len(stack))
    for n in n_values:
        for mu, up, v in ((1, 1, 0), (2, 0, 1)):
            worst = np.maximum(worst, stack.deviations(
                psi(stack, order, mu, up, v, n), ident))
    return worst.tolist()


def twist_mismatch_deviations(spec: CategorySpec, tuples, n: int = 0
                              ) -> list:
    """The larger of ``modcat.gamma_functor_deviation`` at n and
    ``modcat.psi_shortcut_deviation`` for every (m, x1, x2, y1, y2):

      (gamma_{M,X} . id_Y) o gamma_{M.X,Y} o psi^(n)
        against psi^(n+1) o gamma_{M,X(x)Y},
      psi^(0) against c_{U',V} and psi^(1) against c^-1_{V,U'}.
    """
    stack = PathStack(spec, tuples)
    src, dst = (0, 1, 3, 2, 4), (0, 1, 2, 3, 4)
    lhs = gamma(stack, dst, 1, 1) @ gamma(stack, dst, 3, 1) \
        @ psi(stack, src, 2, 1, 1, n)
    rhs = psi(stack, src, 2, 1, 1, n + 1) @ gamma(stack, src, 1, 2)
    worst = stack.deviations(lhs, rhs)
    for k, over in ((0, True), (1, False)):
        worst = np.maximum(worst, stack.deviations(
            psi(stack, src, 2, 1, 1, k),
            stack.braid(src, _crossing(3, 1, 1), over)))
    return worst.tolist()


def associator_chain_deviations(spec: CategorySpec, tuples, n: int
                                ) -> list:
    """psi^(n) against ``psi_from_gamma`` at n for every (m, x1, x2, y1,
    y2), as the associator-chain check of the suite."""
    stack = PathStack(spec, tuples)
    src = (0, 1, 3, 2, 4)
    return stack.deviations(psi(stack, src, 2, 1, 1, n),
                            psi_from_gamma(stack, src, 1, 1, 1, 1, n)
                            ).tolist()


def alpha_functor_deviations(spec: CategorySpec, tuples) -> list:
    """``modcat.alpha_functor_deviation`` of every tuple, the larger of its
    two signs:

      (gamma^X_{M,Y} . id_Z) o gamma^X_{M.Y,Z}  against
      psi^(0)_{M.X,Y,Z} o gamma^X_{M,Y(x)Z} o (psi^(0)_{M,Y,Z}^-1 . id_X)
    """
    stack = PathStack(spec, tuples)
    one = (1, 1)
    back = psi(stack, (0, 3, 5, 4, 6, 1, 2), 2, 1, 1).inverse()
    worst = np.zeros(len(stack))
    for over in (True, False):
        lhs = alpha_induction(stack, (0, 3, 4, 1, 2, 5, 6), 1, one, one,
                              over) \
            @ alpha_induction(stack, (0, 3, 4, 5, 6, 1, 2), 3, one, one,
                              over)
        rhs = psi(stack, (0, 1, 2, 3, 5, 4, 6), 4, 1, 1) \
            @ alpha_induction(stack, (0, 3, 5, 4, 6, 1, 2), 1, one, (2, 2),
                              over) \
            @ back
        worst = np.maximum(worst, stack.deviations(lhs, rhs))
    return worst.tolist()


def commutor_witness_deviations(spec: CategorySpec, tuples) -> list:
    """``modcat.commutor_witness_deviation`` of every (m, u, v, u', v'):

      gamma^{VxU,-}_{M,U'xV'} o Gamma_{M.(U'xV')}  against
      (Gamma_M (x) id) o gamma^{UxV,+}_{M,U'xV'}
    """
    stack = PathStack(spec, tuples)
    one = (1, 1)
    lhs = alpha_induction(stack, (0, 3, 4, 2, 1), 1, one, one, False) \
        @ module_commutor(stack, (0, 3, 4, 1, 2), 3, 1, 1)
    rhs = module_commutor(stack, (0, 1, 2, 3, 4), 1, 1, 1) \
        @ alpha_induction(stack, (0, 3, 4, 1, 2), 1, one, one, True)
    return stack.deviations(lhs, rhs).tolist()


def twist_extraction_deviations(spec: CategorySpec, tuples) -> list:
    """For every (u,), ``modcat.extract_twist`` of the word (u,),
    gamma_{1,1xU} o gamma_{1,Ux1}^-1, against theta_u."""
    stack = PathStack(spec, tuples)
    order = (0,)
    got = gamma(stack, order, 0, 0) @ gamma(stack, order, 0, 1).inverse()
    return stack.deviations(got, stack.twist(order, 1)).tolist()
