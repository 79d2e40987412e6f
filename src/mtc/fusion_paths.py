"""The module section as one braid-group representation on fusion paths,
batched over every label tuple of a stack: the two relations that certify
it, and the eight sweeps of its identities that they replace in the suite.

The tuples of a sweep have one length L, and every word of its identities
orders a tuple's letters: a word order is a permutation of 0..L-1, the same
for every tuple, and tuple t spells the word labels[t, order] in it.  The
fusion paths of a word are 0 = A_0, A_1 = w_1, A_2, ..., A_L with vertex
multiplicities mu_1 = 0, mu_2, ..., mu_L, sorted per root in the order of
``FusionRing.tree_basis``.  A ``Braid`` between two word orders is one
square block per (tuple, root), rows over the trees of the tuple's target
word and columns over those of its source word.  The size of a block, the
number of trees of the tuple's letters at the root, does not depend on
their order, so blocks of equal size are stacked into one array (B, n, n),
never padded.

The braid generator sigma_p changes only A_p, mu_p and mu_{p+1}; every
other label of a path is its context.  On the paths of one context it is
the local block of sigma_2 on the word (x, a, b) = (A_{p-1}, w_p, w_{p+1})
at root y = A_{p+1}: one F-move, the R-block and one F-move back,
F[x,b,a,y] (R_{ab} on each channel) F[x,a,b,y]^-1, as
``engine.braid_generator`` whiskers it.  For p = 1, x = A_0 = 0 and the
F-blocks are identities, so that is the R-block of (w_1, w_2) at root A_2.
A path's position in that block is its rank in the context sorted by
(A_p, mu_p, mu_{p+1}), the row order of the F-blocks.  A block crossing
and a monodromy are the generator sequences of ``engine.block_crossing``
and ``engine.double_braiding``.  The twist of the first k letters,
whiskered on the right, is diagonal: theta_{A_k} on each path.  Every
braid names its own inverse, and no block is inverted numerically.  The
inverse of a product of generators is the product of the inverse
generators in reverse order, itself such a product (Kassel and Turaev,
"Braid Groups", GTM 247): sigma_p over on the word (a, b) is c_{a,b}, and
sigma_p under on (b, a) is c_{a,b}^-1.  The inverse of a twist is the same
twist at the opposite power, that of f g is g^-1 f^-1, that of a power the
power of the inverse, and the identity is its own.  So D^-n is named
directly as the n-th power of the inverse product, and D^n is
``np.linalg.matrix_power`` of the stacked D.

Braids are built when first used.  ``PathStack.braid`` only names a
product of generators, and a braid's products, inverses and powers wait
for it.  Paths and generators depend only on the word a tuple spells, and
most words repeat over the orders and tuples of a stack, so they live in
the stack's ``WordTable``, which numbers each distinct word once; the
stack keeps its block layout, the word ids of its orders, its built steps
and its products.  A stack queues every generator step (source order, p,
over) and twisted order that it names.  The first braid whose blocks are
read, by ``PathStack.deviations`` or ``PathStack.blocks``, flushes the
queues: it numbers the words of every queued word order and enumerates
the paths of the words not seen before together: one row gather per
fusion step over the ring's fusion vertices (the R-keys), each once per
multiplicity.  It builds sigma_p from each distinct word that the tuples
of any queued step read once, in local form, in every sense a step reads:
for every path of its target word, the positions of the paths of its
context in the source word and the entries of its local block there, one
array of entries per sense.  sigma_p from a word and sigma_p back from its
target share their contexts, so a round sorts the paths of both by context
once, every (word, p) in one ``np.lexsort``, and gathers the entries from
the spec's table of local blocks of each sense.  That table holds the
block of every F-block key (x, a, b, y), laid out as the F-blocks and
built in one batched product per block size from their stacks and those
of the inverse F-blocks and the R-blocks.  A step is then the generator
row that each of its tuples reads first, since a tuple's blocks are those
of its word.  No generator is ever written out as dense blocks: a product
of generators applies them in turn to the identity, each a fixed number of
gathers and multiply-adds over the stack's flat buffer of blocks, however
many block sizes it holds.  A stack's blocks come from the tree counts of
its tuples, so it enumerates no word that no braid reads.  A round
enumerates at most ``_ROUND_ROWS`` paths, or builds generators that read
at most that many, unless one word or generator alone needs more, which
bounds the memory of a flush.  Products, the inverse ones among them, are
memoised per stack, so the psi^(n) of several n share their monodromies
and the inverses of those.  Each sweep names all its pairs of braids
before it compares the first, so that one flush builds them.
An error of the data, such as a singular F- or R-block, is therefore
raised where a braid is first read, not where it is named.

``psi``, ``psi_hat``, ``gamma``, ``psi_from_gamma``, ``alpha_induction``
and ``module_commutor`` are then products of local generators, their
inverses and prefix twists, so they compose strictly: each is the image of
a framed braid under the map rho that sends sigma_p to the generator and
the twist of a k-letter prefix to the full twist of its strands plus one
framing on each, the framing of a letter a acting as theta_a.  rho is a
representation of the framed braid groupoid when three facts and two
relations hold.  The facts hold by construction: far generators commute
(sigma_p and sigma_q with |p - q| > 1 read and change disjoint labels of a
path), an under generator is the inverse of its over generator (sigma_p
under on (b, a) is c_{a,b}^-1), and a generator with a unit letter is the
identity.  The relations are checked on the data:

- ``braid_relation_pairs``: sigma_2 sigma_3 sigma_2 against sigma_3
  sigma_2 sigma_3, over and under, on every word (x, a, b, c).  The
  relation of sigma_p and sigma_{p+1} reads only the context x = A_{p-1}
  and the three letters after it, and every context is a label, so these
  words give it at every p of every word; x = 0 gives the relation of
  sigma_1 and sigma_2.
- ``twist_relation_pairs``: theta_{A_3} against the monodromy sigma_2
  sigma_1 sigma_1 sigma_2 of the third letter around the first two, times
  theta_{A_2} and the twist of the third letter alone, on every word
  (x, a, b).  That twist is beta^-1 theta_{A_1} beta, beta = sigma_2
  sigma_1 carrying the third letter to the front: theta_b on every path, a
  scalar per tuple, so the comparison is exact.  Words (0, a, b) give the
  two-letter relation theta_{A_2} = sigma_1 sigma_1 theta_a theta_b, which
  is ribbon compatibility.  For k letters, the monodromy of letter k
  around the first k - 1 is sigma_{k-1} ... sigma_1 sigma_1 ... sigma_{k-1}
  = sigma_{k-1} (sigma_{k-2} ... sigma_1 sigma_1 ... sigma_{k-2})
  sigma_{k-1}.  By induction the bracket is theta_{A_{k-1}} /
  (theta_{A_{k-2}} theta_{w_{k-1}}) on each path, and what is left is the
  three-letter relation at context x = A_{k-2}, read by the same local
  blocks.  So theta_{A_k} is the full twist of the first k strands times
  theta_{w_1} ... theta_{w_k}, for every k.

Each identity of the paper's module section compares two framed braids
that are equal whatever the data, as ``tests/test_module_certificate.py``
proves by Artin's faithful action on the free group plus a framing count
per strand (Artin, "Theory of braids", Ann. Math. 48 (1947); Kassel and
Turaev, "Braid Groups", GTM 247).  So once the relations hold, every
identity holds on every tuple, and the suite checks the relations, on
every word up to its budget.  That is exact only where the relations hold
exactly: a relation deviation eps bounds an identity's deviation by eps
times the number of relation moves between its two sides, times the norms
of the generators around each move, so near the tolerance an identity can
fail where the relations pass (on perturbed data by up to 2.55 eps on
ising and 24.9 eps on Yang-Lee, whose generators are not unitary).
``module_sweeps`` keeps the eight sweeps of the identities themselves as
the tests' reference.  A relation or sweep is one function that names its
(lhs, rhs) pairs of braids on a stack, ``*_pairs``, and ``sweep`` compares
them on stacks of its tuples.  Both draw their tuples through ``_words``:
every tuple while they fit a budget, a seeded sample of that many distinct
tuples otherwise, with the coverage stated in the report.
The engine whiskers a multi-letter composite through ``split_transform``,
whose F-move paths agree only when F satisfies the pentagon: on coherent
data both agree to rounding, and on incoherent F the relations and the
sweeps test the generators that F and R give, while F's own pentagon is
the ``pentagon`` check of ``validate_category``.  The per-tuple functions
of ``modcat`` remain the single-tuple API and reference.
"""

from __future__ import annotations

import numpy as np

from .category import (_ROUND_ROWS, DEFAULT_TOL, CategorySpec, _blocks,
                       _changes, _check_words, _codes, _f_inverses, _f_keys,
                       _Keys, _mult, _r_keys, _r_store, _ranges, _rounds,
                       cached)
from .errors import InvalidWord, PositionOutOfRange, ShapeMismatch
from .report import VerificationReport, exponents, max_dev


def _crossing(start: int, k: int, m: int) -> tuple:
    """Generator positions of the block crossing of strands start ..
    start + k - 1 past the next m, in the order they apply; with start 1,
    those of ``engine.block_crossing``."""
    return tuple(start - 1 + p for t in range(1, m + 1)
                 for p in range(k + t - 1, t - 1, -1))


def _monodromy(start: int, k: int, m: int) -> tuple:
    """Generator positions of ``engine.double_braiding`` with power 1: the
    k strands from ``start`` cross over the next m, then those m cross
    back over them."""
    return _crossing(start, k, m) + _crossing(start, m, k)


def _swapped(order, p: int) -> tuple:
    """The word order after sigma_p."""
    return order[:p - 1] + (order[p], order[p - 1]) + order[p + 1:]


@cached("braid_blocks")
def _braid_blocks(spec: CategorySpec, over: bool) -> np.ndarray:
    """The local block of sigma_2 on (x, a, b) at root y for every F-block
    key (x, a, b, y), laid out as the F-blocks (``category._f_keys``):
    c_{a,b} (``over``) or c_{b,a}^-1 whiskered by x, F[x,b,a,y] R
    F[x,a,b,y]^-1, where R acts on the F-block columns (f, gamma, delta) as
    the R-block of channel f on gamma and as the identity on delta."""
    ring = spec.ring
    K, F, Finv = _f_keys(ring), _blocks(spec, "F"), _f_inverses(spec)
    # each path (a b -> f)(f x -> y) is the channel f of the columns of its
    # block (x, a, b, y), from column ``first`` on: entry (i, j) of the
    # R-block of (a, b, f) at every delta < m = N[f, x, y]
    a, b, f, x, y = K.paths
    g, m = _mult(ring.N, a, b, f), _mult(ring.N, f, x, y)
    e = np.repeat(np.arange(len(g)), g * g * m)
    i, rest = np.divmod(_ranges(0, g * g * m), (g * m)[e])
    j, d = np.divmod(rest, m[e])
    n, first, m = K.size[K.col][e], K.coloff[e], m[e]
    R = _r_store(spec, not over)
    out = np.zeros_like(F.flat)
    out[K.start[K.col][e] + (first + i * m + d) * n + first + j * m
        + d] = R.flat[R.keys.start[R.keys.find(a, b, f)][e] + i * g[e] + j]
    # one product per block size; a non-finite entry spreads NaN through
    # its block
    x, a, b, y = K.labels()
    swap = K.pos[K.find(x, b, a, y)]
    with np.errstate(invalid="ignore"):
        for n, (idx, lo) in K.groups.items():
            at = slice(lo, lo + len(idx) * n * n)
            out[at] = (F.stack(n)[swap[idx]] @ (out[at].reshape(-1, n, n)
                                                @ Finv.stack(n))).ravel()
    return out


class Braid:
    """A morphism between two word orders of one ``PathStack``: ``blocks``
    maps each block size n to the stacked blocks (B_n, n, n).  They are
    computed when first read, after the stack has built every generator
    queued so far.  ``_inverse`` names the inverse braid when called, or is
    None for an identity.  A product of generators (``PathStack.braid``)
    carries its ``key``, under which the stack memoises its blocks.  A
    braid holds its stack and the stack holds no braid, only arrays, so
    both are freed by reference counting."""

    __slots__ = ("stack", "src", "dst", "key", "_make", "_inverse",
                 "_blocks", "__weakref__")

    def __init__(self, stack: "PathStack", src, dst, make, inverse,
                 key=None):
        self.stack, self.src, self.dst, self.key = stack, src, dst, key
        self._make, self._inverse, self._blocks = make, inverse, None

    @property
    def blocks(self) -> dict:
        if self._blocks is None:
            self.stack._flush()
            self._blocks, self._make = self._make(), None
        return self._blocks

    def __matmul__(self, other: "Braid") -> "Braid":
        if other.dst != self.src:
            raise ShapeMismatch(f"cannot compose: inner word order "
                                f"{other.dst} != {self.src}")
        return Braid(self.stack, other.src, self.dst, lambda: {
            n: x @ other.blocks[n] for n, x in self.blocks.items()},
            lambda: other.inverse() @ self.inverse())

    def inverse(self) -> "Braid":
        """The inverse map, named by the braid's own parts: for a product
        of generators the product of the inverse generators in reverse
        order (``PathStack.braid_inverse``), for a twist the same twist at
        the opposite power, for f @ g the braid g^-1 @ f^-1, for a power
        the power of the inverse, and an identity itself."""
        return self if self._inverse is None else self._inverse()

    def power(self, e: int) -> "Braid":
        """The e-th power of an endomorphism, block by block; a negative
        power is that of the inverse."""
        if self.src != self.dst:
            raise ShapeMismatch(f"power of a map {self.src} -> {self.dst}")
        if e < 0:
            return self.inverse().power(-e)
        return Braid(self.stack, self.src, self.dst, lambda: {
            n: np.linalg.matrix_power(x, e) for n, x in self.blocks.items()},
            lambda: self.inverse().power(e))


def _mu(L: int, k: int) -> int:
    """The column of mu_k in the paths of words of length L."""
    return L + k


def _tree_counts(ring, words) -> np.ndarray:
    """The number of trees of each word (a row of ``words``) at each root,
    (len(words), rank), from the fusion rules alone."""
    dims = np.eye(ring.rank, dtype=np.int64)[words[:, 0]]
    for k in range(1, words.shape[1]):
        for w in np.flatnonzero(np.bincount(words[:, k])).tolist():
            on = words[:, k] == w
            dims[on] = dims[on] @ ring.N[:, w]
    return dims


class WordTable:
    """The words of length L that the tuples of one ``PathStack`` spell,
    over its spec, with their fusion paths, and the builder of their
    generators.  Each distinct word is numbered once, whichever tuple and
    word order spell it.  ``_paths`` holds the paths of every word numbered
    so far: one word's rows together, in tree order per root, from row
    ``_row[word]`` on; columns A_0 .. A_L, mu_1 .. mu_L, then the word, the
    position within the block of its root and the size of that block.  The
    table holds no stack, so a stack and its braids die by reference
    counting."""

    def __init__(self, spec: CategorySpec, L: int):
        self.spec, self.L = spec, L
        self._word, self._pos, self._n = 2 * L + 1, 2 * L + 2, 2 * L + 3
        self._words = np.empty((0, L), dtype=np.intp)
        self._paths = np.empty((0, 2 * L + 4), dtype=np.int32)
        self._row = np.zeros(1, dtype=np.intp)
        # the columns that sigma_p changes: A_p, mu_p and mu_{p + 1}
        self._local = np.array([[p, _mu(L, p), _mu(L, p + 1)]
                                for p in range(1, L)],
                               dtype=np.intp).reshape(L - 1, 3)

    def _spell(self, labels, orders) -> np.ndarray:
        """The ids of the words that the tuples ``labels`` spell in each of
        ``orders``, (len(orders), len(labels)), numbering those not
        numbered before and enumerating their paths, in rounds of at most
        ``_ROUND_ROWS`` paths unless one word alone has more."""
        L, seen = self.L, len(self._words)
        # letter i of every numbered word, then of every tuple in each order
        letters = np.concatenate([
            self._words.T,
            np.ascontiguousarray(labels.T)[np.array(orders).T].reshape(L, -1)],
            axis=1)
        _, first, inverse = np.unique(_codes(letters, [self.spec.rank] * L),
                                      return_index=True, return_inverse=True)
        new = first >= seen
        number = np.where(new, seen + np.cumsum(new) - 1, first)
        if new.any():
            words = letters[:, first[new]].T
            self._words = np.concatenate([self._words, words])
            count = _tree_counts(self.spec.ring, words).sum(axis=1)
            self._row = np.concatenate([self._row,
                                        self._row[-1] + np.cumsum(count)])
            self._paths = np.concatenate([self._paths] + [
                self._enumerate(seen + ids) for ids in _rounds(count)])
        return number[inverse[seen:]].reshape(len(orders), len(labels))

    def _enumerate(self, ids) -> np.ndarray:
        """The fusion paths of the words ``ids``, in one round: one row
        gather per fusion step over the ring's fusion vertices
        (``category._r_keys``), each once per multiplicity, and one sort
        into tree order."""
        ring = self.spec.ring
        r, m, V = ring.rank, int(ring.N.max()), _r_keys(ring)
        L = self.L
        width = 2 * L + 4
        # while paths grow: the columns of the table, then the letters
        grow = np.zeros((len(ids), width + L), dtype=np.int32)
        grow[:, self._word] = ids
        grow[:, width:] = self._words[ids]
        grow[:, 1] = grow[:, width]
        for k in range(1, L):
            pair = grow[:, k] * r + grow[:, width + k]
            count = V.first[pair + 1] - V.first[pair]
            vertex = _ranges(V.first[pair], count)
            size = V.size[vertex]
            grow = grow[np.repeat(np.repeat(np.arange(len(pair)), count),
                                  size)]
            grow[:, k + 1] = np.repeat(V.codes[vertex] % r, size)
            grow[:, _mu(L, k + 1)] = _ranges(0, size)
        # tree order within (word, root): labels A_2..A_L, then mu_2..mu_L
        code = _codes([grow[:, self._word], grow[:, L]]
                      + [grow[:, k] for k in range(2, L + 1)]
                      + [grow[:, _mu(L, k)] for k in range(2, L + 1)],
                      [len(self._words), r] + [r] * (L - 1) + [m] * (L - 1))
        paths = grow[np.argsort(code, kind="stable"), :width]
        first = _changes(paths[:, self._word].astype(np.int64) * r
                         + paths[:, L])
        starts = np.flatnonzero(first)
        block = np.cumsum(first) - 1
        paths[:, self._pos] = np.arange(len(paths)) - starts[block]
        paths[:, self._n] = np.diff(starts, append=len(paths))[block]
        return paths

    def _directions(self, p, src, dst) -> tuple:
        """The directions of sigma_p that tuples read, sigma_p[i] from the
        word src[i] to dst[i], numbered in order.  sigma_p joins the words
        s < t that it swaps, or a word s to itself, and its direction from
        s to t is 2 ((p - 1) W + s) + 1, the other 2 ((p - 1) W + s), so
        the two directions of (p, s) are numbered together.  Returns the
        directions, the number of the one each tuple reads, and the word t
        of every (p, s)."""
        W = len(self._words)
        code = ((p - 1) * W + np.minimum(src, dst)) * 2 + (dst > src)
        other = np.empty(len(self._local) * W, dtype=np.intp)
        other[code // 2] = np.maximum(src, dst)
        # marked in a table of every direction: cheaper than sorting the
        # codes of every (step, tuple)
        built = np.zeros(2 * len(other), dtype=bool)
        built[code] = True
        return np.flatnonzero(built), (np.cumsum(built) - 1)[code], other

    def _build(self, word_of, steps) -> dict:
        """The generator steps (order, p, over) of ``steps`` on tuples whose
        words in each order are ``word_of[order]``: sigma_p from each
        distinct word u that the tuples of any of them spell, in the senses
        they read, built once, in local form on the paths of its target
        word v, in rounds that read at most ``_ROUND_ROWS`` paths unless the
        words of one generator alone have more; then, per step, the
        generator rows that its tuples read.  sigma_p from u and sigma_p
        back from v share their contexts, so a round sorts them once."""
        W = len(self._words)
        src = np.stack([word_of[order] for order, _, _ in steps])
        dst = np.stack([word_of[_swapped(order, p)] for order, p, _ in steps])
        per = src.shape[1]
        p = np.repeat([p for _, p, _ in steps], per)
        code, which, other = self._directions(p, src.ravel(), dst.ravel())
        sense = np.zeros((len(code), 2), dtype=bool)
        sense[which, np.repeat([int(over) for *_, over in steps], per)] = True
        edge, up = code // 2, code % 2 == 1
        u = np.where(up, edge % W, other[edge])
        v = np.where(up, other[edge], edge % W)
        ps = edge // W + 1
        count = np.diff(self._row)[v]
        base = np.cumsum(count) - count
        M = max(_f_keys(self.spec.ring).groups)
        partner = np.zeros((M, int(count.sum())), dtype=np.intp)
        coef = np.zeros((2, M, int(count.sum())), dtype=np.complex128)
        slots = np.empty(len(u), dtype=np.intp)
        for at in _rounds(2 * count):
            slots[at] = self._generators(partner, coef, base[at], u[at],
                                         v[at], ps[at], sense[at])
        # a step's tuples read the generators of their words in its sense,
        # and its slots are those of their largest local block
        built = {}
        for key, ws in zip(steps, which.reshape(len(steps), per)):
            m = slots[ws].max()
            built[key] = base[ws], partner[:m], coef[int(key[2]), :m]
        return built

    def _generators(self, partner, coef, base, u, v, ps, sense
                    ) -> np.ndarray:
        """Write sigma_p from the words u to the words v into ``partner``
        and, in each sense s where sense[:, s], into ``coef[s]``, each on
        the paths of its target word from ``base`` on, in one round: one
        context sort of every (word, p) they read, one gather of their
        local blocks and one write of their entries.  Returns the size of
        each one's largest local block."""
        spec = self.spec
        r, m = spec.rank, int(spec.ring.N.max())
        L = self.L
        # each generator reads its source word and its target at p: both
        # have the same contexts, each with as many paths as its local
        # block has trees, so the two sorts align
        pairs, where = np.unique(np.concatenate([u * L + ps, v * L + ps]),
                                 return_inverse=True)
        src, dst = where[:len(ps)], where[len(ps):]
        words = pairs // L
        count = self._row[words + 1] - self._row[words]
        pair = np.repeat(np.arange(len(pairs)), count)
        table = self._paths[_ranges(self._row[words], count)]
        path = _ranges(np.zeros_like(count), count)  # of its word
        rows = np.arange(len(table))[:, None]
        cols = self._local[pairs % L - 1][pair]
        # a path's context is its pair and labels with the local labels
        # zeroed
        context = table[:, 1:self._word].copy()
        context[rows, cols - 1] = 0
        context = _codes([pair] + list(context.T),
                         [len(pairs)] + [r] * L + [m] * L)
        local = table[rows, cols]
        ranked = np.lexsort((_codes(local.T, [r, m, m]), context))
        starts = np.flatnonzero(_changes(context[ranked]))
        size = np.diff(starts, append=len(ranked))
        first = np.searchsorted(pair[ranked[starts]],
                                np.arange(len(pairs) + 1))
        # the contexts of every generator, source and target aligned, and
        # the key (A_{p-1}, w_p, w_{p+1}, A_{p+1}) of each one's local block
        contexts = first[src + 1] - first[src]
        cs = _ranges(first[src], contexts)
        cd = _ranges(first[dst], contexts)
        gen = np.repeat(np.arange(len(ps)), contexts)
        p, w, lead = ps[gen], u[gen], ranked[starts[cs]]
        keys = _f_keys(spec.ring)
        at = keys.start[keys.find(table[lead, p - 1], self._words[w, p - 1],
                                  self._words[w, p], table[lead, p + 1])]
        # every (row, column) pair of every context; a partner is held as
        # the offset j * n of its row j in its block of n rows
        size = size[cs]
        count = size * size
        g = np.repeat(np.arange(len(cs)), count)
        li, lj = np.divmod(_ranges(0, count), size[g])
        at = at[g] + li * size[g] + lj
        i = base[gen[g]] + path[ranked[starts[cd[g]] + li]]
        partner[lj, i] = (table[:, self._pos] * table[:, self._n])[
            ranked[starts[cs[g]] + lj]]
        for over in (0, 1):
            pick = sense[gen[g], over]
            if pick.any():
                coef[over, lj[pick], i[pick]] = _braid_blocks(
                    spec, bool(over))[at[pick]]
        return np.maximum.reduceat(size, np.cumsum(contexts) - contexts)


class PathStack:
    """The label tuples of a sweep, each a tuple of L Python ints in
    [0, rank), with a ``WordTable`` of their own that holds the words they
    spell and the fusion paths of every word that a braid reaches.  A word
    is ``labels[t, order]``, the letters of tuple t in a word order;
    ``_word_of[order]`` numbers the word of every tuple in the table, and
    tuples and orders that spell one word share its paths and generators.
    A braid's blocks lie in one flat buffer, those of size n from base[n]
    on and block b from offset[b] on; its rows are numbered in block
    order.  A built generator step (order, p, over) is held in local form,
    in ``_built``, as (first, partner, coef): the paths of tuple t's word
    read the rows of its generator from row first[t] on, and a
    generator's row holds, in each slot m, the offset partner[m] = j * n
    of the row j of its context in the source word's block of n rows and
    the entry coef[m] of its local block there.  A flush holds the rows of
    all its generators in one array (slots, paths) of partners and one of
    entries per sense; the rows of a smaller local block are padded with
    row 0 and entry 0, and a step keeps the slots of its generators'
    largest local block.  The products of generators are memoised per
    (source order, positions, over), as arrays."""

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
        self.table = WordTable(spec, labels.shape[1])
        # the queues of generator steps and twisted word orders named since
        # the last flush, the word of every tuple in each word order read,
        # the built steps and the memoised products
        self._steps, self._orders, self._word_of, self._built, \
            self._braids = {}, {}, {}, {}, {}
        # the (tuple, root) blocks, from the tree counts of each tuple's
        # word by root, which do not depend on the order of its letters
        dims = _tree_counts(spec.ring, labels)
        self.tuple_of, self.root_of = np.nonzero(dims)  # of each block
        self.first_block = np.searchsorted(self.tuple_of,
                                           np.arange(len(labels)))
        self.size_of = sizes = dims[self.tuple_of, self.root_of]
        lay = _Keys(None, None, None, sizes)
        self.members = {n: bs for n, (bs, _) in lay.groups.items()}
        self.base = {n: lo for n, (_, lo) in lay.groups.items()}
        self.offset, self.flat_size = lay.start, lay.total
        # the rows of the blocks, in block order: row r is row i of block
        # b, its diagonal entry at diagonal[r], and path[r] of its tuple's
        # word, whose paths are its blocks' rows in root order
        b, i, self._row_path = self._items(sizes)
        self._row_tuple = self.tuple_of[b]
        self._diagonal = self.offset[b] + i * (sizes[b] + 1)
        # entry e lies in a row of tuple entry_tuple[e], path
        # entry_path[e] of its word, and the entry of its column in row j
        # of its block of n rows is base[e] + j * n
        block, within, _ = self._items(sizes * sizes)
        e = self.offset[block] + within
        i, j = np.divmod(within, sizes[block])
        self._entry_tuple, self._entry_path, self._entry_base = np.empty(
            (3, self.flat_size), dtype=np.intp)
        self._entry_tuple[e] = self.tuple_of[block]
        self._entry_path[e] = self._row_path[(np.cumsum(sizes) - sizes)[block]
                                             + i]
        self._entry_base[e] = self.offset[block] + j

    def __len__(self):
        return len(self.labels)

    def _items(self, per) -> tuple:
        """Given per[b] items in each block b: the block of every item, in
        block order, its index within the block, and its index among the
        items of its tuple's blocks in root order."""
        block = np.repeat(np.arange(len(per)), per)
        before = np.cumsum(per) - per
        index = np.arange(len(block))
        return (block, index - before[block],
                index - before[self.first_block[self.tuple_of[block]]])

    # -- the deferred rounds -----------------------------------------------

    def _flush(self):
        """Number the words of every queued word order and twist, then
        build every queued generator step, and empty the queues.  A queue
        stays until its flush succeeds, so that an error of the data is
        raised again by the next read."""
        orders = dict(self._orders)
        for order, p, _ in self._steps:
            orders[order] = orders[_swapped(order, p)] = None
        orders = [order for order in orders if order not in self._word_of]
        if orders:
            self._word_of.update(zip(orders, self.table._spell(self.labels,
                                                               orders)))
        if self._steps:
            self._built.update(self.table._build(self._word_of,
                                                 list(self._steps)))
        self._orders.clear()
        self._steps.clear()

    def _split(self, flat) -> dict:
        """The blocks that lie in one flat buffer as ``offset`` places
        them."""
        return {n: flat[self.base[n]:self.base[n] + len(bs) * n * n].reshape(
                    len(bs), n, n) for n, bs in self.members.items()}

    def _product(self, key) -> dict:
        """The blocks of the braid ``key`` = (order, positions, over): its
        built generators applied in turn (``_apply``) to the identity;
        memoised."""
        if key not in self._braids:
            order, positions, over = key
            out = self._eye()
            for p in positions:
                out = self._apply(*self._built[order, p, over], out)
                order = _swapped(order, p)
            self._braids[key] = self._split(out)
        return self._braids[key]

    def _apply(self, first, partner, coef, x) -> np.ndarray:
        """The generator step in local form times the braid x, in the
        stack's flat buffer: the entry (i, j) of a block of n rows is the
        sum over the slots m, in order, of coef[m, w] times the entry
        (partner[m, w] / n, j) of x, w the row of its generator that row i
        reads, first[t] + the path of row i in its tuple t's word."""
        w = first.take(self._entry_tuple)
        w += self._entry_path
        at = partner.take(w, axis=1)
        at += self._entry_base
        coef = coef.take(w, axis=1)
        out = coef[0] * x[at[0]]
        for m in range(1, len(coef)):
            out += coef[m] * x[at[m]]
        return out

    def _eye(self) -> np.ndarray:
        """The identity in one flat buffer."""
        out = np.zeros(self.flat_size, dtype=np.complex128)
        out[self._diagonal] = 1
        return out

    # -- braids ------------------------------------------------------------

    def identity(self, order) -> Braid:
        return Braid(self, order, order, lambda: self._split(self._eye()),
                     None)

    def twist(self, order, k: int, power: int = 1) -> Braid:
        """theta_{A_k}^power on each path of the words of ``order``: the
        twist of their first k letters whiskered on the right, as
        ``engine.twist_endo`` of word[:k] embedded with right=word[k:].
        A tuple's paths are those of its word, in the same order."""
        if not 0 <= k <= len(order):
            raise PositionOutOfRange(f"prefix {k} invalid for words of "
                                     f"length {len(order)}")
        self._orders[order] = None

        def make():
            table = self.table
            rows = table._row[self._word_of[order][self._row_tuple]] \
                + self._row_path
            out = np.zeros(self.flat_size, dtype=np.complex128)
            out[self._diagonal] = (self.spec.theta ** power)[
                table._paths[rows, k]]
            return self._split(out)
        return Braid(self, order, order, make,
                     lambda: self.twist(order, k, -power))

    def braid(self, order, positions, over: bool = True) -> Braid:
        """The product of the generators at ``positions`` (1-based), applied
        in turn to the words of ``order``, each sigma_p as
        ``engine.braid_generator`` with the same ``over``.  Its generators
        are queued here; they are built, and the product memoised, when a
        braid of the stack is first read."""
        if not positions:
            return self.identity(order)
        for p in positions:
            if not 1 <= p < len(order):
                raise PositionOutOfRange(f"braid position {p} invalid for "
                                         f"words of length {len(order)}")
        dst = order
        for p in positions:
            if (dst, p, over) not in self._built:
                self._steps[dst, p, over] = None
            dst = _swapped(dst, p)
        key = (order, positions, over)
        return Braid(self, order, dst, lambda: self._product(key),
                     lambda: self.braid_inverse(*key), key)

    def braid_inverse(self, order, positions, over: bool = True) -> Braid:
        """The inverse of ``braid(order, positions, over)``, named without
        queueing that braid's generators: the product of the inverse
        generators in reverse order.  sigma_p over on the word (a, b) is
        c_{a,b}, and sigma_p under on (b, a) is c_{a,b}^-1."""
        for p in positions:
            order = _swapped(order, p)
        return self.braid(order, positions[::-1], not over)

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
        of the same map; IndexError unless k is a Python int in [0,
        len(self))."""
        if type(k) is not int or not 0 <= k < len(self):
            raise IndexError(f"no tuple {k!r} in a stack of {len(self)}")
        out = {}
        for n, bs in self.members.items():
            for s in np.flatnonzero(self.tuple_of[bs] == k):
                out[int(self.root_of[bs[s]])] = f.blocks[n][s]
        return dict(sorted(out.items()))


def _power(stack: PathStack, order, positions, e: int) -> Braid:
    """The e-th power of the monodromy ``stack.braid(order, positions)``,
    for e < 0 that of its inverse, named without queueing the monodromy's
    own generators (``PathStack.braid_inverse``)."""
    if e < 0:
        return stack.braid_inverse(order, positions).power(-e)
    return stack.braid(order, positions).power(e)


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
    before = _power(stack, order, _monodromy(1, mu, up), n)
    after = _power(stack, cross.dst, _monodromy(1, mu + v, up), -n)
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
    before = _power(stack, order, _monodromy(u + up + 1, v, rest), -n)
    after = _power(stack, cross.dst, _monodromy(u + 1, v, up + rest), n)
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
    """``modcat.psi_from_gamma`` for every tuple: psi^(0) conjugated |n|
    times by the gamma chain, or for n < 0 by its inverse; ``order`` is
    the source word (M, U, U', V, V', ...) with len(M) = m, len(U) = u,
    len(U') = up and len(V) = v."""
    cur = psi(stack, order, m + u, up, v)
    outer = gamma(stack, cur.dst, m, u) @ gamma(stack, cur.dst, m + u + v,
                                                up)
    inner = gamma(stack, order, m, u + up)
    if n < 0:
        outer = outer.inverse()
    else:
        inner = inner.inverse()
    for _ in range(abs(n)):
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
    # psi^(0)_{M,Y,X}^-1, the inverse of a crossing
    back = stack.braid_inverse(_moved(order, m + up, vp, u),
                               _crossing(m + up + 1, u, vp))
    cu = stack.braid(back.dst, _crossing(m + 1, up, u), over)
    cv = stack.braid(cu.dst, _crossing(m + u + up + 1, vp, v), over)
    return psi(stack, cv.dst, m + u, up, v) @ (cv @ cu) @ back


def _worst(stack: PathStack, pairs) -> list:
    """Per tuple, the largest deviation over the (lhs, rhs) pairs, NaN
    propagating.  Every pair is named before the first is compared, so
    that one flush builds all their generators."""
    pairs = list(pairs)
    worst = np.zeros(len(stack))
    for lhs, rhs in pairs:
        worst = np.maximum(worst, stack.deviations(lhs, rhs))
    return worst.tolist()


def sweep(spec: CategorySpec, tuples, pairs, *args) -> list:
    """The deviation of every tuple under a relation or sweep, on stacks
    of its own, each of at most ``_ROUND_ROWS`` tuples, which bounds their
    memory: ``pairs(stack, *args)`` names its (lhs, rhs) pairs on a stack.
    A tuple's deviation does not depend on the other tuples of its
    stack."""
    tuples, out = list(tuples), []
    for at in range(0, max(len(tuples), 1), _ROUND_ROWS):
        stack = PathStack(spec, tuples[at:at + _ROUND_ROWS])
        out += _worst(stack, pairs(stack, *args))
    return out


def _words(rank: int, k: int, budget: int, rng, seed: int
           ) -> tuple[list, str]:
    """The words of k letters that a relation or sweep runs on, each a
    tuple of Python ints as ``PathStack`` takes them, and its coverage:
    all r^k while they fit ``budget``, in lexicographic order, or a sample
    of that many distinct words drawn by ``rng``, seeded with ``seed``,
    sorted."""
    total = rank ** k
    if total <= budget:
        codes = np.arange(total)
        coverage = f"exhaustive {total}/{total} words"
    else:
        codes = np.sort(rng.choice(total, size=budget, replace=False))
        coverage = f"sampled {budget}/{total} words seed={seed}"
    words = codes[:, None] // rank ** np.arange(k - 1, -1, -1) % rank
    return [tuple(w) for w in words.tolist()], coverage


# Each relation and each sweep is a function that names its (lhs, rhs)
# pairs on a stack, compared by ``sweep``.
#
# A relation's tuple is a word (x, a, b, c) or (x, a, b), its first letter
# the context of the generators that follow it.


def braid_relation_pairs(stack: PathStack) -> list:
    """sigma_2 sigma_3 sigma_2 against sigma_3 sigma_2 sigma_3, over and
    under, on every word (x, a, b, c): the braid relation of sigma_p and
    sigma_{p+1} at context x."""
    order = (0, 1, 2, 3)
    return [(stack.braid(order, (2, 3, 2), over),
             stack.braid(order, (3, 2, 3), over)) for over in (True, False)]


def twist_relation_pairs(stack: PathStack) -> list:
    """The twist of a three-letter prefix against the monodromy of its
    third letter around the first two times the twists of both, on every
    word (x, a, b):

      theta_{x(x)a(x)b}  against  sigma_2 sigma_1 sigma_1 sigma_2
        o (theta_{x(x)a} (x) id_b) o (id_{x(x)a} (x) theta_b)
    """
    order = (0, 1, 2)
    # beta carries the third letter to the front, where its twist is that
    # of a prefix
    beta = stack.braid(order, (2, 1))
    return [(stack.twist(order, 3),
             stack.braid(order, (2, 1, 1, 2)) @ stack.twist(order, 2)
             @ beta.inverse() @ stack.twist(beta.dst, 1) @ beta)]


#
# A pentagon tuple is (m, x1, x2, y1, y2, z1, z2): the module M = (m,) and
# the objects X = (x1,) x (x2,), Y and Z of the square, at slots
# M, U1, V1, U2, V2, U3, V3 = 0, ..., 6.


def module_pentagon_pairs(stack: PathStack, n_values) -> list:
    """``modcat.module_pentagon_deviation`` of every tuple, its largest
    over ``n_values``, one or more Python ints (``report.exponents``):

      psi_{M.X,Y,Z} o psi_{M,X,Y(x)Z}  against
      (psi_{M,X,Y} . id_Z) o psi_{M,X(x)Y,Z}
    """
    return [(psi(stack, (0, 1, 2, 3, 5, 4, 6), 4, 1, 1, n)
             @ psi(stack, (0, 1, 3, 5, 2, 4, 6), 2, 2, 1, n),
             psi(stack, (0, 1, 3, 2, 4, 5, 6), 2, 1, 1, n)
             @ psi(stack, (0, 1, 3, 5, 2, 4, 6), 3, 1, 2, n))
            for n in exponents(n_values)]


def left_module_pentagon_pairs(stack: PathStack, n: int) -> list:
    """``modcat.left_module_pentagon_deviation`` of every tuple, n a
    Python int (``report.exponents``):

      psi_hat_{X,Y,Z.M} o psi_hat_{X(x)Y,Z,M}  against
      (id_X (x) psi_hat_{Y,Z,M}) o psi_hat_{X,Y(x)Z,M}
    """
    n, = exponents((n,))
    return [(psi_hat(stack, (1, 3, 2, 4, 5, 6, 0), 1, 1, 1, n)
             @ psi_hat(stack, (1, 3, 5, 2, 4, 6, 0), 2, 1, 2, n),
             psi_hat(stack, (1, 2, 3, 5, 4, 6, 0), 3, 1, 1, n)
             @ psi_hat(stack, (1, 3, 5, 2, 4, 6, 0), 1, 2, 1, n))]


# A tuple of the other sweeps is (m, x1, x2, y1, y2, ...) at slots M, U1,
# V1, U2, V2, ... = 0, 1, ..., except for the commutor's (m, u, v, u', v')
# and the single label of the twist extraction.


def module_triangle_pairs(stack: PathStack, n_values) -> list:
    """``modcat.module_triangle_deviation`` of every (m, x1, x2), its
    largest over ``n_values``, one or more Python ints
    (``report.exponents``): psi_{M,1,X} and psi_{M,X,1} against the
    identity."""
    order = (0, 1, 2)
    ident = stack.identity(order)
    return [(psi(stack, order, mu, up, v, n), ident)
            for n in exponents(n_values)
            for mu, up, v in ((1, 1, 0), (2, 0, 1))]


def twist_mismatch_pairs(stack: PathStack, n: int) -> list:
    """The larger of ``modcat.gamma_functor_deviation`` at n and
    ``modcat.psi_shortcut_deviation`` for every (m, x1, x2, y1, y2), n a
    Python int (``report.exponents``):

      (gamma_{M,X} . id_Y) o gamma_{M.X,Y} o psi^(n)
        against psi^(n+1) o gamma_{M,X(x)Y},
      psi^(0) against c_{U',V} and psi^(1) against c^-1_{V,U'}.
    """
    n, = exponents((n,))
    src, dst = (0, 1, 3, 2, 4), (0, 1, 2, 3, 4)
    lhs = gamma(stack, dst, 1, 1) @ gamma(stack, dst, 3, 1) \
        @ psi(stack, src, 2, 1, 1, n)
    rhs = psi(stack, src, 2, 1, 1, n + 1) @ gamma(stack, src, 1, 2)
    return [(lhs, rhs)] + [(psi(stack, src, 2, 1, 1, k),
                            stack.braid(src, _crossing(3, 1, 1), over))
                           for k, over in ((0, True), (1, False))]


def associator_chain_pairs(stack: PathStack, n: int) -> list:
    """psi^(n) against ``psi_from_gamma`` at n for every (m, x1, x2, y1,
    y2), as the associator-chain check of the suite; n a Python int
    (``report.exponents``)."""
    n, = exponents((n,))
    src = (0, 1, 3, 2, 4)
    return [(psi(stack, src, 2, 1, 1, n),
             psi_from_gamma(stack, src, 1, 1, 1, 1, n))]


def alpha_functor_pairs(stack: PathStack) -> list:
    """``modcat.alpha_functor_deviation`` of every tuple, the larger of its
    two signs:

      (gamma^X_{M,Y} . id_Z) o gamma^X_{M.Y,Z}  against
      psi^(0)_{M.X,Y,Z} o gamma^X_{M,Y(x)Z} o (psi^(0)_{M,Y,Z}^-1 . id_X)
    """
    one = (1, 1)
    # psi^(0)_{M,Y,Z}^-1, the inverse of a crossing
    back = stack.braid_inverse((0, 3, 5, 4, 6, 1, 2), _crossing(3, 1, 1))
    return [(alpha_induction(stack, (0, 3, 4, 1, 2, 5, 6), 1, one, one, over)
             @ alpha_induction(stack, (0, 3, 4, 5, 6, 1, 2), 3, one, one,
                               over),
             psi(stack, (0, 1, 2, 3, 5, 4, 6), 4, 1, 1)
             @ alpha_induction(stack, (0, 3, 5, 4, 6, 1, 2), 1, one, (2, 2),
                               over)
             @ back)
            for over in (True, False)]


def commutor_witness_pairs(stack: PathStack) -> list:
    """``modcat.commutor_witness_deviation`` of every (m, u, v, u', v'):

      gamma^{VxU,-}_{M,U'xV'} o Gamma_{M.(U'xV')}  against
      (Gamma_M (x) id) o gamma^{UxV,+}_{M,U'xV'}
    """
    one = (1, 1)
    lhs = alpha_induction(stack, (0, 3, 4, 2, 1), 1, one, one, False) \
        @ module_commutor(stack, (0, 3, 4, 1, 2), 3, 1, 1)
    rhs = module_commutor(stack, (0, 1, 2, 3, 4), 1, 1, 1) \
        @ alpha_induction(stack, (0, 3, 4, 1, 2), 1, one, one, True)
    return [(lhs, rhs)]


def twist_extraction_pairs(stack: PathStack) -> list:
    """For every (u,), ``modcat.extract_twist`` of the word (u,),
    gamma_{1,1xU} o gamma_{1,Ux1}^-1, against theta_u."""
    order = (0,)
    got = gamma(stack, order, 0, 0) @ gamma(stack, order, 0, 1).inverse()
    return [(got, stack.twist(order, 1))]


# The sample budget of a sweep with no smaller cap: above it, a sweep draws
# that many distinct seeded tuples.
_SWEEP_BUDGET = 256


def module_sweeps(spec: CategorySpec, n_values=(0, 1, 2)
                  ) -> VerificationReport:
    """The eight identities of the paper's module section, each swept over
    the label tuples of its length: all of them while they fit the sweep's
    budget, a sample of that many distinct tuples drawn with seed 0
    otherwise (``_words``), its coverage in the check's detail.  A report
    of eight checks at ``DEFAULT_TOL``.  ``mtc check`` runs the two
    relations that certify these identities instead; the tests keep the
    sweeps as their reference.  Each sweep runs on stacks of its own
    tuples (``sweep``), each with its own ``WordTable``."""
    # a label tuple is (m, x1, x2, ...): the module M = (m,) and objects
    # (x1, x2), ... of the square
    n_values = exponents(n_values)
    n0, n_top = n_values[0], max(n_values)
    rng = np.random.default_rng(0)
    # name, statement, tuple length, sample budget, the namer of its (lhs,
    # rhs) pairs on a stack and its arguments after it
    sweeps = [
        ("module_pentagon", "module-pentagon", 7, _SWEEP_BUDGET,
         module_pentagon_pairs, n_values),
        ("left_module_pentagon", "left-module-pentagon", 7, 64,
         left_module_pentagon_pairs, n0),
        ("module_triangle", "module-unit-triangle", 3, _SWEEP_BUDGET,
         module_triangle_pairs, n_values),
        ("twist_mismatch_functor", "twist-mismatch-equation", 5,
         _SWEEP_BUDGET, twist_mismatch_pairs, n0),
        ("associator_from_chain", "associator-chain", 5, 64,
         associator_chain_pairs, n_top),
        ("twist_extraction", "twist-from-mismatch", 1, _SWEEP_BUDGET,
         twist_extraction_pairs),
        ("alpha_module_functor", "alpha-induction-functor", 7, 32,
         alpha_functor_pairs),
        ("commutor_witness", "commutor-intertwiner", 5, 32,
         commutor_witness_pairs),
    ]
    report = VerificationReport(spec.name)
    for name, tag, k, budget, pairs, *args in sweeps:
        tuples, coverage = _words(spec.rank, k, budget, rng, 0)
        if name == "module_pentagon":
            coverage = f"n in {list(n_values)}; {coverage}"
        report.add_deviation(name, tag,
                             max_dev(*sweep(spec, tuples, pairs, *args)),
                             DEFAULT_TOL.atol, detail=coverage)
    return report
