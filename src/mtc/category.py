"""Skeletal data of braided ribbon fusion categories.

A category is presented by integer fusion multiplicities N[i,j,k], a dual
involution, quantum dimensions, twists, and sparse F/R symbol tables over a
fixed set of simple labels 0..rank-1 with 0 the tensor unit.

Conventions.  Hom(a (x) b (x) c, d) carries two distinguished bases:

* left nested:  (a b -> e, alpha) then (e c -> d, beta)
* right nested: (b c -> f, gamma) then (a f -> d, delta)

``F[a,b,c,d]`` is the matrix expressing each left-nested basis vector as a
combination of right-nested ones; rows are labelled (e, alpha, beta), columns
(f, gamma, delta), enumerated in ascending label order and row-major
multiplicity order.  ``R[a,b,c]`` is the matrix of the braiding c_{a,b}
restricted to fusion channel c: c_{a,b} = sum_c fbar^{ba->c}_beta
R[a,b,c][beta,alpha] f^{ab->c}_alpha.  Any symbol involving the unit label is
the canonical identity and is not stored.

The bases depend on the fusion rules alone, so each has one order, owned
by ``FusionRing``: ``tree_basis`` lists the left-nested trees of a word per
root, ``sum_basis`` concatenates them over the summands of a direct sum
of words, ``split_basis`` the tree pairs of u (x) v fused to a root, and
``f_basis`` takes the F-rows from the trees of (a, b, c) and the F-columns
from the pairs of (a) (x) (b, c).  Each list comes with its label ->
position map (``tree_positions`` for trees) and is built once per ring and
shared by every spec on it; the split bases are kept by
``engine.split_transform`` with their change of basis.  Every other module
looks positions up there.  ``CategorySpec`` holds what F and R decide:
``f_block``, ``r_block`` and ``f_tensor``, which reads the part of an
F-block between one row channel e and one column channel f as an array
[alpha, beta, gamma, delta].

The pentagon and the hexagons are contractions of these arrays, checked as
batched block algebra.  Their label tuples are enumerated as arrays by
channel expansion over N > 0, one first label at a time.  Every
``f_tensor`` block sits in one flat F store per spec, keyed by
(a, b, c, d, e, f), and every R-action in an R store keyed by (x, y, z);
the blocks of a set of tuples are gathered from the stores by key, a
missing one reading as zeros.  The tuples whose blocks have equal shapes,
their multiplicity signature, are contracted by one einsum with a batch
axis.  ``f_completeness`` takes the singular values of one stack of
F-blocks per block shape.

Every derived table is memoised on its owner by ``cached``, one section of
the owner's ``_cache`` per table: the ring's ``tree_pos``, ``f_basis``,
``channel_csr`` and ``f_keys``, a product ring's ``ptree_map``, a spec's
``f_tensor``, ``f_blocks``, ``f_store`` and ``r_store`` and the engine and
module tables, and a ``PermutationAlgebra``'s ``m``, ``delta``, ``phi`` and
``proj``.  Only ``tree_basis`` and ``sum_basis`` keep their ``trees`` and
``sums`` sections by hand, since they check every word on every call.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (CategoryFileError, InvalidWord, NotModular, NotPremodular,
                     RingAxiomError, SnapFailure, WordTooLong)
from .report import VerificationReport, max_dev

MAX_WORD_LENGTH = 8


@dataclass(frozen=True)
class ToleranceConfig:
    atol: float = 1e-9
    integer_snap: float = 1e-6

    def __post_init__(self):
        if not (0 < self.atol < self.integer_snap < 1):
            raise ValueError("tolerances must satisfy 0 < atol < integer_snap < 1")


DEFAULT_TOL = ToleranceConfig()


def _positions(labels) -> dict:
    """label -> position map of a basis list."""
    return {lab: i for i, lab in enumerate(labels)}


def cached(section: str):
    """Memoise a derived table: ``fn(owner, *args)`` in
    ``owner._cache[section]``, keyed by the tuple ``args``.

    The wrapper is compiled with fn's own parameters and defaults, so
    defaults are filled in and keyword arguments land in their positions:
    every spelling of one call shares an entry, and a positional call binds
    its arguments once, as a call of fn would.  A call that raises stores
    nothing, so checks in fn run on a miss only.  An unhashable argument
    misses too, so fn's checks refuse it however full the section is.
    """
    def decorate(fn):
        code = fn.__code__
        owner, *args = code.co_varnames[:code.co_argcount]
        params = ", ".join([owner, *args])
        key = f"({''.join(a + ', ' for a in args)})"
        namespace = {"fn": fn}
        exec(f"def memo({params}):\n"
             f"    try:\n"
             f"        return {owner}._cache[{section!r}][{key}]\n"
             f"    except (KeyError, TypeError):\n"
             f"        pass\n"
             f"    out = fn({params})\n"
             f"    {owner}._cache.setdefault({section!r}, {{}})[{key}] = out\n"
             f"    return out\n", namespace)
        memo = functools.wraps(fn)(namespace["memo"])
        memo.__defaults__ = fn.__defaults__
        return memo
    return decorate


class FusionRing:
    """Fusion multiplicities with a unit and a dual involution, and the
    fusion-tree bases they determine.

    ``N`` and ``dual`` are read-only, so the bases are built once per ring,
    cached on the ``_cache`` attribute, and shared by every spec on it.
    """

    def __init__(self, N, dual):
        self.N = np.asarray(N, dtype=np.int64)
        self.dual = np.asarray(dual, dtype=np.int64)
        self.rank = self.N.shape[0]
        if self.N.shape != (self.rank,) * 3:
            raise RingAxiomError("fusion tensor must be cubic")
        if self.dual.shape != (self.rank,):
            raise RingAxiomError("dual involution has wrong length")
        self.N.setflags(write=False)
        self.dual.setflags(write=False)
        self._channels = [[tuple(int(c) for c in np.flatnonzero(row))
                           for row in plane] for plane in self.N]
        self._cache = {"trees": {}, "sums": {}}

    def n(self, a, b, c) -> int:
        return int(self.N[a, b, c])

    def channels(self, a, b):
        """The labels c with N[a,b,c] > 0, ascending."""
        return self._channels[a][b]

    @cached("channel_csr")
    def _channel_csr(self):
        """(start, channels): the channels of the pair (a, b) are
        ``channels[start[a * rank + b]:start[a * rank + b + 1]]``."""
        pairs, chans = np.nonzero(self.N.reshape(self.rank ** 2, self.rank))
        return np.searchsorted(pairs, np.arange(self.rank ** 2 + 1)), chans

    def fusion_channels(self, x, y):
        """Every channel of every pair of the label arrays x, y: (i, z) with
        z in x[i] (x) y[i], ascending in i and then in z."""
        start, chans = self._channel_csr()
        pair = x * self.rank + y
        count = start[pair + 1] - start[pair]
        i = np.repeat(np.arange(len(pair)), count)
        within = np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)
        return i, chans[start[pair][i] + within]

    def check_axioms(self):
        """Raise RingAxiomError unless unit, duality, associativity and the
        dual involution all hold exactly."""
        r = self.rank
        if np.any(self.N < 0):
            raise RingAxiomError("negative fusion multiplicity")
        eye = np.eye(r, dtype=np.int64)
        if not np.array_equal(self.N[0], eye) or not np.array_equal(self.N[:, 0, :], eye):
            raise RingAxiomError("unit axiom fails: 0 (x) j must equal j")
        if sorted(self.dual.tolist()) != list(range(r)) or \
                any(self.dual[self.dual[i]] != i for i in range(r)):
            raise RingAxiomError("dual map is not an involutive permutation")
        if self.dual[0] != 0:
            raise RingAxiomError("unit must be self-dual")
        for i in range(r):
            for j in range(r):
                if self.N[i, j, 0] != (1 if j == self.dual[i] else 0):
                    raise RingAxiomError(
                        f"duality fails: N[{i},{j},0] != delta(j, dual({i}))")
        # associativity: sum_e N_ab^e N_ec^d == sum_f N_bc^f N_af^d, one
        # first label a at a time, so that memory stays at rank^3
        for Na in self.N:
            if not np.array_equal((Na @ self.N.reshape(r, r * r)).reshape(
                    r, r, r), self.N @ Na):
                raise RingAxiomError("fusion associativity fails")
        # braided data requires a commutative ring
        if not np.array_equal(self.N, self.N.transpose(1, 0, 2)):
            raise RingAxiomError("fusion ring is not commutative")
        # N_ab^c = N_{b* a*}^{c*}
        d = self.dual
        if not np.array_equal(self.N, self.N[np.ix_(d, d, d)].transpose(1, 0, 2)):
            raise RingAxiomError("fusion tensor not invariant under duals")

    def word_dims(self, word) -> np.ndarray:
        """dim Hom(w_1 (x) ... (x) w_n, c) for every c, by iterated fusion."""
        vec = np.zeros(self.rank, dtype=np.int64)
        vec[0] = 1
        for letter in word:
            vec = np.einsum("a,ac->c", vec, self.N[:, letter, :])
        return vec

    # -- bases -----------------------------------------------------------
    def tree_basis(self, word):
        """Left-nested fusion trees of a word, {root: trees}.

        A tree is (labels, mults) with labels the intermediate charges
        (A_2, ..., A_n) and mults the fusion-vertex multiplicities; A_1 = w_1
        and A_0 = 0 are implicit.  Trees with a common root are sorted
        lexicographically by (labels, mults).

        A word is a tuple of Python ints in [0, rank), at most
        MAX_WORD_LENGTH long.  It is checked here: its types on every call,
        its range and length the first time its basis is built; anything
        else raises InvalidWord or WordTooLong.
        """
        cache = self._cache["trees"]
        if type(word) is tuple:
            for x in word:  # a loop: a generator would double a hit's cost
                if type(x) is not int:
                    break
            else:
                hit = cache.get(word)
                if hit is not None:  # equal to a word that passed below
                    return hit
        if type(word) is not tuple or not all(
                type(x) is int and 0 <= x < self.rank for x in word):
            raise InvalidWord(f"word {word!r} is not a tuple of Python ints "
                              f"in [0, {self.rank})")
        if len(word) > MAX_WORD_LENGTH:
            raise WordTooLong(
                f"word of length {len(word)} exceeds the cap {MAX_WORD_LENGTH}")
        if not word:
            hit = {0: [((), ())]}
        else:
            partial = [((), (), word[0])]
            for letter in word[1:]:
                nxt = []
                for labels, mults, a in partial:
                    for c in self.channels(a, letter):
                        for alpha in range(self.n(a, letter, c)):
                            nxt.append((labels + (c,), mults + (alpha,), c))
                partial = nxt
            hit = {}
            for labels, mults, root in partial:
                hit.setdefault(root, []).append((labels, mults))
            for root in hit:
                hit[root].sort()
        cache[word] = hit
        return hit

    def sum_basis(self, words):
        """Basis of the direct sum of a tuple of words, {root: offsets}: at
        root c, the summands' trees at c concatenated in summand order, with
        summand s at positions offsets[s] to offsets[s + 1].  Every summand
        goes through the word check of ``tree_basis`` on every call."""
        for word in words:
            self.tree_basis(word)
        hit = self._cache["sums"].get(words)
        if hit is None:
            bases = [self.tree_basis(w) for w in words]
            hit = self._cache["sums"][words] = {
                c: tuple(itertools.accumulate(
                    (len(b.get(c, ())) for b in bases), initial=0))
                for c in sorted(set().union(*bases))}
        return hit

    @cached("tree_pos")
    def tree_positions(self, word):
        """{root: {tree: position}} for the trees of the word."""
        return {root: _positions(ts)
                for root, ts in self.tree_basis(word).items()}

    def split_basis(self, u, v, c):
        """Basis of Hom(u (x) v, c) split at the cut: (columns, positions).

        Column (a, si, b, ti, mu) is f^{ab->c}_mu o (tree si of u at root a
        (x) tree ti of v at root b).  ``engine.split_transform`` stores it
        with its change of basis, so it is not cached here.
        """
        tu = self.tree_basis(u)
        tv = self.tree_basis(v)
        N = self.N
        cols = [(a, si, b, ti, mu)
                for a in sorted(tu) for si in range(len(tu[a]))
                for b in sorted(tv) for ti in range(len(tv[b]))
                for mu in range(N[a, b, c])]
        return cols, _positions(cols)

    @cached("f_basis")
    def f_basis(self, a, b, c, d):
        """(rows, row positions, columns, column positions) of F[a,b,c,d].

        Row (e, alpha, beta) is the tree ((e, d), (alpha, beta)) of (a, b, c);
        column (f, gamma, delta) the split pair (a, 0, f, gamma, delta) of
        (a) (x) (b, c), as tree gamma of (b, c) at root f is ((f,), (gamma,)).
        """
        rows = [(L[0], M[0], M[1])
                for L, M in self.tree_basis((a, b, c)).get(d, ())]
        cols = [(f, gamma, delta) for _, _, f, gamma, delta
                in self.split_basis((a,), (b, c), d)[0]]
        return rows, _positions(rows), cols, _positions(cols)


class CategorySpec:
    """Validated-on-demand container for all skeletal data of one category.

    Instances are treated as immutable; engines cache per-instance data that
    depends on F and R on the ``_cache`` attribute.
    """

    def __init__(self, name, ring, dims, theta, F, R, label_names=None,
                 product_of=None):
        self.name = str(name)
        self.ring = ring
        self.rank = ring.rank
        self.dims = np.asarray(dims, dtype=np.float64)
        self.theta = np.asarray(theta, dtype=np.complex128)
        self.F = {tuple(int(x) for x in k): np.asarray(v, dtype=np.complex128)
                  for k, v in F.items()}
        self.R = {tuple(int(x) for x in k): np.asarray(v, dtype=np.complex128)
                  for k, v in R.items()}
        self.label_names = list(label_names) if label_names else None
        self.product_of = product_of  # (base name, factor count) for products
        for arr in (self.dims, self.theta):
            arr.setflags(write=False)
        for table in (self.F, self.R):
            for v in table.values():
                v.setflags(write=False)
        self._cache = {}

    # -- label helpers ----------------------------------------------------
    @property
    def dual(self):
        return self.ring.dual

    def global_dim(self) -> float:
        return float(np.sum(self.dims ** 2))

    def label_name(self, i) -> str:
        if self.label_names:
            return self.label_names[i]
        return str(i)

    # -- F/R lookup --------------------------------------------------------
    def f_block(self, a, b, c, d) -> np.ndarray:
        if not (type(a) is type(b) is type(c) is type(d) is int
                and 0 <= min(a, b, c, d) and max(a, b, c, d) < self.rank):
            raise InvalidWord(f"F-block labels {(a, b, c, d)} are not "
                              f"Python ints in [0, {self.rank})")
        # the lengths of the bases of ``FusionRing.f_basis``
        N = self.ring.N
        rows = int(N[a, b].dot(N[:, c, d]))
        cols = int(N[b, c].dot(N[a, :, d]))
        if not rows or not cols:
            return np.zeros((rows, cols), dtype=np.complex128)
        if 0 in (a, b, c):
            # unit strand: both nestings coincide up to the canonical
            # relabelling, which is a bijection of basis vectors
            if rows != cols:
                raise NotPremodular(f"unit F-block ({a},{b},{c};{d}) not square")
            return np.eye(rows, dtype=np.complex128)
        key = (a, b, c, d)
        if key not in self.F:
            raise NotPremodular(f"missing F-symbols for {key}")
        blk = self.F[key]
        if blk.shape != (rows, cols):
            raise NotPremodular(f"F-block {key} has shape {blk.shape}, "
                                f"expected {(rows, cols)}")
        return blk

    @cached("f_tensor")
    def f_tensor(self, a, b, c, d, e, f) -> np.ndarray:
        """Block of F[a,b,c,d] from row channel e to column channel f,
        indexed [alpha, beta, gamma, delta] as the labels of
        ``FusionRing.f_basis``."""
        N = self.ring.N
        _, row_pos, _, col_pos = self.ring.f_basis(a, b, c, d)
        shape = (N[a, b, e], N[e, c, d], N[b, c, f], N[a, f, d])
        # the rows of one channel e are contiguous, and so are the
        # columns of one f; an empty block may start anywhere
        i = row_pos.get((e, 0, 0), 0)
        j = col_pos.get((f, 0, 0), 0)
        return self.f_block(a, b, c, d)[i:i + shape[0] * shape[1],
                                        j:j + shape[2] * shape[3]
                                        ].reshape(shape)

    def r_block(self, a, b, c) -> np.ndarray:
        """Matrix of c_{a,b} on channel c; rows index (b a -> c), columns (a b -> c)."""
        n_ab = self.ring.n(a, b, c)
        n_ba = self.ring.n(b, a, c)
        if n_ab == 0 or n_ba == 0:
            return np.zeros((n_ba, n_ab), dtype=np.complex128)
        if a == 0 or b == 0:
            return np.eye(n_ab, dtype=np.complex128)
        key = (a, b, c)
        if key not in self.R:
            raise NotPremodular(f"missing R-symbols for {key}")
        blk = self.R[key]
        if blk.shape != (n_ba, n_ab):
            raise NotPremodular(f"R-block {key} has shape {blk.shape}")
        return blk

    def __repr__(self):
        return f"CategorySpec({self.name!r}, rank={self.rank})"


# ---------------------------------------------------------------------------
# validation


def _encode(labels, rank) -> np.ndarray:
    """Label columns as one int64 key per row, in base-rank notation."""
    key = np.zeros(len(labels[0]), dtype=np.int64)
    for x in labels:
        key = key * rank + x
    return key


def _changes(values) -> np.ndarray:
    """Mask of the entries that differ from their predecessor; the first
    entry does."""
    out = np.ones(len(values), dtype=bool)
    out[1:] = values[1:] != values[:-1]
    return out


def _mult(N, x, y, z) -> np.ndarray:
    """N[x, y, z] for label arrays, read by flat index."""
    r = len(N)
    return N.ravel()[(x * r + y) * r + z]


def _free(cols, rank):
    """Every row of the label columns once per label, appended."""
    return [np.repeat(x, rank) for x in cols] + \
        [np.tile(np.arange(rank), len(cols[0]))]


def _fuse(ring, cols, x, y):
    """Every row of the label columns once per channel of its labels
    x (x) y, appended."""
    i, z = ring.fusion_channels(cols[x], cols[y])
    return [col[i] for col in cols] + [z]


def _stacks(blocks):
    """(indices, stacked blocks) for each block shape among ``blocks``."""
    by_shape = {}
    for i, blk in enumerate(blocks):
        by_shape.setdefault(blk.shape, []).append(i)
    for idx in by_shape.values():
        yield idx, np.stack([blocks[i] for i in idx])


def _channel_starts(block, channel, width):
    """Offset of each row's channel within its block: the total width of
    the block's lower channels, each distinct channel counted once."""
    order = np.lexsort((channel, block))
    b, c, w = block[order], channel[order], width[order]
    new_block = _changes(b)
    new = new_block | _changes(c)
    below = np.cumsum(np.where(new, w, 0)) - w
    first = np.maximum.accumulate(np.where(new_block, np.arange(len(b)), 0))
    out = np.empty_like(below)
    out[order] = below - below[first]
    return out


class _Store(NamedTuple):
    """Blocks keyed by label tuples, concatenated row-major in one flat
    array from ``offsets[i]`` on for the i-th key and followed by zeros
    from ``blank`` on, as many as the largest block has entries.  ``keys``
    are the label tuples in base-rank notation, ascending; ``dims`` gives,
    per block axis, the label triple (as positions in the tuple) whose
    multiplicity is the axis's length."""

    rank: int
    dims: tuple
    keys: np.ndarray
    offsets: np.ndarray
    blank: int
    flat: np.ndarray

    def take(self, labels, shape) -> np.ndarray:
        """The blocks of the label columns, stacked as (n, *shape).  A label
        tuple without a block reads as zeros and keeps its row."""
        key = _encode(labels, self.rank)
        pos = np.minimum(np.searchsorted(self.keys, key), len(self.keys) - 1)
        start = np.where(self.keys[pos] == key, self.offsets[pos], self.blank)
        return self.flat[start[:, None] + np.arange(math.prod(shape))
                         ].reshape((len(key),) + shape)


def _store(rank, dims, keys, sizes, flat) -> _Store:
    """The store of the blocks concatenated in ``flat`` in key order, with
    its zeros appended."""
    pad = np.zeros(int(sizes.max(initial=0)), dtype=np.complex128)
    return _Store(rank, dims, keys, np.cumsum(sizes) - sizes, len(flat),
                  np.concatenate([flat, pad]))


@cached("f_keys")
def _f_block_keys(ring: FusionRing):
    """Label columns (a, b, e, c, d) of the trees of every word (a, b, c) at
    every root d; and the keys (a, b, c, d) of the F-blocks, ascending, as
    int codes and as tuples."""
    r = ring.rank
    cols = _fuse(ring, _free(_fuse(ring, _free([np.arange(r)], r), 0, 1), r),
                 2, 3)
    a, b, _, c, d = cols
    codes = np.sort(_encode((a, b, c, d), r))
    codes = codes[_changes(codes)]
    keys = zip(*(x.tolist() for x in np.unravel_index(codes, (r,) * 4)))
    return cols, codes, list(keys)


@cached("f_blocks")
def _f_blocks(spec: CategorySpec):
    """``f_block`` of every F-block key in order up to the first key it
    refuses, and the refusal's message, or None if it refuses none."""
    blocks = []
    for key in _f_block_keys(spec.ring)[2]:
        try:
            blocks.append(spec.f_block(*key))
        except NotPremodular as exc:
            return blocks, str(exc)
    return blocks, None


@cached("f_store")
def _f_store(spec: CategorySpec) -> _Store:
    """Every ``f_tensor`` block, keyed by (a, b, c, d, e, f).

    The F-blocks are concatenated in key order, and each tensor entry
    [alpha, beta, gamma, delta] is gathered from row (e, alpha, beta) and
    column (f, gamma, delta) of its block, where channel e starts after the
    rows of the lower channels and f after their columns.
    """
    ring, N, r = spec.ring, spec.ring.N, spec.rank
    cols, codes, _ = _f_block_keys(ring)
    blocks, refused = _f_blocks(spec)
    if refused is not None:
        raise NotPremodular(refused)
    block_start = np.cumsum([0] + [blk.size for blk in blocks])
    block_cols = np.array([blk.shape[1] for blk in blocks], dtype=np.int64)
    # every tree (a, b, e, c, d) with every column channel f of its block
    a, b, e, c, d, f = _fuse(ring, cols, 1, 3)
    keep = _mult(N, a, f, d) > 0
    labels = [x[keep] for x in (a, b, c, d, e, f)]
    key = _encode(labels, r)
    order = np.argsort(key)
    a, b, c, d, e, f = (x[order] for x in labels)
    block = np.searchsorted(codes, _encode((a, b, c, d), r))
    height = _mult(N, a, b, e) * _mult(N, e, c, d)
    width = _mult(N, b, c, f) * _mult(N, a, f, d)
    start = (block_start[block]
             + _channel_starts(block, e, height) * block_cols[block]
             + _channel_starts(block, f, width))
    sizes = height * width
    entry = np.repeat(np.arange(len(sizes)), sizes)
    within = np.arange(len(entry)) - (np.cumsum(sizes) - sizes)[entry]
    row, col = np.divmod(within, width[entry])
    full = np.concatenate([blk.ravel() for blk in blocks])
    return _store(r, ((0, 1, 4), (4, 2, 3), (1, 2, 5), (0, 5, 3)),
                  key[order], sizes,
                  full[start[entry] + row * block_cols[block[entry]] + col])


@cached("r_store")
def _r_store(spec: CategorySpec, inverse: bool) -> _Store:
    """The braiding c_{x,y}, or with ``inverse`` the inverse braiding
    c_{y,x}^-1, on every channel z, keyed by (x, y, z).  The inverses are
    taken on one stack per block shape."""
    N = spec.ring.N
    x, y, z = np.nonzero(N)
    labels = (y, x, z) if inverse else (x, y, z)
    blocks = [spec.r_block(*key)
              for key in zip(*(v.tolist() for v in labels))]
    if inverse:
        for idx, stack in _stacks(blocks):
            for i, blk in zip(idx, np.linalg.inv(stack)):
                blocks[i] = blk
    return _store(spec.rank, ((1, 0, 2), (0, 1, 2)),
                  _encode((x, y, z), spec.rank), N[x, y, z] * N[y, x, z],
                  np.concatenate([blk.ravel() for blk in blocks]))


def _groups(columns, base):
    """(row indices, row) for each distinct row of the columns, whose
    values lie in [0, base); the indices of a group ascend.

    Rows are sorted by their values packed into one int64 code, in base
    ``base``; when the next column would overflow the code, the codes so far
    are first renumbered by rank.
    """
    code, span = np.zeros(len(columns[0]), dtype=np.int64), 1
    for col in columns:
        if span * base >= 2 ** 63:
            distinct, code = np.unique(code, return_inverse=True)
            span = len(distinct)
        code, span = code * base + col, span * base
    order = np.argsort(code, kind="stable")
    starts = np.flatnonzero(_changes(code[order])).tolist() + [len(order)]
    for lo, hi in zip(starts, starts[1:]):
        yield order[lo:hi], tuple(int(col[order[lo]]) for col in columns)


def _accumulate(N, out, offsets, subscripts, factors):
    """Add np.einsum(subscripts, *blocks) for every row into its slot, the
    entries of ``out`` from ``offsets[row]`` on.

    ``factors`` holds one (store, label columns) pair per operand.  The
    rows are grouped by their multiplicity signature, the shapes of their
    blocks; each group is gathered and contracted at once along a batch
    axis.  Rows that share a slot are added in row order.
    """
    if not len(offsets):
        return
    ins, result = subscripts.split("->")
    batched = ",".join("z" + x for x in ins.split(",")) + "->z" + result
    ends = np.cumsum([0] + [len(store.dims) for store, _ in factors]).tolist()
    sig = [_mult(N, labels[i], labels[j], labels[k])
           for store, labels in factors for i, j, k in store.dims]
    for idx, shape in _groups(sig, int(N.max()) + 1):
        blocks = [store.take([x[idx] for x in labels], shape[lo:hi])
                  for (store, labels), lo, hi
                  in zip(factors, ends, ends[1:])]
        prod = np.einsum(batched, *blocks).reshape(len(idx), -1)
        np.add.at(out, offsets[idx, None] + np.arange(prod.shape[1]), prod)


def _pentagon_deviation(spec: CategorySpec) -> float:
    """Max deviation of the pentagon identity over all admissible labels.

    With T = ``f_tensor`` indexed [alpha, beta, gamma, delta], the 2-move
    and the 3-move path between the left- and right-nested trees of
    (a, b, c, d) at e agree for every f, g (left) and l, k (right):

      sum_delta T(f,c,d,e,g,l)[bt,gm,nu,delta] T(a,b,l,e,f,k)[al,delta,lm,mu]
        = sum_{h,sg,ps,rh} T(a,b,c,g,f,h)[al,bt,sg,ps]
                           T(a,h,d,e,g,k)[ps,gm,rh,mu]
                           T(b,c,d,k,h,l)[sg,rh,nu,lm]

    N[f,l,e] is not required: where it is 0, the 2-move side is an empty
    sum, so the 3-move side must vanish.
    """
    ring, N, r = spec.ring, spec.ring.N, spec.rank
    F = _f_store(spec)
    worst = 0.0
    for first in range(r):
        # f in a (x) b, g in f (x) c, e in g (x) d, l in c (x) d and
        # k in b (x) l, with e in a (x) k
        t = _fuse(ring, _free([np.array([first])], r), 0, 1)
        t = _fuse(ring, _free(_fuse(ring, _free(t, r), 2, 3), r), 4, 5)
        t = _fuse(ring, _fuse(ring, t, 3, 5), 1, 7)
        keep = _mult(N, t[0], t[8], t[6]) > 0
        a, b, f, c, g, d, e, l, k = (x[keep] for x in t)
        sizes = (_mult(N, a, b, f) * _mult(N, f, c, g) * _mult(N, g, d, e)
                 * _mult(N, c, d, l) * _mult(N, b, l, k) * _mult(N, a, k, e))
        offsets = np.cumsum(sizes) - sizes
        lhs = np.zeros(sizes.sum(), dtype=np.complex128)
        rhs = np.zeros_like(lhs)
        _accumulate(N, lhs, offsets, "BGND,ADLM->ABGNLM",
                    [(F, (f, c, d, e, g, l)), (F, (a, b, l, e, f, k))])
        i, h = ring.fusion_channels(b, c)
        keep = (_mult(N, a[i], h, g[i]) > 0) & (_mult(N, h, d[i], k[i]) > 0)
        i, h = i[keep], h[keep]
        a, b, c, d, e, f, g, k, l = (x[i] for x in (a, b, c, d, e, f, g, k, l))
        _accumulate(N, rhs, offsets[i], "ABSP,PGRM,SRNL->ABGNLM",
                    [(F, (a, b, c, g, f, h)), (F, (a, h, d, e, g, k)),
                     (F, (b, c, d, k, h, l))])
        worst = max_dev(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _hexagon_deviation(spec: CategorySpec, inverse: bool) -> float:
    """Max deviation of a hexagon identity.

    Multiplicity-free form (matrices reduce to scalars):

      R[c,a;e] F[a,c,b;d][e,g] R[c,b;g]
        = sum_f F[c,a,b;d][e,f] R[c,f;d] F[a,b,c;d][f,g]

    and the second hexagon replaces every R-matrix by its inverse.  With
    multiplicities each R acts on the corresponding multiplicity slot of
    the F-tensor.
    """
    ring, N, r = spec.ring, spec.ring.N, spec.rank
    F = _f_store(spec)
    R = _r_store(spec, inverse)
    worst = 0.0
    for first in range(r):
        # e in a (x) c, d in e (x) b and g in c (x) b, with d in a (x) g
        t = _free(_free([np.array([first])], r), r)
        t = _fuse(ring, _fuse(ring, _fuse(ring, t, 0, 2), 3, 1), 2, 1)
        keep = _mult(N, t[0], t[5], t[4]) > 0
        a, b, c, e, d, g = (x[keep] for x in t)
        sizes = (_mult(N, a, c, e) * _mult(N, e, b, d) * _mult(N, b, c, g)
                 * _mult(N, a, g, d))
        offsets = np.cumsum(sizes) - sizes
        lhs = np.zeros(sizes.sum(), dtype=np.complex128)
        rhs = np.zeros_like(lhs)
        _accumulate(N, lhs, offsets, "Xa,aBgD,Yg->XBYD",
                    [(R, (c, a, e)), (F, (a, c, b, d, e, g)), (R, (c, b, g))])
        i, f = ring.fusion_channels(a, b)
        keep = _mult(N, c[i], f, d[i]) > 0
        i, f = i[keep], f[keep]
        a, b, c, d, e, g = (x[i] for x in (a, b, c, d, e, g))
        _accumulate(N, rhs, offsets[i], "XBmF,EF,mEYD->XBYD",
                    [(F, (c, a, b, d, e, f)), (R, (c, f, d)),
                     (F, (a, b, c, d, f, g))])
        worst = max_dev(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _f_block_failure(spec: CategorySpec, atol: float):
    """Why the first F-block in (a, b, c, d) order that is missing,
    misshapen, not square, not finite or singular fails, or None.  The
    smallest singular values come from one stacked SVD per block shape."""
    blocks, refused = _f_blocks(spec)
    failures = [] if refused is None else [(len(blocks), refused)]
    for idx, stack in _stacks(blocks):
        if stack.shape[1] != stack.shape[2]:
            failures.append((idx[0], "is not square"))
            continue
        finite = np.isfinite(stack).all(axis=(1, 2))
        singular = np.zeros_like(finite)
        if stack.shape[1] and finite.any():
            singular[finite] = np.linalg.svd(
                stack[finite], compute_uv=False)[:, -1] < atol
        for bad, why in ((~finite, "is not finite"), (singular, "is singular")):
            if bad.any():
                failures.append((idx[int(np.argmax(bad))], why))
    if not failures:
        return None
    i, why = min(failures)
    if i == len(blocks):
        return why
    a, b, c, d = _f_block_keys(spec.ring)[2][i]
    return f"F-block ({a},{b},{c};{d}) {why}"


def _ribbon_deviation(spec: CategorySpec) -> float:
    """Double braiding on channel c of a (x) b must equal theta_c/(theta_a theta_b)."""
    worst = 0.0
    ring = spec.ring
    for a in range(spec.rank):
        for b in range(spec.rank):
            for c in ring.channels(a, b):
                mat = spec.r_block(b, a, c) @ spec.r_block(a, b, c)
                want = spec.theta[c] / (spec.theta[a] * spec.theta[b])
                dev = np.max(np.abs(mat - want * np.eye(mat.shape[0])))
                worst = max_dev(worst, float(dev))
    return worst


def validate_category(spec: CategorySpec, tol: ToleranceConfig = DEFAULT_TOL
                      ) -> VerificationReport:
    """Full coherence validation: ring axioms, F-data completeness, pentagon,
    both hexagons, ribbon compatibility, and dimension consistency."""
    rep = VerificationReport(target=spec.name,
                             options={"atol": tol.atol})
    ring = spec.ring
    try:
        ring.check_axioms()
        rep.add_deviation("ring_axioms", "fusion ring axioms", 0.0, tol.atol)
    except RingAxiomError as exc:
        rep.add_deviation("ring_axioms", "fusion ring axioms", 1.0, tol.atol,
                          detail=str(exc))
        return rep

    # structural ribbon data
    dev = max_dev(abs(spec.theta[0] - 1.0), abs(spec.dims[0] - 1.0),
                  float(np.max(np.abs(spec.theta[ring.dual] - spec.theta))),
                  float(np.max(np.abs(spec.dims[ring.dual] - spec.dims))),
                  float(np.max(np.abs(np.abs(spec.theta) - 1.0))))
    rep.add_deviation("ribbon_structure", "twist normalization and duality",
                      dev, tol.atol)

    # dimension homomorphism d_a d_b = sum_c N_ab^c d_c
    prod = spec.dims[:, None] * spec.dims[None, :]
    fused = np.einsum("abc,c->ab", ring.N, spec.dims)
    rep.add_deviation("dims_homomorphism", "quantum dimensions respect fusion",
                      float(np.max(np.abs(prod - fused))), tol.atol)

    # F-block presence / invertibility
    failure = _f_block_failure(spec, tol.atol)
    rep.add_deviation("f_completeness", "F-symbols present and invertible",
                      0.0 if failure is None else 1.0, tol.atol,
                      detail=failure or "")
    if failure is not None:
        return rep

    rep.add_deviation("pentagon", "pentagon identity",
                      _pentagon_deviation(spec), tol.atol)
    rep.add_deviation("hexagon_braiding", "hexagon identity for the braiding",
                      _hexagon_deviation(spec, inverse=False), tol.atol)
    rep.add_deviation("hexagon_inverse", "hexagon identity for the inverse braiding",
                      _hexagon_deviation(spec, inverse=True), tol.atol)
    rep.add_deviation("ribbon_compatibility",
                      "double braiding eigenvalues match twists",
                      _ribbon_deviation(spec), tol.atol)

    # |d_a * F[a,a*,a;a][0-channel]| = 1
    dev = 0.0
    for a in range(spec.rank):
        vacuum = spec.f_tensor(a, int(ring.dual[a]), a, a, 0, 0)[0, 0, 0, 0]
        dev = max_dev(dev, abs(abs(spec.dims[a] * vacuum) - 1.0))
    rep.add_deviation("dims_f_consistency",
                      "dimensions agree with vacuum F-symbols", dev, tol.atol)
    return rep


# ---------------------------------------------------------------------------
# modular data


@dataclass
class ModularDatum:
    S: np.ndarray
    T: np.ndarray
    global_dim: float
    charge_conjugation: np.ndarray
    is_modular: bool

    @property
    def rank(self):
        return self.S.shape[0]


def modular_datum(spec: CategorySpec, tol: ToleranceConfig = DEFAULT_TOL
                  ) -> ModularDatum:
    """S and T matrices from the skeletal trace formula

      S_ij = S_00 sum_k N[i,j,k] (theta_k / (theta_i theta_j)) d_k

    with S_00 = (sum_i d_i^2)^(-1/2); S_ij is the normalized trace of the
    double braiding of i and j.  This is the convention in which
    S t S = gamma t^-1 S t^-1 C holds with a nontrivial charge conjugation C.
    ``is_modular`` records invertibility of S at the working tolerance.
    """
    if not (np.isfinite(spec.dims).all() and np.isfinite(spec.theta).all()):
        raise NotPremodular(f"dims or twists of {spec.name} are not finite")
    r = spec.rank
    dim = spec.global_dim()
    s00 = 1.0 / np.sqrt(dim)
    N = spec.ring.N
    theta = spec.theta
    d = spec.dims.astype(np.complex128)
    S = np.zeros((r, r), dtype=np.complex128)
    for i in range(r):
        for j in range(r):
            acc = 0.0 + 0.0j
            for k in range(r):
                if N[i, j, k]:
                    acc += N[i, j, k] * theta[k] / (theta[i] * theta[j]) * d[k]
            S[i, j] = s00 * acc
    if not np.isfinite(S).all():
        raise NotPremodular(f"S-matrix of {spec.name} is not finite")
    T = np.diag(theta)
    C = np.zeros((r, r), dtype=np.float64)
    for k in range(r):
        C[k, spec.dual[k]] = 1.0
    svals = np.linalg.svd(S, compute_uv=False)
    is_modular = bool(svals[-1] > np.sqrt(tol.atol))
    return ModularDatum(S=S, T=T, global_dim=dim, charge_conjugation=C,
                        is_modular=is_modular)


def verlinde_fusion(md: ModularDatum, tol: ToleranceConfig = DEFAULT_TOL
                    ) -> np.ndarray:
    """Fusion multiplicities recovered from S:

      N_ij^k = sum_l S_il S_jl conj(S_lk) / S_0l

    snapped to integers; raises if S is singular or the snap fails.
    """
    if not md.is_modular:
        raise NotModular("Verlinde formula needs an invertible S-matrix")
    S = md.S
    vac = S[0]
    if np.min(np.abs(vac)) == 0:
        raise NotModular("vanishing S_0l entry")
    raw = np.einsum("il,jl,lk->ijk", S, S, np.conj(S) / vac[:, None])
    snapped = np.rint(raw.real)
    dev = np.max(np.abs(raw - snapped))
    if dev > tol.integer_snap or np.min(snapped) < 0:
        raise SnapFailure(f"Verlinde coefficients not integral (dev={dev:.3e})")
    return snapped.astype(np.int64)


def modular_group_relations(md: ModularDatum, tol: ToleranceConfig = DEFAULT_TOL):
    """Check the defining relations of the modular group action:

      S t S = gamma * t^-1 S t^-1 C      and      S t^-1 S = gamma^-1 * t S t

    for a single unimodular scalar gamma.  Returns (gamma, report).
    """
    rep = VerificationReport(target="modular group relations",
                             options={"atol": tol.atol})
    if not md.is_modular:
        raise NotModular("relations are only defined for modular data")
    S = md.S
    t = md.T
    tinv = np.diag(1.0 / np.diag(t))
    C = md.charge_conjugation.astype(np.complex128)
    lhs1 = S @ t @ S
    rhs1 = tinv @ S @ tinv @ C
    idx = np.unravel_index(np.argmax(np.abs(rhs1)), rhs1.shape)
    gamma = lhs1[idx] / rhs1[idx]
    rep.add_deviation("sl2z_first_relation", "S t S = gamma t^-1 S t^-1 C",
                      float(np.max(np.abs(lhs1 - gamma * rhs1))), tol.atol)
    lhs2 = S @ tinv @ S
    rhs2 = t @ S @ t
    rep.add_deviation("sl2z_second_relation", "S t^-1 S = gamma^-1 t S t",
                      float(np.max(np.abs(lhs2 - rhs2 / gamma))), tol.atol)
    rep.add_deviation("sl2z_gamma_unimodular", "|gamma| = 1",
                      abs(abs(gamma) - 1.0), tol.atol)
    # S^2 = gamma^... sanity: S^2 should equal C times a phase-free factor
    rep.add_deviation("s_squared_charge_conjugation", "S^2 = C",
                      float(np.max(np.abs(S @ S - C))), max(tol.atol, 1e-9))
    return gamma, rep


# ---------------------------------------------------------------------------
# file format


def spec_to_dict(spec: CategorySpec) -> dict:
    ring = spec.ring
    fusion = []
    for i in range(spec.rank):
        for j in range(spec.rank):
            for k in range(spec.rank):
                if ring.N[i, j, k]:
                    fusion.append([i, j, k, int(ring.N[i, j, k])])
    f_entries = []
    for key in sorted(spec.F):
        a, b, c, d = key
        rows, _, cols, _ = ring.f_basis(a, b, c, d)
        blk = spec.F[key]
        for ir, (e, al, bt) in enumerate(rows):
            for jc, (f, gm, dl) in enumerate(cols):
                z = blk[ir, jc]
                if z != 0:
                    f_entries.append([a, b, c, d, e, al + 1, bt + 1,
                                      f, gm + 1, dl + 1, z.real, z.imag])
    r_entries = []
    for key in sorted(spec.R):
        a, b, c = key
        blk = spec.R[key]
        for ir in range(blk.shape[0]):
            for jc in range(blk.shape[1]):
                z = blk[ir, jc]
                if z != 0:
                    r_entries.append([a, b, c, jc + 1, ir + 1, z.real, z.imag])
    data = {
        "name": spec.name,
        "rank": spec.rank,
        "dual": spec.dual.tolist(),
        "fusion": fusion,
        "theta": [[z.real, z.imag] for z in spec.theta],
        "dims": spec.dims.tolist(),
        "F": f_entries,
        "R": r_entries,
    }
    if spec.product_of is not None:
        data["product_of"] = list(spec.product_of)
    return data


def dump_category(spec: CategorySpec) -> str:
    return json.dumps(spec_to_dict(spec), sort_keys=True, indent=1) + "\n"


def save_category(spec: CategorySpec, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_category(spec))


def _require(cond, message, location):
    if not cond:
        raise CategoryFileError(message, location)


def _integers(values) -> bool:
    """Every value is an int; JSON true and false are not."""
    return all(type(x) is int for x in values)


def _finite(values) -> bool:
    """Every value is a finite int or float; JSON true and false are not."""
    return all(isinstance(x, (int, float)) and not isinstance(x, bool)
               and math.isfinite(x) for x in values)


def _list_section(data, section, origin) -> list:
    """The named section, which must be a JSON list; absent reads as []."""
    value = data.get(section, [])
    _require(isinstance(value, list), f"{section} must be a list",
             f"{origin}:{section}")
    return value


def _symbol_entries(data, section, layout, key_len, rank, origin):
    """(location, integer labels, value) of each [labels..., re, im] entry
    of the F or R section; the first key_len labels, the block key, must be
    simples."""
    seen = set()
    width = len(layout.split(","))
    for idx, entry in enumerate(_list_section(data, section, origin)):
        loc = f"{origin}:{section}[{idx}]"
        _require(isinstance(entry, list) and len(entry) == width + 2,
                 f"{section} entries are [{layout},re,im]", loc)
        labels = tuple(entry[:width])
        _require(_integers(labels),
                 f"{section} labels and multiplicity indices must be integers",
                 loc)
        _require(all(0 <= x < rank for x in labels[:key_len]),
                 f"{section} label out of range", loc)
        _require(_finite(entry[width:]),
                 f"{section}-symbol must be two finite numbers", loc)
        _require(labels not in seen, f"duplicate {section} entry", loc)
        seen.add(labels)
        yield loc, labels, complex(entry[width], entry[width + 1])


def spec_from_dict(data: dict, origin="<dict>") -> CategorySpec:
    for field in ("name", "rank", "dual", "fusion", "theta"):
        _require(field in data, f"missing required section {field!r}", origin)
    _require(isinstance(data["name"], str), "name must be a string",
             f"{origin}:name")
    product_of = data.get("product_of")
    if "product_of" in data:
        _require(isinstance(product_of, list) and len(product_of) == 2
                 and isinstance(product_of[0], str)
                 and type(product_of[1]) is int and product_of[1] >= 2,
                 "product_of must be a [name, count >= 2] pair",
                 f"{origin}:product_of")
        product_of = tuple(product_of)
    rank = data["rank"]
    _require(type(rank) is int and rank >= 1, "rank must be a positive integer",
             f"{origin}:rank")
    dual = data["dual"]
    _require(isinstance(dual, list) and len(dual) == rank
             and _integers(dual),
             "dual must list one integer image per label", f"{origin}:dual")
    N = np.zeros((rank, rank, rank), dtype=np.int64)
    for idx, entry in enumerate(_list_section(data, "fusion", origin)):
        loc = f"{origin}:fusion[{idx}]"
        _require(isinstance(entry, list) and len(entry) == 4,
                 "fusion entries are [i, j, k, mult]", loc)
        i, j, k, m = entry
        _require(_integers(entry), "fusion entry not integral",
                 loc)
        _require(0 <= i < rank and 0 <= j < rank and 0 <= k < rank,
                 "fusion label out of range", loc)
        _require(m >= 1, "fusion multiplicity must be positive", loc)
        _require(N[i, j, k] == 0, f"duplicate fusion entry ({i},{j},{k})", loc)
        N[i, j, k] = m
    try:
        ring = FusionRing(N, dual)
        ring.check_axioms()
    except RingAxiomError as exc:
        raise CategoryFileError(str(exc), origin) from exc

    theta_raw = _list_section(data, "theta", origin)
    _require(len(theta_raw) == rank, "theta must list one twist per label",
             f"{origin}:theta")
    theta = []
    for idx, pair in enumerate(theta_raw):
        loc = f"{origin}:theta[{idx}]"
        _require(isinstance(pair, list) and len(pair) == 2,
                 "twists are [re, im] pairs", loc)
        _require(_finite(pair), "twist must be two finite numbers", loc)
        theta.append(complex(pair[0], pair[1]))

    dims = data.get("dims")
    if dims is not None:
        _require(isinstance(dims, list) and len(dims) == rank
                 and _finite(dims),
                 "dims must list one finite number per label", f"{origin}:dims")
        dims = np.asarray(dims, dtype=np.float64)

    F_blocks = {}
    for loc, labels, z in _symbol_entries(
            data, "F", "a,b,c,d,e,alpha,beta,f,gamma,delta", 4, rank, origin):
        a, b, c, d, e, al, bt, f, gm, dl = labels
        rows, row_pos, cols, col_pos = ring.f_basis(a, b, c, d)
        ir = row_pos.get((e, al - 1, bt - 1))
        jc = col_pos.get((f, gm - 1, dl - 1))
        _require(ir is not None and jc is not None,
                 f"F entry {(a, b, c, d)}+({e},{al},{bt};{f},{gm},{dl})"
                 " violates fusion multiplicities (indices are 1-based)", loc)
        if (a, b, c, d) not in F_blocks:
            F_blocks[a, b, c, d] = np.zeros((len(rows), len(cols)),
                                            dtype=np.complex128)
        F_blocks[a, b, c, d][ir, jc] = z
    R_blocks = {}
    for loc, labels, z in _symbol_entries(data, "R", "a,b,c,alpha,beta", 3,
                                          rank, origin):
        a, b, c, al, bt = labels
        n_ab = ring.n(a, b, c)
        n_ba = ring.n(b, a, c)
        _require(1 <= al <= n_ab and 1 <= bt <= n_ba,
                 f"R entry {(a, b, c)} multiplicity out of range", loc)
        if (a, b, c) not in R_blocks:
            R_blocks[a, b, c] = np.zeros((n_ba, n_ab), dtype=np.complex128)
        R_blocks[a, b, c][bt - 1, al - 1] = z

    if dims is None:
        # d_a = 1 / |F[a,a*,a;a] at the vacuum channels|
        dims = np.ones(rank)
        for a in range(1, rank):
            abar = int(ring.dual[a])
            _, row_pos, _, col_pos = ring.f_basis(a, abar, a, a)
            blk = F_blocks.get((a, abar, a, a))
            entry = 0.0 if blk is None else \
                blk[row_pos[(0, 0, 0)], col_pos[(0, 0, 0)]]
            _require(abs(entry) > 0, f"cannot derive dim of label {a} from F-data",
                     origin)
            dims[a] = dim = 1.0 / float(abs(entry))
            _require(math.isfinite(dim), f"derived dim of label {a} is not finite",
                     origin)

    return CategorySpec(data["name"], ring, dims, theta, F_blocks, R_blocks,
                        product_of=product_of)


def load_category(path) -> CategorySpec:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()

    def non_finite(token):
        raise CategoryFileError(f"non-finite number {token}", str(path))

    try:
        data = json.loads(text, parse_constant=non_finite)
    except json.JSONDecodeError as exc:
        raise CategoryFileError(f"invalid JSON ({exc.msg})",
                                f"{path}:{exc.lineno}:{exc.colno}") from exc
    if not isinstance(data, dict):
        raise CategoryFileError("top level must be an object", str(path))
    return spec_from_dict(data, origin=str(path))
