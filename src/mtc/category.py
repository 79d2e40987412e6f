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
R[a,b,c][beta,alpha] f^{ab->c}_alpha.  Any symbol on a unit strand is the
canonical identity, which the spec makes itself; it is not given.

The bases depend on the fusion rules alone, so each has one order, owned
by ``FusionRing``: ``tree_basis`` lists the left-nested trees of a word per
root, ``sum_basis`` concatenates them over the summands of a direct sum
of words, ``split_basis`` the tree pairs of u (x) v fused to a root, and
``f_basis`` takes the F-rows from the trees of (a, b, c) and the F-columns
from the pairs of (a) (x) (b, c).  Each list comes with its label ->
position map (``tree_positions`` for trees) and is built once per ring and
shared by every spec on it; the split bases are kept by
``engine.split_transform`` with their change of basis.  Every other module
looks positions up there.  ``layout`` places the root blocks of a morphism
src -> dst in one flat array, once per (src, dst).  ``f_tensor`` reads the
part of an F-block between one row channel e and one column channel f as
an array [alpha, beta, gamma, delta].

A spec holds each symbol once, in the ``blocks`` section of its cache:
every block, the unit strands' identities included, in one flat array,
the blocks of one size stacked in key order (``_Keys``, ``_Blocks``).
``f_block``, ``r_block``, ``F`` and ``R`` read views of them; the F-
and R-inverses, the double braidings, ``f_completeness`` and the stores
read whole stacks.  A product spec takes its blocks laid out so from
``deligne_pair``.  The tables derived per key, the inverses, the double
braidings and the channel blocks of ``mtc.frobenius``, are laid out so
too, each made stack by stack with ``_Blocks.apply``.  ``_Keys.find`` is
the one lookup from label columns, or their codes, to key positions.

The pentagon and the hexagons are contractions of ``f_tensor`` blocks,
checked as batched block algebra over label tables of named columns,
enumerated by channel expansion over N > 0 for runs of first labels that
stay within ``_ROUND_ROWS`` tuples, which bounds a round's memory.  The
fusion rules have one table of fusion vertices, the R-keys (``_r_keys``),
by which every table of labels grows, and one of two-vertex paths, held
with the F-keys (``_f_keys``), whose channels they are.  A store reads its
blocks in place from the codes of the tuple's fusion vertices: a block on
the R-keys by ``_Keys.find`` of its vertex, and an ``f_tensor`` block,
which is no key's but part of one, by arithmetic on the numbers that
``_f_keys`` gives the two-vertex paths of its row and its column channel,
which give its place in the F-block and the F-block's place; a missing
block reads as zeros.  Each side of an identity is a ``_Term``, the one
evaluator of every identity checked by contraction: tuples whose blocks
have equal shapes are contracted by one einsum with a batch axis, the
operands gathered from stores by role, so that stores of the same keys
can stand in, as in the two hexagons and in ``mtc.frobenius``.  The two
sides of the pentagon and of each hexagon are computed once per spec, in
its ``sides`` section.  Every check of ``validate_category`` on a Deligne
square C (x) C follows from C's arrays, as the square's data are the
Kronecker products of C's: each deviation but ``f_completeness``'s from
the two arrays that the check compares on C, pair of entries by pair of
entries (``_square_gap``), and ``f_completeness`` from C's F-blocks'
smallest singular values.  The product section of the suite uses this
report (``_square_report``) instead of building the square.

Every derived table is memoised on its owner by ``cached``, one section
of the owner's ``_cache`` per table; README lists them.

Input is checked where it enters, and its readers trust it.  A
``FusionRing`` checks its axioms when it is built, so every F- and R-block
is square.  Public tables refuse look-alike words such as (1.0,) on every
call, ``tree_basis`` checks range and length once, and ``CategorySpec``
refuses a missing or misshapen F- or R-block, or one on a unit strand,
when it is built.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
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


def _summands(obj):
    """The summand words of a morphism endpoint; a word is a sum of one."""
    return obj if type(obj) is tuple and obj and type(obj[0]) is tuple \
        else (obj,)


class Layout:
    """Where a morphism src -> dst keeps its root blocks in one flat array.

    ``roots`` maps each root that the ``sum_basis`` of both endpoints have,
    ascending, to (offset, rows, cols): the block at that root, rows over
    dst's basis and columns over src's, is ``flat[offset:offset + rows *
    cols]`` read row-major.  ``bsrc`` and ``bdst`` are the two bases'
    summand offsets, ``size`` is the length of the flat array, and
    ``rules`` the ring's (N, dual).  A ring builds one layout per (src,
    dst), so plans key on it by identity, and layouts with equal ``roots``
    share one dict from ``shared``.
    """

    __slots__ = ("src", "dst", "bsrc", "bdst", "roots", "size", "rules")

    def __init__(self, src, dst, bsrc, bdst, shared, rules):
        self.src, self.dst, self.bsrc, self.bdst = src, dst, bsrc, bdst
        self.rules = rules
        roots, self.size = {}, 0
        for c in sorted(bsrc.keys() & bdst.keys()):
            rows, cols = bdst[c][-1], bsrc[c][-1]
            roots[c] = (self.size, rows, cols)
            self.size += rows * cols
        self.roots = shared.setdefault(tuple(roots.items()), roots)


def _lookalike(args, words=False) -> bool:
    """An argument equals or hashes like a memo key without being one: a
    number other than a Python int, a list, a str, or a tuple with a leaf
    other than a Python int; with ``words``, anything but a tuple."""
    for x in args:  # loops, not calls, down to the letters of a pair
        if type(x) is not tuple:
            if words or type(x) is not int and isinstance(
                    x, (numbers.Number, np.generic, list, str, tuple)):
                return True
            continue
        for y in x:
            if type(y) is tuple:
                for z in y:
                    if type(z) is not int and (type(z) is not tuple
                                               or _lookalike((z,))):
                        return True
            elif type(y) is not int:
                return True
    return False


def _refuse(args):
    raise InvalidWord(f"{args!r} are not Python ints, nor tuples of them")


def _check_words(*objs):
    """The words, pairs or sums of words ``objs``, once each is a tuple and
    none is a look-alike: checked before they are concatenated."""
    if _lookalike(objs, True):
        _refuse(objs)
    return objs


def cached(section: str):
    """Memoise a derived table: ``fn(owner, *args)`` in
    ``owner._cache[section]``, keyed by the tuple ``args``.

    The wrapper is compiled with fn's own parameters and defaults, so
    defaults are filled in and keyword arguments land in their positions:
    every spelling of one call shares an entry, and a positional call binds
    its arguments once, as a call of fn would.  A call that raises stores
    nothing, so checks in fn run on a miss only.  A public table (no
    leading underscore) first refuses ``_lookalike`` arguments, which could
    find the entry of an int key; a parameter with a bool default takes a
    bool.  Private tables trust their library callers.
    """
    def decorate(fn):
        code = fn.__code__
        owner, *args = code.co_varnames[:code.co_argcount]
        params = ", ".join([owner, *args])
        defaults = fn.__defaults__ or ()
        flags = [a for a, v in zip(args[len(args) - len(defaults):], defaults)
                 if type(v) is bool]
        rest = "".join(a + ", " for a in args if a not in flags)
        tests = [f"_lookalike(({rest}))" if flags else "_lookalike(key)"] + [
            f"type({a}) is not bool and _lookalike(({a},))" for a in flags]
        guard = "" if fn.__name__.startswith("_") else \
            f"    if {' or '.join(tests)}:\n        _refuse(key)\n"
        namespace = {"fn": fn, "_lookalike": _lookalike, "_refuse": _refuse}
        exec(f"def memo({params}):\n"
             f"    key = ({''.join(a + ', ' for a in args)})\n"
             f"{guard}"
             f"    try:\n"
             f"        return {owner}._cache[{section!r}][key]\n"
             f"    except (KeyError, TypeError):\n"
             f"        pass\n"
             f"    out = fn({params})\n"
             f"    {owner}._cache.setdefault({section!r}, {{}})[key] = out\n"
             f"    return out\n", namespace)
        memo = functools.wraps(fn)(namespace["memo"])
        memo.__defaults__ = fn.__defaults__
        return memo
    return decorate


class FusionRing:
    """Fusion multiplicities with a unit and a dual involution, and the
    fusion-tree bases they determine.

    The constructor raises RingAxiomError unless ``check_axioms`` passes.
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
        self._rules = (self.N, self.dual)  # one pair shared by every layout
        self._cache = {"roots": {}}
        self.check_axioms()

    def n(self, a, b, c) -> int:
        return int(self.N[a, b, c])

    def channels(self, a, b):
        """The labels c with N[a,b,c] > 0, ascending, read from the R-keys."""
        K, pair = _r_keys(self), a * self.rank + b
        return tuple((K.codes[K.first[pair]:K.first[pair + 1]]
                      % self.rank).tolist())

    def fusion_channels(self, x, y):
        """Every channel of every pair of the label arrays x, y: (i, z) with
        z in x[i] (x) y[i], ascending in i and then in z."""
        K = _r_keys(self)
        pair = x * self.rank + y
        count = K.first[pair + 1] - K.first[pair]
        return (np.repeat(np.arange(len(pair)), count),
                K.codes[_ranges(K.first[pair], count)] % self.rank)

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
        # associativity: sum_e N_ab^e N_ec^d == sum_f N_bc^f N_af^d, each
        # side summed in int64 over its two-vertex paths, (a b -> e)(e c ->
        # d) and (b c -> f)(a f -> d), per (a, b, c, d) with a path
        N = self.N
        if not all(map(np.array_equal, _path_sums(N, N, (0, 1, 2, 3)),
                       _path_sums(N, N.transpose(1, 0, 2), (2, 0, 1, 3)))):
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
    @cached("trees")
    def tree_basis(self, word):
        """Left-nested fusion trees of a word, {root: trees}.

        A tree is (labels, mults) with labels the intermediate charges
        (A_2, ..., A_n) and mults the fusion-vertex multiplicities; A_1 = w_1
        and A_0 = 0 are implicit.  Trees with a common root are sorted
        lexicographically by (labels, mults).

        A word is a tuple of Python ints in [0, rank), at most
        MAX_WORD_LENGTH long; anything else raises InvalidWord or
        WordTooLong.  ``cached`` refuses look-alikes on every call, and the
        range and length are checked here, when the basis is first built.
        """
        if type(word) is not tuple or not all(
                type(x) is int and 0 <= x < self.rank for x in word):
            raise InvalidWord(f"word {word!r} is not a tuple of Python ints "
                              f"in [0, {self.rank})")
        if len(word) > MAX_WORD_LENGTH:
            raise WordTooLong(
                f"word of length {len(word)} exceeds the cap {MAX_WORD_LENGTH}")
        partial = [((), (), 0)]  # A_0 = 0 and A_1 = w_1, dropped below
        for letter in word:
            nxt = []
            for labels, mults, a in partial:
                for c in self.channels(a, letter):
                    for alpha in range(self.n(a, letter, c)):
                        nxt.append((labels + (c,), mults + (alpha,), c))
            partial = nxt
        out = {}
        for labels, mults, root in partial:
            out.setdefault(root, []).append((labels[1:], mults[1:]))
        for root in out:
            out[root].sort()
        return out

    @cached("sums")
    def sum_basis(self, words):
        """Basis of the direct sum of a tuple of words, {root: offsets}: at
        root c, the summands' trees at c concatenated in summand order, with
        summand s at positions offsets[s] to offsets[s + 1]."""
        bases = [self.tree_basis(w) for w in words]
        return {c: tuple(itertools.accumulate(
                    (len(b.get(c, ())) for b in bases), initial=0))
                for c in sorted(set().union(*bases))}

    @cached("layouts")
    def layout(self, src, dst) -> Layout:
        """The ``Layout`` of morphisms src -> dst, each endpoint a word or a
        tuple of words."""
        return Layout(src, dst, self.sum_basis(_summands(src)),
                      self.sum_basis(_summands(dst)), self._cache["roots"],
                      self._rules)

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


class _Keys:
    """Where a spec holds one symbol's blocks, a square one per key: keys
    of ``arity`` labels, ascending as base-rank ``codes``, blocks of one
    ``size`` stacked in key order, the stacks in one flat array by size.
    groups[n] = (keys of size n, entry where their stack starts); key i is
    at pos[i] of its stack, from entry start[i] on, and ``total`` entries
    hold blocks.  A layout whose keys are never read (a ``PathStack``'s)
    has no ``rank``, ``arity`` or ``codes``."""

    def __init__(self, rank, arity, codes, size):
        self.rank, self.arity, self.codes, self.size = rank, arity, codes, size
        self.pos, self.start = np.empty_like(size), np.empty_like(size)
        self.groups, self.total = {}, 0
        for n in np.flatnonzero(np.bincount(size)).tolist():
            idx = np.flatnonzero(size == n)
            self.pos[idx] = np.arange(len(idx))
            self.start[idx] = self.total + self.pos[idx] * n * n
            self.groups[n] = (idx, self.total)
            self.total += len(idx) * n * n

    def labels(self) -> tuple:
        """The label columns of the keys."""
        return np.unravel_index(self.codes, (self.rank,) * self.arity)

    def find(self, *columns) -> np.ndarray:
        """The index of the key of each row of the label columns, or of
        each code given as one column; a row that is no key gets the index
        of the next key up, or len(codes)."""
        return np.searchsorted(self.codes, _encode(columns, self.rank))


class _Blocks:
    """A spec's blocks of one symbol, laid out by ``keys`` in the read-only
    array ``flat``, which ends in a zero block of the largest size;
    ``table`` reads them per key, ``stack`` per size."""

    __slots__ = ("keys", "flat", "_tables")

    def __init__(self, keys: _Keys, flat):
        flat.setflags(write=False)
        self.keys, self.flat, self._tables = keys, flat, {}

    def stack(self, n) -> np.ndarray:
        idx, lo = self.keys.groups[n]
        return self.flat[lo:lo + len(idx) * n * n].reshape(len(idx), n, n)

    def apply(self, fn) -> "_Blocks":
        """The blocks fn(keys, stack) of every stack, laid out as these, the
        keys as positions in ``keys.codes``."""
        out = np.zeros_like(self.flat)
        for n, (idx, lo) in self.keys.groups.items():
            out[lo:lo + len(idx) * n * n] = fn(idx, self.stack(n)).ravel()
        return _Blocks(self.keys, out)

    def table(self, strands=0) -> dict:
        """{key: view} of the keys without a unit among their first
        ``strands`` labels, in key order; made on first call."""
        if strands not in self._tables:
            k = self.keys
            self._tables[strands] = {
                key: self.flat[at:at + n * n].reshape(n, n)
                for key, at, n in zip(zip(*(x.tolist() for x in k.labels())),
                                      k.start.tolist(), k.size.tolist())
                if all(key[:strands])}
        return self._tables[strands]


def _blocks(spec, kind) -> _Blocks:
    """The spec's F- or R-blocks, the one copy that every reader reads."""
    return spec._cache["blocks"][kind]


class _Laid(NamedTuple):
    """Blocks laid out as the spec lays its own, from ``deligne_pair``."""
    flat: np.ndarray


def _symbol(kind, given, keys: _Keys, strands) -> _Blocks:
    """Every block: the ``given`` ones at the keys without a unit among
    their first ``strands`` labels, and the identity, made once per block
    size, at the others.  ``_Laid`` blocks are trusted; a dict {key: block}
    is checked, and a missing or misshapen block, or one given at no such
    key, raises NotPremodular naming the key."""
    labels = keys.labels()
    stored = np.logical_and.reduce(labels[:strands])
    if isinstance(given, _Laid):
        flat = given.flat
    else:
        flat = np.empty(keys.total + int(keys.size.max()) ** 2,
                        dtype=np.complex128)
        want = dict(zip(zip(*(x[stored].tolist() for x in labels)),
                        zip(keys.start[stored].tolist(),
                            keys.size[stored].tolist())))
        for key, (at, n) in want.items():
            blk = given.get(key)
            if blk is None:
                raise NotPremodular(f"missing {kind}-symbols for {key}")
            blk = np.asarray(blk, dtype=np.complex128)
            if blk.shape != (n, n):
                raise NotPremodular(f"{kind}-block {key} has shape "
                                    f"{blk.shape}, expected {(n, n)}")
            flat[at:at + n * n] = blk.ravel()
        if len(want) < len(given):
            key = next(k for k in given if k not in want)
            raise NotPremodular(f"{kind}-symbols for {key!r}, which are not "
                                "stored: a unit strand or no fusion channel")
    for n, (idx, lo) in keys.groups.items():
        flat[lo:lo + len(idx) * n * n].reshape(-1, n, n)[~stored[idx]] = \
            np.eye(n)
    flat[keys.total:] = 0
    return _Blocks(keys, flat)


_EMPTY = np.zeros((0, 0), dtype=np.complex128)
_EMPTY.setflags(write=False)


class CategorySpec:
    """All skeletal data of one category, checked where it enters.

    ``dims`` and ``theta`` hold one value per label.  ``F`` holds a block
    for each F-block key without a unit among a, b, c, ``R`` one for each
    (a, b, c) with a, b != 0 and N_abc > 0, in the shapes ``f_block`` and
    ``r_block`` read, and nothing else; any other table raises NotPremodular
    naming its key.  The spec adds the identity blocks of the unit strands
    itself, so it holds every F- and R-block and readers trust the tables.
    Values may be non-finite: the checks report them, as a non-finite block
    inverts to NaN (``_inverses``).  Instances are treated as immutable;
    engines cache per-instance data that depends on F and R on ``_cache``.
    """

    def __init__(self, name, ring, dims, theta, F, R, label_names=None,
                 product_of=None):
        self.name = str(name)
        self.ring = ring
        self.rank = ring.rank
        self.dims = np.asarray(dims, dtype=np.float64)
        self.theta = np.asarray(theta, dtype=np.complex128)
        for what, arr in (("dims", self.dims), ("theta", self.theta)):
            if arr.shape != (self.rank,):
                raise NotPremodular(f"{what} has shape {arr.shape}, expected "
                                    f"{(self.rank,)}")
            arr.setflags(write=False)
        # every block is square, as the ring is associative and commutative
        self._cache = {"blocks": {"F": _symbol("F", F, _f_keys(ring), 3),
                                  "R": _symbol("R", R, _r_keys(ring), 2)}}
        self.label_names = list(label_names) if label_names else None
        self.product_of = product_of  # (base name, factor count) for products

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
    @property
    def F(self) -> dict:
        """The F-blocks without a unit among a, b, c, as given, by key."""
        return _blocks(self, "F").table(3)

    @property
    def R(self) -> dict:
        """The R-blocks without a unit among a, b, as given, by key."""
        return _blocks(self, "R").table(2)

    def _block(self, kind, key) -> np.ndarray:
        """The block of the symbol ``kind`` at ``key``, empty if it has no
        trees."""
        if not all(type(x) is int and 0 <= x < self.rank for x in key):
            raise InvalidWord(f"{kind}-block labels {key} are not Python "
                              f"ints in [0, {self.rank})")
        return _blocks(self, kind).table().get(key, _EMPTY)

    def f_block(self, a, b, c, d) -> np.ndarray:
        return self._block("F", (a, b, c, d))

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
        return self._block("R", (a, b, c))

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


def _ranges(first, count) -> np.ndarray:
    """The concatenated ranges first[i] .. first[i] + count[i] - 1."""
    return np.arange(count.sum()) \
        + np.repeat(first - (np.cumsum(count) - count), count)


def _path_sums(first, second, order) -> tuple:
    """(codes, sums) over the two-vertex paths (x y -> z)(z w -> v) with
    first[x,y,z] > 0 and second[z,w,v] > 0: per row (x, y, w, v) with a
    path, its labels taken in ``order``, the sum in int64 of first[x,y,z]
    second[z,w,v] over its paths, the rows ascending by ``_encode``."""
    r = len(first)
    first, second = first.ravel(), second.ravel()
    # the vertices by code (x * rank + y) * rank + z, those of ``second``
    # with first label z from start[z] on
    one, two = np.flatnonzero(first), np.flatnonzero(second)
    start = np.searchsorted(two, np.arange(r + 1) * r * r)
    z = one % r
    count = np.diff(start)[z]
    path = np.repeat(np.arange(len(one)), count)
    at = _ranges(start[z], count)
    x, y = np.divmod(one // r, r)
    w, v = np.divmod(two % (r * r), r)
    labels = (x[path], y[path], w[at], v[at])
    code = _encode([labels[k] for k in order], r)
    sort = np.argsort(code, kind="stable")
    code = code[sort]
    head = np.flatnonzero(_changes(code))
    return code[head], np.add.reduceat(
        (first[one][path] * second[two][at])[sort], head)


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


def _below(block, channel, h) -> np.ndarray:
    """Per entry, the sum of h over its block's entries of lower channel."""
    order = np.lexsort((channel, block))
    total = np.cumsum(h[order]) - h[order]
    first = np.searchsorted(block[order], block[order])
    out = np.empty_like(total)
    out[order] = total - total[first]
    return out


@cached("f_keys")
def _f_keys(ring: FusionRing) -> _Keys:
    """The ``_Keys`` of the F-blocks, a key (a, b, c, d) for every word (a,
    b, c) and root d, and their channels, the two-vertex paths (x y ->
    z)(z w -> v): ``paths`` holds their label columns (x, y, z, w, v), the
    trees (a, b, e, c, d) of every word (a, b, c) at every root d, and by
    the codes of its vertices (``_r_keys``) a path is number head[code(x,
    y, z)] + tail[code(z, w, v)], negative where N is 0.  Path t is the
    channel z of the rows of the block row[t] = F[x,y,w,v] and of the
    columns of the block col[t] = F[w,x,y,v], N[x,y,z] N[z,w,v] of each,
    from row rowoff[t] and column coloff[t] on.  The channel's rows start
    at entry rowbase[t], stride[t] apart."""
    r, N, V = ring.rank, ring.N, _r_keys(ring)
    cols = _LabelTable(ring, {"x": np.arange(r)}).grow(
        "x", "y", "z").grow("z", "w", "v").cols
    x, y, z, w, v = paths = [cols[c] for c in "xyzwv"]
    h = _mult(N, x, y, z) * _mult(N, z, w, v)
    codes, row = np.unique(_encode((x, y, w, v), r), return_inverse=True)
    K = _Keys(r, 4, codes, np.bincount(row, h, len(codes)).astype(np.int64))
    K.paths, K.row, K.col = paths, row, K.find(w, x, y, v)
    K.rowoff, K.coloff = _below(row, z, h), _below(K.col, z, h)
    K.stride = K.size[row]
    K.rowbase = K.start[row] + K.rowoff * K.stride
    # the paths of a vertex (x, y, z) follow those of the vertices before
    # it, one per vertex of first label z
    first = V.first[::r]
    K.head, K.tail = np.full((2, r ** 3), -(1 << 40), dtype=np.int64)
    count = np.diff(first)[V.codes % r]
    K.head[V.codes] = np.cumsum(count) - count
    K.tail[V.codes] = np.arange(len(V.codes)) - first[V.codes // (r * r)]
    return K


@cached("r_keys")
def _r_keys(ring: FusionRing) -> _Keys:
    """The R-keys, the ring's one table of fusion vertices: a key (x, y, z)
    for each with N > 0, ``codes`` (x * rank + y) * rank + z ascending and
    ``size`` N, those of the pair x * rank + y from first[pair] on."""
    r = ring.rank
    codes = np.flatnonzero(ring.N)
    K = _Keys(r, 3, codes, ring.N.ravel()[codes])
    K.first = np.searchsorted(codes, np.arange(r * r + 1) * r)
    return K


class _Store(NamedTuple):
    """Blocks keyed by label tuples in ``flat``, zeros from ``blank`` on.
    ``dims`` gives, per block axis, the label triple (as positions in the
    tuple) whose N is its length.  With ``keys``, the R-keys, the blocks
    are laid out on them, one per fusion vertex, and the last triple's is
    found by ``_Keys.find``; without, that of (a, b, c, d, e, f) is
    F[a,b,c,d] from row channel e to column channel f, found by its row
    path (a b -> e)(e c -> d) and column path (b c -> f)(f a -> d)
    (``_f_keys``), the one block not found by key."""

    ring: FusionRing
    dims: tuple
    flat: np.ndarray
    blank: int
    keys: _Keys | None

    def codes(self, labels) -> list:
        """The codes (x * rank + y) * rank + z of the label triples (x, y,
        z) of ``dims`` in the label columns, one array per block axis."""
        r = self.ring.rank
        return [(labels[i] * r + labels[j]) * r + labels[k]
                for i, j, k in self.dims]

    def find(self, codes) -> tuple:
        """(start, stride) from the ``codes`` of label tuples: where the
        block of each starts in ``flat``, a tuple without a block at the
        zeros; and the entries between the rows of an F-block, or None."""
        if self.keys is not None:
            K = self.keys
            at = K.find(codes[-1]).clip(max=len(K.codes) - 1)
            return np.where(K.codes[at] == codes[-1], K.start[at],
                            self.blank), None
        F = _f_keys(self.ring)
        row = F.head[codes[0]] + F.tail[codes[1]]
        col = F.head[codes[2]] + F.tail[codes[3]]
        return (np.where((row | col) < 0, self.blank,
                         F.rowbase.take(row, mode="clip")
                         + F.coloff.take(col, mode="clip")),
                F.stride.take(row, mode="clip"))

    def take(self, labels, shape) -> np.ndarray:
        """The blocks of the label columns, stacked as (n, *shape).  A label
        tuple without a block reads as zeros and keeps its row."""
        return self.flat[_spans(*self.find(self.codes(labels)), shape)
                         ].reshape((len(labels[0]),) + shape)


def _spans(start, stride, shape) -> np.ndarray:
    """Where the entries of blocks of ``shape`` from each ``start`` on lie:
    contiguous, or ``stride`` apart between the rows (first two axes) of an
    F-tensor block."""
    if stride is None:
        return start[:, None] + np.arange(math.prod(shape))
    rows = np.arange(shape[0] * shape[1])[:, None]
    return (start[:, None, None] + stride[:, None, None] * rows
            + np.arange(shape[2] * shape[3])).reshape(len(start), -1)


_F_DIMS = ((0, 1, 4), (4, 2, 3), (1, 2, 5), (5, 0, 3))


@cached("f_store")
def _f_store(spec: CategorySpec, inverse: bool = False) -> _Store:
    """Every ``f_tensor`` block, keyed by (a, b, c, d, e, f); or with
    ``inverse`` the inverse F-moves alike, entry [alpha, beta, gamma,
    delta] that of F[a,b,c,d]^-1 from column (e, alpha, beta) to row (f,
    gamma, delta)."""
    F = _blocks(spec, "F")
    flat = _f_inverses(spec).apply(lambda _, stack: stack.transpose(
        0, 2, 1)).flat if inverse else F.flat
    return _Store(spec.ring, _F_DIMS, flat, F.keys.total, None)


def _inverses(stack, message) -> np.ndarray:
    """``np.linalg.inv`` of a stack (count, n, n) of blocks of the data.  A
    block with a non-finite entry inverts to NaN, so that every check that
    reads it fails; the first singular block raises
    NotPremodular(message(i)), i its index in the stack."""
    finite = np.isfinite(stack).all(axis=(1, 2))
    out = np.full_like(stack, np.nan)
    try:
        out[finite] = np.linalg.inv(stack[finite])
    except np.linalg.LinAlgError:
        for i in np.flatnonzero(finite).tolist():
            try:
                np.linalg.inv(stack[i])
            except np.linalg.LinAlgError:
                raise NotPremodular(message(i)) from None
        raise
    return out


def _inverse_blocks(blocks: _Blocks, name, swap=None) -> _Blocks:
    """The inverse of every block, or with ``swap`` of key swap[i]'s at key
    i, one stack per block size; the first singular block raises
    NotPremodular naming name(its key)."""
    def invert(idx, stack):
        if swap is not None:
            idx = swap[idx]
            stack = stack[blocks.keys.pos[idx]]
        return _inverses(stack, lambda i: "{} is singular".format(
            name(list(blocks.table())[idx[i]])))
    return blocks.apply(invert)


@cached("f_inverses")
def _f_inverses(spec: CategorySpec) -> _Blocks:
    """F[a,b,c,d]^-1 for every F-block key (a, b, c, d)."""
    return _inverse_blocks(_blocks(spec, "F"),
                           lambda k: "F-block ({},{},{};{})".format(*k))


@cached("r_inverses")
def _r_inverses(spec: CategorySpec) -> _Blocks:
    """The inverse braiding c_{b,a}^-1 on channel c, the inverse of the
    R-block (b, a, c), for every R key (a, b, c)."""
    R = _blocks(spec, "R")
    a, b, c = R.keys.labels()
    return _inverse_blocks(R, lambda k: f"R-block {k}", R.keys.find(b, a, c))


@cached("r_double")
def _r_double(spec: CategorySpec) -> _Blocks:
    """The double braiding c_{b,a} c_{a,b} on channel c, R[b,a,c] R[a,b,c],
    for every R key (a, b, c), one product per block size."""
    R = _blocks(spec, "R")
    a, b, c = R.keys.labels()
    swap = R.keys.pos[R.keys.find(b, a, c)]
    return R.apply(lambda idx, stack: stack[swap[idx]] @ stack)


def _vertex_store(ring: FusionRing, blocks: _Blocks, dims) -> _Store:
    """The store of blocks laid out on the R keys, one per fusion vertex;
    ``dims`` as ``_Store`` takes them."""
    return _Store(ring, dims, blocks.flat, blocks.keys.total, blocks.keys)


@cached("r_store")
def _r_store(spec: CategorySpec, inverse: bool) -> _Store:
    """The braiding c_{x,y}, or with ``inverse`` the inverse braiding
    c_{y,x}^-1, on every channel z, keyed by (x, y, z)."""
    return _vertex_store(spec.ring, _r_inverses(spec) if inverse
                         else _blocks(spec, "R"), ((1, 0, 2), (0, 1, 2)))


def _codes(columns, radices) -> np.ndarray:
    """One int64 code per row of the columns, the values of column i in
    [0, radices[i]): equal exactly where the rows are, and ascending in
    their lexicographic order.  The values are packed in mixed radix, the
    codes so far renumbered by rank whenever the next column would overflow
    them."""
    code, span = np.zeros(len(columns[0]), dtype=np.int64), 1
    for col, radix in zip(columns, map(int, radices), strict=True):
        if span * radix >= 2 ** 63:
            distinct, code = np.unique(code, return_inverse=True)
            span = len(distinct)
        code, span = code * radix + col, span * radix
    return code


def _groups(columns, base):
    """(row indices, row) for each distinct row of the columns, whose
    values lie in [0, base); the indices of a group ascend, and the groups
    follow the order of their ``_codes``."""
    code = _codes(columns, [base] * len(columns))
    order = np.argsort(code, kind="stable")
    starts = np.flatnonzero(_changes(code[order])).tolist() + [len(order)]
    for lo, hi in zip(starts, starts[1:]):
        yield order[lo:hi], tuple(int(col[order[lo]]) for col in columns)


class _LabelTable:
    """Label tuples as named columns, ``cols[x]`` the label x of every row;
    ``code("xyz")`` and ``mult("xyz")`` give the code (x * rank + y) * rank
    + z and N of a vertex, made once per table when first asked for.
    ``origin`` is each row's row in the table it was made from."""

    __slots__ = ("ring", "cols", "origin", "_codes", "_mults")

    def __init__(self, ring, cols: dict, origin=None):
        self.ring, self.cols, self.origin = ring, cols, origin
        self._codes, self._mults = {}, {}

    def code(self, vertex: str) -> np.ndarray:
        if vertex not in self._codes:
            r = self.ring.rank
            x, y, z = (self.cols[w] for w in vertex)
            self._codes[vertex] = (x * r + y) * r + z
        return self._codes[vertex]

    def mult(self, vertex: str) -> np.ndarray:
        if vertex not in self._mults:
            self._mults[vertex] = self.ring.N.ravel()[self.code(vertex)]
        return self._mults[vertex]

    def rows(self, idx, **new) -> "_LabelTable":
        """The rows ``idx``, in that order, with the columns ``new`` added."""
        return _LabelTable(self.ring, {**{x: v[idx] for x, v in
                                          self.cols.items()}, **new}, idx)

    def grow(self, x, y, z) -> "_LabelTable":
        """Every row once per fusion vertex (x, y, z) of its label x, with
        the columns y and z appended, ascending in row and then in (y, z)."""
        K, r = _r_keys(self.ring), self.ring.rank
        first = K.first[::r]  # of the vertices with first label x
        lo, count = first[self.cols[x]], np.diff(first)[self.cols[x]]
        at = K.codes[_ranges(lo, count)]
        return self.rows(np.repeat(np.arange(len(lo)), count),
                         **{y: at // r % r, z: at % r})

    def fuse(self, x, y, z, *need) -> "_LabelTable":
        """Every row once per channel z of its labels x (x) y, ascending in
        row and then in z, kept where N > 0 at each vertex of ``need``."""
        i, new = self.ring.fusion_channels(self.cols[x], self.cols[y])
        if not need:
            return self.rows(i, **{z: new})
        wide = _LabelTable(self.ring, {w: new if w == z else self.cols[w][i]
                                       for w in set("".join(need))})
        keep = np.logical_and.reduce([wide.mult(v) > 0 for v in need])
        return self.rows(i[keep], **{z: new[keep]})

    def plan(self, factors) -> list:
        """Per multiplicity signature of the rows, the shapes of their
        blocks: (row indices, one (positions, shape) per operand), the
        operands one (store, column names) pair each, found from the
        table's vertex codes and shaped by their multiplicities."""
        axes = [(store, ["".join(names[i] for i in axis)
                         for axis in store.dims]) for store, names in factors]
        found = [store.find([self.code(v) for v in vs]) for store, vs in axes]
        ends = np.cumsum([0] + [len(vs) for _, vs in axes]).tolist()
        sig = [self.mult(v) for _, vs in axes for v in vs]
        return [(idx, [(_spans(start[idx], None if stride is None else
                               stride[idx], shape[lo:hi]), shape[lo:hi])
                       for (start, stride), lo, hi in zip(found, ends,
                                                          ends[1:])])
                for idx, shape in _groups(sig, int(self.ring.N.max()) + 1)]


class _Term(NamedTuple):
    """One side of an identity, as slots of entries: row t of ``plan``
    writes the einsum of its operands' blocks into the slot from
    ``offsets[t]`` on, operand i gathered from the store of role
    ``roles[i]``.  Rows that share a slot add in row order, unless every
    row ``owns`` its slot, and its product is stored."""

    size: int
    offsets: np.ndarray
    subscripts: str
    roles: tuple
    plan: list
    owns: bool

    def value(self, stores: dict) -> np.ndarray:
        """The slots, each operand read from ``stores`` by its role."""
        flats = [stores[role].flat for role in self.roles]
        out = (np.empty if self.owns else np.zeros)(self.size, np.complex128)
        write = np.put if self.owns else np.add.at
        for idx, gathers in self.plan:
            blocks = [flat[pos].reshape((len(idx),) + shape)
                      for flat, (pos, shape) in zip(flats, gathers)]
            prod = np.einsum(self.subscripts, *blocks).reshape(len(idx), -1)
            write(out, self.offsets[idx, None] + np.arange(prod.shape[1]),
                  prod)
        return out


def _slots(t: _LabelTable, *vertices) -> tuple:
    """(origin, offsets, size) of one identity's slots, one per row of t in
    row order, of the product of N at ``vertices``; origin is t's, which no
    table made from t by ``rows``, ``grow`` or ``fuse`` shares."""
    sizes = math.prod(t.mult(v) for v in vertices)
    return t.origin, np.cumsum(sizes) - sizes, int(sizes.sum())


def _term(stores, slots, t: _LabelTable, subscripts, factors) -> _Term:
    """The term whose row r of the table t writes into the slot of row
    t.origin[r] of the table of ``slots``, or, with t that table, its own;
    ``factors`` holds one (role, column names) pair per operand."""
    origin, offsets, size = slots
    ins, result = subscripts.split("->")
    owns = t.origin is origin
    return _Term(size, offsets if owns else offsets[t.origin],
                 ",".join("z" + x for x in ins.split(",")) + "->z" + result,
                 tuple(role for role, _ in factors),
                 t.plan([(stores[role], names) for role, names in factors]),
                 owns)


# The most label tuples that one round of the pentagon or the hexagons
# enumerates before the last filter of its left side, unless one first
# label alone needs more, and the most fusion paths that one round of a
# ``fusion_paths`` flush enumerates, or that the generators one round
# builds read, unless one word or generator alone needs more: a bound on a
# round's tables, gathers and index arrays.
_ROUND_ROWS = 1 << 13


def _rounds(rows):
    """Runs of consecutive items, each of at most ``_ROUND_ROWS`` rows in
    all unless its one item alone has more; ``rows[i]`` is the count of
    item i, a first label of the coherence rounds or a word or generator
    of a ``fusion_paths`` flush."""
    ends, lo = np.cumsum(rows), 0
    while lo < len(ends):
        cap = (ends[lo - 1] if lo else 0) + _ROUND_ROWS
        hi = max(lo + 1, int(np.searchsorted(ends, cap, side="right")))
        yield np.arange(lo, hi)
        lo = hi


def _fans(N):
    """(P, fan) as float64: P[x, y, z] is 1 where N[x, y, z] > 0, and
    fan[x, y] counts the channels of x (x) y.  Their products count label
    tuples exactly while the counts stay below 2^53."""
    P = (N > 0).astype(np.float64)
    return P, P.sum(axis=2)


def _pentagon_rows(N) -> np.ndarray:
    """Per first label a, the label tuples (a, b, f, c, g, d, e, l, k) that
    the pentagon enumerates before it keeps those with e in a (x) k: f in
    a (x) b, g in f (x) c, e in g (x) d, l in c (x) d and k in b (x) l."""
    r = len(N)
    P, fan = _fans(N)
    lk = (P.reshape(r * r, r) @ fan.T).reshape(r, r, r)  # [c, d, b]
    dlk = np.matmul(fan, lk)  # [c, g, b]: over d, e, l and k
    below = P.reshape(r, r * r) @ dlk.reshape(r * r, r)  # [f, b]
    return np.einsum("abf,fb->a", P, below).astype(np.int64)


def _hexagon_rows(N) -> np.ndarray:
    """Per first label a, the label tuples (a, b, c, e, d, g) that the
    hexagons enumerate before they keep those with d in a (x) g: e in
    a (x) c, d in e (x) b and g in c (x) b."""
    P, fan = _fans(N)
    return np.einsum("ace,ec->a", P, fan @ fan.T).astype(np.int64)


def _pentagon_sides(spec: CategorySpec):
    """Per round of the pentagon, the slots of its two sides, (lhs, rhs).

    With T = ``f_tensor`` indexed [alpha, beta, gamma, delta], the 2-move
    and the 3-move path between the left- and right-nested trees of
    (a, b, c, d) at e agree for every f, g (left) and l, k (right):

      sum_delta T(f,c,d,e,g,l)[bt,gm,nu,delta] T(a,b,l,e,f,k)[al,delta,lm,mu]
        = sum_{h,sg,ps,rh} T(a,b,c,g,f,h)[al,bt,sg,ps]
                           T(a,h,d,e,g,k)[ps,gm,rh,mu]
                           T(b,c,d,k,h,l)[sg,rh,nu,lm]

    N[f,l,e] is not required: where it is 0, the 2-move side is an empty
    sum, so the 3-move side must vanish.  The first labels a are taken in
    ``_rounds``, with one label table and one ``_Term`` per side each.
    """
    ring, stores = spec.ring, {"F": _f_store(spec)}
    for firsts in _rounds(_pentagon_rows(ring.N)):
        # f in a (x) b, g in f (x) c, e in g (x) d, l in c (x) d and
        # k in b (x) l, with e in a (x) k
        t = (_LabelTable(ring, {"a": firsts}).grow("a", "b", "f")
             .grow("f", "c", "g").grow("g", "d", "e").fuse("c", "d", "l")
             .fuse("b", "l", "k", "ake"))
        slots = _slots(t, "abf", "fcg", "gde", "cdl", "blk", "ake")
        lhs = _term(stores, slots, t, "BGND,ADLM->ABGNLM",
                    [("F", "fcdegl"), ("F", "ablefk")]).value(stores)
        t = t.fuse("b", "c", "h", "ahg", "hdk")
        rhs = _term(stores, slots, t, "ABSP,PGRM,SRNL->ABGNLM",
                    [("F", "abcgfh"), ("F", "ahdegk"), ("F", "bcdkhl")]
                    ).value(stores)
        yield lhs, rhs


def _hexagon_sides(spec: CategorySpec):
    """Per round of the hexagons, the slots of their two sides: (False,
    lhs, rhs) under the braiding, then (True, lhs, rhs) under the inverse
    braiding.

    Multiplicity-free form (matrices reduce to scalars):

      R[c,a;e] F[a,c,b;d][e,g] R[c,b;g]
        = sum_f F[c,a,b;d][e,f] R[c,f;d] F[a,b,c;d][f,g]

    and the second hexagon replaces every R-matrix by its inverse.  With
    multiplicities each R acts on the corresponding multiplicity slot of
    the F-tensor.  The first labels a are taken in ``_rounds``, with one
    label table and one ``_Term`` per side each, evaluated with the
    braiding and with the inverse braiding as the role "R": the two
    stores share their keys, so the terms serve both.
    """
    ring, F = spec.ring, _f_store(spec)
    stores = [{"F": F, "R": _r_store(spec, inverse)}
              for inverse in (False, True)]
    for firsts in _rounds(_hexagon_rows(ring.N)):
        # e in a (x) c, d in e (x) b and g in c (x) b, with d in a (x) g
        t = (_LabelTable(ring, {"a": firsts}).grow("a", "c", "e")
             .grow("e", "b", "d").fuse("c", "b", "g", "agd"))
        slots = _slots(t, "ace", "ebd", "bcg", "agd")
        lhs = _term(stores[0], slots, t, "Xa,aBgD,Yg->XBYD",
                    [("R", "cae"), ("F", "acbdeg"), ("R", "cbg")])
        t = t.fuse("a", "b", "f", "cfd")
        rhs = _term(stores[0], slots, t, "XBmF,EF,mEYD->XBYD",
                    [("F", "cabdef"), ("R", "cfd"), ("F", "abcdfg")])
        for inverse, roles in zip((False, True), stores):
            yield inverse, lhs.value(roles), rhs.value(roles)


@cached("sides")
def _sides(spec: CategorySpec, hexagons: bool) -> tuple:
    """The sides of the pentagon, or with ``hexagons`` those of the hexagons
    under the braiding and under the inverse braiding: one (lhs, rhs) pair
    per identity, every round's slots concatenated.  The category section
    and the square's checks read this one copy."""
    if hexagons:
        rounds = ([], [])
        for inverse, lhs, rhs in _hexagon_sides(spec):
            rounds[inverse].append((lhs, rhs))
    else:
        rounds = (list(_pentagon_sides(spec)),)
    return tuple(tuple(np.concatenate(side) for side in zip(*sides))
                 for sides in rounds)


def _gap(x, y) -> float:
    """The largest entry of |x - y|; NaN if one is NaN, 0 if there is none."""
    return float(np.max(np.abs(x - y), initial=0.0))


# The most pairs of entries that one chunk of ``_square_gap`` multiplies
# out: a bound on its products, each a complex array of that length.
_PAIR_CHUNK = 1 << 20


def _square_gap(lhs, rhs) -> float:
    """``_gap`` of an identity on the square C (x) C, from its sides on C:
    two arrays of C's entries, paired entry by entry.

    The square's F, R, twists and dimensions are the Kronecker products of
    C's (``deligne``), so each of its entries is a pair (s, t) of C's, and
    each sum over its labels and multiplicities is the product of the sums
    over the two factors'.  The square's sides at (s, t) are thus the
    products of C's, l_s l_t and r_s r_t, and its deviation is the largest
    |l_i l_j - r_i r_j| over every pair (i, j) of C's entries.  Entries
    with equal (l, r) give equal pairs, so each distinct (l, r) is taken
    once; and as the pair (j, i) gives the same as (i, j), rows i take
    columns j >= their chunk's first row, in chunks of at most
    ``_PAIR_CHUNK`` pairs."""
    parts = np.stack([lhs.real, lhs.imag, rhs.real, rhs.imag])
    order = np.lexsort(parts)
    parts = parts[:, order]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = (parts[:, 1:] != parts[:, :-1]).any(axis=0)
    lhs, rhs = lhs[order[keep]], rhs[order[keep]]
    worst, lo, n = 0.0, 0, len(lhs)
    while lo < n:
        hi = lo + max(1, _PAIR_CHUNK // (n - lo))
        worst = max_dev(worst, _gap(np.outer(lhs[lo:hi], lhs[lo:]),
                                    np.outer(rhs[lo:hi], rhs[lo:])))
        lo = hi
    return worst


def _pentagon_deviation(spec: CategorySpec, gap=_gap) -> float:
    """Max deviation of the pentagon identity over all admissible labels,
    or with ``gap`` = ``_square_gap`` that of the square of ``spec``."""
    return gap(*_sides(spec, False)[0])


def _hexagon_deviations(spec: CategorySpec, gap=_gap) -> tuple:
    """Max deviations of the two hexagon identities: (braiding, inverse);
    with ``gap`` = ``_square_gap`` those of the square of ``spec``."""
    return tuple(gap(*sides) for sides in _sides(spec, True))


def _f_block_failure(spec: CategorySpec, atol: float, square=False):
    """Why the first F-block in (a, b, c, d) order that is not finite or
    singular fails, or None; with ``square``, the first such block of the
    square of ``spec``.  The smallest singular values come from one stacked
    SVD per block shape, that of a 1 x 1 block being its modulus.

    A block of the square is the Kronecker product of two of spec's, at
    every pair (s, t) of F-keys, its labels (s_i * rank + t_i).  So it is
    finite iff both are, and its smallest singular value is the product of
    theirs (Horn and Johnson, Topics in Matrix Analysis, thm 4.2.15): the
    square fails iff a block is not finite or the smallest value squared
    is below ``atol``.  Each failing pair has a key whose value times the
    smallest is below it, or is not finite, and only the pairs with such a
    key are enumerated."""
    F = _blocks(spec, "F")
    sigma = np.full(len(F.keys.codes), np.nan)  # NaN: not finite
    for n, (idx, _) in F.keys.groups.items():
        stack = F.stack(n)
        finite = np.isfinite(stack).all(axis=(1, 2))
        if finite.any():
            sigma[idx[finite]] = (np.abs(stack[finite, 0, 0]) if n == 1 else
                                  np.linalg.svd(stack[finite],
                                                compute_uv=False)[:, -1])
    labels, radix = F.keys.labels(), spec.rank
    if square:
        least = np.min(sigma, initial=np.inf, where=~np.isnan(sigma))
        bad = np.flatnonzero(~(sigma * least >= atol))
        every = np.arange(len(sigma))
        s = np.concatenate([np.repeat(bad, len(every)),
                            np.tile(every, len(bad))])
        t = np.concatenate([np.tile(every, len(bad)),
                            np.repeat(bad, len(every))])
        sigma = sigma[s] * sigma[t]
        labels, radix = [x[s] * radix + x[t] for x in labels], radix ** 2
    fails = np.flatnonzero(~(sigma >= atol))
    if not len(fails):
        return None
    i = fails[np.argmin(_encode([x[fails] for x in labels], radix))]
    return "F-block ({},{},{};{}) {}".format(
        *(int(x[i]) for x in labels),
        "is not finite" if np.isnan(sigma[i]) else "is singular")


def _ribbon_deviation(spec: CategorySpec, gap=_gap) -> float:
    """Double braiding on channel c of a (x) b must equal theta_c/(theta_a
    theta_b): every (a, b, c) at once, the ``_r_double`` blocks against
    the blocks of their wanted multiples of the identity, one stack per
    multiplicity; with ``gap`` = ``_square_gap``, on the square of
    ``spec``, whose double braidings are the Kronecker products of these."""
    D, theta = _r_double(spec), spec.theta
    a, b, c = D.keys.labels()
    # theta_a theta_b with each real product rounded on its own, as numpy
    # multiplies two complex scalars; its array product may fuse them.  A
    # zero or huge twist gives a non-finite entry, and so a NaN deviation.
    ta, tb = theta[a], theta[b]
    want = np.empty(len(a), dtype=np.complex128)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        want.real = ta.real * tb.real - ta.imag * tb.imag
        want.imag = ta.real * tb.imag + ta.imag * tb.real
        want = theta[c] / want
    W = D.apply(lambda idx, stack: want[idx, None, None]
                * np.eye(stack.shape[1]))
    return gap(D.flat[:D.keys.total], W.flat[:D.keys.total])


def validate_category(spec: CategorySpec, tol: ToleranceConfig = DEFAULT_TOL
                      ) -> VerificationReport:
    """Full coherence validation: ring axioms, F-data completeness, pentagon,
    both hexagons, ribbon compatibility, and dimension consistency."""
    return _validated(spec, tol, False)


def _square_report(base: CategorySpec, tol: ToleranceConfig
                   ) -> VerificationReport:
    """``validate_category`` of the square deligne_power(base, 2), from the
    base's arrays alone: equal up to rounding, without building the square
    or enumerating its label tuples.  Each check but ``ring_axioms`` and
    ``f_completeness`` compares the same two arrays of the base as
    ``validate_category`` does, by ``_square_gap``; ``f_completeness``
    pairs the base's F-blocks (``_f_block_failure``), and the ring axioms
    of the square follow from the base's, checked when its ring was built.
    The pentagon's and the hexagons' sides are the base's ``sides``
    section, which the category section fills."""
    return _validated(base, tol, True)


def _validated(spec: CategorySpec, tol: ToleranceConfig, square: bool
               ) -> VerificationReport:
    """The checks of ``validate_category`` on ``spec``, or with ``square``
    on its square, named spec.name^2.  Each deviation is the ``_gap`` of
    two arrays of spec's, or their ``_square_gap``.  The pentagon and
    everything after it run only when every F-block is finite and
    invertible."""
    gap = _square_gap if square else _gap
    rep = VerificationReport(target=f"{spec.name}^2" if square else spec.name,
                             options={"atol": tol.atol})
    ring, theta, dims = spec.ring, spec.theta, spec.dims
    one = np.ones(spec.rank)
    # a FusionRing checks its axioms when it is built
    rep.add_deviation("ring_axioms", "fusion ring axioms", 0.0, tol.atol)

    # structural ribbon data
    dev = max_dev(gap(theta[:1], one[:1]), gap(dims[:1], one[:1]),
                  gap(theta[ring.dual], theta), gap(dims[ring.dual], dims),
                  gap(np.abs(theta), one))
    rep.add_deviation("ribbon_structure", "twist normalization and duality",
                      dev, tol.atol)

    # dimension homomorphism d_a d_b = sum_c N_ab^c d_c
    fused = np.einsum("abc,c->ab", ring.N, dims)
    rep.add_deviation("dims_homomorphism", "quantum dimensions respect fusion",
                      gap(np.outer(dims, dims).ravel(), fused.ravel()),
                      tol.atol)

    # F-block presence / invertibility
    failure = _f_block_failure(spec, tol.atol, square)
    rep.add_deviation("f_completeness", "F-symbols present and invertible",
                      0.0 if failure is None else 1.0, tol.atol,
                      detail=failure or "")
    if failure is not None:
        return rep

    rep.add_deviation("pentagon", "pentagon identity",
                      _pentagon_deviation(spec, gap), tol.atol)
    braiding, inverse = _hexagon_deviations(spec, gap)
    rep.add_deviation("hexagon_braiding", "hexagon identity for the braiding",
                      braiding, tol.atol)
    rep.add_deviation("hexagon_inverse", "hexagon identity for the inverse braiding",
                      inverse, tol.atol)
    rep.add_deviation("ribbon_compatibility",
                      "double braiding eigenvalues match twists",
                      _ribbon_deviation(spec, gap), tol.atol)

    # |d_a * F[a,a*,a;a][0-channel]| = 1, every vacuum entry in one gather
    a = np.arange(spec.rank)
    vac = np.zeros_like(a)
    vacuum = _f_store(spec).take((a, ring.dual, a, a, vac, vac),
                                 (1, 1, 1, 1)).ravel()
    rep.add_deviation("dims_f_consistency",
                      "dimensions agree with vacuum F-symbols",
                      gap(np.abs(dims * vacuum), one), tol.atol)
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


def _s_matrix(N, theta, dims) -> np.ndarray:
    """The S-matrix of ``modular_datum`` from the fusion rules N, the twists
    and the dimensions alone, each entry summed term by term in ascending
    k: the square's S from the Kronecker products of its base's twists and
    dimensions and the product rules, as its spec would give it."""
    r = len(theta)
    s00 = 1.0 / np.sqrt(float(np.sum(dims ** 2)))
    d = dims.astype(np.complex128)
    S = np.zeros((r, r), dtype=np.complex128)
    # a zero or huge twist leaves a non-finite entry, which the callers
    # refuse
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i, j in np.argwhere(N.any(axis=2)).tolist():
            acc = 0.0 + 0.0j
            for k in np.flatnonzero(N[i, j]).tolist():
                acc += N[i, j, k] * theta[k] / (theta[i] * theta[j]) * d[k]
            S[i, j] = s00 * acc
    return S


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
    S = _s_matrix(spec.ring.N, spec.theta, spec.dims)
    if not np.isfinite(S).all():
        raise NotPremodular(f"S-matrix of {spec.name} is not finite")
    T = np.diag(spec.theta)
    C = np.eye(r)[spec.dual]  # C[k, dual(k)] = 1
    svals = np.linalg.svd(S, compute_uv=False)
    is_modular = bool(svals[-1] > np.sqrt(tol.atol))
    return ModularDatum(S=S, T=T, global_dim=spec.global_dim(),
                        charge_conjugation=C, is_modular=is_modular)


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
    fusion = [[i, j, k, int(m)] for (i, j, k), m in np.ndenumerate(ring.N)
              if m]
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
    r_entries = [[a, b, c, jc + 1, ir + 1, z.real, z.imag]
                 for (a, b, c), blk in sorted(spec.R.items())
                 for (ir, jc), z in np.ndenumerate(blk) if z != 0]
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
        # d_a = 1 / |F[a,a*,a;a] at the vacuum channels|, which come first
        dims = np.ones(rank)
        for a in range(1, rank):
            blk = F_blocks.get((a, int(ring.dual[a]), a, a))
            entry = 0.0 if blk is None else blk[0, 0]
            _require(abs(entry) > 0, f"cannot derive dim of label {a} from F-data",
                     origin)
            dims[a] = dim = 1.0 / float(abs(entry))
            _require(math.isfinite(dim), f"derived dim of label {a} is not finite",
                     origin)
        dev = float(np.max(np.abs(np.outer(dims, dims) - ring.N @ dims)))
        _require(dev <= DEFAULT_TOL.atol, "derived positive dims fail d_a d_b"
                 f" = sum_c N_ab^c d_c by {dev:.3g}; list signed dims", origin)

    try:
        return CategorySpec(data["name"], ring, dims, theta, F_blocks,
                            R_blocks, product_of=product_of)
    except NotPremodular as exc:
        raise CategoryFileError(str(exc), origin) from exc


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
