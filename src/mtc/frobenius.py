"""The canonical Frobenius algebra on the product of a category with itself.

The algebra object is A = (+)_i (dual(i), i), a direct sum of simple labels
of the product category, one summand A_i per label i of the base.  Its
multiplication family m^(n) is built one component (i, j) -> k at a time:
the first tensor factor is a cup/cap diagram in the base category carrying
the monodromy power n (``_m_first``), the second factor is the fusion basis
vector, and the two are paired into the product category.  The
comultiplication is the vertical flip with inverse braidings and twisted
duality morphisms, weighted by d_i d_j / (Dim d_k) (``_delta_first``).

Two routes evaluate these maps.  ``PermutationAlgebra`` builds them as
engine morphisms between direct sums of words, by ``engine.direct_sum`` and
``deligne.pair_morphism``; it is the library's API for the maps themselves
and the tests' reference.  ``frobenius_report`` runs on channel
coefficients instead.  The summands of A are distinct simples, so the
component (i, j) -> k of m^(n) is one block at the root A_k, an N x N matrix
over Hom(dual(i) (x) dual(j), dual(k)) x Hom(i (x) j, k) with N = N_ij^k,
and likewise for Delta^(n).  These blocks are read from the diagrams once,
at n = 0; every other exponent follows from the interchange law

  m^(n) = m^(0) o D^n,    Delta^(n) = D^-n o Delta^(0),

with D the monodromy of (dual(i), dual(j)) at dual(k).  Every block of the
square at a word of summands of A is the Kronecker product of two blocks of
the base, so each axiom is a contraction of the coefficients with the
base's F-moves, batched as ``category._contract`` batches the pentagon.
Its deviation is the largest entry over every summand and root, as
``engine.Morphism.deviation`` takes it on the direct sums.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .category import (CategorySpec, _contract, _f_paths, _f_store,
                       _gather_plan, _inverses, _mult, _r_keys, _r_store,
                       _Store, cached)
from .deligne import deligne_power, pair_morphism
from .engine import (Morphism, braid_generator, cap, cap_twisted, cup,
                     cup_twisted, direct_sum, double_braiding, embed,
                     identity, tensor, trees)
from .errors import NotPremodular, ShapeMismatch, XiNotZeroOne
from .report import VerificationReport, max_dev


def sum_tensor(f: Morphism, g: Morphism) -> Morphism:
    """``engine.tensor``, under a name of its own so that the per-layer
    tracer of ``perfbench`` counts the tensors of ``PermutationAlgebra``."""
    return tensor(f, g)


def fusion_basis(spec: CategorySpec, i, j, k, alpha) -> Morphism:
    """The alpha-th basis vector of Hom(i (x) j, k)."""
    nt = len(trees(spec, (i, j)).get(k, []))
    row = np.zeros((1, nt), dtype=np.complex128)
    row[0, alpha] = 1.0
    return Morphism(spec, (i, j), (k,), {k: row})


def fusion_cobasis(spec: CategorySpec, i, j, k, alpha) -> Morphism:
    """The dual basis vector of Hom(k, i (x) j)."""
    return fusion_basis(spec, i, j, k, alpha).dagger()


def _m_first(base: CategorySpec, i, j, k, alpha, n) -> Morphism:
    """(dual(i), dual(j)) -> (dual(k)) in the base category: the first
    factor of the component of m^(n) paired with the alpha-th basis vector
    of Hom(i (x) j, k)."""
    dual = base.dual
    ib, jb, kb = int(dual[i]), int(dual[j]), int(dual[k])
    s1 = embed(fusion_cobasis(base, i, j, k, alpha), left=(ib, jb))
    if n:  # the monodromy power; D^0 is the identity
        s1 = embed(double_braiding(base, (ib, jb), 1, n), right=(i, j)) @ s1
    s2 = embed(braid_generator(base, (jb, i), 1, True),
               left=(ib,), right=(j,))
    s3 = tensor(cap(base, i), cap(base, j))
    bracket = s3 @ s2 @ s1
    return embed(bracket, right=(kb,)) @ embed(cup(base, k), left=(ib, jb))


def _delta_first(base: CategorySpec, i, j, k, alpha, n) -> Morphism:
    """(dual(k)) -> (dual(i), dual(j)), the vertical flip of _m_first."""
    dual = base.dual
    ib, jb, kb = int(dual[i]), int(dual[j]), int(dual[k])
    s1 = tensor(cup_twisted(base, i), cup_twisted(base, j))
    s2 = embed(braid_generator(base, (i, jb), 1, False),
               left=(ib,), right=(j,))
    s3 = embed(fusion_basis(base, i, j, k, alpha), left=(ib, jb))
    if n:  # the monodromy power; D^0 is the identity
        s3 = s3 @ embed(double_braiding(base, (ib, jb), 1, -n), right=(i, j))
    bracket = s3 @ s2 @ s1
    return embed(cap_twisted(base, k), left=(ib, jb)) \
        @ embed(bracket, right=(kb,))


class PermutationAlgebra:
    """A = (+)_i (dual(i), i) with its multiplication family inside the
    square of the base category, as engine morphisms between direct sums.

    ``frobenius_report`` does not build these maps; they are the reference
    its channel coefficients are tested against.
    """

    def __init__(self, base: CategorySpec, prod: CategorySpec | None = None):
        self.base = base
        self.prod = prod if prod is not None else deligne_power(base, 2)
        if self.prod.rank != base.rank ** 2:
            raise ShapeMismatch("product category rank does not match base")
        r = base.rank
        self.rank = r
        self.dim = base.global_dim()
        self.labels = [int(base.dual[i]) * r + i for i in range(r)]
        self.dual_labels = [q * r + int(base.dual[q]) for q in range(r)]
        self.words = tuple((x,) for x in self.labels)
        self.dual_words = tuple((x,) for x in self.dual_labels)
        self.pairs = tuple(a + b for a in self.words for b in self.words)
        self._cache = {}

    # -- structure morphisms -----------------------------------------------

    def identity(self) -> Morphism:
        return identity(self.prod, self.words)

    def identity_dual(self) -> Morphism:
        return identity(self.prod, self.dual_words)

    def unit(self) -> Morphism:
        mor = Morphism(self.prod, (), (0,), {0: np.array([[1.0]])})
        return direct_sum(self.prod, (), self.words, {(0, 0): mor})

    def counit(self) -> Morphism:
        mor = Morphism(self.prod, (0,), (), {0: np.array([[self.dim]])})
        return direct_sum(self.prod, self.words, (), {(0, 0): mor})

    def _channel_sums(self, first, second, n) -> dict:
        """{(i, j, k): the sum over alpha of pair_morphism(first(base, i, j,
        k, alpha, n), second(base, i, j, k, alpha))} over every channel k of
        i (x) j."""
        base = self.base
        out = {}
        for i, j in itertools.product(range(self.rank), repeat=2):
            for k in base.ring.channels(i, j):
                terms = [pair_morphism(self.prod,
                                       first(base, i, j, k, alpha, n),
                                       second(base, i, j, k, alpha))
                         for alpha in range(base.ring.n(i, j, k))]
                out[i, j, k] = sum(terms[1:], terms[0])
        return out

    @cached("m")
    def multiplication(self, n: int = 0) -> Morphism:
        """m^(n) : A (x) A -> A."""
        r = self.rank
        comps = {(k, i * r + j): m for (i, j, k), m in self._channel_sums(
            _m_first, fusion_basis, n).items()}
        return direct_sum(self.prod, self.pairs, self.words, comps)

    @cached("delta")
    def comultiplication(self, n: int = 0) -> Morphism:
        """Delta^(n) : A -> A (x) A with components weighted by
        d_i d_j / (Dim d_k)."""
        d = self.base.dims
        r = self.rank
        comps = {(i * r + j, k): m * (d[i] * d[j] / (self.dim * d[k]))
                 for (i, j, k), m in self._channel_sums(
                     _delta_first, fusion_cobasis, n).items()}
        return direct_sum(self.prod, self.words, self.pairs, comps)

    # -- duality and pairing -------------------------------------------------

    def cup_A(self) -> Morphism:
        """1 -> A (x) A^v, componentwise coevaluation."""
        dst = tuple(a + b for a in self.words for b in self.dual_words)
        comps = {(i * self.rank + i, 0): cup(self.prod, x)
                 for i, x in enumerate(self.labels)}
        return direct_sum(self.prod, (), dst, comps)

    def cup_A_twisted(self) -> Morphism:
        """1 -> A^v (x) A."""
        dst = tuple(a + b for a in self.dual_words for b in self.words)
        comps = {(i * self.rank + i, 0): cup_twisted(self.prod, x)
                 for i, x in enumerate(self.labels)}
        return direct_sum(self.prod, (), dst, comps)

    def cap_A(self) -> Morphism:
        """A^v (x) A -> 1."""
        src = tuple(a + b for a in self.dual_words for b in self.words)
        comps = {(0, i * self.rank + i): cap(self.prod, x)
                 for i, x in enumerate(self.labels)}
        return direct_sum(self.prod, src, (), comps)

    @cached("phi")
    def pairing_iso(self, n: int = 0) -> Morphism:
        """Phi^(n) : A -> A^v built from two multiplications and the duality:

          (d_A (x) id) o (id (x) m (x) id) o (bt_A (x) m (x) id) o (id_A (x) b_A)
        """
        m = self.multiplication(n)
        idA = self.identity()
        idAv = self.identity_dual()
        layer1 = sum_tensor(idA, self.cup_A())
        layer2 = sum_tensor(sum_tensor(self.cup_A_twisted(), m), idAv)
        layer3 = sum_tensor(sum_tensor(idAv, m), idAv)
        layer4 = sum_tensor(self.cap_A(), idAv)
        return layer4 @ layer3 @ layer2 @ layer1

    def pairing_scalars(self, n: int = 0) -> np.ndarray:
        """The scalar of Phi^(n) from summand i of A to summand dual(i) of
        A^v, both the label labels[i]."""
        blocks = self.pairing_iso(n).blocks
        return np.array([blocks[x][0, 0] for x in self.labels])

    def sigma(self) -> Morphism:
        """The diagonal twist sigma = (+)_i theta_{dual(i)} id."""
        theta = self.base.theta
        dual = self.base.dual
        comps = {(i, i): identity(self.prod, self.words[i])
                 * complex(theta[int(dual[i])]) for i in range(self.rank)}
        return direct_sum(self.prod, self.words, self.words, comps)

    def braiding(self, over: bool = True) -> Morphism:
        """c_{A,A} (or its inverse) componentwise."""
        r = self.rank
        comps = {(j * r + i, i * r + j): braid_generator(
                     self.prod, (self.labels[i], self.labels[j]), 1, over)
                 for i, j in itertools.product(range(r), repeat=2)}
        return direct_sum(self.prod, self.pairs, self.pairs, comps)

    # -- left center ----------------------------------------------------------

    @cached("proj")
    def left_center_idempotent(self, n: int = 0) -> Morphism:
        """The idempotent m^(n+1) o (sigma^2 (x) id) o Delta^(n) cutting out
        the left center; its diagonal weights are the xi vector.

        The sigma-dressed form matches the scalar route ``xi_formula`` on
        every built-in category and exponent.  Its channel weight
        theta_a theta_p / theta_q is the monodromy theta_a/(theta_p theta_q)
        times the double twist of the first leg.  A single braiding,
        m o c o Delta, gives pure R-matrix phases per channel instead.
        """
        sig2 = self.sigma() @ self.sigma()
        return self.multiplication(n + 1) \
            @ sum_tensor(sig2, self.identity()) @ self.comultiplication(n)

    def xi(self, n: int = 0) -> np.ndarray:
        """Diagonal weights of the left-center idempotent: its 1 x 1 block
        at labels[i], as the summands of A are distinct simple labels."""
        blocks = self.left_center_idempotent(n).blocks
        return np.array([blocks[x][0, 0] for x in self.labels])


def xi_formula(base: CategorySpec) -> np.ndarray:
    """Scalar route to the left-center weights:

      xi_i = sum_{j,k} [d_j d_k / (Dim d_i)] [theta_i theta_k / theta_j] N_{kj}^i
    """
    r = base.rank
    N = base.ring.N
    d = base.dims
    th = base.theta
    dim = base.global_dim()
    out = np.zeros(r, dtype=np.complex128)
    for i in range(r):
        acc = 0.0 + 0.0j
        for j in range(r):
            for k in range(r):
                if N[k, j, i]:
                    acc += (d[j] * d[k] / (dim * d[i])) \
                        * (th[i] * th[k] / th[j]) * N[k, j, i]
        out[i] = acc
    return out


def azumaya_defect(base: CategorySpec) -> float:
    """Distance of the xi vector from the pattern (1, 0, ..., 0); zero
    exactly when the algebra is Azumaya."""
    xi = xi_formula(base)
    want = np.zeros(base.rank, dtype=np.complex128)
    want[0] = 1.0
    return float(np.max(np.abs(xi - want)))


def left_center_labels(base: CategorySpec, atol: float = 1e-6):
    """Labels whose xi weight is 1; raises XiNotZeroOne if any weight is
    neither 0 nor 1 at the given tolerance."""
    xi = xi_formula(base)
    out = []
    for i, val in enumerate(xi):
        if abs(val - 1.0) <= atol:
            out.append(i)
        elif abs(val) > atol:
            raise XiNotZeroOne(
                f"xi[{i}] = {val:.6g} is neither 0 nor 1")
    return out


# ---------------------------------------------------------------------------
# channel coefficients


@cached("frobenius_channels")
def _channel_table(ring):
    """(labels, sizes, groups) of the channels (i, j, k) with N_ijk > 0,
    ascending: their label columns, the entry count N_ijk^2 of each one's
    block, and per multiplicity n the triple (n, indices of the channels
    with N_ijk = n, positions of their blocks' entries in a flat array of
    every block in channel order, shaped (count, n^2)).  The channels are
    the R-keys, grouped as ``category._r_keys`` groups them."""
    labels = np.nonzero(ring.N)
    sizes = ring.N[labels] ** 2
    offsets = np.cumsum(sizes) - sizes
    return labels, sizes, [(n, idx, offsets[idx, None] + np.arange(n * n))
                           for n, (idx, _) in _r_keys(ring).groups.items()]


def _coefficient_store(base: CategorySpec, flat):
    """The channel blocks of the flat array, in channel order, as a store
    keyed by (i, j, k), each N_ijk x N_ijk block indexed [dual-factor mult,
    base-factor mult]; the zeros of the largest are appended."""
    sizes = _channel_table(base.ring)[1]
    return _Store(base.ring, ((0, 1, 2), (0, 1, 2)),
                  np.r_[flat, np.zeros(sizes.max())], len(flat),
                  np.r_[np.cumsum(sizes) - sizes, len(flat)])


def _entries(C):
    """The entries of a coefficient store's blocks, without its zeros."""
    return C.flat[:C.blank]


def _diagram_blocks(base: CategorySpec, first):
    """The flat array of the channel blocks of the n = 0 diagrams: column
    alpha of channel (i, j, k) is the block of first(base, i, j, k, alpha,
    0) at dual(k)."""
    (i, j, k), _, _ = _channel_table(base.ring)
    out = []
    for a, b, c in zip(i.tolist(), j.tolist(), k.tolist()):
        n = base.ring.n(a, b, c)
        blk = np.empty((n, n), dtype=np.complex128)
        for alpha in range(n):
            blk[:, alpha] = first(base, a, b, c, alpha, 0).blocks[
                int(base.dual[c])].ravel()
        out.append(blk.ravel())
    return np.concatenate(out)


@cached("monodromy")
def _monodromy(base: CategorySpec, n: int):
    """The flat array of the blocks D^n, D = c_{dual(j),dual(i)} o
    c_{dual(i),dual(j)} at dual(k), in channel order (i, j, k).  A negative
    power inverts each block first; a singular one raises NotPremodular
    naming it."""
    (i, j, k), sizes, groups = _channel_table(base.ring)
    R = _r_store(base, False)
    dual = base.dual
    out = np.empty(sizes.sum(), dtype=np.complex128)
    for mult, idx, pos in groups:
        a, b, c = dual[i[idx]], dual[j[idx]], dual[k[idx]]
        D = R.take((b, a, c), (mult, mult)) @ R.take((a, b, c), (mult, mult))
        if n < 0:
            D = _inverses(D, lambda t: f"monodromy on the word ({a[t]}, "
                                       f"{b[t]}) at root {c[t]} is singular")
        out[pos] = np.linalg.matrix_power(D, abs(n)).reshape(len(idx), -1)
    return out


def _transformed(base: CategorySpec, C, D, transpose: bool):
    """The store of the blocks D_c^T C_c (or D_c C_c) channel by channel."""
    flat, C = np.empty_like(D), _entries(C)
    for mult, idx, pos in _channel_table(base.ring)[2]:
        shape = (len(idx), mult, mult)
        Dc = D[pos].reshape(shape)
        flat[pos] = ((Dc.transpose(0, 2, 1) if transpose else Dc)
                     @ C[pos].reshape(shape)).reshape(len(idx), -1)
    return _coefficient_store(base, flat)


@cached("m_channels")
def _m_channels(base: CategorySpec, n: int):
    """The channel blocks of m^(n) as a store: from the diagrams at n = 0,
    and as m^(0) o D^n otherwise, the monodromy acting on the dual factor's
    source trees, the rows of a block."""
    if n == 0:
        return _coefficient_store(base, _diagram_blocks(base, _m_first))
    return _transformed(base, _m_channels(base, 0), _monodromy(base, n),
                        True)


@cached("delta_channels")
def _delta_channels(base: CategorySpec, n: int):
    """The channel blocks of Delta^(n) as a store: from the diagrams at
    n = 0, weighted by d_i d_j / (Dim d_k), and as D^-n o Delta^(0)
    otherwise."""
    if n == 0:
        (i, j, k), sizes, _ = _channel_table(base.ring)
        d = base.dims
        weights = d[i] * d[j] / (base.global_dim() * d[k])
        return _coefficient_store(base, _diagram_blocks(base, _delta_first)
                                  * np.repeat(weights, sizes))
    return _transformed(base, _delta_channels(base, 0), _monodromy(base, -n),
                        False)


def _stores(base: CategorySpec, n: int) -> dict:
    """The stores a term's operands gather from, by role, at exponent n."""
    return {"m": _m_channels(base, n), "delta": _delta_channels(base, n),
            "F": _f_store(base), "Finv": _f_store(base, True)}


# ---------------------------------------------------------------------------
# the axioms as contractions


class _Term(NamedTuple):
    """One side of an axiom on the direct sums, as slots of entries: row t
    of ``plan`` adds the einsum of its operands' blocks into the slot from
    ``offsets[t]`` on.  Operand i gathers from the store of role
    ``roles[i]``, the same positions at every exponent."""

    size: int
    offsets: np.ndarray
    subscripts: str
    roles: tuple
    plan: list

    def value(self, stores: dict) -> np.ndarray:
        out = np.zeros(self.size, dtype=np.complex128)
        _contract(out, self.offsets, self.subscripts,
                  [stores[role].flat for role in self.roles], self.plan)
        return out


def _term(base, sizes, rows, subscripts, factors) -> _Term:
    """The term with one slot of each size whose row t adds into slot
    rows[t]; ``factors`` holds one (role, label columns) pair per operand,
    with the role "m", "delta", "F" or "Finv"."""
    stores = _stores(base, 0)
    return _Term(int(sizes.sum()), (np.cumsum(sizes) - sizes)[rows],
                 subscripts, tuple(role for role, _ in factors),
                 _gather_plan(base.ring.N, [
                     (stores[role], stores[role].codes(labels))
                     for role, labels in factors]))


def _gap(x, y) -> float:
    """The largest entry of |x - y|; NaN if one is NaN, 0 if there is none."""
    return float(np.max(np.abs(x - y), initial=0.0))


def _three_summands(ring):
    """Label columns (i, j, l, q, e1, e2) of the left-nested trees of
    (A_i, A_j, A_l) at the root A_q through (e1, e2): e2 in i (x) j with q in
    e2 (x) l, and e1 in dual(i) (x) dual(j) with dual(q) in e1 (x) dual(l)."""
    dual = ring.dual
    i, j, e2, l, q = _f_paths(ring)
    t, e1 = ring.fusion_channels(dual[i], dual[j])
    i, j, l, q, e2 = (x[t] for x in (i, j, l, q, e2))
    keep = _mult(ring.N, e1, dual[l], dual[q]) > 0
    return [x[keep] for x in (i, j, l, q, e1, e2)]


def _associativity_terms(base, words, coeff, move):
    """(left, right) of m o (m (x) id) = m o (id (x) m) on A (x) A (x) A ->
    A, with coeff "m" and move "Finv"; of (Delta (x) id) o Delta =
    (id (x) Delta) o Delta, with coeff "delta" and move "F".  A slot is the
    block [alpha, beta] of each factor of the left-nested trees (e1, e2);
    only e1 = dual(e2), a summand A_k of A, carries the left side, and the
    right side sums over the summands A_p of the right-nested trees."""
    ring = base.ring
    N, dual = ring.N, ring.dual
    i, j, l, q, e1, e2 = words
    ib, jb, lb, qb = dual[i], dual[j], dual[l], dual[q]
    sizes = (_mult(N, ib, jb, e1) * _mult(N, i, j, e2)
             * _mult(N, e1, lb, qb) * _mult(N, e2, l, q))
    on = np.flatnonzero(e1 == dual[e2])
    i1, j1, l1, q1, k = (x[on] for x in (i, j, l, q, e2))
    left = _term(base, sizes, on, "AX,BY->AXBY",
                 [(coeff, (i1, j1, k)), (coeff, (k, l1, q1))])
    t, p = ring.fusion_channels(j, l)
    t, p = (x[_mult(N, i[t], p, q[t]) > 0] for x in (t, p))
    i, j, l, q, e1, e2 = (x[t] for x in words)
    ib, jb, lb, qb, pb = dual[i], dual[j], dual[l], dual[q], dual[p]
    right = _term(base, sizes, t, "GH,DK,ABGD,XYHK->AXBY",
                  [(coeff, (j, l, p)), (coeff, (i, p, q)),
                   (move, (ib, jb, lb, qb, e1, pb)),
                   (move, (i, j, l, q, e2, p))])
    return left, right


def _frobenius_terms(base):
    """(middle, left, right) of Delta o m = (id (x) m) o (Delta (x) id) =
    (m (x) id) o (id (x) Delta) on A (x) A -> A (x) A.  A slot is the
    block [mu, nu] over the trees of (A_k, A_l) and (A_i, A_j) at a root
    X = (x1, x2) of both, a summand of A or not; the two composites sum over
    the middle summand A_s."""
    ring = base.ring
    r, N, dual = ring.rank, ring.N, ring.dual
    v, k, l = np.indices((np.count_nonzero(N), r, r)).reshape(3, -1)
    i, j, x2 = (x[v] for x in np.nonzero(N))
    i, j, x2, k, l = (x[_mult(N, k, l, x2) > 0] for x in (i, j, x2, k, l))
    t, x1 = ring.fusion_channels(dual[i], dual[j])
    i, j, k, l, x2 = (x[t] for x in (i, j, k, l, x2))
    keep = _mult(N, dual[k], dual[l], x1) > 0
    words = [x[keep] for x in (i, j, k, l, x1, x2)]
    i, j, k, l, x1, x2 = words
    sizes = (_mult(N, dual[k], dual[l], x1) * _mult(N, k, l, x2)
             * _mult(N, dual[i], dual[j], x1) * _mult(N, i, j, x2))
    on = np.flatnonzero(x1 == dual[x2])
    i1, j1, k1, l1, p = (x[on] for x in (i, j, k, l, x2))
    middle = _term(base, sizes, on, "MP,VW->MPVW",
                   [("delta", (k1, l1, p)), ("m", (i1, j1, p))])
    # (id (x) m_{sj -> l}) o (Delta_{i -> ks} (x) id), s in dual(k) (x) i
    t, s = ring.fusion_channels(dual[k], i)
    t, s = (x[_mult(N, s, j[t], l[t]) > 0] for x in (t, s))
    i, j, k, l, x1, x2 = (x[t] for x in words)
    ib, jb, kb, lb, sb = dual[i], dual[j], dual[k], dual[l], dual[s]
    left = _term(base, sizes, t, "GH,AB,AVGM,BWHP->MPVW",
                 [("m", (s, j, l)), ("delta", (k, s, i)),
                  ("Finv", (kb, sb, jb, x1, ib, lb)),
                  ("Finv", (k, s, j, x2, i, l))])
    # (m_{is -> k} (x) id) o (id (x) Delta_{j -> sl}), s in dual(i) (x) k
    i, j, k, l, x1, x2 = words
    t, s = ring.fusion_channels(dual[i], k)
    t, s = (x[_mult(N, s, l[t], j[t]) > 0] for x in (t, s))
    i, j, k, l, x1, x2 = (x[t] for x in words)
    ib, jb, kb, lb, sb = dual[i], dual[j], dual[k], dual[l], dual[s]
    right = _term(base, sizes, t, "AB,AMGV,BPHW,GH->MPVW",
                  [("m", (i, s, k)), ("F", (ib, sb, lb, x1, kb, jb)),
                   ("F", (i, s, l, x2, k, j)), ("delta", (s, l, j))])
    return middle, left, right


def _coproduct_terms(base):
    """(Delta, right, label) of Delta = (m (x) Phi^-1) o (id_A (x) cup_A)
    on A -> A (x) A.  A slot is the block of the component A_k -> (A_i,
    A_dual(j)); the right side before Phi^-1 is m_{kj -> i} on the vacuum
    column of the F-move of (A_k, A_j, A_dual(j)) at A_k, and ``label``
    gives per entry the label dual(j) whose Phi divides it."""
    ring = base.ring
    N, dual = ring.N, ring.dual
    k, j, i = np.nonzero(N)
    ib, jb, kb = dual[i], dual[j], dual[k]
    vac = np.zeros_like(k)
    sizes = _mult(N, i, jb, k) ** 2
    rows = np.arange(len(k))
    delta = _term(base, sizes, rows, "BY->BY", [("delta", (i, jb, k))])
    right = _term(base, sizes, rows, "AX,ABGD,XYHK->BY",
                  [("m", (k, j, i)), ("F", (kb, jb, j, kb, ib, vac)),
                   ("F", (k, j, jb, k, i, vac))])
    return delta, right, np.repeat(jb, sizes)


@cached("frobenius_terms")
def _axiom_terms(base: CategorySpec) -> dict:
    """The terms of the axioms checked by contraction, by check name."""
    words = _three_summands(base.ring)
    return {"associativity": _associativity_terms(base, words, "m", "Finv"),
            "coassociativity": _associativity_terms(base, words, "delta",
                                                    "F"),
            "frobenius": _frobenius_terms(base),
            "coproduct_from_pairing": _coproduct_terms(base)}


def frobenius_report(base: CategorySpec, n_values=(0, 1), tol: float = 1e-8,
                     expect_azumaya: bool = True):
    """Check the algebra axioms and the derived structure for each exponent.

    Every check runs on the channel coefficients of m^(n) and Delta^(n)
    and on the base's F-moves, whose Kronecker products are the square's.

    With ``expect_azumaya=False`` the obstruction check inverts into a
    control: it passes only when the obstruction is actually present.
    """
    report = VerificationReport(target=base.name,
                                options={"n_values": list(n_values),
                                         "tolerance": tol})
    ring = base.ring
    r, dual, theta, d = base.rank, ring.dual, base.theta, base.dims
    dim = base.global_dim()

    # d(A_i) = d_dual(i) d_i, the quantum trace of id_A summed in order
    qdim = sum((d[dual] * d).tolist())
    report.add_deviation("algebra_dimension", "quantum-dimension",
                         abs(qdim - dim), tol)

    terms = _axiom_terms(base)
    labels = np.arange(r)
    vac = np.zeros_like(labels)
    (ci, cj, ck), sizes, _ = _channel_table(ring)
    root = np.repeat(ck, sizes)  # the label k of each coefficient entry
    sigma = theta[dual]  # theta_dual(i) on the summand A_i

    def at(*columns):
        """Where the 1 x 1 blocks of the channels (i, j, k) of the label
        columns lie in the flat array of every coefficient store."""
        C = _m_channels(base, 0)
        return C.find(C.codes(columns))[0]

    unit_left, unit_right = at(vac, labels, labels), at(labels, vac, labels)
    closing = at(labels, dual, vac)  # the channel (i, dual(i) -> 0)

    # per label a: the vacuum entries of F[a, dual(a), a; a] and of its
    # inverse, and the twisted cup of the summand A_a of the square
    F, Finv = _f_store(base), _f_store(base, True)
    vF = F.take((labels, dual, labels, labels, vac, vac), (1,) * 4).ravel()
    vU = Finv.take((labels, dual, labels, labels, vac, vac), (1,) * 4).ravel()
    R = _r_store(base, False)
    bt = sigma * theta * (R.take((dual, labels, vac), (1, 1))
                          * R.take((labels, dual, vac), (1, 1))).ravel()

    def pairing(m):
        """Phi at each summand A_i: the closed twisted loop of m, sum_s
        m_{s0 -> s} bt_s / F^-1[A_s, A_s^v, A_s; A_s]_00, times m_{i dual(i)
        -> 0} on the vacuum F-move of (A_i, A_dual(i), A_i)."""
        loop = np.sum(m.flat[unit_right] * bt / (vU[dual] * vU))
        return loop * m.flat[closing] * vF[dual] * vF

    def pair(name, stores):
        """The gap between the two sides of a check by contraction."""
        left, right = terms[name]
        return _gap(left.value(stores), right.value(stores))

    phi0 = pairing(_m_channels(base, 0))
    xi_want = xi_formula(base)
    for n in n_values:
        stores = _stores(base, n)
        m, de = stores["m"], stores["delta"]
        sfx = f"[n={n}]"
        report.add_deviation(f"associativity{sfx}", "algebra-associativity",
                             pair("associativity", stores), tol)
        report.add_deviation(
            f"unit{sfx}", "algebra-unit",
            max_dev(_gap(m.flat[unit_left], 1.0),
                    _gap(m.flat[unit_right], 1.0)), tol)
        report.add_deviation(
            f"coassociativity{sfx}", "coalgebra-coassociativity",
            pair("coassociativity", stores), tol)
        report.add_deviation(
            f"counit{sfx}", "coalgebra-counit",
            max_dev(_gap(dim * de.flat[unit_left], 1.0),
                    _gap(dim * de.flat[unit_right], 1.0)), tol)
        middle, left, right = (x.value(stores) for x in terms["frobenius"])
        report.add_deviation(f"frobenius{sfx}", "frobenius-compatibility",
                             max_dev(_gap(left, middle), _gap(right, middle)),
                             tol)
        # m o Delta on each summand, and eps o eta = Dim times 1
        special = np.zeros(r, dtype=np.complex128)
        np.add.at(special, root, _entries(m) * _entries(de))
        report.add_deviation(
            f"specialness{sfx}", "specialness",
            max_dev(_gap(special, 1.0), abs(dim * 1.0 - dim)), tol)

        # eps o m closed by cup_A, against its closure by the twisted cup
        cap_m = m.flat[closing]
        report.add_deviation(
            f"symmetry{sfx}", "pairing-symmetry",
            _gap(dim * cap_m * vF[dual] * vF,
                 dim * cap_m[dual] * vU[dual] * vU * bt[dual]), tol)

        phi = pairing(m)
        report.add_deviation(
            f"pairing_modulus{sfx}", "pairing-closed-form",
            _gap(np.abs(phi) * np.abs(d) / dim, 1.0), tol)
        # a NaN in phi reaches the deviations without a warning
        if n != 0:
            with np.errstate(invalid="ignore"):
                ratio = phi / phi0
            report.add_deviation(
                f"pairing_twist_ratio{sfx}", "pairing-twist-ratio",
                _gap(ratio, theta ** (-2 * n)), tol)
        zero = np.flatnonzero(phi == 0)
        if len(zero):
            x = int(zero[0])
            raise NotPremodular(f"the pairing Phi^({n}) is zero on the "
                                f"summand ({int(dual[x])}, {x}) of A, label "
                                f"{x}")
        delta, right, label = terms["coproduct_from_pairing"]
        with np.errstate(invalid="ignore"):
            right = right.value(stores) / phi[label]
        report.add_deviation(
            f"coproduct_from_pairing{sfx}", "coproduct-from-pairing",
            _gap(delta.value(stores), right), tol)

        # m^(n+1) o (sigma^2 (x) id) o Delta^(n), diagonal in the summands
        xi = np.zeros(r, dtype=np.complex128)
        np.add.at(xi, root, np.repeat((sigma * sigma)[ci], sizes)
                  * _entries(_m_channels(base, n + 1)) * _entries(de))
        report.add_deviation(f"center_idempotent{sfx}", "center-idempotent",
                             _gap(xi * xi, xi), tol)
        report.add_deviation(f"center_weights{sfx}", "center-weights",
                             _gap(xi, xi_want), tol)

    # m^(n0+1) = sigma m^(n0) (sigma^-1 (x) sigma^-1) and Delta^(n0+1) =
    # (sigma (x) sigma) Delta^(n0) sigma^-1, channel by channel
    n0 = n_values[0]
    twist = np.repeat(sigma[ck] / (sigma[ci] * sigma[cj]), sizes)
    report.add_deviation(
        "twist_intertwiner", "twist-intertwiner",
        max_dev(_gap(_entries(_m_channels(base, n0 + 1)),
                     twist * _entries(_m_channels(base, n0))),
                _gap(_entries(_delta_channels(base, n0 + 1)),
                     _entries(_delta_channels(base, n0)) / twist)), tol)

    defect = azumaya_defect(base)
    if expect_azumaya:
        report.add_deviation("azumaya", "azumaya-obstruction", defect, tol)
    else:
        report.add_deviation("azumaya_control", "azumaya-obstruction-control",
                             0.0 if defect > 0.1 else 1.0, 0.5,
                             detail=f"obstruction defect {defect:.3g} "
                                    "present as required")
    return report
