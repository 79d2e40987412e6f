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
and likewise for Delta^(n).  The channels are the R keys, so these blocks
are ``category._Blocks`` laid out as the spec lays its R-blocks.  At n = 0
each table is one ``category._Term`` over the R keys of the base's
F-moves, their inverses and its braidings (``_bent``): the composite of
``_m_first`` or ``_delta_first`` written in F and R.  Every other exponent
is one ``_Blocks.apply`` of it, by the interchange law

  m^(n) = m^(0) o D^n,    Delta^(n) = D^-n o Delta^(0),

with D the monodromy of (dual(i), dual(j)) at dual(k), gathered from the
spec's one table of double braidings (``category._r_double``), which the
ribbon check reads too.  Every block of the square at a word of summands
of A is the Kronecker product of two blocks of the base, so each axiom is
a contraction of the coefficients with the base's F-moves, its label
tuples enumerated by ``category._LabelTable`` and each side a
``category._Term``, as the pentagon's are, evaluated under each
exponent's stores.  Its deviation is the largest entry over every summand
and root, as ``engine.Morphism.deviation`` takes it on the direct sums.
"""

from __future__ import annotations

import itertools

import numpy as np

from .category import (CategorySpec, _Blocks, _blocks, _f_store, _gap,
                       _inverses, _LabelTable, _r_double, _r_keys, _r_store,
                       _slots, _term, _vertex_store, cached)
from .deligne import deligne_power, pair_morphism
from .engine import (Morphism, braid_generator, cap, cap_twisted, cup,
                     cup_twisted, direct_sum, double_braiding, embed,
                     identity, tensor, trees)
from .errors import NotPremodular, ShapeMismatch, XiNotZeroOne
from .report import VerificationReport, exponents, max_dev


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


@cached("vacuum")
def _vacuum(base: CategorySpec) -> tuple:
    """Per label a, read by the n = 0 channel tables and by
    ``frobenius_report``: the vacuum entries F[a, dual(a), a; a]_00 and
    F^-1[a, dual(a), a; a]_00, tau_a = theta_a R[a, dual(a); 0], and the
    twisted cup of the summand A_a of the square, theta_dual(a) theta_a
    times the double braiding R[dual(a), a; 0] R[a, dual(a); 0]."""
    labels = np.arange(base.rank)
    dual, theta, vac = base.dual, base.theta, np.zeros_like(labels)
    f, finv = (_f_store(base, inverse).take(
        (labels, dual, labels, labels, vac, vac), (1,) * 4).ravel()
        for inverse in (False, True))
    K = _r_keys(base.ring)
    at = K.start[K.find(labels, dual, vac)]  # the 1 x 1 blocks (a, dual(a), 0)
    return (f, finv, theta * _blocks(base, "R").flat[at],
            theta[dual] * theta * _r_double(base).flat[at])


def _bent(base: CategorySpec, mirror: bool, scale) -> _Blocks:
    """Blocks on the R keys, scale[key] times one contraction of F-moves
    and braidings over b in dual(j) (x) i; with the prefactors that
    ``_m_channels`` and ``_delta_channels`` pass as scale, the blocks of
    m^(0) and Delta^(0), the composites of ``_m_first`` and
    ``_delta_first``:

      [beta, alpha] = sum_b F[I,i,J;J]_{0,(b rho' mu)} R^{J i}_b[rho', rho]
                            F^-1[I,J,i;J]_{(b rho mu),(K beta gamma)}
                            F[K,i,j;0]_{(J gamma),(k alpha)}

    at the key (i, j, k), capitals the duals, rows of F trees and columns
    split pairs (``FusionRing.f_basis``), F^-1 indexed [split, tree]; with
    ``mirror`` its mirror image, F and F^-1 swapped and the braiding
    inverted, [beta, alpha] = sum_b F^-1[I,i,J;J]_{(b rho' mu),0}
    (R^{J i}_b)^-1[rho, rho'] F[I,J,i;J]_{(K beta gamma),(b rho mu)}
    F^-1[K,i,j;0]_{(k alpha),(J gamma)}.  Rows of a key sharing its slot
    are added in ascending b."""
    ring, dual = base.ring, base.dual
    K = _r_keys(ring)
    i, j, k = K.labels()
    keys = _LabelTable(ring, {"i": i, "j": j, "k": k, "I": dual[i],
                              "J": dual[j], "K": dual[k],
                              "o": np.zeros_like(i)})
    stores = {"F": _f_store(base, mirror), "Finv": _f_store(base, not mirror),
              "R": _r_store(base, mirror)}
    term = _term(stores, (keys.origin, K.start,
                          K.total + int(K.size.max()) ** 2),
                 keys.fuse("J", "i", "b"),
                 "OQPM,{},BGRM,GHAL->BA".format("RP" if mirror else "PR"),
                 [("F", "IiJJob"), ("R", "iJb" if mirror else "Jib"),
                  ("Finv", "IJiJKb"), ("F", "KijoJk")])
    return _Blocks(K, term.value(stores)).apply(
        lambda idx, C: C * scale[idx, None, None])


@cached("monodromy")
def _monodromy(base: CategorySpec, n: int) -> _Blocks:
    """D^n at every R key (i, j, k), D = c_{dual(j),dual(i)} o
    c_{dual(i),dual(j)} at dual(k): the ``_r_double`` block at (dual(i),
    dual(j), dual(k)).  A negative power inverts each block first; a
    singular one raises NotPremodular naming it."""
    D, dual = _r_double(base), base.dual
    i, j, k = D.keys.labels()
    bar = D.keys.find(dual[i], dual[j], dual[k])

    def power(idx, stack):
        at = bar[idx]
        stack = stack[D.keys.pos[at]]
        if n < 0:
            stack = _inverses(stack, lambda t: "monodromy on the word ({}, {}"
                              ") at root {} is singular".format(
                                  i[at[t]], j[at[t]], k[at[t]]))
        return np.linalg.matrix_power(stack, abs(n))
    return D.apply(power)


@cached("m_channels")
def _m_channels(base: CategorySpec, n: int) -> _Blocks:
    """The channel blocks of m^(n) on the R keys, indexed [dual-factor
    mult, base-factor mult]: at n = 0 ``_bent`` scaled by F[K,k,K;K]_00 /
    (F^-1[i,I,i;i]_00 F^-1[j,J,j;j]_00), and as m^(0) o D^n otherwise, the
    monodromy acting on the dual factor's source trees, the rows of a
    block."""
    if n == 0:
        f, finv, _, _ = _vacuum(base)
        i, j, k = _r_keys(base.ring).labels()
        return _bent(base, False, f[base.dual[k]] / (finv[i] * finv[j]))
    D = _monodromy(base, n)
    return _m_channels(base, 0).apply(
        lambda _, C: D.stack(C.shape[1]).transpose(0, 2, 1) @ C)


@cached("delta_channels")
def _delta_channels(base: CategorySpec, n: int) -> _Blocks:
    """The channel blocks of Delta^(n) on the R keys: at n = 0 the mirror
    ``_bent`` scaled by tau_i tau_j tau_k F^-1[K,k,K;K]_00 /
    F^-1[k,K,k;k]_00 and weighted by d_i d_j / (Dim d_k), and as
    D^-n o Delta^(0) otherwise."""
    if n == 0:
        _, finv, tau, _ = _vacuum(base)
        d = base.dims
        i, j, k = _r_keys(base.ring).labels()
        scale = tau[i] * tau[j] * tau[k] * finv[base.dual[k]] / finv[k]
        return _bent(base, True, scale * (
            d[i] * d[j] / (base.global_dim() * d[k])))
    D = _monodromy(base, -n)
    return _delta_channels(base, 0).apply(lambda _, C: D.stack(C.shape[1])
                                          @ C)


def _stores(base: CategorySpec, n: int) -> dict:
    """The stores a term's operands gather from, by role, at exponent n."""
    ring, dims = base.ring, ((0, 1, 2), (0, 1, 2))
    return {"m": _vertex_store(ring, _m_channels(base, n), dims),
            "delta": _vertex_store(ring, _delta_channels(base, n), dims),
            "F": _f_store(base), "Finv": _f_store(base, True)}


def _root_sums(C: _Blocks) -> np.ndarray:
    """Per label k, the sum of every entry of the blocks at the keys (i, j,
    k), added in key order."""
    per_key = np.empty(len(C.keys.size), dtype=np.complex128)
    for n, (idx, _) in C.keys.groups.items():
        per_key[idx] = C.stack(n).sum(axis=(1, 2))
    out = np.zeros(C.keys.rank, dtype=np.complex128)
    np.add.at(out, C.keys.labels()[2], per_key)
    return out


# ---------------------------------------------------------------------------
# the axioms as contractions


def _dualized(t: _LabelTable, **names) -> _LabelTable:
    """The table with the column dual(t.cols[y]) added as x for each x=y
    of ``names``."""
    dual = t.ring.dual
    return _LabelTable(t.ring, {**t.cols, **{x: dual[t.cols[y]] for x, y
                                             in names.items()}}, t.origin)


def _three_summands(ring) -> _LabelTable:
    """The left-nested trees of (A_i, A_j, A_l) at the root A_q through
    (E, e), with the duals I, J, L, Q of i, j, l, q: e in i (x) j with q in
    e (x) l, and E in I (x) J with Q in E (x) L."""
    t = _LabelTable(ring, {"i": np.arange(ring.rank)}).grow(
        "i", "j", "e").grow("e", "l", "q")
    return _dualized(t, I="i", J="j", L="l", Q="q").fuse("I", "J", "E",
                                                         "ELQ")


def _associativity_terms(stores, t, coeff, move):
    """(left, right) of m o (m (x) id) = m o (id (x) m) on A (x) A (x) A ->
    A, with coeff "m" and move "Finv"; of (Delta (x) id) o Delta =
    (id (x) Delta) o Delta, with coeff "delta" and move "F".  A slot is the
    block [alpha, beta] of each factor of the left-nested trees (E, e) of
    the table t; only E = dual(e), a summand A_e of A, carries the left
    side, and the right side sums over the summands A_p of the
    right-nested trees."""
    slots = _slots(t, "IJE", "ije", "ELQ", "elq")
    on = np.flatnonzero(t.cols["E"] == t.ring.dual[t.cols["e"]])
    left = _term(stores, slots, t.rows(on), "AX,BY->AXBY",
                 [(coeff, "ije"), (coeff, "elq")])
    right = _term(stores, slots, _dualized(t.fuse("j", "l", "p", "ipq"),
                                           P="p"),
                  "GH,DK,ABGD,XYHK->AXBY", [(coeff, "jlp"), (coeff, "ipq"),
                                            (move, "IJLQEP"),
                                            (move, "ijlqep")])
    return left, right


def _frobenius_terms(stores):
    """(middle, left, right) of Delta o m = (id (x) m) o (Delta (x) id) =
    (m (x) id) o (id (x) Delta) on A (x) A -> A (x) A.  A slot is the
    block [mu, nu] over the trees of (A_k, A_l) and (A_i, A_j) at a root
    (y, x) of both, a summand of A or not; the two composites sum over the
    middle summand A_s."""
    # x in i (x) j and in k (x) l, found as dual(l) in dual(x) (x) k; y in
    # I (x) J and in K (x) L, capitals the duals
    ring = stores["m"].ring
    t = _dualized(_LabelTable(ring, {"i": np.arange(ring.rank)}).grow(
        "i", "j", "x"), I="i", J="j", X="x").grow("X", "k", "L")
    t = _dualized(t, K="k", l="L").fuse("I", "J", "y", "KLy")
    slots = _slots(t, "KLy", "klx", "IJy", "ijx")
    middle = _term(stores, slots, t.rows(np.flatnonzero(
        t.cols["y"] == t.cols["X"])), "MP,VW->MPVW",
        [("delta", "klx"), ("m", "ijx")])
    # (id (x) m_{sj -> l}) o (Delta_{i -> ks} (x) id), s in K (x) i
    left = _term(stores, slots, _dualized(t.fuse("K", "i", "s", "sjl"),
                                          S="s"),
                 "GH,AB,AVGM,BWHP->MPVW",
                 [("m", "sjl"), ("delta", "ksi"), ("Finv", "KSJyIL"),
                  ("Finv", "ksjxil")])
    # (m_{is -> k} (x) id) o (id (x) Delta_{j -> sl}), s in I (x) k
    right = _term(stores, slots, _dualized(t.fuse("I", "k", "s", "slj"),
                                           S="s"),
                  "AB,AMGV,BPHW,GH->MPVW",
                  [("m", "isk"), ("F", "ISLyKJ"), ("F", "islxkj"),
                   ("delta", "slj")])
    return middle, left, right


def _coproduct_terms(stores):
    """(Delta, right, label) of Delta = (m (x) Phi^-1) o (id_A (x) cup_A)
    on A -> A (x) A.  A slot is the block of the component A_k -> (A_i,
    A_dual(j)), one per fusion vertex (k, j, i); the right side before
    Phi^-1 is m_{kj -> i} on the vacuum column of the F-move of (A_k, A_j,
    A_dual(j)) at A_k, and ``label`` gives per entry the label dual(j)
    whose Phi divides it."""
    ring = stores["m"].ring
    dual = ring.dual
    k, j, i = np.nonzero(ring.N)
    t = _LabelTable(ring, {"k": k, "j": j, "i": i, "I": dual[i],
                           "J": dual[j], "K": dual[k], "o": np.zeros_like(k)})
    slots = _slots(t, "iJk", "iJk")
    delta = _term(stores, slots, t, "BY->BY", [("delta", "iJk")])
    right = _term(stores, slots, t, "AX,ABGD,XYHK->BY",
                  [("m", "kji"), ("F", "KJjKIo"), ("F", "kjJkio")])
    return delta, right, np.repeat(dual[j], t.mult("iJk") ** 2)


@cached("frobenius_terms")
def _axiom_terms(base: CategorySpec) -> dict:
    """The terms of the axioms checked by contraction, by check name."""
    stores, t = _stores(base, 0), _three_summands(base.ring)
    return {"associativity": _associativity_terms(stores, t, "m", "Finv"),
            "coassociativity": _associativity_terms(stores, t, "delta", "F"),
            "frobenius": _frobenius_terms(stores),
            "coproduct_from_pairing": _coproduct_terms(stores)}


def frobenius_report(base: CategorySpec, n_values=(0, 1), tol: float = 1e-8,
                     expect_azumaya: bool = True):
    """Check the algebra axioms and the derived structure for each exponent.

    Every check runs on the channel coefficients of m^(n) and Delta^(n)
    and on the base's F-moves, whose Kronecker products are the square's.

    With ``expect_azumaya=False`` the obstruction check inverts into a
    control: it passes only when the obstruction is actually present.
    """
    n_values = exponents(n_values)
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
    K = _r_keys(ring)
    ci, cj, ck = K.labels()
    sigma = theta[dual]  # theta_dual(i) on the summand A_i
    # where the 1 x 1 blocks of the channels (0, i, i), (i, 0, i) and (i,
    # dual(i), 0) lie in the flat array of every channel table
    unit_left, unit_right, closing = (K.start[K.find(*c)] for c in (
        (vac, labels, labels), (labels, vac, labels), (labels, dual, vac)))
    f, finv, _, cup = _vacuum(base)

    def pairing(m):
        """Phi at each summand A_i: the closed twisted loop of m, sum_s
        m_{s0 -> s} cup_s / F^-1[A_s, A_s^v, A_s; A_s]_00, times m_{i
        dual(i) -> 0} on the vacuum F-move of (A_i, A_dual(i), A_i)."""
        loop = np.sum(m.flat[unit_right] * cup / (finv[dual] * finv))
        return loop * m.flat[closing] * f[dual] * f

    def sides(name, stores):
        """The largest gap between a check's first side and each other."""
        first, *others = (x.value(stores) for x in terms[name])
        return max_dev(*(_gap(x, first) for x in others))

    phi0 = pairing(_m_channels(base, 0))
    xi_want = xi_formula(base)
    for n in n_values:
        stores = _stores(base, n)
        m, de = _m_channels(base, n), _delta_channels(base, n)
        sfx = f"[n={n}]"
        report.add_deviation(f"associativity{sfx}", "algebra-associativity",
                             sides("associativity", stores), tol)
        report.add_deviation(
            f"unit{sfx}", "algebra-unit",
            max_dev(_gap(m.flat[unit_left], 1.0),
                    _gap(m.flat[unit_right], 1.0)), tol)
        report.add_deviation(
            f"coassociativity{sfx}", "coalgebra-coassociativity",
            sides("coassociativity", stores), tol)
        report.add_deviation(
            f"counit{sfx}", "coalgebra-counit",
            max_dev(_gap(dim * de.flat[unit_left], 1.0),
                    _gap(dim * de.flat[unit_right], 1.0)), tol)
        report.add_deviation(f"frobenius{sfx}", "frobenius-compatibility",
                             sides("frobenius", stores), tol)
        # m o Delta on each summand, and eps o eta = Dim times 1
        special = _root_sums(de.apply(lambda _, C: m.stack(C.shape[1]) * C))
        report.add_deviation(
            f"specialness{sfx}", "specialness",
            max_dev(_gap(special, 1.0), abs(dim * 1.0 - dim)), tol)

        # eps o m closed by cup_A, against its closure by the twisted cup
        cap_m = m.flat[closing]
        report.add_deviation(
            f"symmetry{sfx}", "pairing-symmetry",
            _gap(dim * cap_m * f[dual] * f,
                 dim * cap_m[dual] * finv[dual] * finv * cup[dual]), tol)

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
        m1 = _m_channels(base, n + 1)
        xi = _root_sums(de.apply(lambda idx, C: (sigma * sigma)[
            ci[idx], None, None] * m1.stack(C.shape[1]) * C))
        report.add_deviation(f"center_idempotent{sfx}", "center-idempotent",
                             _gap(xi * xi, xi), tol)
        report.add_deviation(f"center_weights{sfx}", "center-weights",
                             _gap(xi, xi_want), tol)

    # m^(n0+1) = sigma m^(n0) (sigma^-1 (x) sigma^-1) and Delta^(n0+1) =
    # (sigma (x) sigma) Delta^(n0) sigma^-1, channel by channel
    n0 = n_values[0]
    twist = (sigma[ck] / (sigma[ci] * sigma[cj]))[:, None, None]
    report.add_deviation(
        "twist_intertwiner", "twist-intertwiner",
        max_dev(_gap(_m_channels(base, n0 + 1).flat,
                     _m_channels(base, n0).apply(
                         lambda idx, C: twist[idx] * C).flat),
                _gap(_delta_channels(base, n0 + 1).flat,
                     _delta_channels(base, n0).apply(
                         lambda idx, C: C / twist[idx]).flat)), tol)

    defect = azumaya_defect(base)
    if expect_azumaya:
        report.add_deviation("azumaya", "azumaya-obstruction", defect, tol)
    else:
        report.add_deviation("azumaya_control", "azumaya-obstruction-control",
                             0.0 if defect > 0.1 else 1.0, 0.5,
                             detail=f"obstruction defect {defect:.3g} "
                                    "present as required")
    return report
