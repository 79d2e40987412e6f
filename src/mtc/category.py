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

Every basis has one order, owned by ``CategorySpec``: ``tree_basis`` lists
the left-nested trees of a word per root, ``split_basis`` the tree pairs of
u (x) v fused to a root, and ``f_basis`` takes the F-rows from the trees of
(a, b, c) and the F-columns from the pairs of (a) (x) (b, c).  Each list
comes with its label -> position map (``tree_positions`` for trees) and is
built once per spec; the split bases are kept by ``engine.split_transform``
with their change of basis.  Every other module looks positions up there.
``f_tensor`` reads the part of an F-block between one row channel e and
one column channel f as an array [alpha, beta, gamma, delta]; the pentagon
and the hexagons are contractions of these arrays.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (CategoryFileError, NotModular, NotPremodular, RingAxiomError,
                     SnapFailure)
from .report import VerificationReport, max_dev


@dataclass(frozen=True)
class ToleranceConfig:
    atol: float = 1e-9
    integer_snap: float = 1e-6

    def __post_init__(self):
        if not (0 < self.atol < self.integer_snap < 1):
            raise ValueError("tolerances must satisfy 0 < atol < integer_snap < 1")


DEFAULT_TOL = ToleranceConfig()


class FusionRing:
    """Fusion multiplicities with a unit and a dual involution."""

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

    def n(self, a, b, c) -> int:
        return int(self.N[a, b, c])

    def channels(self, a, b):
        """The labels c with N[a,b,c] > 0, ascending."""
        return self._channels[a][b]

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
        # associativity: sum_e N_ab^e N_ec^d == sum_f N_bc^f N_af^d
        lhs = np.einsum("abe,ecd->abcd", self.N, self.N)
        rhs = np.einsum("bcf,afd->abcd", self.N, self.N)
        if not np.array_equal(lhs, rhs):
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


def _positions(labels) -> dict:
    """label -> position map of a basis list."""
    return {lab: i for i, lab in enumerate(labels)}


class CategorySpec:
    """Validated-on-demand container for all skeletal data of one category.

    Instances are treated as immutable; engines cache per-instance data on
    the ``_cache`` attribute.
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

    def resolve_label(self, token) -> int:
        """Map a CLI token (index or label name) to a label index."""
        alias = {"τ": "tau", "σ": "sigma", "ψ": "psi", "\U0001d7d9": "1"}
        token = alias.get(str(token), str(token))
        if self.label_names and token in self.label_names:
            return self.label_names.index(token)
        try:
            i = int(token)
        except ValueError:
            raise KeyError(f"unknown label {token!r} for {self.name}") from None
        if not 0 <= i < self.rank:
            raise KeyError(f"label index {i} out of range for {self.name}")
        return i

    # -- bases -----------------------------------------------------------
    def tree_basis(self, word):
        """Left-nested fusion trees of a word, {root: trees}.

        A tree is (labels, mults) with labels the intermediate charges
        (A_2, ..., A_n) and mults the fusion-vertex multiplicities; A_1 = w_1
        and A_0 = 0 are implicit.  Trees with a common root are sorted
        lexicographically by (labels, mults).
        """
        cache = self._cache.setdefault("trees", {})
        hit = cache.get(word)
        if hit is not None:
            return hit
        ring = self.ring
        if not word:
            hit = {0: [((), ())]}
        else:
            partial = [((), (), word[0])]
            for letter in word[1:]:
                nxt = []
                for labels, mults, a in partial:
                    for c in ring.channels(a, letter):
                        for alpha in range(ring.n(a, letter, c)):
                            nxt.append((labels + (c,), mults + (alpha,), c))
                partial = nxt
            hit = {}
            for labels, mults, root in partial:
                hit.setdefault(root, []).append((labels, mults))
            for root in hit:
                hit[root].sort()
        cache[word] = hit
        return hit

    def tree_positions(self, word):
        """{root: {tree: position}} for the trees of the word."""
        cache = self._cache.setdefault("tree_pos", {})
        hit = cache.get(word)
        if hit is None:
            hit = cache[word] = {root: _positions(ts) for root, ts
                                 in self.tree_basis(word).items()}
        return hit

    def split_basis(self, u, v, c):
        """Basis of Hom(u (x) v, c) split at the cut: (columns, positions).

        Column (a, si, b, ti, mu) is f^{ab->c}_mu o (tree si of u at root a
        (x) tree ti of v at root b).  ``engine.split_transform`` stores it
        with its change of basis, so it is not cached here.
        """
        tu = self.tree_basis(u)
        tv = self.tree_basis(v)
        N = self.ring.N
        cols = [(a, si, b, ti, mu)
                for a in sorted(tu) for si in range(len(tu[a]))
                for b in sorted(tv) for ti in range(len(tv[b]))
                for mu in range(N[a, b, c])]
        return cols, _positions(cols)

    def f_basis(self, a, b, c, d):
        """(rows, row positions, columns, column positions) of F[a,b,c,d].

        Row (e, alpha, beta) is the tree ((e, d), (alpha, beta)) of (a, b, c);
        column (f, gamma, delta) the split pair (a, 0, f, gamma, delta) of
        (a) (x) (b, c), as tree gamma of (b, c) at root f is ((f,), (gamma,)).
        """
        cache = self._cache.setdefault("f_basis", {})
        key = (a, b, c, d)
        hit = cache.get(key)
        if hit is None:
            rows = [(L[0], M[0], M[1])
                    for L, M in self.tree_basis((a, b, c)).get(d, ())]
            cols = [(f, gamma, delta) for _, _, f, gamma, delta
                    in self.split_basis((a,), (b, c), d)[0]]
            hit = cache[key] = (rows, _positions(rows), cols,
                                _positions(cols))
        return hit

    # -- F/R lookup --------------------------------------------------------
    def f_rows(self, a, b, c, d):
        """Canonical (e, alpha, beta) row labels of F[a,b,c,d]."""
        return self.f_basis(a, b, c, d)[0]

    def f_cols(self, a, b, c, d):
        """Canonical (f, gamma, delta) column labels of F[a,b,c,d]."""
        return self.f_basis(a, b, c, d)[2]

    def f_block(self, a, b, c, d) -> np.ndarray:
        rows, _, cols, _ = self.f_basis(a, b, c, d)
        if not rows or not cols:
            return np.zeros((len(rows), len(cols)), dtype=np.complex128)
        if 0 in (a, b, c):
            # unit strand: both nestings coincide up to the canonical
            # relabelling, which is a bijection of basis vectors
            if len(rows) != len(cols):
                raise NotPremodular(f"unit F-block ({a},{b},{c};{d}) not square")
            return np.eye(len(rows), dtype=np.complex128)
        key = (a, b, c, d)
        if key not in self.F:
            raise NotPremodular(f"missing F-symbols for {key}")
        blk = self.F[key]
        if blk.shape != (len(rows), len(cols)):
            raise NotPremodular(f"F-block {key} has shape {blk.shape}, "
                                f"expected {(len(rows), len(cols))}")
        return blk

    def f_tensor(self, a, b, c, d, e, f) -> np.ndarray:
        """Block of F[a,b,c,d] from row channel e to column channel f,
        indexed [alpha, beta, gamma, delta] as the labels of ``f_basis``."""
        cache = self._cache.setdefault("f_tensor", {})
        key = (a, b, c, d, e, f)
        hit = cache.get(key)
        if hit is None:
            N = self.ring.N
            _, row_pos, _, col_pos = self.f_basis(a, b, c, d)
            shape = (N[a, b, e], N[e, c, d], N[b, c, f], N[a, f, d])
            # the rows of one channel e are contiguous, and so are the
            # columns of one f; an empty block may start anywhere
            i = row_pos.get((e, 0, 0), 0)
            j = col_pos.get((f, 0, 0), 0)
            hit = cache[key] = self.f_block(a, b, c, d)[
                i:i + shape[0] * shape[1],
                j:j + shape[2] * shape[3]].reshape(shape)
        return hit

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


def _pentagon_deviation(spec: CategorySpec) -> float:
    """Max deviation of the pentagon identity over all admissible labels.

    With T = ``f_tensor`` indexed [alpha, beta, gamma, delta], the 2-move
    and the 3-move path between the left- and right-nested trees of
    (a, b, c, d) at e agree for every f, g (left) and l, k (right):

      sum_delta T(f,c,d,e,g,l)[bt,gm,nu,delta] T(a,b,l,e,f,k)[al,delta,lm,mu]
        = sum_{h,sg,ps,rh} T(a,b,c,g,f,h)[al,bt,sg,ps]
                           T(a,h,d,e,g,k)[ps,gm,rh,mu]
                           T(b,c,d,k,h,l)[sg,rh,nu,lm]
    """
    ring = spec.ring
    N = ring.N
    T = spec.f_tensor
    worst = 0.0
    for a, b, c, d in itertools.product(range(spec.rank), repeat=4):
        for f in ring.channels(a, b):
            for g in ring.channels(f, c):
                for e in ring.channels(g, d):
                    for l in ring.channels(c, d):
                        for k in ring.channels(b, l):
                            if not N[a, k, e]:
                                continue
                            lhs = np.einsum("BGND,ADLM->ABGNLM",
                                            T(f, c, d, e, g, l),
                                            T(a, b, l, e, f, k))
                            rhs = sum(np.einsum("ABSP,PGRM,SRNL->ABGNLM",
                                                T(a, b, c, g, f, h),
                                                T(a, h, d, e, g, k),
                                                T(b, c, d, k, h, l))
                                      for h in ring.channels(b, c)
                                      if N[a, h, g] and N[h, d, k])
                            worst = max_dev(worst, float(np.max(
                                np.abs(lhs - rhs))))
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
    ring = spec.ring
    N = ring.N
    T = spec.f_tensor
    actions = {}

    def R(x, y, z):
        """The braiding c_{x,y}, or its inverse, on channel z."""
        if (x, y, z) not in actions:
            actions[x, y, z] = np.linalg.inv(spec.r_block(y, x, z)) \
                if inverse else spec.r_block(x, y, z)
        return actions[x, y, z]

    worst = 0.0
    for a, b, c in itertools.product(range(spec.rank), repeat=3):
        for e in ring.channels(a, c):
            for d in ring.channels(e, b):
                for g in ring.channels(c, b):
                    if not N[a, g, d]:
                        continue
                    lhs = np.einsum("Xa,aBgD,Yg->XBYD", R(c, a, e),
                                    T(a, c, b, d, e, g), R(c, b, g))
                    rhs = sum(np.einsum("XBmF,EF,mEYD->XBYD",
                                        T(c, a, b, d, e, f), R(c, f, d),
                                        T(a, b, c, d, f, g))
                              for f in ring.channels(a, b) if N[c, f, d])
                    worst = max_dev(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


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
    try:
        dev_f = 0.0
        for a in range(spec.rank):
            for b in range(spec.rank):
                for c in range(spec.rank):
                    for d in ring.word_dims((a, b, c)).nonzero()[0]:
                        blk = spec.f_block(a, b, c, int(d))
                        if blk.shape[0] != blk.shape[1]:
                            raise NotPremodular(
                                f"F-block ({a},{b},{c};{d}) is not square")
                        if not np.isfinite(blk).all():
                            raise NotPremodular(
                                f"F-block ({a},{b},{c};{d}) is not finite")
                        if blk.size:
                            s = np.linalg.svd(blk, compute_uv=False)
                            if s[-1] < tol.atol:
                                raise NotPremodular(
                                    f"F-block ({a},{b},{c};{d}) is singular")
        rep.add_deviation("f_completeness", "F-symbols present and invertible",
                          dev_f, tol.atol)
    except NotPremodular as exc:
        rep.add_deviation("f_completeness", "F-symbols present and invertible",
                          1.0, tol.atol, detail=str(exc))
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
        rows = spec.f_rows(a, b, c, d)
        cols = spec.f_cols(a, b, c, d)
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


def _finite(values) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x)
               for x in values)


def _symbol_entries(data, section, layout, key_len, rank, origin):
    """(location, integer labels, value) of each [labels..., re, im] entry
    of the F or R section; the first key_len labels, the block key, must be
    simples."""
    seen = set()
    width = len(layout.split(","))
    for idx, entry in enumerate(data.get(section, [])):
        loc = f"{origin}:{section}[{idx}]"
        _require(isinstance(entry, list) and len(entry) == width + 2,
                 f"{section} entries are [{layout},re,im]", loc)
        labels = tuple(entry[:width])
        _require(all(isinstance(x, int) for x in labels),
                 f"{section} labels and multiplicity indices must be integers",
                 loc)
        _require(all(0 <= x < rank for x in labels[:key_len]),
                 f"{section} label out of range", loc)
        _require(_finite(entry[width:]), f"{section}-symbol must be finite",
                 loc)
        _require(labels not in seen, f"duplicate {section} entry", loc)
        seen.add(labels)
        yield loc, labels, complex(entry[width], entry[width + 1])


def spec_from_dict(data: dict, origin="<dict>") -> CategorySpec:
    for field in ("name", "rank", "dual", "fusion", "theta"):
        _require(field in data, f"missing required section {field!r}", origin)
    rank = data["rank"]
    _require(isinstance(rank, int) and rank >= 1, "rank must be a positive integer",
             f"{origin}:rank")
    dual = data["dual"]
    _require(isinstance(dual, list) and len(dual) == rank
             and all(isinstance(x, int) for x in dual),
             "dual must list one integer image per label", f"{origin}:dual")
    N = np.zeros((rank, rank, rank), dtype=np.int64)
    for idx, entry in enumerate(data["fusion"]):
        loc = f"{origin}:fusion[{idx}]"
        _require(isinstance(entry, list) and len(entry) == 4,
                 "fusion entries are [i, j, k, mult]", loc)
        i, j, k, m = entry
        _require(all(isinstance(x, int) for x in entry), "fusion entry not integral",
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

    theta_raw = data["theta"]
    _require(len(theta_raw) == rank, "theta must list one twist per label",
             f"{origin}:theta")
    theta = []
    for idx, pair in enumerate(theta_raw):
        loc = f"{origin}:theta[{idx}]"
        _require(isinstance(pair, list) and len(pair) == 2,
                 "twists are [re, im] pairs", loc)
        _require(_finite(pair), "twist must be finite", loc)
        theta.append(complex(pair[0], pair[1]))

    dims = data.get("dims")
    if dims is not None:
        _require(isinstance(dims, list) and len(dims) == rank
                 and _finite(dims), "dims must list one finite value per label",
                 f"{origin}:dims")
        dims = np.asarray(dims, dtype=np.float64)

    # the bases depend on the fusion ring alone
    shell = CategorySpec(data["name"], ring, np.ones(rank), theta, {}, {})
    F_blocks = {}
    for loc, labels, z in _symbol_entries(
            data, "F", "a,b,c,d,e,alpha,beta,f,gamma,delta", 4, rank, origin):
        a, b, c, d, e, al, bt, f, gm, dl = labels
        rows, row_pos, cols, col_pos = shell.f_basis(a, b, c, d)
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
            _, row_pos, _, col_pos = shell.f_basis(a, abar, a, a)
            blk = F_blocks.get((a, abar, a, a))
            entry = 0.0 if blk is None else \
                blk[row_pos[(0, 0, 0)], col_pos[(0, 0, 0)]]
            _require(abs(entry) > 0, f"cannot derive dim of label {a} from F-data",
                     origin)
            dims[a] = dim = 1.0 / float(abs(entry))
            _require(math.isfinite(dim), f"derived dim of label {a} is not finite",
                     origin)

    return CategorySpec(data["name"], ring, dims, theta, F_blocks, R_blocks,
                        product_of=tuple(data["product_of"])
                        if "product_of" in data else None)


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
