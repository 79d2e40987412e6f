"""The canonical Frobenius algebra on the product of a category with itself.

The algebra object is A = (+)_i (dual(i), i), a direct sum of simple labels
of the product category.  Morphisms between direct sums of words are kept
as sparse component dictionaries; each component is an ordinary word
morphism of the product category.

The multiplication family m^(n) is built one component (i, j) -> k at a
time: the first tensor factor is a cup/cap diagram in the base category
carrying the monodromy power n, the second factor is the fusion basis
vector, and the two are paired into the product category.  The
comultiplication is the vertical flip with inverse braidings and twisted
duality morphisms, weighted by d_i d_j / (Dim d_k).
"""

from __future__ import annotations

import numpy as np

from .category import CategorySpec
from .deligne import deligne_power, pair_morphism
from .engine import (Morphism, braid_generator, cap, cap_twisted, cup,
                     cup_twisted, double_braiding, embed, identity, tensor,
                     trees)
from .errors import ShapeMismatch, XiNotZeroOne
from .report import max_dev

# Selected against the scalar route for the left-center weights on every
# built-in category and exponent.  Candidates with a single braiding
# (m o c o Delta and the closed bubble forms) evaluate to pure R-matrix
# phases per channel and are kept only as controls; the channel weight
# theta_a theta_p / theta_q demanded by the scalar route is the monodromy
# theta_a/(theta_p theta_q) times the double twist of the first leg, which
# the sigma-dressed composite m^(n+1) o (sigma^2 (x) id) o Delta^(n)
# produces exactly.
LEFT_PROJECTOR_VARIANT = "sigma"


class SumMorphism:
    """Morphism between direct sums of words, as a sparse component matrix."""

    __slots__ = ("spec", "src", "dst", "comps")

    def __init__(self, spec, src, dst, comps):
        self.spec = spec
        self.src = tuple(tuple(w) for w in src)
        self.dst = tuple(tuple(w) for w in dst)
        self.comps = {}
        for (di, si), mor in comps.items():
            if mor.src != self.src[si] or mor.dst != self.dst[di]:
                raise ShapeMismatch(
                    f"component ({di},{si}) has words {mor.src}->{mor.dst}, "
                    f"expected {self.src[si]}->{self.dst[di]}")
            self.comps[(di, si)] = mor

    def __matmul__(self, other: "SumMorphism") -> "SumMorphism":
        if other.dst != self.src:
            raise ShapeMismatch("cannot compose sum morphisms")
        comps = {}
        for (dk, j1), g in self.comps.items():
            for (j2, si), f in other.comps.items():
                if j1 != j2:
                    continue
                term = g @ f
                key = (dk, si)
                comps[key] = comps[key] + term if key in comps else term
        return SumMorphism(self.spec, other.src, self.dst, comps)

    def __add__(self, other):
        if self.src != other.src or self.dst != other.dst:
            raise ShapeMismatch("sum of incompatible sum morphisms")
        comps = dict(self.comps)
        for key, mor in other.comps.items():
            comps[key] = comps[key] + mor if key in comps else mor
        return SumMorphism(self.spec, self.src, self.dst, comps)

    def __mul__(self, scalar):
        return SumMorphism(self.spec, self.src, self.dst,
                           {k: m * scalar for k, m in self.comps.items()})

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + other * (-1.0)

    def deviation(self, other: "SumMorphism") -> float:
        if self.src != other.src or self.dst != other.dst:
            raise ShapeMismatch("comparing incompatible sum morphisms")
        dev = 0.0
        for key in set(self.comps) | set(other.comps):
            a = self.comps.get(key)
            b = other.comps.get(key)
            if a is None:
                dev = max_dev(dev, b.max_abs())
            elif b is None:
                dev = max_dev(dev, a.max_abs())
            else:
                dev = max_dev(dev, a.deviation(b))
        return dev

    def max_abs(self) -> float:
        return max_dev(*(m.max_abs() for m in self.comps.values()))

    def inverse(self) -> "SumMorphism":
        """Inverse of a sum morphism whose nonzero component pattern is a
        bijection of summands."""
        live = {key: m for key, m in self.comps.items() if m.max_abs() > 0}
        seen_src = {}
        for (di, si) in live:
            if si in seen_src:
                raise ShapeMismatch("component pattern is not a bijection")
            seen_src[si] = di
        if len(seen_src) != len(self.src) or len(self.src) != len(self.dst):
            raise ShapeMismatch("component pattern is not a bijection")
        comps = {(si, di): m.inverse() for (di, si), m in live.items()}
        return SumMorphism(self.spec, self.dst, self.src, comps)

    def __repr__(self):
        return f"SumMorphism({len(self.src)} -> {len(self.dst)} summands)"


def sum_identity(spec, words) -> SumMorphism:
    words = tuple(tuple(w) for w in words)
    return SumMorphism(spec, words, words,
                       {(i, i): identity(spec, w) for i, w in enumerate(words)})


def sum_tensor(f: SumMorphism, g: SumMorphism) -> SumMorphism:
    src = tuple(a + b for a in f.src for b in g.src)
    dst = tuple(a + b for a in f.dst for b in g.dst)
    comps = {}
    for (df, sf), F in f.comps.items():
        for (dg, sg), G in g.comps.items():
            comps[(df * len(g.dst) + dg, sf * len(g.src) + sg)] = tensor(F, G)
    return SumMorphism(f.spec, src, dst, comps)


def fusion_basis(spec: CategorySpec, i, j, k, alpha) -> Morphism:
    """The alpha-th basis vector of Hom(i (x) j, k)."""
    nt = len(trees(spec, (i, j)).get(k, []))
    row = np.zeros((1, nt), dtype=np.complex128)
    row[0, alpha] = 1.0
    return Morphism(spec, (i, j), (k,), {k: row})


def fusion_cobasis(spec: CategorySpec, i, j, k, alpha) -> Morphism:
    """The dual basis vector of Hom(k, i (x) j)."""
    nt = len(trees(spec, (i, j)).get(k, []))
    col = np.zeros((nt, 1), dtype=np.complex128)
    col[alpha, 0] = 1.0
    return Morphism(spec, (k,), (i, j), {k: col})


class PermutationAlgebra:
    """A = (+)_i (dual(i), i) with its multiplication family inside the
    square of the base category."""

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
        self.unit_words = ((),)
        self._cache = {}

    # -- structure morphisms -----------------------------------------------

    def identity(self) -> SumMorphism:
        return sum_identity(self.prod, self.words)

    def identity_dual(self) -> SumMorphism:
        return sum_identity(self.prod, self.dual_words)

    def unit(self) -> SumMorphism:
        mor = Morphism(self.prod, (), (0,), {0: np.array([[1.0]])})
        return SumMorphism(self.prod, self.unit_words, self.words,
                           {(0, 0): mor})

    def counit(self) -> SumMorphism:
        mor = Morphism(self.prod, (0,), (), {0: np.array([[self.dim]])})
        return SumMorphism(self.prod, self.words, self.unit_words,
                           {(0, 0): mor})

    def _m_first(self, i, j, k, alpha, n) -> Morphism:
        """(dual(i), dual(j)) -> (dual(k)) in the base category."""
        base = self.base
        dual = base.dual
        ib, jb, kb = int(dual[i]), int(dual[j]), int(dual[k])
        s1 = embed(base, fusion_cobasis(base, i, j, k, alpha), left=(ib, jb))
        s2 = embed(base, double_braiding(base, (ib, jb), 1, n), right=(i, j))
        s3 = embed(base, braid_generator(base, (jb, i), 1, True),
                   left=(ib,), right=(j,))
        s4 = tensor(cap(base, i), cap(base, j))
        bracket = s4 @ s3 @ s2 @ s1
        return embed(base, bracket, right=(kb,)) \
            @ embed(base, cup(base, k), left=(ib, jb))

    def _delta_first(self, i, j, k, alpha, n) -> Morphism:
        """(dual(k)) -> (dual(i), dual(j)), the vertical flip of _m_first."""
        base = self.base
        dual = base.dual
        ib, jb, kb = int(dual[i]), int(dual[j]), int(dual[k])
        s1 = tensor(cup_twisted(base, i), cup_twisted(base, j))
        s2 = embed(base, braid_generator(base, (i, jb), 1, False),
                   left=(ib,), right=(j,))
        s3 = embed(base, double_braiding(base, (ib, jb), 1, -n), right=(i, j))
        s4 = embed(base, fusion_basis(base, i, j, k, alpha), left=(ib, jb))
        bracket = s4 @ s3 @ s2 @ s1
        return embed(base, cap_twisted(base, k), left=(ib, jb)) \
            @ embed(base, bracket, right=(kb,))

    def multiplication(self, n: int = 0, phases=None) -> SumMorphism:
        """m^(n) : A (x) A -> A.

        ``phases`` optionally rescales the fusion basis, f_alpha ->
        phases(i,j,k,alpha) f_alpha; the result must not depend on it.
        """
        key = ("m", n)
        if phases is None and key in self._cache:
            return self._cache[key]
        base = self.base
        r = self.rank
        src = tuple(a + b for a in self.words for b in self.words)
        comps = {}
        for i in range(r):
            for j in range(r):
                for k in base.ring.channels(i, j):
                    acc = None
                    for alpha in range(base.ring.n(i, j, k)):
                        first = self._m_first(i, j, k, alpha, n)
                        second = fusion_basis(base, i, j, k, alpha)
                        if phases is not None:
                            lam = phases(i, j, k, alpha)
                            first = first * (1.0 / lam)
                            second = second * lam
                        term = pair_morphism(self.prod, first, second)
                        acc = term if acc is None else acc + term
                    comps[(k, i * r + j)] = acc
        out = SumMorphism(self.prod, src, self.words, comps)
        if phases is None:
            self._cache[key] = out
        return out

    def comultiplication(self, n: int = 0, phases=None) -> SumMorphism:
        """Delta^(n) : A -> A (x) A with components weighted by
        d_i d_j / (Dim d_k)."""
        key = ("delta", n)
        if phases is None and key in self._cache:
            return self._cache[key]
        base = self.base
        r = self.rank
        dst = tuple(a + b for a in self.words for b in self.words)
        comps = {}
        for i in range(r):
            for j in range(r):
                for k in base.ring.channels(i, j):
                    weight = base.dims[i] * base.dims[j] / (self.dim
                                                            * base.dims[k])
                    acc = None
                    for alpha in range(base.ring.n(i, j, k)):
                        first = self._delta_first(i, j, k, alpha, n)
                        second = fusion_cobasis(base, i, j, k, alpha)
                        if phases is not None:
                            lam = phases(i, j, k, alpha)
                            first = first * lam
                            second = second * (1.0 / lam)
                        term = pair_morphism(self.prod, first, second)
                        acc = term if acc is None else acc + term
                    comps[(i * r + j, k)] = acc * weight
        out = SumMorphism(self.prod, self.words, dst, comps)
        if phases is None:
            self._cache[key] = out
        return out

    # -- duality and pairing -------------------------------------------------

    def cup_A(self) -> SumMorphism:
        """1 -> A (x) A^v, componentwise coevaluation."""
        dst = tuple(a + b for a in self.words for b in self.dual_words)
        r = self.rank
        comps = {(i * r + i, 0): cup(self.prod, self.labels[i])
                 for i in range(r)}
        return SumMorphism(self.prod, self.unit_words, dst, comps)

    def cup_A_twisted(self) -> SumMorphism:
        """1 -> A^v (x) A."""
        dst = tuple(a + b for a in self.dual_words for b in self.words)
        r = self.rank
        comps = {(i * r + i, 0): cup_twisted(self.prod, self.labels[i])
                 for i in range(r)}
        return SumMorphism(self.prod, self.unit_words, dst, comps)

    def cap_A(self) -> SumMorphism:
        """A^v (x) A -> 1."""
        src = tuple(a + b for a in self.dual_words for b in self.words)
        r = self.rank
        comps = {(0, i * r + i): cap(self.prod, self.labels[i])
                 for i in range(r)}
        return SumMorphism(self.prod, src, self.unit_words, comps)

    def pairing_iso(self, n: int = 0) -> SumMorphism:
        """Phi^(n) : A -> A^v built from two multiplications and the duality:

          (d_A (x) id) o (id (x) m (x) id) o (bt_A (x) m (x) id) o (id_A (x) b_A)
        """
        key = ("phi", n)
        if key in self._cache:
            return self._cache[key]
        m = self.multiplication(n)
        idA = self.identity()
        idAv = self.identity_dual()
        layer1 = sum_tensor(idA, self.cup_A())
        layer2 = sum_tensor(sum_tensor(self.cup_A_twisted(), m), idAv)
        layer3 = sum_tensor(sum_tensor(idAv, m), idAv)
        layer4 = sum_tensor(self.cap_A(), idAv)
        out = layer4 @ layer3 @ layer2 @ layer1
        self._cache[key] = out
        return out

    def pairing_scalars(self, n: int = 0) -> np.ndarray:
        """The diagonal scalar of Phi^(n) on each summand."""
        phi = self.pairing_iso(n)
        r = self.rank
        out = np.zeros(r, dtype=np.complex128)
        dual = self.base.dual
        for i in range(r):
            q = int(dual[i])
            comp = phi.comps.get((q, i))
            if comp is None:
                continue
            out[i] = comp.blocks[self.labels[i]][0, 0]
        return out

    def sigma(self) -> SumMorphism:
        """The diagonal twist sigma = (+)_i theta_{dual(i)} id."""
        theta = self.base.theta
        dual = self.base.dual
        comps = {(i, i): identity(self.prod, self.words[i])
                 * complex(theta[int(dual[i])]) for i in range(self.rank)}
        return SumMorphism(self.prod, self.words, self.words, comps)

    def braiding(self, over: bool = True) -> SumMorphism:
        """c_{A,A} (or its inverse) componentwise."""
        r = self.rank
        src = tuple(a + b for a in self.words for b in self.words)
        dst = src
        comps = {}
        for i in range(r):
            for j in range(r):
                comps[(j * r + i, i * r + j)] = braid_generator(
                    self.prod, (self.labels[i], self.labels[j]), 1, over)
        return SumMorphism(self.prod, src, dst, comps)

    # -- left center ----------------------------------------------------------

    def _left_projector_candidate(self, variant: str, n: int = 0
                                  ) -> SumMorphism:
        if variant == "sigma":
            sig2 = self.sigma() @ self.sigma()
            return self.multiplication(n + 1) \
                @ sum_tensor(sig2, self.identity()) \
                @ self.comultiplication(n)
        if variant == "braid_over":
            return self.multiplication(n) @ self.braiding(True) \
                @ self.comultiplication(n)
        if variant == "braid_under":
            return self.multiplication(n) @ self.braiding(False) \
                @ self.comultiplication(n)
        raise ValueError(f"unknown variant {variant!r}")

    def left_center_idempotent(self, n: int = 0) -> SumMorphism:
        """The idempotent cutting out the left center; its diagonal weights
        are the xi vector."""
        key = ("proj", n)
        if key in self._cache:
            return self._cache[key]
        out = self._left_projector_candidate(LEFT_PROJECTOR_VARIANT, n)
        self._cache[key] = out
        return out

    def xi(self, n: int = 0, atol: float = 1e-9) -> np.ndarray:
        """Diagonal weights of the left-center idempotent."""
        proj = self.left_center_idempotent(n)
        r = self.rank
        out = np.zeros(r, dtype=np.complex128)
        for (di, si), comp in proj.comps.items():
            if di != si and comp.max_abs() > atol:
                raise XiNotZeroOne(
                    f"left-center projector has off-diagonal component "
                    f"({di},{si})")
            if di == si:
                blk = comp.blocks[self.labels[di]]
                out[di] = blk[0, 0]
        return out


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


def frobenius_report(base: CategorySpec, n_values=(0, 1), tol: float = 1e-8,
                     prod: CategorySpec | None = None,
                     expect_azumaya: bool = True):
    """Check the algebra axioms and the derived structure for each exponent.

    With ``expect_azumaya=False`` the obstruction check inverts into a
    control: it passes only when the obstruction is actually present.
    """
    from .engine import trace_formula
    from .report import VerificationReport

    report = VerificationReport(target=base.name,
                                options={"n_values": list(n_values),
                                         "tolerance": tol})
    alg = PermutationAlgebra(base, prod)
    idA = alg.identity()
    idAv = alg.identity_dual()
    eta = alg.unit()
    eps = alg.counit()

    qdim = sum(trace_formula(identity(alg.prod, w)) for w in alg.words)
    report.add_deviation("algebra_dimension", "quantum-dimension",
                         abs(qdim - alg.dim), tol)

    for n in n_values:
        m = alg.multiplication(n)
        de = alg.comultiplication(n)
        sfx = f"[n={n}]"
        report.add_deviation(
            f"associativity{sfx}", "algebra-associativity",
            (m @ sum_tensor(m, idA)).deviation(m @ sum_tensor(idA, m)), tol)
        report.add_deviation(
            f"unit{sfx}", "algebra-unit",
            max_dev((m @ sum_tensor(eta, idA)).deviation(idA),
                    (m @ sum_tensor(idA, eta)).deviation(idA)), tol)
        report.add_deviation(
            f"coassociativity{sfx}", "coalgebra-coassociativity",
            (sum_tensor(de, idA) @ de).deviation(sum_tensor(idA, de) @ de),
            tol)
        report.add_deviation(
            f"counit{sfx}", "coalgebra-counit",
            max_dev((sum_tensor(eps, idA) @ de).deviation(idA),
                    (sum_tensor(idA, eps) @ de).deviation(idA)), tol)
        f_mid = de @ m
        report.add_deviation(
            f"frobenius{sfx}", "frobenius-compatibility",
            max_dev(
                (sum_tensor(idA, m) @ sum_tensor(de, idA)).deviation(f_mid),
                (sum_tensor(m, idA) @ sum_tensor(idA, de)).deviation(f_mid)),
            tol)
        eps_eta = (eps @ eta).comps[(0, 0)].blocks[0][0, 0]
        report.add_deviation(
            f"specialness{sfx}", "specialness",
            max_dev((m @ de).deviation(idA), abs(eps_eta - alg.dim)), tol)

        em = eps @ m
        p1 = sum_tensor(em, idAv) @ sum_tensor(idA, alg.cup_A())
        p2 = sum_tensor(idAv, em) @ sum_tensor(alg.cup_A_twisted(), idA)
        report.add_deviation(f"symmetry{sfx}", "pairing-symmetry",
                             p1.deviation(p2), tol)

        phi = alg.pairing_scalars(n)
        report.add_deviation(
            f"pairing_modulus{sfx}", "pairing-closed-form",
            float(np.max(np.abs(np.abs(phi) * base.dims / alg.dim - 1.0))),
            tol)
        if n != 0:
            ratio = phi / alg.pairing_scalars(0)
            want = base.theta.astype(np.complex128) ** (-2 * n)
            report.add_deviation(
                f"pairing_twist_ratio{sfx}", "pairing-twist-ratio",
                float(np.max(np.abs(ratio - want))), tol)
        de_from_phi = sum_tensor(m, alg.pairing_iso(n).inverse()) \
            @ sum_tensor(idA, alg.cup_A())
        report.add_deviation(f"coproduct_from_pairing{sfx}",
                             "coproduct-from-pairing",
                             de.deviation(de_from_phi), tol)

        proj = alg.left_center_idempotent(n)
        report.add_deviation(f"center_idempotent{sfx}", "center-idempotent",
                             (proj @ proj).deviation(proj), tol)
        report.add_deviation(
            f"center_weights{sfx}", "center-weights",
            float(np.max(np.abs(alg.xi(n) - xi_formula(base)))), tol)

    sig = alg.sigma()
    sig_inv = sig.inverse()
    n0 = n_values[0]
    report.add_deviation(
        "twist_intertwiner", "twist-intertwiner",
        max_dev(alg.multiplication(n0 + 1).deviation(
                    sig @ alg.multiplication(n0)
                    @ sum_tensor(sig_inv, sig_inv)),
                alg.comultiplication(n0 + 1).deviation(
                    sum_tensor(sig, sig) @ alg.comultiplication(n0)
                    @ sig_inv)),
        tol)

    defect = azumaya_defect(base)
    if expect_azumaya:
        report.add_deviation("azumaya", "azumaya-obstruction", defect, tol)
    else:
        report.add_deviation("azumaya_control", "azumaya-obstruction-control",
                             0.0 if defect > 0.1 else 1.0, 0.5,
                             detail=f"obstruction defect {defect:.3g} "
                                    "present as required")
    return report
