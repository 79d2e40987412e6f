"""The canonical Frobenius algebra on the product of a category with itself.

The algebra object is A = (+)_i (dual(i), i), a direct sum of simple labels
of the product category.  Its structure maps are engine morphisms between
direct sums of words, built by ``engine.direct_sum`` from word components,
so all their algebra is the engine's per-root block algebra.

The multiplication family m^(n) is built one component (i, j) -> k at a
time: the first tensor factor is a cup/cap diagram in the base category
carrying the monodromy power n, the second factor is the fusion basis
vector, and the two are paired into the product category.  The
comultiplication is the vertical flip with inverse braidings and twisted
duality morphisms, weighted by d_i d_j / (Dim d_k).
"""

from __future__ import annotations

import itertools

import numpy as np

from .category import CategorySpec, cached
from .deligne import deligne_power, pair_morphism
from .engine import (Morphism, braid_generator, cap, cap_twisted, cup,
                     cup_twisted, direct_sum, double_braiding, embed,
                     identity, tensor, trace_formula, trees)
from .errors import ShapeMismatch, XiNotZeroOne
from .report import VerificationReport, max_dev


def sum_tensor(f: Morphism, g: Morphism) -> Morphism:
    """``engine.tensor``, under a name of its own so that the per-layer
    tracer of ``perfbench`` counts the tensors of the Frobenius checks."""
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

    def _m_first(self, i, j, k, alpha, n) -> Morphism:
        """(dual(i), dual(j)) -> (dual(k)) in the base category."""
        base = self.base
        dual = base.dual
        ib, jb, kb = int(dual[i]), int(dual[j]), int(dual[k])
        s1 = embed(fusion_cobasis(base, i, j, k, alpha), left=(ib, jb))
        s2 = embed(double_braiding(base, (ib, jb), 1, n), right=(i, j))
        s3 = embed(braid_generator(base, (jb, i), 1, True),
                   left=(ib,), right=(j,))
        s4 = tensor(cap(base, i), cap(base, j))
        bracket = s4 @ s3 @ s2 @ s1
        return embed(bracket, right=(kb,)) \
            @ embed(cup(base, k), left=(ib, jb))

    def _delta_first(self, i, j, k, alpha, n) -> Morphism:
        """(dual(k)) -> (dual(i), dual(j)), the vertical flip of _m_first."""
        base = self.base
        dual = base.dual
        ib, jb, kb = int(dual[i]), int(dual[j]), int(dual[k])
        s1 = tensor(cup_twisted(base, i), cup_twisted(base, j))
        s2 = embed(braid_generator(base, (i, jb), 1, False),
                   left=(ib,), right=(j,))
        s3 = embed(double_braiding(base, (ib, jb), 1, -n), right=(i, j))
        s4 = embed(fusion_basis(base, i, j, k, alpha), left=(ib, jb))
        bracket = s4 @ s3 @ s2 @ s1
        return embed(cap_twisted(base, k), left=(ib, jb)) \
            @ embed(bracket, right=(kb,))

    def _channel_sums(self, first, second, n) -> dict:
        """{(i, j, k): the sum over alpha of pair_morphism(first(i, j, k,
        alpha, n), second(base, i, j, k, alpha))} over every channel k of
        i (x) j."""
        base = self.base
        out = {}
        for i, j in itertools.product(range(self.rank), repeat=2):
            for k in base.ring.channels(i, j):
                terms = [pair_morphism(self.prod, first(i, j, k, alpha, n),
                                       second(base, i, j, k, alpha))
                         for alpha in range(base.ring.n(i, j, k))]
                out[i, j, k] = sum(terms[1:], terms[0])
        return out

    @cached("m")
    def multiplication(self, n: int = 0) -> Morphism:
        """m^(n) : A (x) A -> A."""
        r = self.rank
        comps = {(k, i * r + j): m for (i, j, k), m in self._channel_sums(
            self._m_first, fusion_basis, n).items()}
        return direct_sum(self.prod, self.pairs, self.words, comps)

    @cached("delta")
    def comultiplication(self, n: int = 0) -> Morphism:
        """Delta^(n) : A -> A (x) A with components weighted by
        d_i d_j / (Dim d_k)."""
        d = self.base.dims
        r = self.rank
        comps = {(i * r + j, k): m * (d[i] * d[j] / (self.dim * d[k]))
                 for (i, j, k), m in self._channel_sums(
                     self._delta_first, fusion_cobasis, n).items()}
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
        phi = self.pairing_iso(n)
        return np.array([phi.blocks[x][0, 0] for x in self.labels])

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
        proj = self.left_center_idempotent(n)
        return np.array([proj.blocks[x][0, 0] for x in self.labels])


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
        eps_eta = (eps @ eta).blocks[0][0, 0]
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
