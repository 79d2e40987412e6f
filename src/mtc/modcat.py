"""Module category structures on a braided category over its own square.

The underlying category acts on itself from both sides through the product
category: a pair X = U x V acts on the right by M (x) U (x) V and on the
left by U (x) V (x) M.  Module associators come in an integer family
psi^(n) built from powers of the monodromy; n = 0 and n = 1 reduce to a
single braiding or inverse braiding.

All morphisms here are plain word morphisms of the base category; a pair
X = U x V is passed as a pair of words (U_word, V_word), so nested
objects like X (x) Y or M (x) X enter by concatenating words.
"""

from __future__ import annotations

from .category import CategorySpec, cached
from .engine import (Morphism, block_crossing, double_braiding, embed,
                     identity, twist_endo)
from .report import max_dev


def _checked(spec, M_word, *pairs):
    """The pairs (U, V) of words, after the word check of M_word and of each
    of their words, which comes before any of them is concatenated."""
    spec.ring.tree_basis(M_word)
    for U, V in pairs:
        spec.ring.tree_basis(U)
        spec.ring.tree_basis(V)
    return pairs


@cached("psi")
def psi(spec: CategorySpec, M_word, X, Y, n: int = 0) -> Morphism:
    """Right module associator psi^(n)_{M,X,Y} : (M . X) . Y -> M . (X (x) Y).

    Word map: (M, U, U', V, V') -> (M, U, V, U', V') with X = U x V and
    Y = U' x V'.  The composite is

      [D^-n_{MUV,U'} o (id_MU (x) c_{U',V}) o (D^n_{MU,U'} (x) id_V)] (x) id_V'

    with D the monodromy of the indicated split.
    """
    (U, V), (Up, Vp) = _checked(spec, M_word, X, Y)
    s1 = embed(double_braiding(spec, M_word + U + Up, len(M_word) + len(U), n),
               right=V + Vp)
    s2 = embed(block_crossing(spec, Up + V, len(Up), True),
               left=M_word + U, right=Vp)
    s3 = embed(double_braiding(spec, M_word + U + V + Up,
                               len(M_word) + len(U) + len(V), -n),
               right=Vp)
    return s3 @ s2 @ s1


@cached("psi_hat")
def psi_hat(spec: CategorySpec, X, Y, M_word, n: int = 0) -> Morphism:
    """Left module associator: (U, U', V, V', M) -> (U, V, U', V', M).

      id_U (x) [D^n_{V,U'V'M} o (c^-1_{V,U'} (x) id_V'M) o (id_U' (x) D^-n_{V,V'M})]
    """
    (U, V), (Up, Vp) = _checked(spec, M_word, X, Y)
    s1 = embed(double_braiding(spec, V + Vp + M_word, len(V), -n),
               left=U + Up)
    s2 = embed(block_crossing(spec, Up + V, len(Up), False),
               left=U, right=Vp + M_word)
    s3 = embed(double_braiding(spec, V + Up + Vp + M_word, len(V), n),
               left=U)
    return s3 @ s2 @ s1


def gamma(spec: CategorySpec, M_word, X) -> Morphism:
    """Twist mismatch gamma_{M,X} = [theta^-1_{M(x)U} o (theta_M (x) id_U)] (x) id_V."""
    [(U, V)] = _checked(spec, M_word, X)
    g = twist_endo(spec, M_word + U, -1) \
        @ embed(twist_endo(spec, M_word, 1), right=U)
    return embed(g, right=V)


def extract_twist(spec: CategorySpec, U_word) -> Morphism:
    """Recover theta_U from the gamma data of the regular module:
    gamma_{1,1xU} o gamma_{1,Ux1}^-1."""
    a = gamma(spec, (), ((), U_word))
    b = gamma(spec, (), (U_word, ()))
    return a @ b.inverse()


def module_commutor(spec: CategorySpec, M_word, U_word, V_word) -> Morphism:
    """Gamma_M = [(c_{V,M} o c_{M,V}) (x) id_U] o (id_M (x) c_{U,V})
    from (M, U, V) to (M, V, U)."""
    _checked(spec, M_word, (U_word, V_word))
    s1 = embed(block_crossing(spec, U_word + V_word, len(U_word), True),
               left=M_word)
    s2 = embed(double_braiding(spec, M_word + V_word, len(M_word), 1),
               right=U_word)
    return s2 @ s1


def alpha_induction(spec: CategorySpec, M_word, X, Y, sign: str = "+"
                    ) -> Morphism:
    """Structure morphism of the functor (- . X): for Y = U' x V',

      gamma^{X,+}_{M,Y} = psi_{M,X,Y} o (id_M . c_{Y,X}) o psi_{M,Y,X}^-1

    from (M . Y) . X to (M . X) . Y; the minus sign uses the inverse
    braiding c^-1_{X,Y} in the middle.
    """
    (U1, V1), (U2, V2) = X, Y
    over = sign == "+"
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    back = psi(spec, M_word, Y, X, 0).inverse()
    cu = block_crossing(spec, U2 + U1, len(U2), over)
    cv = block_crossing(spec, V2 + V1, len(V2), over)
    mid = embed(cv, left=M_word + U1 + U2) \
        @ embed(cu, left=M_word, right=V2 + V1)
    return psi(spec, M_word, X, Y, 0) @ mid @ back


# ---------------------------------------------------------------------------
# coherence deviations


def module_pentagon_deviation(spec, M_word, X, Y, Z, n: int = 0) -> float:
    """Right pentagon: psi_{M.X,Y,Z} o psi_{M,X,Y(x)Z} against
    (psi_{M,X,Y} . id_Z) o psi_{M,X(x)Y,Z}."""
    (U1, V1), (U2, V2), (U3, V3) = _checked(spec, M_word, X, Y, Z)
    lhs = psi(spec, M_word + U1 + V1, Y, Z, n) \
        @ psi(spec, M_word, X, (U2 + U3, V2 + V3), n)
    rhs = embed(psi(spec, M_word, X, Y, n), right=U3 + V3) \
        @ psi(spec, M_word, (U1 + U2, V1 + V2), Z, n)
    return lhs.deviation(rhs)


def left_module_pentagon_deviation(spec, X, Y, Z, M_word, n: int = 0) -> float:
    """Left pentagon for psi_hat."""
    (U1, V1), (U2, V2), (U3, V3) = _checked(spec, M_word, X, Y, Z)
    lhs = psi_hat(spec, X, Y, U3 + V3 + M_word, n) \
        @ psi_hat(spec, (U1 + U2, V1 + V2), Z, M_word, n)
    rhs = embed(psi_hat(spec, Y, Z, M_word, n), left=U1 + V1) \
        @ psi_hat(spec, X, (U2 + U3, V2 + V3), M_word, n)
    return lhs.deviation(rhs)


def module_triangle_deviation(spec, M_word, X, n: int = 0) -> float:
    """psi_{M,1,X} and psi_{M,X,1} must both be identities."""
    [(U, V)] = _checked(spec, M_word, X)
    unit = ((), ())
    ident = identity(spec, M_word + U + V)
    return max_dev(psi(spec, M_word, unit, X, n).deviation(ident),
                   psi(spec, M_word, X, unit, n).deviation(ident))


def gamma_functor_deviation(spec, M_word, X, Y, n: int = 0) -> float:
    """The twist-mismatch morphisms intertwine consecutive associators:

      (gamma_{M,X} . id_Y) o gamma_{M.X,Y} o psi^(n) = psi^(n+1) o gamma_{M,X(x)Y}
    """
    (U1, V1), (U2, V2) = _checked(spec, M_word, X, Y)
    lhs = embed(gamma(spec, M_word, X), right=U2 + V2) \
        @ gamma(spec, M_word + U1 + V1, Y) \
        @ psi(spec, M_word, X, Y, n)
    rhs = psi(spec, M_word, X, Y, n + 1) \
        @ gamma(spec, M_word, (U1 + U2, V1 + V2))
    return lhs.deviation(rhs)


def psi_from_gamma(spec, M_word, X, Y, n: int) -> Morphism:
    """psi^(n) rebuilt by conjugating psi^(0) with the gamma chain n times."""
    (U1, V1), (U2, V2) = X, Y
    cur = psi(spec, M_word, X, Y, 0)
    for _ in range(n):
        cur = embed(gamma(spec, M_word, X), right=U2 + V2) \
            @ gamma(spec, M_word + U1 + V1, Y) \
            @ cur \
            @ gamma(spec, M_word, (U1 + U2, V1 + V2)).inverse()
    return cur


def psi_shortcut_deviation(spec, M_word, X, Y) -> float:
    """psi^(0) must be a bare crossing and psi^(1) the inverse crossing."""
    (U, V), (Up, Vp) = _checked(spec, M_word, X, Y)
    short0 = embed(block_crossing(spec, Up + V, len(Up), True),
                   left=M_word + U, right=Vp)
    short1 = embed(block_crossing(spec, Up + V, len(Up), False),
                   left=M_word + U, right=Vp)
    return max_dev(psi(spec, M_word, X, Y, 0).deviation(short0),
                   psi(spec, M_word, X, Y, 1).deviation(short1))


def alpha_functor_deviation(spec, M_word, X, Y, Z, sign: str = "+") -> float:
    """(- . X) with its alpha structure is a module functor for psi^(0):

      (gamma^X_{M,Y} . id_Z) o gamma^X_{M.Y,Z}
        = psi^(0)_{M.X,Y,Z} o gamma^X_{M,Y(x)Z} o (psi^(0)_{M,Y,Z}^-1 . id_X)
    """
    (U1, V1), (U2, V2), (U3, V3) = _checked(spec, M_word, X, Y, Z)
    lhs = embed(alpha_induction(spec, M_word, X, Y, sign),
                right=U3 + V3) \
        @ alpha_induction(spec, M_word + U2 + V2, X, Z, sign)
    rhs = psi(spec, M_word + U1 + V1, Y, Z, 0) \
        @ alpha_induction(spec, M_word, X, (U2 + U3, V2 + V3), sign) \
        @ embed(psi(spec, M_word, Y, Z, 0).inverse(), right=U1 + V1)
    return lhs.deviation(rhs)


def commutor_witness_deviation(spec, M_word, U_word, V_word, Up, Vp) -> float:
    """Gamma_M intertwines the two alpha structures:

      gamma^{VxU,-}_{M,U'xV'} o Gamma_{M.(U'xV')}
        = (Gamma_M (x) id) o gamma^{UxV,+}_{M,U'xV'}
    """
    lhs = alpha_induction(spec, M_word, (V_word, U_word), (Up, Vp), "-") \
        @ module_commutor(spec, M_word + Up + Vp, U_word, V_word)
    rhs = embed(module_commutor(spec, M_word, U_word, V_word),
                right=Up + Vp) \
        @ alpha_induction(spec, M_word, (U_word, V_word), (Up, Vp), "+")
    return lhs.deviation(rhs)
