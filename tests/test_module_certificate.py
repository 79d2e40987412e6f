"""The certificate of the module section: its two relations and the proof
that they imply every identity that the eight sweeps compare.

The eight sweeps of ``fusion_paths.module_sweeps`` compare products of
generators, their inverses and prefix twists.  A ``SymbolicStack`` names
the same products as framed braids: a word in the Artin generators, read
by Artin's action on the free group F_L, which is faithful (Artin, "Theory
of braids", Ann. Math. 48 (1947)), plus a framing count per strand.  The
twist of a k-letter prefix is the full twist (sigma_1 ... sigma_{k-1})^k of
its strands plus one framing on each of them (Kassel and Turaev, "Braid
Groups", GTM 247, sec. 1.4 on framed braids).  Every pair of every namer
must be equal framed braids for n in -4..4, and three negative controls
must not be.  So once the fusion-path representation is one of the framed
braid groupoid, each sweep's identity holds on every tuple.  That takes
three facts that hold by construction, tested here on every builtin and on
Rep(A4) with multiplicity 2, and the two relations of the module section.
A parity test then pins that the relations fail on every single-datum
perturbation on which a sweep fails, and that each of them is needed.
"""

import itertools

import numpy as np
import pytest

import mtc.suite as suite
from mtc import fusion_paths
from mtc.builtins import BUILTIN_NAMES
from mtc.category import DEFAULT_TOL, CategorySpec
from mtc.fusion_paths import PathStack, module_sweeps
from mtc.suite import run_suite

from conftest import random_rep_a4
from test_nonunitary import yang_lee


class FramedBraid:
    """A framed braid between two word orders: ``gens`` applied in turn,
    +p for sigma_p over and -p for sigma_p under, and ``frame``, the
    framing count of each letter (a slot of the tuple, wherever it
    stands).  It offers what the namers use of ``fusion_paths.Braid``."""

    def __init__(self, src, dst, gens, frame):
        self.src, self.dst, self.gens, self.frame = src, dst, gens, frame

    def __matmul__(self, other):
        assert other.dst == self.src, (other.dst, self.src)
        return FramedBraid(other.src, self.dst, other.gens + self.gens,
                           tuple(a + b for a, b in zip(self.frame,
                                                       other.frame)))

    def inverse(self):
        return FramedBraid(self.dst, self.src,
                           tuple(-g for g in reversed(self.gens)),
                           tuple(-f for f in self.frame))

    def power(self, e):
        assert self.src == self.dst
        if e < 0:
            return self.inverse().power(-e)
        return FramedBraid(self.src, self.src, self.gens * e,
                           tuple(e * f for f in self.frame))


class SymbolicStack:
    """``PathStack``'s braids as framed braids on words of L letters.  With
    ``full_twist`` false, a prefix twist is counted as framing only."""

    def __init__(self, L, full_twist=True):
        self.L, self.full_twist = L, full_twist

    def identity(self, order):
        return FramedBraid(order, order, (), (0,) * self.L)

    def braid(self, order, positions, over=True):
        dst = order
        for p in positions:
            assert 1 <= p < self.L
            dst = fusion_paths._swapped(dst, p)
        return FramedBraid(order, dst,
                           tuple(p if over else -p for p in positions),
                           (0,) * self.L)

    def braid_inverse(self, order, positions, over=True):
        return self.braid(order, positions, over).inverse()

    def twist(self, order, k, power=1):
        gens = tuple(range(1, k)) * k if self.full_twist else ()
        frame = tuple(int(i in order[:k]) for i in range(self.L))
        return FramedBraid(order, order, gens, frame).power(power)


def _reduced(word):
    """The freely reduced form of a word in F_L, letters +-i."""
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def artin(L, gens):
    """Artin's action of the braid ``gens`` on F_L: the reduced image of
    each generator x_1 .. x_L.  sigma_p sends x_p to x_p x_{p+1} x_p^-1 and
    x_{p+1} to x_p; its inverse sends x_p to x_{p+1} and x_{p+1} to
    x_{p+1}^-1 x_p x_{p+1}."""
    images = [[i] for i in range(1, L + 1)]
    for g in gens:
        p = abs(g)
        sub = {p: [p, p + 1, -p], p + 1: [p]} if g > 0 else \
            {p: [p + 1], p + 1: [-(p + 1), p, p + 1]}
        images = [_reduced([y for x in image for y in (
            sub[x] if x in sub else
            [-z for z in reversed(sub[-x])] if -x in sub else [x])])
            for image in images]
    return tuple(tuple(image) for image in images)


def equal(L, f, g):
    """f and g are equal framed braids: the same word orders, framing and
    Artin action."""
    return (f.src, f.dst, f.frame) == (g.src, g.dst, g.frame) \
        and artin(L, f.gens) == artin(L, g.gens)


EXPONENTS = range(-4, 5)

# Each namer of the module section and of the sweeps: its tuple length and
# its arguments after the stack at exponent n.
NAMERS = {
    "module_pentagon_pairs": (7, lambda n: ((n,),)),
    "left_module_pentagon_pairs": (7, lambda n: (n,)),
    "module_triangle_pairs": (3, lambda n: ((n,),)),
    "twist_mismatch_pairs": (5, lambda n: (n,)),
    "associator_chain_pairs": (5, lambda n: (n,)),
    "twist_extraction_pairs": (1, lambda n: ()),
    "alpha_functor_pairs": (7, lambda n: ()),
    "commutor_witness_pairs": (5, lambda n: ()),
    "braid_relation_pairs": (4, lambda n: ()),
    "twist_relation_pairs": (3, lambda n: ()),
}


def _pairs(name, n, full_twist=True):
    L, args = NAMERS[name]
    return L, getattr(fusion_paths, name)(SymbolicStack(L, full_twist),
                                          *args(n))


def test_namers_cover_the_sweeps_and_the_relations():
    """Every namer of ``fusion_paths`` is proved below."""
    assert {name for name in vars(fusion_paths)
            if name.endswith("_pairs")} == set(NAMERS)


@pytest.mark.parametrize("name", NAMERS)
def test_every_pair_is_one_framed_braid(name):
    """lhs and rhs of every pair are equal framed braids at every n in
    -4..4, so equal in any representation of the framed braid groupoid."""
    for n in EXPONENTS:
        L, pairs = _pairs(name, n)
        assert pairs
        for k, (lhs, rhs) in enumerate(pairs):
            assert equal(L, lhs, rhs), (name, n, k)


def test_negative_controls_are_different_framed_braids():
    """The proof tells braids apart: the module pentagon's lhs at n = 1
    against its rhs at n = 2, a pair with one extra prefix twist, and the
    pairs with twists counted as framing only, of which those of the twist
    mismatch and the associator chain then differ."""
    L, ((lhs, _),) = _pairs("module_pentagon_pairs", 1)
    _, ((_, rhs),) = _pairs("module_pentagon_pairs", 2)
    assert (lhs.src, lhs.dst) == (rhs.src, rhs.dst)
    assert not equal(L, lhs, rhs)
    L, pairs = _pairs("twist_mismatch_pairs", 1)
    lhs, rhs = pairs[0]
    assert not equal(L, lhs @ SymbolicStack(L).twist(lhs.src, 3), rhs)
    framing_only = {name for name in NAMERS for n in EXPONENTS
                    for L, pairs in [_pairs(name, n, full_twist=False)]
                    if not all(equal(L, *pair) for pair in pairs)}
    assert {"twist_mismatch_pairs", "associator_chain_pairs",
            "twist_relation_pairs"} <= framing_only


# ---------------------------------------------------------------------------
# the three facts that hold by construction


FACT_TARGETS = [*BUILTIN_NAMES, "random_rep_a4"]


def _spec(name, spec_of):
    return random_rep_a4() if name == "random_rep_a4" else spec_of(name)


def _words(spec, L):
    return list(itertools.product(range(spec.rank), repeat=L))


def _relative(f, g):
    """Per block size, the largest entry of |f - g| of each block over the
    largest entry of f's block, or over 1 if that is smaller."""
    return {n: np.abs(x - g.blocks[n]).max(axis=(1, 2))
            / np.maximum(np.abs(x).max(axis=(1, 2)), 1)
            for n, x in f.blocks.items()}


@pytest.mark.parametrize("name", FACT_TARGETS)
def test_far_generators_commute(name, spec_of):
    """sigma_2 sigma_4 equals sigma_4 sigma_2 on every 5-letter word, in
    both senses, to 1e-13 relative to the block's largest entry (above 1
    only on Rep(A4), up to 2.1e4): neither reads a label that the other
    changes."""
    spec = _spec(name, spec_of)
    stack = PathStack(spec, _words(spec, 5))
    order = tuple(range(5))
    for over in (True, False):
        dev = _relative(stack.braid(order, (2, 4), over),
                        stack.braid(order, (4, 2), over))
        assert max(d.max() for d in dev.values()) <= 1e-13, over


@pytest.mark.parametrize("name", FACT_TARGETS)
def test_under_generators_invert_over_generators(name, spec_of):
    """sigma_p under after sigma_p over is the identity on every 3-letter
    word, for p = 1 and 2: the under generator from the swapped word is
    what ``Braid.inverse`` names, and the round trip is the identity to
    1e-13 times the largest entries of both blocks (above 1 only on
    Rep(A4))."""
    spec = _spec(name, spec_of)
    stack = PathStack(spec, _words(spec, 3))
    order = tuple(range(3))
    for p in (1, 2):
        over = stack.braid(order, (p,))
        under = stack.braid(over.dst, (p,), False)
        assert under.key == over.inverse().key
        for n, blocks in (under @ over).blocks.items():
            scale = np.abs(over.blocks[n]).max(axis=(1, 2)) \
                * np.abs(under.blocks[n]).max(axis=(1, 2))
            dev = np.abs(blocks - np.eye(n)).max(axis=(1, 2))
            assert (dev <= 1e-13 * np.maximum(scale, 1)).all(), (p, n)


@pytest.mark.parametrize("name", FACT_TARGETS)
def test_unit_letter_generators_are_the_identity(name, spec_of):
    """sigma_p, over and under, on every 3-letter word with the unit at
    letter p or p + 1 has identity blocks exactly: the context sort
    gathers for it the identity blocks that the spec holds on unit
    strands, and the paths of the word and of its swap correspond one to
    one in tree order."""
    spec = _spec(name, spec_of)
    for p in (1, 2):
        words = [w for w in _words(spec, 3) if 0 in w[p - 1:p + 1]]
        stack = PathStack(spec, words)
        for over in (True, False):
            g = stack.braid((0, 1, 2), (p,), over)
            assert all(np.array_equal(x, np.broadcast_to(np.eye(n), x.shape))
                       for n, x in g.blocks.items()), (p, over)


# ---------------------------------------------------------------------------
# parity with the sweeps


def _perturbations(spec, rng):
    """(label, spec) for one seeded F-block (first entry times 1.1),
    R-block (times e^{0.3i}), theta (times e^{0.3i}) and d (times 1.1) of
    labels other than the unit."""
    F, R = dict(spec.F), dict(spec.R)
    f_key = sorted(F)[rng.integers(len(F))]
    F[f_key] = F[f_key].copy()
    F[f_key].flat[0] *= 1.1
    r_key = sorted(R)[rng.integers(len(R))]
    R[r_key] = R[r_key] * np.exp(0.3j)
    theta, dims = spec.theta.copy(), spec.dims.copy()
    theta[rng.integers(1, spec.rank)] *= np.exp(0.3j)
    dims[rng.integers(1, spec.rank)] *= 1.1
    for label, args in ((f"F{f_key}", (spec.dims, spec.theta, F, spec.R)),
                        (f"R{r_key}", (spec.dims, spec.theta, spec.F, R)),
                        ("theta", (spec.dims, theta, spec.F, spec.R)),
                        ("d", (dims, spec.theta, spec.F, spec.R))):
        yield label, CategorySpec(f"{spec.name}-{label}", spec.ring, *args)


def _single_data(spec, grow=0.1, phase=0.3):
    """(label, spec) for every stored F-block times 1 + ``grow``, every
    R-block times e^{i phase} and every theta_a, a other than the unit,
    times e^{i phase}, one at a time."""
    for key in sorted(spec.F):
        F = dict(spec.F)
        F[key] = F[key] * (1 + grow)
        yield f"F{key}", CategorySpec(f"{spec.name}-F{key}", spec.ring,
                                      spec.dims, spec.theta, F, spec.R)
    for key in sorted(spec.R):
        R = dict(spec.R)
        R[key] = R[key] * np.exp(1j * phase)
        yield f"R{key}", CategorySpec(f"{spec.name}-R{key}", spec.ring,
                                      spec.dims, spec.theta, spec.F, R)
    for a in range(1, spec.rank):
        theta = spec.theta.copy()
        theta[a] *= np.exp(1j * phase)
        yield f"theta{a}", CategorySpec(f"{spec.name}-theta{a}", spec.ring,
                                        spec.dims, theta, spec.F, spec.R)


def test_the_relations_fail_wherever_the_sweeps_fail(monkeypatch):
    """On the seeded perturbations of ising, fibonacci and z_3(1), and on
    every single F-, R- and theta-perturbation of semion, fibonacci, ising
    and z_3(1): ``braid_relations`` or ``twist_relation`` fails exactly
    where a sweep of ``module_sweeps`` fails, and each of the two fails on
    at least one perturbation.  The sweeps fail on some perturbations that
    ``braid_relations`` passes, every theta among them, so the parity needs
    ``twist_relation``."""
    rng = np.random.default_rng(0)
    cases = [(name, *case) for name in ("ising", "fibonacci", "z_3(1)")
             for case in _perturbations(suite.get_category(name), rng)]
    cases += [(name, *case)
              for name in ("semion", "fibonacci", "ising", "z_3(1)")
              for case in _single_data(suite.get_category(name))]
    caught, swept = {"braid_relations": 0, "twist_relation": 0}, 0
    for name, label, bad in cases:
        monkeypatch.setattr(suite, "resolve_target",
                            lambda target, bad=bad: bad)
        with np.errstate(invalid="ignore"):
            failed = {c.name for c in run_suite(bad.name,
                                                suites=["module"]).checks
                      if c.status == "fail"}
            sweeps = [c.name for c in module_sweeps(bad).checks
                      if c.status == "fail"]
        assert bool(failed) == bool(sweeps), (name, label, failed, sweeps)
        swept += bool(sweeps)
        for check in failed:
            caught[check] += 1
    # 7 of the 12 seeded perturbations and 24 of the 40 single ones
    assert swept == 31
    assert all(caught.values()), caught


# The largest ratio of the sweeps' worst deviation to the relations' worst
# over the single-datum perturbations of each category, scaled until the
# relations deviate by half the tolerance.
NEAR_TOLERANCE = {"semion": 2.00, "fibonacci": 2.17, "ising": 2.55,
                  "z_3(1)": 2.00, "yang_lee": 24.9}


def test_near_the_tolerance_the_sweeps_deviate_a_bounded_multiple(
        monkeypatch):
    """The certificate is exact only where the relations hold exactly.
    Every single-datum perturbation of semion, fibonacci, ising, z_3(1) and
    Yang-Lee that the relations see is scaled, in its linear range, until
    they deviate by half the tolerance, where they pass.  The sweeps then
    deviate by a multiple of that, at most 2.55 on the unitary builtins and
    24.9 on Yang-Lee, whose generators are not unitary, so on ising,
    fibonacci and Yang-Lee some sweep fails where the relations pass.  A
    perturbation that the relations do not see, the sweeps do not see
    either."""
    atol = DEFAULT_TOL.atol

    def worst(spec):
        monkeypatch.setattr(suite, "resolve_target", lambda target: spec)
        relations = run_suite(spec.name, suites=["module"]).checks
        return (max(c.max_deviation for c in relations),
                max(c.max_deviation for c in module_sweeps(spec).checks))

    specs = {name: suite.get_category(name) for name in NEAR_TOLERANCE
             if name != "yang_lee"}
    specs["yang_lee"] = yang_lee()
    for name, spec in specs.items():
        ratios = []
        for label, probe in _single_data(spec, 1e-9, 1e-9):
            related, swept = worst(probe)
            if related < 1e-12:
                assert swept < 1e-11, (name, label, swept)
                continue
            t = 1e-9 * atol / 2 / related
            related, swept = worst(dict(_single_data(spec, t, t))[label])
            assert 0.45 * atol < related < 0.55 * atol, (name, label)
            ratios.append(swept / related)
        assert max(ratios) == pytest.approx(NEAR_TOLERANCE[name], rel=0.01)
        # at atol / 2 the relations pass; a ratio above 2 is a failing sweep
        assert (max(ratios) > 2.1) == (name in ("fibonacci", "ising",
                                                "yang_lee"))
