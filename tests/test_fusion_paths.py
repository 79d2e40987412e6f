"""The batched module sweeps of ``mtc.fusion_paths`` against the engine.

Every factor of both pentagons, built for a whole stack of label tuples,
must equal block by block the ``modcat`` morphism that the per-tuple
pentagon builds, at n = 0, 1 and 2, and every sweep of ``module_sweeps``
must give each tuple the deviation that ``modcat`` gives it; single
generators, their
inverses and the twists of prefixes must equal the engine's on Rep(A4)
words, whose local blocks have fusion multiplicity 2, also when one
deferred flush enumerates several word orders at once.  Guards pin the
number of batched rounds of a ``module_sweeps`` pass, one flush per stack,
each stack on a word table of its own, no numerical inversion of a braid,
the sweeps' deviations of ising, fibonacci, z_5(2) and Rep(A4) bit for
bit, and that stacks, braids, word tables and a spec that ran every section
and the sweeps are freed by reference counting.  The batched sides are
products of local generators, so on an F that fails the pentagon they can
agree where the engine's whiskered composites do not: the last tests pin
what the report still sees then.
"""

import gc
import itertools
import re
import sys
import weakref

import numpy as np
import pytest

import mtc.category as category
import mtc.modcat as modcat
import mtc.suite as suite
from mtc import fusion_paths
from mtc.builtins import BUILTIN_NAMES
from mtc.category import _ROUND_ROWS, CategorySpec
from mtc.engine import Morphism, braid_generator, embed, twist_endo
from mtc.errors import (InvalidWord, NotPremodular, PositionOutOfRange,
                        ShapeMismatch)
from mtc.fusion_paths import PathStack, WordTable, module_sweeps, sweep
from mtc.modcat import psi, psi_hat
from mtc.report import max_dev
from mtc.suite import run_suite

from conftest import random_rep_a4
from test_gauge import TARGETS as GAUGE_TARGETS, gauge
from test_nonunitary import FIXTURES

AGREE = 1e-14
# Yang-Lee's F and R are far from unitary, and the engine's whiskering
# conjugates by inverse split transforms: on its n = 0 left factors the
# engine is 7.3e-14 from its own generator, which the batched factor equals
# exactly, and at n = 1 and 2 the two differ by up to 1.3e-11 relative to
# the block's largest entry (both fixtures, all 128 tuples).  Its bound is
# relative.
RELATIVE = {"yang_lee": 2e-11, "yang_lee-gauged": 2e-11}

TARGETS = {**{name: lambda name=name: suite.get_category(name)
              for name in BUILTIN_NAMES},
           **FIXTURES,
           **{f"{name}-gauged": lambda name=name: gauge(GAUGE_TARGETS[name](),
                                                         seed=7)
              for name in GAUGE_TARGETS}}


def _join(*objs):
    """The object of the square whose parts concatenate those of objs."""
    return tuple(sum((o[i] for o in objs), ()) for i in (0, 1))


# A tuple (m, x1, x2, y1, y2, z1, z2) is M = (m,) and X, Y, Z of the square.
# Each factor: the batched arguments after the stack, and the morphism the
# per-tuple pentagon of ``modcat`` builds.
RIGHT = [
    (((0, 1, 2, 3, 5, 4, 6), 4, 1, 1),
     lambda s, M, X, Y, Z, n: psi(s, M + X[0] + X[1], Y, Z, n)),
    (((0, 1, 3, 5, 2, 4, 6), 2, 2, 1),
     lambda s, M, X, Y, Z, n: psi(s, M, X, _join(Y, Z), n)),
    (((0, 1, 3, 2, 4, 5, 6), 2, 1, 1),
     lambda s, M, X, Y, Z, n: embed(psi(s, M, X, Y, n), right=Z[0] + Z[1])),
    (((0, 1, 3, 5, 2, 4, 6), 3, 1, 2),
     lambda s, M, X, Y, Z, n: psi(s, M, _join(X, Y), Z, n)),
]
LEFT = [
    (((1, 3, 2, 4, 5, 6, 0), 1, 1, 1),
     lambda s, M, X, Y, Z, n: psi_hat(s, X, Y, Z[0] + Z[1] + M, n)),
    (((1, 3, 5, 2, 4, 6, 0), 2, 1, 2),
     lambda s, M, X, Y, Z, n: psi_hat(s, _join(X, Y), Z, M, n)),
    (((1, 2, 3, 5, 4, 6, 0), 3, 1, 1),
     lambda s, M, X, Y, Z, n: embed(psi_hat(s, Y, Z, M, n),
                                    left=X[0] + X[1])),
    (((1, 3, 5, 2, 4, 6, 0), 1, 2, 1),
     lambda s, M, X, Y, Z, n: psi_hat(s, X, _join(Y, Z), M, n)),
]


def _assert_equal_blocks(stack, f, k, want, relative=None):
    """Tuple k of the batched map f has the engine morphism's words and
    blocks, to AGREE or, if given, to ``relative`` times the largest entry
    of the engine's block."""
    labels = stack.labels[k]
    assert tuple(int(labels[i]) for i in f.src) == want.src
    assert tuple(int(labels[i]) for i in f.dst) == want.dst
    got = stack.blocks(f, k)
    assert got.keys() == want.blocks.keys()
    for c, blk in got.items():
        bound = AGREE if relative is None else \
            relative * max(1.0, np.abs(want.blocks[c]).max())
        assert np.abs(blk - want.blocks[c]).max() <= bound, (labels, c)


@pytest.mark.parametrize("name", TARGETS)
def test_pentagon_factors_equal_the_engine_morphisms(name):
    spec = TARGETS[name]()
    rng = np.random.default_rng(3)
    tuples = [tuple(int(x) for x in row)
              for row in rng.integers(0, spec.rank, size=(4, 7))]
    stack = PathStack(spec, tuples)
    for n in (0, 1, 2):
        for batched, factors in ((fusion_paths.psi, RIGHT),
                                 (fusion_paths.psi_hat, LEFT)):
            for args, engine_map in factors:
                f = batched(stack, *args, n)
                for k, (m, x1, x2, y1, y2, z1, z2) in enumerate(tuples):
                    want = engine_map(spec, (m,), ((x1,), (x2,)),
                                      ((y1,), (y2,)), ((z1,), (z2,)), n)
                    _assert_equal_blocks(stack, f, k, want,
                                         RELATIVE.get(name))


def test_generators_equal_the_engine_with_multiplicity_two():
    """Every p and both ``over`` on Rep(A4) words of length 2 to 5: the
    all-3 words and a seeded sample of others."""
    spec = random_rep_a4()
    rng = np.random.default_rng(5)
    for L in range(2, 6):
        words = [(3,) * L] + sorted({tuple(int(x) for x in row) for row in
                                     rng.integers(0, 4, size=(12, L))})
        stack = PathStack(spec, words)
        assert max(stack.members) > 1
        for p, over in itertools.product(range(1, L), (True, False)):
            g = stack.braid(tuple(range(L)), (p,), over)
            for k, word in enumerate(words):
                _assert_equal_blocks(stack, g, k,
                                     braid_generator(spec, word, p, over))


def test_one_flush_enumerates_every_order_in_tree_order(monkeypatch):
    """alpha_induction of both signs and psi^(1) on Rep(A4) words of
    length 5 queue generators on several word orders, among them one that
    only ``_moved`` reaches; the first read numbers the words that every
    tuple spells in each of them, each distinct word once, and enumerates
    them all in one round.  Per (word, root) the paths must be those of
    ``FusionRing.tree_basis``, labels and multiplicities in its order, each
    row naming its word, its position in its root's block and the size of
    that block, and every generator built must equal
    ``engine.braid_generator``."""
    spec = random_rep_a4()
    rng = np.random.default_rng(11)
    words = [(3,) * 5] + sorted({tuple(int(x) for x in row) for row in
                                 rng.integers(0, 4, size=(10, 5))})
    stack = PathStack(spec, words)
    rounds = []
    enumerate_ = WordTable._enumerate
    monkeypatch.setattr(WordTable, "_enumerate", lambda self, ids: (
        rounds.append(ids.tolist()), enumerate_(self, ids))[1])
    order = (0, 1, 2, 3, 4)
    f = fusion_paths.alpha_induction(stack, order, 1, (1, 1), (1, 1))
    fusion_paths.alpha_induction(stack, order, 1, (1, 1), (1, 1), False)
    fusion_paths.psi(stack, order, 2, 1, 2, 1)
    stack.blocks(f, 0)
    moved = fusion_paths._moved(order, 2, 1, 1)
    assert moved in stack._word_of and len(stack._word_of) > 2
    table = stack.table
    numbered = [tuple(w) for w in table._words.tolist()]
    assert rounds == [list(range(len(numbered)))]
    assert len(set(numbered)) == len(numbered) < len(stack._word_of) \
        * len(words)
    for order, ids in stack._word_of.items():
        for k, labels in enumerate(stack.labels.tolist()):
            assert numbered[ids[k]] == tuple(labels[i] for i in order)
    L = len(order)
    for u, word in enumerate(numbered):
        rows = table._paths[table._row[u]:table._row[u + 1]].tolist()
        got = {}
        for row in rows:
            assert row[2 * L + 1] == u
            assert row[2 * L + 2] == len(got.get(row[L], []))
            got.setdefault(row[L], []).append(
                (tuple(row[2:L + 1]), tuple(row[L + 2:2 * L + 1])))
        assert got == spec.ring.tree_basis(word), word
        assert [row[2 * L + 3] for row in rows] == [len(got[row[L]])
                                                    for row in rows]
    built = list(stack._built)
    assert len(built) > 10 and {over for *_, over in built} == {True, False}
    # relative: the generators of this random data reach entries of 170
    for order, p, over in built:
        g = stack.braid(order, (p,), over)
        for k, labels in enumerate(stack.labels.tolist()):
            word = tuple(labels[i] for i in order)
            _assert_equal_blocks(stack, g, k,
                                 braid_generator(spec, word, p, over), AGREE)


# The deviations of ``module_sweeps`` on ising, with the generators held in
# local form, every braid's inverse named by its parts and the tuples of a
# sampled sweep distinct.  They pin the sweeps' arithmetic bit for bit: a
# change meant to move it re-pins them from a fresh
# ``module_sweeps(<spec>)``.
ISING_MODULE = {
    "module_pentagon": 1.2222885963113926e-15,
    "left_module_pentagon": 1.1102230246251565e-16,
    "module_triangle": 4.440892098500626e-16,
    "twist_mismatch_functor": 2.482534153247273e-16,
    "associator_from_chain": 4.577566798522237e-16,
    "twist_extraction": 0.0,
    "alpha_module_functor": 2.482534153247273e-16,
    "commutor_witness": 2.2887833992611187e-16,
}


# The same for fibonacci, whose tuples in every word order spell the same
# 128 words.
FIB_MODULE = {
    "module_pentagon": 3.0032323737249815e-15,
    "left_module_pentagon": 1.2412670766236366e-16,
    "module_triangle": 8.082545620880531e-16,
    "twist_mismatch_functor": 8.400361489980554e-16,
    "associator_from_chain": 1.6946818973100074e-15,
    "twist_extraction": 0.0,
    "alpha_module_functor": 4.710277376051326e-16,
    "commutor_witness": 5.185169430563076e-16,
}


def test_fibonacci_module_deviations_hold_bit_for_bit():
    report = module_sweeps(suite.get_category("fibonacci"))
    assert {c.name: c.max_deviation for c in report.checks} == FIB_MODULE


# The same for z_5(2), on whose rank-5 words few repeat.
Z52_MODULE = {
    "module_pentagon": 2.8332447843781514e-15,
    "left_module_pentagon": 2.220446049250313e-16,
    "module_triangle": 8.082545620880531e-16,
    "twist_mismatch_functor": 5.4128353991207e-15,
    "associator_from_chain": 1.0810431491176359e-14,
    "twist_extraction": 0.0,
    "alpha_module_functor": 6.684427777288334e-16,
    "commutor_witness": 3.7238012298709097e-16,
}


def test_z5_module_deviations_hold_bit_for_bit():
    report = module_sweeps(suite.get_category("z_5(2)"))
    assert {c.name: c.max_deviation for c in report.checks} == Z52_MODULE


# The same for the sweeps on conftest.random_rep_a4(), whose data
# is not coherent, and per tuple for each sweep on a stack of its own, on
# six tuples of each length seeded by 35 in this order: the sweep's tuple
# length, its batched deviations and the deviations they give.  Unit
# letters next to multiplicity-2 vertices enter their generators.
A4_MODULE = {
    "module_pentagon": 2409963397.0123115,
    "left_module_pentagon": 1.4551915228366852e-11,
    "module_triangle": 4.440892098500626e-16,
    "twist_mismatch_functor": 163.8999060829092,
    "associator_from_chain": 718.5175143735519,
    "twist_extraction": 0.0,
    "alpha_module_functor": 43689464.42627388,
    "commutor_witness": 35.399858567878624,
}
A4_SWEEPS = {
    "module_pentagon": (
        7, lambda s, ts: sweep(s, ts, fusion_paths.module_pentagon_pairs,
                               N_VALUES),
        [69.44409267618676, 4.376443472740641e-16, 0.000798552983635691,
         8.730919876328985e-14, 0.0, 0.0]),
    "left_module_pentagon": (
        7, lambda s, ts: sweep(s, ts,
                               fusion_paths.left_module_pentagon_pairs, 1),
        [8.528310906259313e-17, 9.029268013363768e-16, 0.0,
         1.0418843950660006e-12, 0.0, 0.0]),
    "module_triangle": (
        3, lambda s, ts: sweep(s, ts, fusion_paths.module_triangle_pairs,
                               N_VALUES),
        [0.0] * 6),
    "twist_mismatch_functor": (
        5, lambda s, ts: sweep(s, ts, fusion_paths.twist_mismatch_pairs,
                               -1),
        [0.08663252251374436, 0.0, 5.961331875953686, 0.7117899385223491,
         0.32625832070122374, 5.8662544647155865]),
    "associator_from_chain": (
        5, lambda s, ts: sweep(s, ts, fusion_paths.associator_chain_pairs,
                               2),
        [0.0, 0.0, 718.5175143735519, 0.0, 8.621529318813513, 0.0]),
    "twist_extraction": (
        1, lambda s, ts: sweep(s, ts, fusion_paths.twist_extraction_pairs),
        [0.0] * 6),
    "alpha_module_functor": (
        7, lambda s, ts: sweep(s, ts, fusion_paths.alpha_functor_pairs),
        [1.2560739669470201e-15, 8.881784197001252e-16, 0.0,
         19.923445610035966, 5.084229945850415e-13, 6.632608979562184]),
    "commutor_witness": (
        5, lambda s, ts: sweep(s, ts, fusion_paths.commutor_witness_pairs),
        [0.0, 0.0, 0.0, 1.6068951399541964e-17, 3.227937720230791e-17,
         5.161858260603477]),
}


def test_rep_a4_module_deviations_hold_bit_for_bit():
    spec = random_rep_a4()
    rng = np.random.default_rng(35)
    for sweep, (k, batched, want) in A4_SWEEPS.items():
        tuples = [tuple(int(x) for x in row)
                  for row in rng.integers(0, spec.rank, size=(6, k))]
        assert batched(spec, tuples) == want, sweep
    report = module_sweeps(spec)
    assert {c.name: c.max_deviation for c in report.checks} == A4_MODULE


def test_stacks_enumerate_no_order_of_their_own(monkeypatch):
    """A stack takes its block layout from the tree counts of its words,
    so it enumerates only the word orders its braids read: a cold ising
    ``module_sweeps`` pass runs each sweep on one stack and makes one
    enumeration round per stack, 8 in the order of the sweeps, where a
    round per word order made 68, with the same deviations bit for bit."""
    rounds = []
    enumerate_ = WordTable._enumerate
    monkeypatch.setattr(WordTable, "_enumerate", lambda self, ids: (
        rounds.append(self.L), enumerate_(self, ids))[1])
    report = module_sweeps(suite.get_category("ising"))
    assert rounds == [7, 7, 3, 5, 5, 1, 7, 5]
    assert {c.name: c.max_deviation for c in report.checks} == ISING_MODULE


def test_module_sweeps_build_in_few_rounds(monkeypatch):
    """A cold ``module_sweeps`` pass on ising flushes each stack once,
    within its first comparison, on the stack's own word table: it numbers
    the stack's words in one call and builds its generators in one, on
    every stack but the twist extraction's, which reads twists only.  Each
    round of a build writes the rows of at most ``_ROUND_ROWS`` paths,
    counting those of source and target, unless it builds one
    generator."""
    calls = []
    for name in ("_spell", "_build"):
        def counted(self, *args, _name=name, _fn=getattr(WordTable, name)):
            calls.append((self, _name))
            return _fn(self, *args)
        monkeypatch.setattr(WordTable, name, counted)
    rounds = []
    generators = WordTable._generators

    def bounded(self, partner, coef, base, u, v, ps, sense):
        rounds.append((self.L, len(u), 2 * int(np.diff(self._row)[v].sum())))
        return generators(self, partner, coef, base, u, v, ps, sense)
    monkeypatch.setattr(WordTable, "_generators", bounded)
    flushed = []
    deviations = PathStack.deviations

    def compare(self, f, g):
        before = len(calls)
        out = deviations(self, f, g)
        flushed.append((self, calls[before:]))
        return out
    monkeypatch.setattr(PathStack, "deviations", compare)
    module_sweeps(suite.get_category("ising"))
    stacks = []
    for stack, made in flushed:
        if stack in stacks:
            assert made == []
            continue
        stacks.append(stack)
        want = ["_spell"] + ["_build"] * (stack.table.L > 1)
        assert made == [(stack.table, name) for name in want]
    assert [stack.table.L for stack in stacks] == [7, 7, 3, 5, 5, 1, 7, 5]
    assert len(calls) == 15
    assert {L for L, _, _ in rounds} == {3, 5, 7}
    assert all(n == 1 or paths <= _ROUND_ROWS for _, n, paths in rounds)


def _inversions(monkeypatch) -> list:
    """The size of every stack that ``category._inverses`` inverts from
    now on, under every name by which a module of the package holds it."""
    calls, inverses = [], category._inverses

    def counted(stack, message):
        calls.append(len(stack))
        return inverses(stack, message)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mtc" \
                and getattr(module, "_inverses", None) is inverses:
            monkeypatch.setattr(module, "_inverses", counted)
    return calls


def test_each_braid_is_inverted_once_per_stack(monkeypatch):
    """psi^(1) and psi^(2) invert the same monodromies, and the inverse of
    a product of generators is the product of the inverse generators: a
    fibonacci pentagon sweep at n = 1, at n = 2 or at both, on a spec whose
    F- and R-inverses are cached, makes no stacked inversion, builds each
    product once per stack, the same four inverse monodromies at each n,
    and gives each tuple the larger of the deviations of the sweeps at
    n = 1 and at n = 2."""
    spec = suite.get_category("fibonacci")
    tuples = list(itertools.product(range(2), repeat=7))
    sweep(spec, tuples[-1:], fusion_paths.module_pentagon_pairs, (1,))
    inverted, built = _inversions(monkeypatch), []
    product = PathStack._product

    def counted(self, key):
        if key not in self._braids:
            built.append(key)
        return product(self, key)
    monkeypatch.setattr(PathStack, "_product", counted)
    once, inverse = [], []
    for n_values in ((1,), (2,), (1, 2)):
        built.clear()
        once.append(sweep(spec, tuples, fusion_paths.module_pentagon_pairs,
                          n_values))
        assert len(set(built)) == len(built)
        inverse.append(sorted(key for key in built if not key[2]))
    assert not inverted
    assert len(inverse[0]) == 4 and inverse[0] == inverse[1] == inverse[2]
    assert once[2] == np.maximum(*once[:2]).tolist()


@pytest.mark.parametrize("build", [lambda: suite.get_category("ising"),
                                   FIXTURES["yang_lee"], random_rep_a4],
                         ids=["ising", "yang_lee", "random_rep_a4"])
def test_warm_module_sweeps_invert_no_block(monkeypatch, build):
    """Every braid names its inverse: twists, their composites and powers
    as well as products of generators.  So a second ``module_sweeps`` pass
    on a spec whose F- and R-inverses are cached makes no
    ``category._inverses`` call, and gives the same report."""
    spec = build()
    first = module_sweeps(spec)
    inverted = _inversions(monkeypatch)
    assert module_sweeps(spec).to_json() == first.to_json()
    assert inverted == []


def test_twist_extraction_is_exact():
    """gamma_{1,Ux1}^-1 is named as the twists of gamma at the opposite
    powers, so extracting the twist of every label compares theta_u with
    itself: the deviation is exactly 0 on every builtin."""
    for name in BUILTIN_NAMES:
        checks = {c.name: c for c in module_sweeps(
            suite.get_category(name)).checks}
        assert checks["twist_extraction"].max_deviation == 0.0, name


def test_generators_are_held_in_local_form(spec_of):
    """A built generator step is, per tuple, the first row of its word's
    generator, and the rows of the flush's generators in local form:
    arrays (slots, paths) with one slot per entry of the largest local
    block, 2 on fibonacci, one array of partners that every step of the
    flush shares and one of entries per sense.  No step holds a buffer of
    the stack's dense blocks.  Reading one psi^(1) of a fibonacci pentagon
    builds the steps of all four that are named, each read by one of their
    products, and writes out only the three products of the one read: its
    crossing, its monodromy and the inverse of its other monodromy,
    named as the product of the inverse generators."""
    stack = PathStack(spec_of("fibonacci"),
                      list(itertools.product(range(2), repeat=7)))
    factors = [fusion_paths.psi(stack, *args, 1) for args, _ in RIGHT]
    stack.blocks(factors[0], 0)
    assert len(stack._built) > 20
    steps = list(stack._built.values())
    for (order, p, over), (first, partner, coef) in stack._built.items():
        assert first.shape == (len(stack),)
        assert partner.shape == coef.shape and 1 <= len(coef) <= 2
        assert np.shares_memory(partner, steps[0][1])
        assert np.shares_memory(coef, next(c for (*_, o), (_, _, c) in
                                           stack._built.items() if o == over))
    named = set()
    for (order, mu, up, v), _ in RIGHT:
        cross = (order, fusion_paths._crossing(mu + 1, up, v), True)
        after = fusion_paths._monodromy(1, mu + v, up)
        for key in (cross, (order, fusion_paths._monodromy(1, mu, up), True),
                    (stack.braid(*cross).dst, after[::-1], False)):
            named |= set(_steps(*key))
    assert set(stack._built) == named
    assert sorted((len(positions), over) for _, positions, over in
                  stack._braids) == [(1, True), (8, True), (10, False)]


def _steps(order, positions, over):
    """The generator steps (order, p, over) of a product of generators."""
    for p in positions:
        yield order, p, over
        order = fusion_paths._swapped(order, p)


# The namers that take one exponent n rather than a list n_values.
SINGLE_N = (fusion_paths.left_module_pentagon_pairs,
            fusion_paths.twist_mismatch_pairs,
            fusion_paths.associator_chain_pairs)


@pytest.mark.parametrize("n_values", [(), (True,), (0.0,)],
                         ids=["empty", "bool", "float"])
@pytest.mark.parametrize("pairs, width", [
    pytest.param(fusion_paths.module_pentagon_pairs, 7,
                 id="module_pentagon_deviations-7"),
    pytest.param(fusion_paths.module_triangle_pairs, 3,
                 id="module_triangle_deviations-3"),
    pytest.param(fusion_paths.left_module_pentagon_pairs, 7,
                 id="left_module_pentagon_deviations-7"),
    pytest.param(fusion_paths.twist_mismatch_pairs, 5,
                 id="twist_mismatch_deviations-5"),
    pytest.param(fusion_paths.associator_chain_pairs, 5,
                 id="associator_chain_deviations-5")])
def test_module_sweeps_refuse_non_integer_n_values(pairs, width, n_values):
    """No exponent, or one that is not a Python int, is refused by the
    namer as ``run_suite`` refuses it, not swept to a vacuous deviation of
    0 per tuple or run as the int it equals.  A namer of one exponent is
    given the list's one entry, or None for the empty list.  Each case is
    named after the deviations that its sweep gives."""
    spec = suite.get_category("fibonacci")
    if pairs in SINGLE_N:
        n_values = n_values[0] if n_values else None
    with pytest.raises(ValueError, match="n_values must list Python ints"):
        sweep(spec, [(1,) * width], pairs, n_values)


def _spelt(rng, spec, L):
    """Seeded tuples of length L that share words: two tuples, both twice,
    and three that permute the letters of the first, which starts with
    three letters of the most fusion channels."""
    top = int(np.argmax(spec.ring.N.sum(axis=(1, 2))))
    a = (top,) * 3 + tuple(int(x) for x in rng.integers(0, spec.rank,
                                                         size=L - 3))
    b = tuple(int(x) for x in rng.integers(0, spec.rank, size=L))
    return [a, b, a, a[::-1], b, a[1:] + a[:1], tuple(sorted(a))]


# Braids that read every kind of block the stacks build: generators of
# both senses, their products, inverses and powers, and twists.
SHARED = {
    7: lambda s: [fusion_paths.psi(s, *args, n) for args, _ in RIGHT
                  for n in N_VALUES]
    + [fusion_paths.psi_hat(s, *args, n) for args, _ in LEFT
       for n in N_VALUES]
    + [fusion_paths.alpha_induction(s, (0, 3, 4, 1, 2, 5, 6), 1, (1, 1),
                                    (1, 1), over) for over in (True, False)],
    5: lambda s: [fusion_paths.psi_from_gamma(s, (0, 1, 3, 2, 4), 1, 1, 1,
                                              1, 2),
                  fusion_paths.module_commutor(s, (0, 3, 4, 1, 2), 3, 1, 1)],
}


@pytest.mark.parametrize("name", ["fibonacci", "ising", "random_rep_a4"])
def test_tuples_that_share_words_equal_their_own_stacks(name, spec_of):
    """Duplicated tuples and tuples that permute one another's letters
    share words, so their paths and generators: each must still get
    exactly the blocks and deviations of a stack of that one tuple."""
    spec = random_rep_a4() if name == "random_rep_a4" else spec_of(name)
    rng = np.random.default_rng(2)
    for L, braids in SHARED.items():
        tuples = _spelt(rng, spec, L)
        stack = PathStack(spec, tuples)
        assert max(stack.members) > 1
        for k, t in enumerate(tuples):
            alone = PathStack(spec, [t])
            for f, g in zip(braids(stack), braids(alone)):
                got, want = stack.blocks(f, k), alone.blocks(g, 0)
                assert got.keys() == want.keys()
                assert all(np.array_equal(got[c], want[c]) for c in got)
        for sweep, (k, batched, _) in SWEEPS.items():
            if k == L:
                assert batched(spec, tuples) == [batched(spec, [t])[0]
                                                 for t in tuples], sweep


def test_stacks_and_braids_are_freed_without_the_collector(monkeypatch,
                                                           spec_of):
    """Under gc.disable(), every stack and braid of an alpha-functor sweep
    dies by reference counting once the sweep returns, and so does a spec
    once every section and ``module_sweeps`` have run on it, with the word
    table of each stack: the spec's cache holds arrays, not objects that
    point back at it, and a table holds no stack."""
    refs, tables = [], []
    init, braid = PathStack.__init__, PathStack.braid
    table_init = WordTable.__init__

    def tracked_init(self, *args):
        refs.append(weakref.ref(self))
        init(self, *args)

    def tracked_table(self, *args):
        tables.append(weakref.ref(self))
        table_init(self, *args)

    def tracked_braid(self, *args):
        out = braid(self, *args)
        refs.append(weakref.ref(out))
        return out
    monkeypatch.setattr(PathStack, "__init__", tracked_init)
    monkeypatch.setattr(PathStack, "braid", tracked_braid)
    monkeypatch.setattr(WordTable, "__init__", tracked_table)
    gc.collect()
    gc.disable()
    try:
        sweep(spec_of("fibonacci"), [(1, 1, 0, 1, 1, 1, 1),
                                     (0, 1, 1, 1, 0, 1, 1)],
              fusion_paths.alpha_functor_pairs)
        for name in ("fibonacci", "ising"):
            # the resolver hands its one reference to run_suite
            specs = [suite.get_category(name)]
            refs.append(weakref.ref(specs[0]))
            assert module_sweeps(specs[0]).passed
            monkeypatch.setattr(suite, "resolve_target",
                                lambda target: specs.pop())
            assert run_suite(name).passed
        assert len(refs) > 10 and len(tables) > 12
        assert all(ref() is None for ref in refs + tables)
    finally:
        gc.enable()


def _square(t):
    """The objects of the square in a tuple (m, x1, x2, ...)."""
    it = iter(t[1:])
    return [((x1,), (x2,)) for x1, x2 in zip(it, it)]


N_VALUES = (0, 1, 2)

# Each sweep of the suite at n_values = N_VALUES: its tuple length, its
# batched deviations of a list of tuples, and the deviation ``modcat``
# gives one tuple.
SWEEPS = {
    "module_pentagon": (
        7, lambda s, ts: sweep(s, ts, fusion_paths.module_pentagon_pairs,
                               N_VALUES),
        lambda s, t: max_dev(*(modcat.module_pentagon_deviation(
            s, t[:1], *_square(t), n) for n in N_VALUES))),
    "left_module_pentagon": (
        7, lambda s, ts: sweep(s, ts,
                               fusion_paths.left_module_pentagon_pairs, 0),
        lambda s, t: modcat.left_module_pentagon_deviation(
            s, *_square(t), t[:1], 0)),
    "module_triangle": (
        3, lambda s, ts: sweep(s, ts, fusion_paths.module_triangle_pairs,
                               N_VALUES),
        lambda s, t: max_dev(*(modcat.module_triangle_deviation(
            s, t[:1], *_square(t), n) for n in N_VALUES))),
    "twist_mismatch_functor": (
        5, lambda s, ts: sweep(s, ts, fusion_paths.twist_mismatch_pairs, 0),
        lambda s, t: max_dev(
            modcat.gamma_functor_deviation(s, t[:1], *_square(t), 0),
            modcat.psi_shortcut_deviation(s, t[:1], *_square(t)))),
    "associator_from_chain": (
        5, lambda s, ts: sweep(s, ts, fusion_paths.associator_chain_pairs,
                               2),
        lambda s, t: psi(s, t[:1], *_square(t), 2).deviation(
            modcat.psi_from_gamma(s, t[:1], *_square(t), 2))),
    "twist_extraction": (
        1, lambda s, ts: sweep(s, ts, fusion_paths.twist_extraction_pairs),
        lambda s, t: abs(modcat.extract_twist(s, t).blocks[t[0]][0, 0]
                         - complex(s.theta[t[0]]))),
    "alpha_module_functor": (
        7, lambda s, ts: sweep(s, ts, fusion_paths.alpha_functor_pairs),
        lambda s, t: max_dev(*(modcat.alpha_functor_deviation(
            s, t[:1], *_square(t), sign) for sign in "+-"))),
    "commutor_witness": (
        5, lambda s, ts: sweep(s, ts, fusion_paths.commutor_witness_pairs),
        lambda s, t: modcat.commutor_witness_deviation(
            s, *((x,) for x in t))),
}


@pytest.mark.parametrize("name", TARGETS)
def test_sweeps_equal_the_per_tuple_deviations(name):
    """Tuple by tuple, to AGREE.  The Yang-Lee fixtures are held to their
    RELATIVE bound instead, as an absolute bound on the deviation: the
    engine's whiskered composites differ from the batched products by up to
    that much relative to a block (see RELATIVE), and on the tuples drawn
    here the deviations differ by up to 5.6e-14 (alpha_module_functor on
    the all-tau tuple)."""
    spec = TARGETS[name]()
    rng = np.random.default_rng(3)
    for sweep, (k, batched, single) in SWEEPS.items():
        tuples = [tuple(int(x) for x in row)
                  for row in rng.integers(0, spec.rank, size=(5, k))]
        bound = RELATIVE.get(name, AGREE)
        got = batched(spec, tuples)
        assert len(got) == len(tuples)
        for t, dev in zip(tuples, got):
            assert abs(dev - single(spec, t)) <= bound, (sweep, t)


def _engine_braid(spec, word, positions, over):
    """The product of ``engine.braid_generator`` at ``positions``, applied
    in turn from ``word``."""
    out = None
    for p in positions:
        g = braid_generator(spec, word, p, over)
        out, word = g if out is None else g @ out, g.dst
    return out


def test_inverses_and_twists_equal_the_engine_with_multiplicity_two():
    """On Rep(A4) words of length 2 to 5 with seeded random twists: the
    inverse of every generator and monodromy against the product of the
    engine's inverse generators in reverse order (the generators themselves
    equal the engine's, see above), and the twist of every prefix at powers
    -1, 1 and 2 against ``twist_endo``.  The inverse is held relative to
    the engine's block, as the generators of this random data are: its
    monodromies reach entries of 3.7e8.  It is also checked on its own: a
    block of the inverse times the braid's block is the identity, and it
    equals ``Morphism.inverse`` of the braid's blocks relative to the
    largest entry, each to AGREE times the block's condition number, the
    error of any inverse computed in floating point.  That is about AGREE
    on most words, and looser only where the braid is ill conditioned, up
    to 8.6e12 on the all-3 words, where the residual reaches 4.3e-4."""
    base = random_rep_a4()
    rng = np.random.default_rng(5)
    theta = np.exp(2j * np.pi * rng.uniform(size=base.rank))
    theta[0] = 1
    spec = CategorySpec("rep_a4_twisted", base.ring, base.dims, theta,
                        base.F, base.R)
    for L in range(2, 6):
        words = [(3,) * L] + sorted({tuple(int(x) for x in row) for row in
                                     rng.integers(0, 4, size=(12, L))})
        stack = PathStack(spec, words)
        order = tuple(range(L))
        braids = [stack.braid(order, (p,), over) for p, over in
                  itertools.product(range(1, L), (True, False))]
        braids += [stack.braid(order, fusion_paths._monodromy(
            1, cut, L - cut)) for cut in range(1, L)]
        for f, k in itertools.product(braids, range(len(words))):
            labels = [int(x) for x in stack.labels[k]]
            inv = f.inverse()
            _assert_equal_blocks(stack, inv, k, _engine_braid(
                spec, tuple(labels[i] for i in inv.src), *inv.key[1:]),
                AGREE)
            blocks = stack.blocks(f, k)
            same = Morphism(spec, tuple(labels[i] for i in f.src),
                            tuple(labels[i] for i in f.dst), blocks).inverse()
            for c, x in stack.blocks(inv, k).items():
                bound = AGREE * np.linalg.cond(blocks[c])
                assert np.abs(x @ blocks[c] - np.eye(len(x))).max() <= bound
                assert np.abs(x - same.blocks[c]).max() <= bound * max(
                    1.0, np.abs(same.blocks[c]).max()), (labels, c)
        for cut, power in itertools.product(range(L + 1), (-1, 1, 2)):
            t = stack.twist(order, cut, power)
            for k, word in enumerate(words):
                _assert_equal_blocks(stack, t, k, embed(
                    twist_endo(spec, word[:cut], power), right=word[cut:]))


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "random_rep_a4"])
def test_every_product_and_its_inverse_equal_the_engine(name, spec_of):
    """Every product of generators that the psi^(1) and psi_hat^(1)
    pentagon factors write out and every generator they build, and the
    inverse of each, on three seeded tuples: the product against the same
    ``engine.braid_generator`` maps,
    the inverse against those of the inverse generators in reverse order
    and against ``Morphism.inverse`` of the engine's product, all to AGREE.
    On Rep(A4) these tuples reach multiplicity 2 and local blocks of size
    7, with condition numbers up to 5.3."""
    spec = random_rep_a4() if name == "random_rep_a4" else spec_of(name)
    rng = np.random.default_rng(3)
    tuples = [tuple(int(x) for x in row)
              for row in rng.integers(0, spec.rank, size=(3, 7))]
    stack = PathStack(spec, tuples)
    for args, _ in RIGHT:
        stack.blocks(fusion_paths.psi(stack, *args, 1), 0)
    for args, _ in LEFT:
        stack.blocks(fusion_paths.psi_hat(stack, *args, 1), 0)
    keys = list(stack._braids) + [(order, (p,), over)
                                  for order, p, over in stack._built]
    assert len(keys) > 40 and {over for *_, over in keys} == {True, False}
    for key in keys:
        f = stack.braid(*key)
        inv = f.inverse()
        assert inv.key == (f.dst, key[1][::-1], not key[2])
        for k, labels in enumerate(tuples):
            want = _engine_braid(spec, tuple(labels[i] for i in f.src),
                                 *key[1:])
            _assert_equal_blocks(stack, f, k, want)
            _assert_equal_blocks(stack, inv, k, _engine_braid(
                spec, tuple(labels[i] for i in inv.src), *inv.key[1:]))
            _assert_equal_blocks(stack, inv, k, want.inverse())


def _with_r(spec, key, block):
    R = dict(spec.R)
    R[key] = block
    return CategorySpec(f"{spec.name}-edited", spec.ring, spec.dims,
                        spec.theta, spec.F, R)


def test_singular_braids_are_refused_with_their_word(spec_of):
    """A braid is built when it is first read, so the error comes from
    ``stack.blocks``, not from ``inverse``.  The inverse of a generator is
    the inverse generator, built from the inverse R-blocks, so the error
    names the singular R-block, as ``engine.braid_generator`` does."""
    spec = _with_r(spec_of("fibonacci"), (1, 1, 0), np.zeros((1, 1)))
    stack = PathStack(spec, [(0, 1), (1, 1)])
    inv = stack.braid((0, 1), (1,)).inverse()
    with pytest.raises(NotPremodular, match=re.escape(
            "R-block (1, 1, 0) is singular")):
        stack.blocks(inv, 1)
    with pytest.raises(NotPremodular, match=re.escape(
            "R-block (1, 1, 0) is singular")):
        braid_generator(spec, (1, 1), 1, False)


def test_non_finite_blocks_invert_to_nan(spec_of):
    """A NaN or infinite block inverts to NaN, so that its tuple fails, and
    so does the engine's inverse of it; the other blocks invert as the
    engine's."""
    for value in (np.nan, np.inf):
        spec = _with_r(spec_of("fibonacci"), (1, 1, 0),
                       np.full((1, 1), value))
        stack = PathStack(spec, [(0, 1), (1, 1)])
        inv = stack.braid((0, 1), (1,)).inverse()
        got = stack.blocks(inv, 1)
        assert np.isnan(got[0]).all()
        engine = braid_generator(spec, (1, 1), 1)
        assert np.isnan(engine.inverse().blocks[0]).all()
        want = np.linalg.inv(engine.blocks[1])
        assert np.abs(got[1] - want).max() <= AGREE
        _assert_equal_blocks(stack, inv, 0,
                             braid_generator(spec, (0, 1), 1).inverse())


@pytest.mark.parametrize("k", [-1, 2, 5, True, 1.0, np.int64(0)])
def test_blocks_refuse_tuples_outside_the_stack(spec_of, k):
    """A tuple that is not in the stack has no blocks to compare: it is
    refused, not read as an empty dict."""
    stack = PathStack(spec_of("ising"), [(1, 2), (1, 1)])
    g = stack.braid((0, 1), (1,))
    with pytest.raises(IndexError, match="no tuple"):
        stack.blocks(g, k)


def test_empty_blocks_cross_as_identities(spec_of):
    """psi with an empty U' has empty crossings and monodromies."""
    spec = spec_of("ising")
    tuples = [(1, 2, 1, 1), (2, 1, 1, 0)]
    stack = PathStack(spec, tuples)
    f = fusion_paths.psi(stack, (0, 1, 2, 3), 2, 0, 1, 1)
    for k, (m, u, v, vp) in enumerate(tuples):
        _assert_equal_blocks(stack, f, k,
                             psi(spec, (m,), ((u,), (v,)), ((), (vp,)), 1))


@pytest.mark.parametrize("tuples", [
    [(0, 1, 1, 1, 1, 1, 3)],
    [(0, 1, 1, 1, 1, 1, -1)],
    [(0, 1, 1), (0, 1)],
    [[0, 1, 1]],
    [(0, 1, np.int64(1))],
    [()],
    []])
def test_stack_refuses_bad_tuples(spec_of, tuples):
    with pytest.raises(InvalidWord):
        PathStack(spec_of("ising"), tuples)


def test_braids_between_other_word_orders_are_refused(spec_of):
    stack = PathStack(spec_of("ising"), [(1, 2, 1)])
    g = stack.braid((0, 1, 2), (1,))
    for bad in (lambda: g @ g, lambda: g.power(2),
                lambda: stack.deviations(g, stack.identity((0, 1, 2)))):
        with pytest.raises(ShapeMismatch):
            bad()


@pytest.mark.parametrize("p", [0, 3])
def test_generator_refuses_positions_outside_the_word(spec_of, p):
    stack = PathStack(spec_of("ising"), [(1, 1, 1)])
    with pytest.raises(PositionOutOfRange):
        stack.braid((0, 1, 2), (p,))


@pytest.mark.parametrize("k", [-1, 4])
def test_twist_refuses_prefixes_outside_the_word(spec_of, k):
    stack = PathStack(spec_of("ising"), [(1, 1, 1)])
    with pytest.raises(PositionOutOfRange):
        stack.twist((0, 1, 2), k)


# ---------------------------------------------------------------------------
# data that fail their axioms


def _edited(name, change):
    """The builtin ``name`` with F and R edited by ``change(F, R)``."""
    spec = suite.get_category(name)
    F, R = dict(spec.F), dict(spec.R)
    change(F, R)
    return CategorySpec(f"{name}-edited", spec.ring, spec.dims, spec.theta,
                        F, R)


def _report(monkeypatch, name, change, suites):
    """run_suite on the builtin ``name`` with F and R edited by
    ``change(F, R)``."""
    bad = _edited(name, change)
    monkeypatch.setattr(suite, "resolve_target", lambda target: bad)
    report = run_suite(bad.name, suites=suites)
    return {c.name: c for c in report.checks}, report


def test_f_failing_the_pentagon_fails_the_report(monkeypatch):
    """Ising with F[sigma, psi, psi; sigma] times 1.1.  Products of local
    generators still compose, so the module relations and the sweeps may
    pass; F's own pentagon fails, and so does the report."""
    def change(F, R):
        F[1, 2, 2, 1] = F[1, 2, 2, 1] * 1.1
    checks, report = _report(monkeypatch, "ising", change,
                             ["category", "module"])
    assert checks["pentagon"].status == "fail"
    assert not report.passed


def test_f_failing_the_pentagon_fails_the_module_pentagon(monkeypatch):
    """Fibonacci with the vacuum entry of F[tau, tau, tau; tau] times 1.1:
    the generators no longer satisfy the braid relations that the module
    pentagon needs, and both relations of the module section fail."""
    def change(F, R):
        F[1, 1, 1, 1] = F[1, 1, 1, 1] * np.array([[1.1, 1], [1, 1]])
    checks = {c.name: c for c in module_sweeps(_edited("fibonacci",
                                                       change)).checks}
    assert checks["module_pentagon"].status == "fail"
    assert checks["module_pentagon"].max_deviation > 1e-3
    checks, _ = _report(monkeypatch, "fibonacci", change, ["module"])
    for name in ("braid_relations", "twist_relation"):
        assert checks[name].max_deviation > 1e-3, name


def test_nan_braiding_fails_the_module_pentagon(monkeypatch):
    """A NaN or infinite R[tau, tau; tau], or an infinite entry of
    F[tau, tau, tau; tau], fails both batched module pentagons, the
    single-tuple one and both relations of the module section with NaN."""
    def r_block(value):
        def change(F, R):
            R[1, 1, 1] = np.full((1, 1), value)
        return change

    def inf_f(F, R):
        F[1, 1, 1, 1] = F[1, 1, 1, 1] + np.array([[np.inf, 0], [0, 0]])
    for change in (r_block(np.nan), r_block(np.inf), inf_f):
        with np.errstate(invalid="ignore"):
            checks, _ = _report(monkeypatch, "fibonacci", change, ["module"])
            bad = suite.resolve_target("fibonacci-edited")
            checks.update((c.name, c) for c in module_sweeps(bad).checks)
            single = modcat.module_pentagon_deviation(
                bad, (1,), ((1,), (1,)), ((1,), (1,)), ((1,), (1,)), 1)
        for name in ("module_pentagon", "left_module_pentagon",
                     "braid_relations", "twist_relation"):
            assert checks[name].status == "fail"
            assert np.isnan(checks[name].max_deviation)
        assert np.isnan(single)
