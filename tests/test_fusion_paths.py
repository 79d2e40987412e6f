"""The batched module pentagons of ``mtc.fusion_paths`` against the
engine.

Every factor of both pentagons, built for a whole stack of label tuples,
must equal block by block the ``modcat`` morphism that the per-tuple
pentagon builds, at n = 0, 1 and 2; single generators must equal
``engine.braid_generator`` on Rep(A4) words, whose local blocks have
fusion multiplicity 2.  The batched sides are products of local
generators, so on an F that fails the pentagon they can agree where the
engine's whiskered composites do not: the last tests pin what the report
still sees then.
"""

import itertools

import numpy as np
import pytest

import mtc.suite as suite
from mtc import fusion_paths
from mtc.builtins import BUILTIN_NAMES
from mtc.category import CategorySpec
from mtc.engine import braid_generator, embed
from mtc.errors import InvalidWord, PositionOutOfRange, ShapeMismatch
from mtc.fusion_paths import PathStack
from mtc.modcat import psi, psi_hat
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
            g = stack.generator(tuple(range(L)), p, over)
            for k, word in enumerate(words):
                _assert_equal_blocks(stack, g, k,
                                     braid_generator(spec, word, p, over))


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
    g = stack.generator((0, 1, 2), 1)
    for bad in (lambda: g @ g, lambda: g.power(2),
                lambda: stack.deviations(g, stack.identity((0, 1, 2)))):
        with pytest.raises(ShapeMismatch):
            bad()


@pytest.mark.parametrize("p", [0, 3])
def test_generator_refuses_positions_outside_the_word(spec_of, p):
    stack = PathStack(spec_of("ising"), [(1, 1, 1)])
    with pytest.raises(PositionOutOfRange):
        stack.generator((0, 1, 2), p)


# ---------------------------------------------------------------------------
# data that fail their axioms


def _report(monkeypatch, name, change, suites):
    """run_suite on the builtin ``name`` with F and R edited by
    ``change(F, R)``."""
    spec = suite.get_category(name)
    F, R = dict(spec.F), dict(spec.R)
    change(F, R)
    bad = CategorySpec(f"{name}-edited", spec.ring, spec.dims, spec.theta,
                       F, R)
    monkeypatch.setattr(suite, "resolve_target", lambda target: bad)
    report = run_suite(bad.name, suites=suites)
    return {c.name: c for c in report.checks}, report


def test_f_failing_the_pentagon_fails_the_report(monkeypatch):
    """Ising with F[sigma, psi, psi; sigma] times 1.1.  Products of local
    generators still compose, so the right module pentagon may pass; F's
    own pentagon fails, and so does the report."""
    def change(F, R):
        F[1, 2, 2, 1] = F[1, 2, 2, 1] * 1.1
    checks, report = _report(monkeypatch, "ising", change,
                             ["category", "module"])
    assert checks["pentagon"].status == "fail"
    assert not report.passed


def test_f_failing_the_pentagon_fails_the_module_pentagon(monkeypatch):
    """Fibonacci with the vacuum entry of F[tau, tau, tau; tau] times 1.1:
    the generators no longer satisfy the braid relations that the module
    pentagon needs."""
    def change(F, R):
        F[1, 1, 1, 1] = F[1, 1, 1, 1] * np.array([[1.1, 1], [1, 1]])
    checks, _ = _report(monkeypatch, "fibonacci", change, ["module"])
    assert checks["module_pentagon"].status == "fail"
    assert checks["module_pentagon"].max_deviation > 1e-3


def test_nan_braiding_fails_the_module_pentagon(monkeypatch):
    def change(F, R):
        R[1, 1, 1] = np.full((1, 1), np.nan)
    checks, _ = _report(monkeypatch, "fibonacci", change, ["module"])
    for name in ("module_pentagon", "left_module_pentagon"):
        assert checks[name].status == "fail"
        assert np.isnan(checks[name].max_deviation)
