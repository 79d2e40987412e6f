"""Shared fixtures.

Specs are immutable and carry per-instance engine caches, so building each
built-in once per session and sharing it keeps the suite fast without any
risk of cross-test interference.
"""

import itertools

import numpy as np
import pytest

from mtc import get_category
from mtc.builtins import BUILTIN_NAMES as BUILTINS
from mtc.category import CategorySpec, FusionRing

MODULAR = ["trivial", "semion", "fibonacci", "ising", "z_3(1)"]

_SPECS = {}


@pytest.fixture(scope="session")
def spec_of():
    """Callable returning a session-cached CategorySpec for a builtin name."""

    def get(name):
        if name not in _SPECS:
            _SPECS[name] = get_category(name)
        return _SPECS[name]

    return get


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def random_rep_a4():
    """The Rep(A4) fusion ring, labels 1, 1', 1'', 3 with
    3 (x) 3 = 1 + 1' + 1'' + 2 3, carrying seeded random F-blocks (complex)
    and R-blocks (real) of the shapes ``FusionRing.f_basis`` and
    ``r_block`` expect.

    The data is not coherent; it gives every multiplicity index of the
    coherence checks a value of its own.
    """
    N = np.zeros((4, 4, 4), dtype=np.int64)
    for a, b in itertools.product(range(3), repeat=2):
        N[a, b, (a + b) % 3] = 1
        N[a, 3, 3] = N[3, a, 3] = 1
    N[3, 3] = [1, 1, 1, 2]
    ring = FusionRing(N, [0, 2, 1, 3])
    rng = np.random.default_rng(0)
    F = {}
    for key in itertools.product(range(4), repeat=4):
        rows, _, cols, _ = ring.f_basis(*key)
        if 0 not in key[:3] and rows:
            shape = (len(rows), len(cols))
            F[key] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    R = {(a, b, c): rng.normal(size=(N[b, a, c], N[a, b, c]))
         for a, b, c in itertools.product(range(1, 4), range(1, 4), range(4))
         if N[a, b, c]}
    return CategorySpec("rep_a4_random", ring, np.ones(4), np.ones(4), F, R)
