"""Shared fixtures.

Specs are immutable and carry per-instance engine caches, so building each
built-in once per session and sharing it keeps the suite fast without any
risk of cross-test interference.
"""

import numpy as np
import pytest

from mtc import get_category
from mtc.builtins import BUILTIN_NAMES as BUILTINS

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
