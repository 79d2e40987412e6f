"""Memoised tables and look-alike keys.

(1.0,), (True,) and (np.int64(1),) equal (1,) and hash like it, and a
float exponent or position equals an int one; a list word is unhashable.
Every public memoised table refuses them before its lookup, so a warm
cache gives them no entry of an int call, and a cold one computes nothing.
"""

import functools

import numpy as np
import pytest

from mtc import get_category
from mtc.deligne import product_tree_map
from mtc.engine import (block_crossing, braid_generator, cap_twisted,
                        cup_twisted, double_braiding, split_transform)
from mtc.errors import InvalidWord
from mtc.frobenius import PermutationAlgebra
from mtc.modcat import psi, psi_hat

# the one-letter word (1,) of semion, as an int tuple and as look-alikes
WORD = (1,)
LOOKALIKES = {"float": (1.0,), "bool": (True,), "numpy": (np.int64(1),),
              "list": [1]}


def _letter(w):
    """The word's letter, or the list word itself as a look-alike label."""
    return w if isinstance(w, list) else w[0]


@functools.cache
def _algebra(spec):
    """One algebra per spec, so that its maps are memoised across calls."""
    return PermutationAlgebra(spec)


# table -> call(spec, w) for a word w spelling (1,)
TABLES = {
    "tree_basis": lambda s, w: s.ring.tree_basis(w),
    "sum_basis": lambda s, w: s.ring.sum_basis(((0,), w)),
    "layout": lambda s, w: s.ring.layout(w, w),
    "tree_positions": lambda s, w: s.ring.tree_positions(w),
    "f_basis": lambda s, w: s.ring.f_basis(_letter(w), 1, 1, 1),
    "f_tensor": lambda s, w: s.f_tensor(_letter(w), 1, 1, 1, 0, 0),
    "split_transform": lambda s, w: split_transform(s, w * 2, 1),
    "braid_generator": lambda s, w: braid_generator(s, w * 2, 1),
    "block_crossing": lambda s, w: block_crossing(s, w * 3, 1),
    "double_braiding": lambda s, w: double_braiding(s, w * 2, 1, 2),
    "cup_twisted": lambda s, w: cup_twisted(s, _letter(w)),
    "cap_twisted": lambda s, w: cap_twisted(s, _letter(w)),
    "psi": lambda s, w: psi(s, w, (w, w), (w, ()), 1),
    "psi_hat": lambda s, w: psi_hat(s, (w, w), (w, ()), w, 1),
    "product_tree_map": lambda s, w: product_tree_map(
        _algebra(s).prod.ring, s.ring, s.ring, w * 2),
    "multiplication": lambda s, w: _algebra(s).multiplication(_letter(w)),
    "comultiplication": lambda s, w: _algebra(s).comultiplication(
        _letter(w)),
    "pairing_iso": lambda s, w: _algebra(s).pairing_iso(_letter(w)),
    "left_center_idempotent": lambda s, w:
        _algebra(s).left_center_idempotent(_letter(w)),
}


@pytest.mark.parametrize("lookalike", LOOKALIKES.values(), ids=LOOKALIKES)
@pytest.mark.parametrize("table", TABLES.values(), ids=TABLES)
def test_public_tables_refuse_lookalikes_on_a_warm_cache(table, lookalike):
    spec = get_category("semion")
    table(spec, WORD)
    with pytest.raises(InvalidWord):
        table(spec, lookalike)


M, X, Y = (1,), ((1,), (2,)), ((1,), (1,))

# (target, the int call that warms the cache, the same call with a
# non-int exponent or position that equals or truncates to the int one)
NON_INTEGER = {
    "psi": ("ising", lambda s: psi(s, M, X, Y, 2),
            lambda s: psi(s, M, X, Y, 2.7)),
    "double_braiding": ("ising", lambda s: double_braiding(s, (1, 1), 1, 1),
                        lambda s: double_braiding(s, (1, 1), 1, 1.5)),
    "braid_generator": ("ising", lambda s: braid_generator(s, (1, 1), 1),
                        lambda s: braid_generator(s, (1, 1), 1.0)),
    "block_crossing": ("ising", lambda s: block_crossing(s, (1, 1, 1), 1),
                       lambda s: block_crossing(s, (1, 1, 1), 1.0)),
    "multiplication": ("semion", lambda s: _algebra(s).multiplication(1),
                       lambda s: _algebra(s).multiplication(1.5)),
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("calls", NON_INTEGER.values(), ids=NON_INTEGER)
def test_non_integer_exponents_and_positions_are_refused(calls, warm):
    """A cold spec does not truncate the exponent, nor a warm one find the
    entry of the int call."""
    target, int_call, float_call = calls
    spec = get_category(target)
    if warm:
        int_call(spec)
    with pytest.raises(InvalidWord):
        float_call(spec)
