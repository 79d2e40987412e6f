"""The basis contract: F-rows are the left-nested trees of (a, b, c) at root
d, F-columns the right-nested (f, gamma, delta) pairs, every position map
inverts its label list, and ``f_tensor`` is the F-block read in that
basis."""

import itertools

import numpy as np
import pytest

from mtc.category import CategorySpec
from mtc.deligne import deligne_power
from mtc.engine import tree_positions, trees
from mtc.errors import NotPremodular

from conftest import BUILTINS, random_rep_a4

SQUARES = ["fibonacci", "ising"]


@pytest.fixture(scope="module")
def squares(spec_of):
    return {name: deligne_power(spec_of(name), 2) for name in SQUARES}


@pytest.fixture(params=[*BUILTINS, *(f"{name}^2" for name in SQUARES),
                        "rep_a4_random"])
def spec(request, spec_of, squares):
    name = request.param
    if name == "rep_a4_random":
        return random_rep_a4()
    return squares[name[:-2]] if name.endswith("^2") else spec_of(name)


def assert_inverts(labels, pos):
    assert len(pos) == len(labels)
    assert all(pos[lab] == i for i, lab in enumerate(labels))


def test_f_rows_are_the_trees_of_the_word(spec):
    N = spec.ring.N
    for a, b, c in itertools.product(range(spec.rank), repeat=3):
        ts = trees(spec, (a, b, c))
        for d in range(spec.rank):
            flat = [(L[0], M[0], M[1]) for L, M in ts.get(d, ())]
            want = [(e, alpha, beta) for e in range(spec.rank)
                    for alpha in range(N[a, b, e]) for beta in range(N[e, c, d])]
            assert spec.f_rows(a, b, c, d) == flat == want


def test_f_cols_are_the_right_nested_pairs(spec):
    N = spec.ring.N
    for a, b, c, d in itertools.product(range(spec.rank), repeat=4):
        want = [(f, gamma, delta) for f in range(spec.rank)
                for gamma in range(N[b, c, f]) for delta in range(N[a, f, d])]
        assert spec.f_cols(a, b, c, d) == want


def test_position_maps_invert_their_lists(spec):
    r = spec.rank
    for a, b, c, d in itertools.product(range(r), repeat=4):
        rows, row_pos, cols, col_pos = spec.f_basis(a, b, c, d)
        assert_inverts(rows, row_pos)
        assert_inverts(cols, col_pos)
    for n in range(4):
        for word in itertools.product(range(r), repeat=n):
            pos = tree_positions(spec, word)
            for root, ts in trees(spec, word).items():
                assert_inverts(ts, pos[root])
            for k, root in itertools.product(range(n + 1), range(r)):
                assert_inverts(*spec.split_basis(word[:k], word[k:], root))


def test_f_tensor_is_the_f_block_in_the_basis(spec):
    N = spec.ring.N
    for a, b, c, d in itertools.product(range(spec.rank), repeat=4):
        rows, row_pos, cols, col_pos = spec.f_basis(a, b, c, d)
        blk = spec.f_block(a, b, c, d)
        for e, f in itertools.product({row[0] for row in rows},
                                      {col[0] for col in cols}):
            t = spec.f_tensor(a, b, c, d, e, f)
            assert t.shape == (N[a, b, e], N[e, c, d], N[b, c, f], N[a, f, d])
            for (alpha, beta, gamma, delta) in itertools.product(
                    *map(range, t.shape)):
                assert t[alpha, beta, gamma, delta] == \
                    blk[row_pos[e, alpha, beta], col_pos[f, gamma, delta]]


def test_wrong_block_shape_is_refused(spec_of):
    fib = spec_of("fibonacci")
    F = dict(fib.F)
    F[(1, 1, 1, 1)] = np.eye(3)
    bad = CategorySpec("fibonacci-misshapen", fib.ring, fib.dims, fib.theta,
                       F, dict(fib.R))
    with pytest.raises(NotPremodular, match="shape"):
        bad.f_block(1, 1, 1, 1)
