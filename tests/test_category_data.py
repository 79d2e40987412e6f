"""Skeletal category layer: ring axioms, coherence validation, modular data,
and the JSON interchange format."""

import ast
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

import mtc
from mtc import (category, get_category, modular_datum, validate_category,
                 verlinde_fusion)
from mtc.builtins import BUILTIN_NAMES
from mtc.category import (CategorySpec, FusionRing, ToleranceConfig,
                          _f_store, _groups, _hexagon_deviations,
                          _pentagon_deviation, _ribbon_deviation,
                          dump_category, load_category, modular_group_relations,
                          spec_from_dict, spec_to_dict)
from mtc.deligne import deligne_pair, deligne_power
from mtc.errors import (CategoryFileError, NotModular, NotPremodular,
                        RingAxiomError, SnapFailure)
from mtc.report import max_dev

from conftest import MODULAR, random_rep_a4
from test_nonunitary import FIXTURES

PHI = (1 + np.sqrt(5)) / 2


# ---------------------------------------------------------------------------
# fusion rings


def test_ring_axioms_all_builtins(spec_of):
    """Every builtin fusion ring satisfies unit, duality, associativity."""
    for name in BUILTIN_NAMES:
        spec_of(name).ring.check_axioms()


def test_word_dims_matches_tree_enumeration(spec_of):
    """Iterated fusion dimension vectors have the right unit behaviour."""
    spec = spec_of("ising")
    ring = spec.ring
    assert ring.word_dims(()).tolist() == [1, 0, 0]
    assert ring.word_dims((1,)).tolist() == [0, 1, 0]
    # sigma x sigma = 1 + psi
    assert ring.word_dims((1, 1)).tolist() == [1, 0, 1]
    # sigma x sigma x sigma = 2 sigma
    assert ring.word_dims((1, 1, 1)).tolist() == [0, 2, 0]


def test_broken_unit_rejected():
    """A fusion tensor whose unit row is not the identity is refused when
    the ring is built."""
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0, 0, 0] = 1
    N[0, 1, 1] = 1
    N[1, 0, 0] = 1  # wrong: 1 x 0 should be 1
    N[1, 1, 0] = 1
    with pytest.raises(RingAxiomError):
        FusionRing(N, [0, 1])


def test_bad_dual_rejected():
    """The dual map must be an involutive permutation fixing the unit; the
    ring refuses one that is not when it is built."""
    N = np.zeros((2, 2, 2), dtype=np.int64)
    eye = np.eye(2, dtype=np.int64)
    N[0] = eye
    N[:, 0, :] = eye
    N[1, 1, 0] = 1
    with pytest.raises(RingAxiomError):
        FusionRing(N, [1, 0])


def _non_associative():
    """Unit and duality hold, but (1 x 2) x 2 = 0 + 1 + 2 while
    1 x (2 x 2) = 1."""
    N = np.zeros((3, 3, 3), dtype=np.int64)
    eye = np.eye(3, dtype=np.int64)
    N[0] = eye
    N[:, 0, :] = eye
    N[1, 1] = [1, 0, 1]
    N[1, 2] = N[2, 1] = [0, 1, 1]
    N[2, 2] = [1, 0, 0]
    return N, [0, 1, 2]


def test_non_associative_ring_rejected():
    with pytest.raises(RingAxiomError, match="fusion associativity fails"):
        FusionRing(*_non_associative())


def test_non_commutative_group_ring_is_associative():
    """The group ring of S3 is associative but not commutative: the ring
    is refused for commutativity, so associativity compared each (a, b, c,
    d) of (a b -> e)(e c -> d) with the same of (b c -> f)(a f -> d)."""
    group = list(itertools.permutations(range(3)))
    index = {g: i for i, g in enumerate(group)}
    N = np.zeros((6, 6, 6), dtype=np.int64)
    for g, h in itertools.product(group, repeat=2):
        N[index[g], index[h], index[tuple(g[i] for i in h)]] = 1
    dual = [int(np.flatnonzero(N[i, :, 0])[0]) for i in range(6)]
    with pytest.raises(RingAxiomError, match="not commutative"):
        FusionRing(N, dual)


def _z7_square():
    """The fusion ring of the square of z_7(k), rank 49, labels row-major."""
    N1 = np.zeros((7, 7, 7), dtype=np.int64)
    for a, b in itertools.product(range(7), repeat=2):
        N1[a, b, (a + b) % 7] = 1
    N = np.einsum("ace,bdf->abcdef", N1, N1).reshape(49, 49, 49)
    return N, [(-a) % 7 * 7 + (-b) % 7 for a in range(7) for b in range(7)]


def _huge_multiplicity():
    """x (x) x = 1 + 2^27 x: rank * max(N)^2 = 2^55 is past float64's exact
    integers, so associativity is checked in int64."""
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0] = N[:, 0] = np.eye(2, dtype=np.int64)
    N[1, 1] = [1, 2 ** 27]
    return N, [0, 1]


@pytest.mark.parametrize("ring", [_z7_square, _non_associative,
                                  _huge_multiplicity])
def test_associativity_verdict_equals_the_int64_products(ring):
    """``check_axioms`` multiplies in float64 while that is exact; its
    verdict is that of the int64 products on every first label."""
    N, dual = ring()
    r = len(N)
    associative = all(np.array_equal(
        (Na @ N.reshape(r, r * r)).reshape(r, r, r), N @ Na) for Na in N)
    try:
        FusionRing(N, dual)
    except RingAxiomError as exc:
        assert not associative and "associativity" in str(exc)
    else:
        assert associative


# ---------------------------------------------------------------------------
# coherence validation


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_coherence(spec_of, name):
    """Pentagon, both hexagons, ribbon compatibility pass below 1e-9."""
    rep = validate_category(spec_of(name))
    assert rep.passed, rep.summary()
    assert rep.max_deviation < 1e-9


@pytest.mark.parametrize("table,intact,broken", [
    ("R", "pentagon", "hexagon_braiding"),
    ("F", "f_completeness", "pentagon"),
], ids=["R", "F"])
def test_detuned_symbol_fails_coherence(spec_of, table, intact, broken):
    """Multiplying one R-symbol by a small phase breaks the hexagon at the
    size of the perturbation while the pentagon stays exact; an F-symbol so
    detuned breaks the pentagon while every F-block stays invertible."""
    fib = spec_of("fibonacci")
    F, R = dict(fib.F), dict(fib.R)
    symbols, key = (R, (1, 1, 1)) if table == "R" else (F, (1, 1, 1, 1))
    symbols[key] = symbols[key] * np.exp(1e-3j)
    bad = CategorySpec("fibonacci-detuned", fib.ring, fib.dims, fib.theta,
                       F, R)
    rep = validate_category(bad)
    by_name = {c.name: c for c in rep.checks}
    assert by_name[intact].status == "pass"
    assert by_name[broken].status == "fail"
    assert 1e-4 < by_name[broken].max_deviation < 1e-2


def _reference_pentagon(spec):
    """The pentagon as one scalar-loop iteration and one einsum per
    admissible label tuple, the check's earlier form."""
    ring = spec.ring
    N = ring.N
    T = spec.f_tensor
    worst = 0.0
    for a, b, c, d in itertools.product(range(spec.rank), repeat=4):
        for f in ring.channels(a, b):
            for g in ring.channels(f, c):
                for e in ring.channels(g, d):
                    for l in ring.channels(c, d):
                        for k in ring.channels(b, l):
                            if not N[a, k, e]:
                                continue
                            lhs = np.einsum("BGND,ADLM->ABGNLM",
                                            T(f, c, d, e, g, l),
                                            T(a, b, l, e, f, k))
                            rhs = sum(np.einsum("ABSP,PGRM,SRNL->ABGNLM",
                                                T(a, b, c, g, f, h),
                                                T(a, h, d, e, g, k),
                                                T(b, c, d, k, h, l))
                                      for h in ring.channels(b, c)
                                      if N[a, h, g] and N[h, d, k])
                            worst = max_dev(worst, float(np.max(
                                np.abs(lhs - rhs))))
    return worst


def _reference_hexagon(spec, inverse):
    """A hexagon as one loop iteration per admissible label tuple, the
    check's earlier form."""
    ring = spec.ring
    N = ring.N
    T = spec.f_tensor

    def R(x, y, z):
        return np.linalg.inv(spec.r_block(y, x, z)) if inverse \
            else spec.r_block(x, y, z)

    worst = 0.0
    for a, b, c in itertools.product(range(spec.rank), repeat=3):
        for e in ring.channels(a, c):
            for d in ring.channels(e, b):
                for g in ring.channels(c, b):
                    if not N[a, g, d]:
                        continue
                    lhs = np.einsum("Xa,aBgD,Yg->XBYD", R(c, a, e),
                                    T(a, c, b, d, e, g), R(c, b, g))
                    rhs = sum(np.einsum("XBmF,EF,mEYD->XBYD",
                                        T(c, a, b, d, e, f), R(c, f, d),
                                        T(a, b, c, d, f, g))
                              for f in ring.channels(a, b) if N[c, f, d])
                    worst = max_dev(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@pytest.fixture(scope="module")
def squares(spec_of):
    return {name: deligne_power(spec_of(name), 2)
            for name in ("semion", "fibonacci", "ising", "z_3(1)")}


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "semion^2", "fibonacci^2",
                                  "ising^2", "z_3(1)^2"])
def test_batched_coherence_equals_the_loops(spec_of, squares, name):
    """The batched pentagon and hexagons give the loops' deviations bit
    for bit on every builtin and on four squares."""
    spec = squares[name[:-2]] if name.endswith("^2") else spec_of(name)
    assert _pentagon_deviation(spec) == _reference_pentagon(spec)
    assert _hexagon_deviations(spec) == (_reference_hexagon(spec, False),
                                         _reference_hexagon(spec, True))


def _reference_ribbon(spec):
    """The ribbon identity as one loop iteration per (a, b, c), the check's
    earlier form."""
    worst = 0.0
    for a in range(spec.rank):
        for b in range(spec.rank):
            for c in spec.ring.channels(a, b):
                mat = spec.r_block(b, a, c) @ spec.r_block(a, b, c)
                want = spec.theta[c] / (spec.theta[a] * spec.theta[b])
                dev = np.max(np.abs(mat - want * np.eye(mat.shape[0])))
                worst = max_dev(worst, float(dev))
    return worst


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "semion^2", "fibonacci^2",
                                  "ising^2", "z_3(1)^2", "rep_a4_random"])
def test_batched_ribbon_equals_the_loop(spec_of, squares, name):
    """The ribbon deviation from stacks of R-blocks is the loop's, bit for
    bit, on every builtin, four squares and random data with a fusion
    multiplicity of 2."""
    spec = squares[name[:-2]] if name.endswith("^2") else \
        random_rep_a4() if name == "rep_a4_random" else spec_of(name)
    assert _ribbon_deviation(spec) == _reference_ribbon(spec)


def _enumerated_rows(spec):
    """Per first label, the label tuples that the pentagon and the hexagons
    enumerate before their last filter, counted by loops: (pentagon,
    hexagons)."""
    r, ch = spec.rank, spec.ring.channels
    pentagon = [sum(len(ch(b, l)) for b in range(r) for f in ch(a, b)
                    for c in range(r) for g in ch(f, c)
                    for d in range(r) for e in ch(g, d) for l in ch(c, d))
                for a in range(r)]
    hexagons = [sum(len(ch(c, b)) for b in range(r) for c in range(r)
                    for e in ch(a, c) for d in ch(e, b))
                for a in range(r)]
    return pentagon, hexagons


@pytest.mark.parametrize("name", ["ising^2", "z_3(1)^2", "rep_a4_random"])
def test_rounds_do_not_change_coherence(monkeypatch, squares, name):
    """The pentagon, both hexagons and the ribbon identity read the same
    deviations, bit for bit, when every first label has a round of its
    own.  At the default cap no round enumerates more than ``_ROUND_ROWS``
    label tuples unless its one first label does, and the counts the
    rounds are cut by are the tuples the checks enumerate.  The sides are
    cached per spec, so each measurement starts from an empty ``sides``
    section."""
    spec = random_rep_a4() if name == "rep_a4_random" else squares[name[:-2]]
    rounds, cut = [], category._rounds

    def recording(rows):
        for run in cut(rows):
            rounds.append((int(rows[run].sum()), len(run)))
            yield run

    def deviations():
        rounds.clear()
        spec._cache.pop("sides", None)
        return (_pentagon_deviation(spec), *_hexagon_deviations(spec),
                _ribbon_deviation(spec))

    monkeypatch.setattr(category, "_rounds", recording)
    default = deviations()
    assert all(total <= category._ROUND_ROWS or labels == 1
               for total, labels in rounds), rounds
    assert len(rounds) < 2 * spec.rank  # first labels shared rounds
    pentagon, hexagons = _enumerated_rows(spec)
    assert category._pentagon_rows(spec.ring.N).tolist() == pentagon
    assert category._hexagon_rows(spec.ring.N).tolist() == hexagons
    monkeypatch.setattr(category, "_ROUND_ROWS", 1)
    alone = deviations()
    assert rounds == [(n, 1) for n in pentagon + hexagons]
    assert alone == default


def test_validation_plans_each_round_once(monkeypatch, squares):
    """``validate_category`` of the ising square builds ten gather plans:
    one per side in each of the pentagon's four rounds and in the one round
    that both hexagons share.  With a round per first label and plans per
    hexagon it built 54.  The sides are cached per spec, so the module's
    square starts from an empty ``sides`` section."""
    built, plan = [], category._LabelTable.plan
    squares["ising"]._cache.pop("sides", None)

    def counting(*args):
        built.append(1)
        return plan(*args)

    monkeypatch.setattr(category._LabelTable, "plan", counting)
    assert validate_category(squares["ising"]).passed
    assert len(built) == 10


def test_batched_coherence_matches_the_loops_with_multiplicity():
    """On random data with a fusion multiplicity of 2, where the groups
    have many multiplicity signatures, the deviations are the loops'."""
    spec = random_rep_a4()
    assert _pentagon_deviation(spec) == _reference_pentagon(spec)
    assert _hexagon_deviations(spec) == (_reference_hexagon(spec, False),
                                         _reference_hexagon(spec, True))


def test_multiplicity_deviations_are_pinned():
    """On random data with a fusion multiplicity of 2, the coherence
    deviations equal those of the scalar loops that summed every
    multiplicity index by hand."""
    spec = random_rep_a4()
    spec.ring.check_axioms()
    assert _pentagon_deviation(spec) == \
        pytest.approx(52.811151219724614, rel=1e-12)
    assert _hexagon_deviations(spec) == pytest.approx(
        (21.927861018782412, 271.07264024483294), rel=1e-12)


def test_nan_braiding_fails(spec_of):
    """A NaN or infinite R-symbol fails every check that reads it with a
    non-finite deviation instead of being dropped by the running maximum;
    the inverse braiding of an infinite block is NaN, not a finite wrong
    inverse."""
    ising = spec_of("ising")
    for value in (np.nan, np.inf):
        R = dict(ising.R)
        R[(1, 1, 0)] = np.array([[value]], dtype=np.complex128)
        bad = CategorySpec("ising-non-finite", ising.ring, ising.dims,
                           ising.theta, dict(ising.F), R)
        with np.errstate(invalid="ignore"):
            rep = validate_category(bad)
        by_name = {c.name: c for c in rep.checks}
        for name in ("hexagon_braiding", "hexagon_inverse",
                     "ribbon_compatibility"):
            assert by_name[name].status == "fail", (value, name)
            assert not np.isfinite(by_name[name].max_deviation), (value, name)
        assert np.isnan(by_name["hexagon_inverse"].max_deviation), value
        assert by_name["pentagon"].status == "pass"
        assert not rep.passed
        assert np.isnan(rep.max_deviation)


def test_store_reads_a_missing_block_as_zeros(spec_of):
    """A gather keeps every row: a label tuple without a block reads as
    zeros instead of borrowing the next key's entries.  On fibonacci,
    (1,1,1,1; 0,1) has a block and (1,1,1,0; 0,1), with N[0,1,0] = 0, has
    none."""
    fib = spec_of("fibonacci")
    store = _f_store(fib)
    labels = [np.array(x) for x in zip((1, 1, 1, 1, 0, 1),
                                       (1, 1, 1, 0, 0, 1),
                                       (1, 1, 1, 1, 0, 1))]
    got = store.take(labels, (1, 1, 1, 1))
    want = fib.f_tensor(1, 1, 1, 1, 0, 1)
    assert got.shape == (3, 1, 1, 1, 1)
    assert np.array_equal(got[[0, 2]], np.stack([want, want]))
    assert np.array_equal(got[1], np.zeros((1, 1, 1, 1)))


@pytest.mark.parametrize("table", ["F", "R"])
def test_nan_symbol_propagates_through_coherence(spec_of, table):
    """A NaN symbol read by the pentagon or a hexagon makes its deviation
    NaN, not the maximum of the finite ones (no completeness check runs
    first).  So does an infinite R-symbol, whose inverse braiding is NaN;
    the pentagon and the hexagons invert no F-block."""
    fib = spec_of("fibonacci")
    for value in ((np.nan,) if table == "F" else (np.nan, np.inf)):
        F, R = dict(fib.F), dict(fib.R)
        if table == "F":
            F[(1, 1, 1, 1)] = F[(1, 1, 1, 1)].copy()
            F[(1, 1, 1, 1)][1, 0] = value
        else:
            R[(1, 1, 1)] = np.array([[value]], dtype=np.complex128)
        bad = CategorySpec("fibonacci-non-finite", fib.ring, fib.dims,
                           fib.theta, F, R)
        if table == "F":
            assert np.isnan(_pentagon_deviation(bad))
        braiding, inverse = _hexagon_deviations(bad)
        assert np.isnan(braiding) and np.isnan(inverse), value


def test_rank_25_square_is_coherent(spec_of):
    """validate_category on the z_5(2) square: 390,625 pentagon tuples.
    Each first label enumerates 15,625, more than ``_ROUND_ROWS``, so the
    pentagon takes one round per first label and the hexagons, 625 tuples
    per label, thirteen labels per round."""
    rep = validate_category(deligne_power(spec_of("z_5(2)"), 2))
    assert rep.passed, rep.summary()
    assert rep.max_deviation < 1e-9


def test_groups_renumber_codes_that_would_overflow():
    """Rows are grouped by their values packed into one int64; a column
    that would overflow the packed code first has the codes renumbered."""
    cols = [np.array([5, 2 ** 40, 5, 7]), np.array([1, 1, 1, 0]),
            np.array([3, 3, 3, 3])]
    got = [(idx.tolist(), row) for idx, row in _groups(cols, 2 ** 41)]
    assert got == [([0, 2], (5, 1, 3)), ([3], (7, 0, 3)),
                   ([1], (2 ** 40, 1, 3))]


def test_f_store_holds_every_f_tensor():
    """Every block of the F store is the ``f_tensor`` of its labels, on data
    with a fusion multiplicity of 2, and no other label tuple has one."""
    spec = random_rep_a4()
    store = _f_store(spec)
    r = spec.rank
    every = list(itertools.product(range(r), repeat=6))
    labels = [key for key in every if spec.f_tensor(*key).size]
    start, _ = store.find(store.codes([np.array(x) for x in zip(*every)]))
    assert [key for key, at in zip(every, start.tolist())
            if at != store.blank] == labels
    for key in labels:
        want = spec.f_tensor(*key)
        got = store.take([np.array([x]) for x in key], want.shape)[0]
        assert np.array_equal(got, want)


def _spec(spec_of, name):
    """A builtin, a builtin's square ("name^2"), Rep(A4) random data or a
    non-unitary fixture of ``test_nonunitary``."""
    if name == "rep_a4_random":
        return random_rep_a4()
    if name in FIXTURES:
        return FIXTURES[name]()
    if name.endswith("^2"):
        return deligne_power(spec_of(name[:-2]), 2)
    return spec_of(name)


# the targets whose every ``validate_category`` deviation is pinned in
# ``golden/coherence.json``, spelled as ``_spec`` reads them
COHERENCE_TARGETS = [*BUILTIN_NAMES, *(f"{n}^2" for n in BUILTIN_NAMES),
                     "z_5(2)", "rep_a4_random", *FIXTURES]


@pytest.mark.parametrize("name", COHERENCE_TARGETS)
def test_coherence_holds_bit_for_bit(spec_of, name):
    """Every deviation of ``validate_category`` on each builtin, its square,
    z_5(2), the random Rep(A4) data and the non-unitary fixtures equals the
    one pinned in ``golden/coherence.json`` exactly, so a refactor of the
    pentagon and hexagon rounds cannot drift within the golden reports'
    tolerance.

    After a change that is meant to move these deviations, regenerate the
    file from the repository root with

        PYTHONPATH=src:tests python3 -c '
        import json
        from mtc import get_category, validate_category
        from test_category_data import COHERENCE_TARGETS, _spec
        print(json.dumps({t: {c.name: c.max_deviation for c in
                              validate_category(_spec(get_category, t)).checks}
                          for t in COHERENCE_TARGETS}, indent=1))' \\
            > tests/golden/coherence.json
    """
    pinned = json.loads((Path(__file__).parent / "golden" / "coherence.json"
                         ).read_text("utf-8"))[name]
    report = validate_category(_spec(spec_of, name))
    assert {c.name: c.max_deviation for c in report.checks} == pinned


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "rep_a4_random",
                                  *(f"{n}^2" for n in BUILTIN_NAMES)])
def test_store_lookups_equal_the_key_search(spec_of, name):
    """The stores find a block by arithmetic on the codes of its fusion
    vertices.  That finds what a search of the sorted key codes finds:
    each ``f_tensor`` block where ``_encode`` and ``searchsorted`` find
    its F-block, moved by the rows and columns of the lower channels in
    ``FusionRing.f_basis``, and each R-block, or inverse R-block, where the
    search finds its key.  A label tuple with N = 0 at a vertex points at
    the zeros, and every ``f_tensor`` read from the F store is the slice
    of ``f_block``."""
    spec = _spec(spec_of, name)
    ring, r, N = spec.ring, spec.rank, spec.ring.N
    keys, store = category._blocks(spec, "F").keys, category._f_store(spec)
    tuples, starts = [], []
    for key in zip(*(x.tolist() for x in np.unravel_index(keys.codes,
                                                          (r,) * 4))):
        rows, row_pos, cols, col_pos = ring.f_basis(*key)
        at = keys.start[np.searchsorted(keys.codes, category._encode(
            [np.array([x]) for x in key], r))][0]
        for e, f in itertools.product({x[0] for x in rows},
                                      {x[0] for x in cols}):
            tuples.append(key + (e, f))
            starts.append(at + row_pos[e, 0, 0] * len(rows)
                          + col_pos[f, 0, 0])
    labels = [np.array(x) for x in zip(*tuples)]
    start, stride = store.find(store.codes(labels))
    assert start.tolist() == starts
    assert stride.tolist() == [len(spec.f_block(*t[:4])) for t in tuples]
    for t in tuples:
        want = spec.f_tensor(*t)
        got = store.take([np.array([x]) for x in t], want.shape)[0]
        assert np.array_equal(got, want), t
    # every label tuple, or a seeded sample of them, against N
    rng = np.random.default_rng(3)
    labels = [x.ravel() for x in np.indices((r,) * 6)] if r ** 6 <= 5000 \
        else list(rng.integers(0, r, size=(6, 5000)))
    a, b, c, d, e, f = labels
    present = (N[a, b, e] * N[e, c, d] * N[b, c, f] * N[a, f, d]) > 0
    start, _ = store.find(store.codes(labels))
    assert ((start != store.blank) == present).all()
    # R and inverse R: every vertex found, every other triple at the zeros
    x, y, z = (v.ravel() for v in np.indices((r,) * 3))
    for inverse in (False, True):
        R = category._r_store(spec, inverse)
        rk = category._blocks(spec, "R").keys
        want = np.where(N[x, y, z] > 0, rk.start[np.minimum(np.searchsorted(
            rk.codes, category._encode((x, y, z), r)), len(rk.codes) - 1)],
            R.blank)
        assert np.array_equal(R.find(R.codes((x, y, z)))[0], want)


class _Reads(dict):
    """A spec's ``blocks`` section that logs every block table read."""

    def __init__(self, blocks, log):
        super().__init__(blocks)
        self.log = log

    def __getitem__(self, kind):
        self.log.append((kind, super().__getitem__(kind)))
        return self.log[-1][1]


def test_every_reader_reads_the_one_copy_of_the_blocks(spec_of):
    """f_completeness, the F, inverse-F and R stores, both inverse tables,
    the fusion-path local blocks and the factor tables of
    ``deligne_pair`` all read the spec's ``blocks`` section, the very
    objects it holds; the F and R stores read them in place."""
    from mtc.fusion_paths import _braid_blocks
    readers = {
        "f_completeness": lambda s: category._f_block_failure(s, 1e-9),
        "f_store": category._f_store,
        "finv_store": lambda s: category._f_store(s, True),
        "f_inverses": category._f_inverses,
        "r_inverses": category._r_inverses,
        "r_store": lambda s: category._r_store(s, True),
        "braid_blocks": lambda s: _braid_blocks(s, True),
        "deligne_pair": lambda s: deligne_pair(s, spec_of("semion")),
    }
    ising = spec_of("ising")
    for name, read in readers.items():
        spec = CategorySpec("ising", ising.ring, ising.dims, ising.theta,
                            dict(ising.F), dict(ising.R))
        held, log = dict(spec._cache["blocks"]), []
        spec._cache["blocks"] = _Reads(held, log)
        read(spec)
        assert log and all(got is held[kind] for kind, got in log), name
    F, R = held["F"], held["R"]
    assert category._f_store(spec).flat is F.flat
    assert category._r_store(spec, False).flat is R.flat
    assert category._f_inverses(spec).keys is F.keys
    assert category._r_inverses(spec).keys is R.keys
    assert category._r_store(spec, True).flat is \
        category._r_inverses(spec).flat


def test_a_spec_names_the_key_of_a_wrong_block(spec_of):
    """Built from dicts, a spec still checks every block it is given and
    names the key of a missing, a misshapen or an extra one; a non-finite
    block fails ``f_completeness`` and inverts to NaN."""
    ising = spec_of("ising")
    for table, key, blk, message in (
            ("F", (1, 1, 1, 1), None, "missing F-symbols for (1, 1, 1, 1)"),
            ("F", (1, 1, 1, 1), np.eye(3), "F-block (1, 1, 1, 1) has shape "
                                           "(3, 3), expected (2, 2)"),
            ("R", (0, 1, 1), np.eye(1), "R-symbols for (0, 1, 1), which "
                                        "are not stored")):
        tables = {"F": dict(ising.F), "R": dict(ising.R)}
        tables[table].pop(key, None)
        if blk is not None:
            tables[table][key] = blk
        with pytest.raises(NotPremodular, match=re.escape(message)):
            CategorySpec("bad", ising.ring, ising.dims, ising.theta,
                         tables["F"], tables["R"])
    F = dict(ising.F)
    F[1, 1, 1, 1] = np.full((2, 2), np.inf)
    bad = CategorySpec("inf", ising.ring, ising.dims, ising.theta, F,
                       ising.R)
    assert category._f_block_failure(bad, 1e-9) == \
        "F-block (1,1,1;1) is not finite"
    assert np.isnan(category._f_inverses(bad).table()[1, 1, 1, 1]).all()


def test_nan_f_symbol_fails_completeness(spec_of):
    """A NaN F-symbol fails f_completeness, naming its block, instead of
    reaching the SVD."""
    ising = spec_of("ising")
    F = dict(ising.F)
    F[(1, 1, 1, 1)] = F[(1, 1, 1, 1)].copy()
    F[(1, 1, 1, 1)][0, 1] = np.nan
    bad = CategorySpec("ising-nan-f", ising.ring, ising.dims, ising.theta, F,
                       dict(ising.R))
    rep = validate_category(bad)
    check = {c.name: c for c in rep.checks}["f_completeness"]
    assert check.status == "fail"
    assert "(1,1,1;1)" in check.detail
    assert not rep.passed


def _linalg_inv_sites(node, owner=""):
    """(owner, line) of every reference to a ``linalg.inv`` under the
    node, its owner the dotted name of the enclosing definitions."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        owner = f"{owner}.{node.name}" if owner else node.name
    if (isinstance(node, ast.Attribute) and node.attr == "inv"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg") or (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").endswith("linalg")
            and any(alias.name == "inv" for alias in node.names)):
        yield owner, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _linalg_inv_sites(child, owner)


def test_only_inverses_calls_np_linalg_inv():
    """Inverting a block of the data is one decision: every
    ``np.linalg.inv`` of the package is in ``category._inverses``, which
    maps a non-finite block to NaN and names a singular one."""
    sites = {(path.name, owner, line)
             for path in sorted(Path(mtc.__file__).parent.glob("*.py"))
             for owner, line in _linalg_inv_sites(
                 ast.parse(path.read_text("utf-8")))}
    assert {(name, owner) for name, owner, _ in sites} == \
        {("category.py", "_inverses")}, sorted(sites)


def test_max_dev_propagates_nan():
    assert max_dev() == 0.0
    assert max_dev(1e-3, 2e-3, 0.0) == 2e-3
    for devs in ((np.nan, 1.0), (1.0, np.nan), (0.0, np.nan, 2.0)):
        assert np.isnan(max_dev(*devs))


def test_tolerance_config_ordering():
    """atol must sit strictly below the integer snap distance."""
    with pytest.raises(ValueError):
        ToleranceConfig(atol=1e-3, integer_snap=1e-6)


# ---------------------------------------------------------------------------
# modular data, exact values


def test_semion_modular_data(spec_of):
    md = modular_datum(spec_of("semion"))
    want = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.max(np.abs(md.S - want)) < 1e-12
    assert np.max(np.abs(np.diag(md.T) - [1, 1j])) < 1e-12
    assert md.is_modular


def test_fibonacci_modular_data(spec_of):
    md = modular_datum(spec_of("fibonacci"))
    want = np.array([[1, PHI], [PHI, -1]]) / np.sqrt(2 + PHI)
    assert np.max(np.abs(md.S - want)) < 1e-12
    assert abs(md.T[1, 1] - np.exp(4j * np.pi / 5)) < 1e-12
    assert abs(md.global_dim - (2 + PHI)) < 1e-12


def test_ising_modular_data(spec_of):
    md = modular_datum(spec_of("ising"))
    s2 = np.sqrt(2)
    want = np.array([[1, s2, 1], [s2, 0, -s2], [1, -s2, 1]]) / 2
    assert np.max(np.abs(md.S - want)) < 1e-12
    assert np.max(np.abs(np.diag(md.T)
                         - [1, np.exp(1j * np.pi / 8), -1])) < 1e-12


def test_symmetric_builtin_not_modular(spec_of):
    """rep_z2_symmetric has the rank-one projector S and must be flagged."""
    md = modular_datum(spec_of("rep_z2_symmetric"))
    assert not md.is_modular
    assert np.max(np.abs(md.S - 1 / np.sqrt(2))) < 1e-12
    with pytest.raises(NotModular):
        verlinde_fusion(md)


@pytest.mark.parametrize("name", MODULAR)
def test_verlinde_round_trip(spec_of, name):
    """Fusion multiplicities recovered from S equal the stored tensor."""
    spec = spec_of(name)
    N = verlinde_fusion(modular_datum(spec))
    assert np.array_equal(N, spec.ring.N)


def test_non_finite_s_matrix_refused(spec_of):
    """An infinite dimension makes S non-finite; that is refused before the
    SVD, which would fail to converge."""
    semion = spec_of("semion")
    bad = CategorySpec("semion-inf", semion.ring, [1.0, np.inf], semion.theta,
                       dict(semion.F), dict(semion.R))
    with pytest.raises(NotPremodular, match="not finite"):
        modular_datum(bad)


def test_non_finite_twist_refused(spec_of):
    """A non-finite twist is refused before S is built from it."""
    semion = spec_of("semion")
    bad = CategorySpec("semion-nan", semion.ring, semion.dims,
                       [1.0, np.nan], dict(semion.F), dict(semion.R))
    with pytest.raises(NotPremodular, match="not finite"):
        modular_datum(bad)


def test_verlinde_snap_failure(spec_of):
    """A detuned S-matrix stays invertible but snaps to nothing integral."""
    md = modular_datum(spec_of("semion"))
    md.S = md.S + np.array([[1e-3, 0], [0, 0]])
    with pytest.raises(SnapFailure):
        verlinde_fusion(md)


@pytest.mark.parametrize("name,gamma_want", [
    ("trivial", 1.0),
    ("semion", np.exp(1j * np.pi / 4)),
    ("fibonacci", np.exp(7j * np.pi / 10)),
    ("ising", np.exp(1j * np.pi / 8)),
    ("z_3(1)", np.exp(1j * np.pi / 2)),
])
def test_modular_group_relations(spec_of, name, gamma_want):
    """Both defining relations hold and the anomaly phase is the known one."""
    gamma, rep = modular_group_relations(modular_datum(spec_of(name)))
    assert rep.passed, rep.summary()
    assert rep.max_deviation < 1e-9
    assert abs(abs(gamma) - 1) < 1e-9
    assert abs(gamma - gamma_want) < 1e-9


def test_cyclic_series():
    """z_n(k) is modular iff the pairing jl k is nondegenerate mod n."""
    assert modular_datum(get_category("z_5(2)")).is_modular
    assert not modular_datum(get_category("z_4(2)")).is_modular
    rep = validate_category(get_category("z_5(2)"))
    assert rep.passed and rep.max_deviation < 1e-9


# ---------------------------------------------------------------------------
# file format


def test_json_round_trip_byte_identical(spec_of, tmp_path):
    """dump -> load -> dump reproduces the serialized text exactly."""
    for name in ("semion", "ising"):
        spec = spec_of(name)
        text = dump_category(spec)
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        again = dump_category(load_category(path))
        assert again == text


def test_dims_derived_from_f_data(spec_of):
    """Omitting dims recovers them from the vacuum F-symbols."""
    data = spec_to_dict(spec_of("fibonacci"))
    del data["dims"]
    spec = spec_from_dict(data)
    assert np.max(np.abs(spec.dims - spec_of("fibonacci").dims)) < 1e-12


def test_non_finite_derived_dim_rejected():
    """A subnormal vacuum F-entry would give an infinite dimension."""
    data = spec_to_dict(get_category("semion"))
    del data["dims"]
    vacuum = [1, 1, 1, 1, 0, 1, 1, 0, 1, 1]
    entry = next(e for e in data["F"] if e[:10] == vacuum)
    entry[10] = -1e-320
    with pytest.raises(CategoryFileError,
                       match="unit: derived dim of label 1 is not finite"):
        spec_from_dict(data, origin="unit")


def test_file_errors_carry_locations(tmp_path):
    """Malformed files report what failed and where."""
    data = spec_to_dict(get_category("semion"))
    missing = {k: v for k, v in data.items() if k != "theta"}
    with pytest.raises(CategoryFileError, match="theta"):
        spec_from_dict(missing, origin="unit")

    bad_fusion = json.loads(json.dumps(data))
    bad_fusion["fusion"][0] = [0, 0, 9, 1]
    with pytest.raises(CategoryFileError, match=r"fusion\[0\]"):
        spec_from_dict(bad_fusion, origin="unit")

    bad_f = json.loads(json.dumps(data))
    bad_f["F"].append([1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1.0, 0.0])
    with pytest.raises(CategoryFileError, match="violates fusion"):
        spec_from_dict(bad_f, origin="unit")

    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CategoryFileError, match="invalid JSON"):
        load_category(path)

    # a section of the wrong JSON type is refused at the section
    for section, value in [("theta", 5), ("fusion", 5), ("F", 5), ("R", 5),
                           ("R", {}), ("product_of", 5),
                           ("product_of", "ab"), ("product_of", None),
                           ("product_of", ["semion", 1]),
                           ("product_of", ["semion", True]),
                           ("product_of", [2, "semion"]), ("name", [1])]:
        with pytest.raises(CategoryFileError, match=rf"^unit:{section}: "):
            spec_from_dict(dict(data, **{section: value}), origin="unit")


def _semion_data():
    return spec_to_dict(get_category("semion"))


@pytest.mark.parametrize("section", ["fusion", "F", "R"])
def test_duplicate_entries_rejected(section):
    """A repeated entry is refused instead of overwriting the first one."""
    data = _semion_data()
    data[section].append(list(data[section][-1]))
    idx = len(data[section]) - 1
    with pytest.raises(CategoryFileError,
                       match=rf"{section}\[{idx}\]: duplicate"):
        spec_from_dict(data, origin="unit")


@pytest.mark.parametrize(
    "section,slot,value",
    [("F", 0, 1.4), ("F", 5, 1.4), ("R", 2, 0.4), ("R", 3, 1.4),
     ("F", 0, True), ("F", 5, True), ("R", 2, True), ("R", 3, True)],
    ids=["F-0", "F-5", "R-2", "R-3",
         "F-0-true", "F-5-true", "R-2-true", "R-3-true"])
def test_non_integer_labels_rejected(section, slot, value):
    """1.4 is not truncated to a label or multiplicity index of 1, and
    JSON true is not read as 1."""
    data = _semion_data()
    data[section][-1][slot] = value
    idx = len(data[section]) - 1
    with pytest.raises(CategoryFileError,
                       match=rf"{section}\[{idx}\]: .*integers"):
        spec_from_dict(data, origin="unit")


@pytest.mark.parametrize("image", [1.7, "1", True])
def test_non_integer_dual_rejected(image):
    """1.7, "1" and JSON true are not read as the label 1."""
    data = _semion_data()
    data["dual"][1] = image
    with pytest.raises(CategoryFileError, match="unit:dual: "):
        spec_from_dict(data, origin="unit")


@pytest.mark.parametrize("name", ["trivial", "semion"])
def test_boolean_rank_rejected(name):
    """JSON true is not the rank 1."""
    data = spec_to_dict(get_category(name))
    data["rank"] = True
    with pytest.raises(CategoryFileError, match="unit:rank: "):
        spec_from_dict(data, origin="unit")


@pytest.mark.parametrize("slot", [0, 3])
def test_boolean_fusion_entry_rejected(slot):
    """JSON true is neither the fusion label 1 nor the multiplicity 1."""
    data = _semion_data()
    data["fusion"][-1][slot] = True
    idx = len(data["fusion"]) - 1
    with pytest.raises(CategoryFileError, match=rf"unit:fusion\[{idx}\]: "):
        spec_from_dict(data, origin="unit")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_literals_rejected(tmp_path, literal):
    text = dump_category(get_category("semion"))
    path = tmp_path / "semion.json"
    path.write_text(text.replace('"dims": [\n  1.0', f'"dims": [\n  {literal}'),
                    encoding="utf-8")
    with pytest.raises(CategoryFileError, match=f"non-finite number {literal}"):
        load_category(path)


@pytest.mark.parametrize("section", ["theta", "dims", "F", "R"])
def test_non_finite_values_rejected(section):
    data = _semion_data()
    if section == "theta":
        data["theta"][1][1] = float("inf")
        where = r"theta\[1\]"
    elif section == "dims":
        data["dims"][1] = float("nan")
        where = "dims"
    else:
        data[section][0][-1] = float("nan")
        where = rf"{section}\[0\]"
    with pytest.raises(CategoryFileError, match=where + ": .*finite"):
        spec_from_dict(data, origin="unit")


@pytest.mark.parametrize("section", ["theta", "dims", "F", "R"])
def test_boolean_values_rejected(section):
    """JSON true is not the number 1 in a twist, a dimension or a symbol."""
    data = _semion_data()
    if section == "theta":
        data["theta"][1][0] = True
        where = r"theta\[1\]"
    elif section == "dims":
        data["dims"][1] = True
        where = "dims"
    else:
        data[section][0][-2] = True
        where = rf"{section}\[0\]"
    with pytest.raises(CategoryFileError, match=where + ": .*finite"):
        spec_from_dict(data, origin="unit")


def test_fusion_violation_carries_entry_location():
    data = _semion_data()
    data["F"].append([1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1.0, 0.0])
    idx = len(data["F"]) - 1
    with pytest.raises(CategoryFileError,
                       match=rf"F\[{idx}\]: .*violates fusion"):
        spec_from_dict(data, origin="unit")


# (base, table, key, block, entry): in the spec the key's block is
# replaced, or deleted if None; in the file one entry is added, or the
# key's entries are dropped if None.  A misshapen block can only be
# written as an entry past its end.
DEFECTS = {
    "missing-F": ("ising", "F", (1, 1, 1, 1), None, None),
    "missing-R": ("ising", "R", (1, 1, 0), None, None),
    "misshapen-F": ("ising", "F", (1, 1, 1, 1), np.eye(3),
                    [1, 1, 1, 1, 0, 1, 1, 0, 1, 2, 1.0, 0.0]),
    "misshapen-R": ("ising", "R", (1, 1, 0), np.eye(2),
                    [1, 1, 0, 2, 1, 1.0, 0.0]),
    "unit-F": ("semion", "F", (0, 1, 1, 0), -np.eye(1),
               [0, 1, 1, 0, 1, 1, 1, 0, 1, 1, -1.0, 0.0]),
    "unit-R": ("semion", "R", (0, 1, 1), -np.eye(1),
               [0, 1, 1, 1, 1, -1.0, 0.0]),
}


def defective_file(defect, path):
    """Write the file of DEFECTS[defect] to path; return the block key."""
    base, table, key, _, entry = DEFECTS[defect]
    data = spec_to_dict(get_category(base))
    if entry is None:
        data[table] = [e for e in data[table] if tuple(e[:len(key)]) != key]
    else:
        data[table].append(entry)
    path.write_text(json.dumps(data), encoding="utf-8")
    return key


@pytest.mark.parametrize("defect", DEFECTS)
def test_defective_tables_are_refused_where_they_enter(spec_of, defect,
                                                       tmp_path):
    """A missing or misshapen block, or a block on a unit strand, is refused
    when the spec is built, naming its key, and in a file at the file."""
    base, table, key, block, _ = DEFECTS[defect]
    spec = spec_of(base)
    tables = {"F": dict(spec.F), "R": dict(spec.R)}
    if block is None:
        del tables[table][key]
    else:
        tables[table][key] = block
    with pytest.raises(NotPremodular, match=re.escape(str(key))):
        CategorySpec(defect, spec.ring, spec.dims, spec.theta, tables["F"],
                     tables["R"])
    path = tmp_path / f"{defect}.json"
    defective_file(defect, path)
    with pytest.raises(CategoryFileError,
                       match=rf"^{re.escape(str(path))}\S*: .*"
                             rf"{re.escape(str(key))}"):
        load_category(path)


@pytest.mark.parametrize("field", ["dims", "theta"])
def test_ribbon_data_of_the_wrong_shape_is_refused(spec_of, field):
    """Two dims on a rank-3 ring are refused when the spec is built, not
    met later as an IndexError."""
    ising = spec_of("ising")
    data = {"dims": ising.dims, "theta": ising.theta, field: [1.0, 1.4]}
    with pytest.raises(NotPremodular, match=rf"{field} has shape \(2,\)"):
        CategorySpec("x", ising.ring, data["dims"], data["theta"], ising.F,
                     ising.R)


def test_label_resolution(spec_of):
    """A label's name is read from the spec's label names."""
    assert spec_of("ising").label_name(2) == "psi"
