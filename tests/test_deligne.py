"""Product categories: coherence of the paired data, multiplicativity of the
modular data, and the paired-morphism functor."""

import itertools

import numpy as np
import pytest

import mtc.suite as suite
from mtc import deligne, get_category, modular_datum, validate_category
from mtc.category import (DEFAULT_TOL, CategorySpec, _hexagon_deviations,
                          _pentagon_deviation, _square_report,
                          spec_from_dict, spec_to_dict)
from mtc.deligne import (MAX_PRODUCT_RANK, deligne_pair, deligne_power,
                         pair_morphism)
from mtc.deligne import product_tree_map
from mtc.engine import (Morphism, braid_generator, cup, direct_sum,
                        double_braiding, identity, trees)
from mtc.errors import NotPremodular, RankOverflow, ShapeMismatch
from mtc.frobenius import fusion_basis

from conftest import BUILTINS, random_rep_a4
from test_diagram_engine import random_endo, random_map
from test_nonunitary import FIXTURES


@pytest.fixture(scope="module")
def squares(spec_of):
    return {name: deligne_power(spec_of(name), 2)
            for name in ("semion", "fibonacci", "ising")}


@pytest.fixture(scope="module")
def rep_a4_square():
    """Random data on the Rep(A4) ring and its square, whose multiplicities
    up to 4 make a wrong pairing of multiplicity indices visible."""
    spec = random_rep_a4()
    return spec, deligne_power(spec, 2)


def _reference_pair_tables(prod, s1, s2):
    """The product's F and R entry by entry: each product multiplicity
    index is split as m1 * n2 + m2 and each factor basis position looked
    up, with R as the Kronecker product of the factor blocks."""
    ring = prod.ring
    rank = ring.rank
    r2 = s2.rank
    F = {}
    R = {}
    for A in range(1, rank):
        a1, a2 = divmod(A, r2)
        for B in range(1, rank):
            b1, b2 = divmod(B, r2)
            for Cc in range(1, rank):
                c1, c2 = divmod(Cc, r2)
                for D in ring.word_dims((A, B, Cc)).nonzero()[0]:
                    D = int(D)
                    d1, d2 = divmod(D, r2)
                    F1 = s1.f_block(a1, b1, c1, d1)
                    F2 = s2.f_block(a2, b2, c2, d2)
                    _, rp1, _, cp1 = s1.ring.f_basis(a1, b1, c1, d1)
                    _, rp2, _, cp2 = s2.ring.f_basis(a2, b2, c2, d2)
                    rows, _, cols, _ = ring.f_basis(A, B, Cc, D)
                    blk = np.zeros((len(rows), len(cols)),
                                   dtype=np.complex128)
                    for i, (E, al, bt) in enumerate(rows):
                        e1, e2 = divmod(E, r2)
                        al1, al2 = divmod(al, s2.ring.n(a2, b2, e2))
                        bt1, bt2 = divmod(bt, s2.ring.n(e2, c2, d2))
                        i1 = rp1[(e1, al1, bt1)]
                        i2 = rp2[(e2, al2, bt2)]
                        for j, (Ff, gm, dl) in enumerate(cols):
                            f1, f2 = divmod(Ff, r2)
                            gm1, gm2 = divmod(gm, s2.ring.n(b2, c2, f2))
                            dl1, dl2 = divmod(dl, s2.ring.n(a2, f2, d2))
                            blk[i, j] = (F1[i1, cp1[(f1, gm1, dl1)]]
                                         * F2[i2, cp2[(f2, gm2, dl2)]])
                    F[(A, B, Cc, D)] = blk
            for Cc in ring.channels(A, B):
                c1, c2 = divmod(Cc, r2)
                R[(A, B, Cc)] = np.kron(s1.r_block(a1, b1, c1),
                                        s2.r_block(a2, b2, c2))
    return F, R


def _reference_pair_morphism(prod, f1, f2):
    """f1 x f2 tree by tree: each product tree is decoded into its two
    factor trees, each product multiplicity index m split as divmod(m, n2)
    with n2 the second factor's multiplicity at that vertex, and each entry
    is the product of the two factor entries."""
    ring1, ring2 = f1.spec.ring, f2.spec.ring
    r2 = ring2.rank

    def split(word):
        return tuple(x // r2 for x in word), tuple(x % r2 for x in word)

    def decode(word):
        w1, w2 = split(word)
        pos1, pos2 = ring1.tree_positions(w1), ring2.tree_positions(w2)
        out = {}
        for root, ts in prod.ring.tree_basis(word).items():
            c1, c2 = divmod(root, r2)
            pairs = []
            for L, M in ts:
                L1, L2 = split(L)
                # vertex j fuses ((w2[0],) + L2)[j] and w2[j + 1] into L2[j]
                ms = [divmod(m, ring2.n(x, y, z))
                      for m, x, y, z in zip(M, w2[:1] + L2, w2[1:], L2)]
                M1 = tuple(m1 for m1, _ in ms)
                M2 = tuple(m2 for _, m2 in ms)
                pairs.append((pos1[c1][(L1, M1)], pos2[c2][(L2, M2)]))
            out[root] = pairs
        return out

    src = tuple(a * r2 + b for a, b in zip(f1.src, f2.src))
    dst = tuple(a * r2 + b for a, b in zip(f1.dst, f2.dst))
    smap, dmap = decode(src), decode(dst)
    blocks = {}
    for root in set(smap) & set(dmap):
        c1, c2 = divmod(root, r2)
        B1, B2 = f1.blocks.get(c1), f2.blocks.get(c2)
        if B1 is not None and B2 is not None:
            (i1, i2), (j1, j2) = zip(*dmap[root]), zip(*smap[root])
            blocks[root] = (B1.take(i1, 0).take(j1, 1)
                            * B2.take(i2, 0).take(j2, 1))
    return Morphism(prod, src, dst, blocks)


# ---------------------------------------------------------------------------
# structure of the product


@pytest.mark.parametrize("name", ["semion", "fibonacci", "ising", "z_3(1)"])
def test_square_coherence(spec_of, squares, name):
    """The paired F/R data again satisfies pentagon, hexagons, ribbon."""
    prod = squares.get(name) or deligne_power(spec_of(name), 2)
    rep = validate_category(prod)
    assert rep.passed, rep.summary()
    assert rep.max_deviation < 1e-9


def _detuned(spec, table, key, change):
    """``spec`` with its ``table`` block at ``key`` changed by ``change``,
    or with ``table`` "theta" its array of twists."""
    F, R, theta = dict(spec.F), dict(spec.R), spec.theta
    if table == "theta":
        theta = change(theta.copy())
    else:
        symbols = F if table == "F" else R
        symbols[key] = change(symbols[key].copy())
    return CategorySpec(f"{spec.name}-detuned", spec.ring, spec.dims,
                        theta, F, R)


def _nan_entry(block):
    block[1, 0] = np.nan
    return block


def _turned_twist(theta):
    theta[1] *= np.exp(0.3j)
    return theta


# base, table, key and change of each detuned datum: the three of
# ``test_product_section_detects_a_detuned_base``, a twist turned by a
# phase of 0.3, and an ising F-block scaled to a smallest singular value
# of 1e-6, which passes ``f_completeness`` on the base but not on the
# square, where the Kronecker product of the block with itself has 1e-12
DETUNED = {
    "fibonacci-F-scaled": ("fibonacci", "F", (1, 1, 1, 1),
                           lambda block: block * 1.1),
    "fibonacci-R-phase": ("fibonacci", "R", (1, 1, 0),
                          lambda block: block * np.exp(0.3j)),
    "fibonacci-F-nan": ("fibonacci", "F", (1, 1, 1, 1), _nan_entry),
    "fibonacci-theta-phase": ("fibonacci", "theta", None, _turned_twist),
    "ising-F-small": ("ising", "F", (1, 1, 1, 1),
                      lambda block: block * 1e-6),
}


@pytest.mark.parametrize("name", [*BUILTINS, "z_5(2)", *FIXTURES,
                                  "rep_a4_random", *DETUNED])
def test_square_report_equals_the_full_validation(spec_of, name):
    """The product section's report on the square, every check derived from
    the base's arrays, has the checks of ``validate_category`` on the
    square built by ``deligne_power`` with their statuses and details, and
    deviations equal up to rounding: to 1e-13, or relative to 1e-13 on the
    incoherent Rep(A4) data, whose multiplicity-2 pairs have deviations far
    from 0.  So it has on detuned data, each of which fails a check, and
    on the ising F-block whose square alone is singular."""
    if name in DETUNED:
        base, table, key, change = DETUNED[name]
        spec = _detuned(spec_of(base), table, key, change)
    else:
        spec = random_rep_a4() if name == "rep_a4_random" else \
            FIXTURES[name]() if name in FIXTURES else spec_of(name)
    full = validate_category(deligne_power(spec, 2))
    fast = _square_report(spec, DEFAULT_TOL)
    assert fast.target == full.target
    assert [(c.name, c.status, c.detail) for c in fast.checks] == \
        [(c.name, c.status, c.detail) for c in full.checks]
    rel = 1e-13 if name == "rep_a4_random" else 0
    for got, want in zip(fast.checks, full.checks):
        assert got.max_deviation == pytest.approx(
            want.max_deviation, rel=rel, abs=0 if rel else 1e-13), got.name
    if name == "rep_a4_random":
        assert min(c.max_deviation for c in full.checks
                   if c.name.startswith(("pentagon", "hexagon"))) > 1
    if name in DETUNED:
        assert not full.passed
    if name == "ising-F-small":
        assert validate_category(spec).checks[3].status == "pass"
        assert full.checks[3].detail == "F-block (4,4,4;4) is singular"


@pytest.mark.parametrize("table, change, broken", [
    ("F", lambda block: block * 1.1, "pentagon"),
    ("R", lambda block: block * np.exp(0.3j), "hexagon_braiding"),
    ("F", _nan_entry, "f_completeness"),
], ids=["F-scaled", "R-phase", "F-nan"])
def test_product_section_detects_a_detuned_base(spec_of, monkeypatch, table,
                                                change, broken):
    """One base block detuned, an F-block with no unit among its first
    three labels scaled by 1.1, an R-block turned by a phase of 0.3 or an
    F-entry made NaN, fails ``square_axioms`` in the product section, which
    returns its report.  The square's deviation is at least the base's: the
    pair of a base slot with the all-unit slot, whose sides are 1, gives
    the square exactly the base's sides."""
    fib = spec_of("fibonacci")
    key = (1, 1, 1, 1) if table == "F" else (1, 1, 0)
    bad = _detuned(fib, table, key, change)
    monkeypatch.setattr(suite, "resolve_target", lambda target: bad)
    report = suite.run_suite("fibonacci-detuned", suites=["product"])
    check = {c.name: c for c in report.checks}["square_axioms"]
    assert check.status == "fail"
    base = validate_category(bad)
    by_name = {c.name: c for c in base.checks}
    assert by_name[broken].status == "fail"
    if broken == "f_completeness":
        assert check.detail == "4 checks on fibonacci-detuned^2"
        return
    assert check.detail == "9 checks on fibonacci-detuned^2"
    square = {c.name: c.max_deviation
              for c in _square_report(bad, DEFAULT_TOL).checks}
    assert square[broken] >= by_name[broken].max_deviation > 1e-2
    braiding, inverse = _hexagon_deviations(bad)
    assert square["pentagon"] >= _pentagon_deviation(bad)
    assert square["hexagon_braiding"] >= braiding
    assert square["hexagon_inverse"] >= inverse


def test_square_scalar_data(spec_of, squares):
    """Dims, twists, duals multiply; labels are row-major pairs."""
    spec = spec_of("ising")
    prod = squares["ising"]
    r = spec.rank
    assert prod.rank == r * r
    for a1 in range(r):
        for a2 in range(r):
            lab = a1 * r + a2
            assert abs(prod.dims[lab] - spec.dims[a1] * spec.dims[a2]) < 1e-12
            assert abs(prod.theta[lab] - spec.theta[a1] * spec.theta[a2]) < 1e-12
            assert prod.dual[lab] == spec.dual[a1] * r + spec.dual[a2]
    assert prod.label_name(1 * r + 2) == "(sigma,psi)"


def test_square_modular_data_factorizes(spec_of, squares):
    """S and T of the product are Kronecker products of the factors'."""
    for name in ("semion", "fibonacci", "ising"):
        md = modular_datum(spec_of(name))
        md2 = modular_datum(squares[name])
        assert np.max(np.abs(md2.S - np.kron(md.S, md.S))) < 1e-10
        assert np.max(np.abs(md2.T - np.kron(md.T, md.T))) < 1e-12
        assert md2.is_modular


@pytest.mark.parametrize("name", BUILTINS)
def test_square_tables_match_reference(spec_of, name):
    """Every F- and R-block of a square equals the entry-by-entry pairing."""
    spec = spec_of(name)
    prod = deligne_power(spec, 2)
    F, R = _reference_pair_tables(prod, spec, spec)
    assert list(prod.F) == list(F) and list(prod.R) == list(R)
    for table, ref in ((prod.F, F), (prod.R, R)):
        for key, blk in ref.items():
            assert np.array_equal(table[key], blk), key


def test_square_tables_match_reference_with_multiplicity(rep_a4_square):
    """On the Rep(A4) square every product multiplicity index splits into
    two factor indices; numpy's array product may round the last bit
    differently from the reference's scalar product."""
    spec, prod = rep_a4_square
    F, R = _reference_pair_tables(prod, spec, spec)
    assert list(prod.F) == list(F) and list(prod.R) == list(R)
    for table, ref in ((prod.F, F), (prod.R, R)):
        for key, blk in ref.items():
            dev = np.max(np.abs(table[key] - blk))
            assert dev <= 1e-12 * np.max(np.abs(blk)), key


@pytest.mark.parametrize("first, second", [
    ("ising", "fibonacci"), ("fibonacci", "ising"),
    ("rep_a4", "semion"), ("semion", "rep_a4")])
def test_mixed_pair_tables_match_reference(spec_of, rep_a4_square, first,
                                           second):
    """Products of two different factors.  Ising and Fibonacci have unequal
    ranks, so a pairing that splits labels by the wrong rank fails; with
    Rep(A4) only one factor has multiplicities.  Builtin entries are exact,
    Rep(A4) ones within the rounding of numpy's array product."""
    s1, s2 = (rep_a4_square[0] if x == "rep_a4" else spec_of(x)
              for x in (first, second))
    prod = deligne_pair(s1, s2)
    F, R = _reference_pair_tables(prod, s1, s2)
    assert list(prod.F) == list(F) and list(prod.R) == list(R)
    for table, ref in ((prod.F, F), (prod.R, R)):
        for key, blk in ref.items():
            if "rep_a4" in (first, second):
                dev = np.max(np.abs(table[key] - blk))
                assert dev <= 1e-12 * np.max(np.abs(blk)), key
            else:
                assert np.array_equal(table[key], blk), key


@pytest.mark.parametrize("table", ["F", "R"])
@pytest.mark.parametrize("defective_first", [True, False])
def test_defective_factor_refused_before_pairing(spec_of, monkeypatch,
                                                 table, defective_first):
    """A factor missing one F- or R-block is refused when it is built, so
    no product block is ever built from it."""
    spec = spec_of("ising")
    tables = {"F": dict(spec.F), "R": dict(spec.R)}
    del tables[table][(1, 1, 1, 1) if table == "F" else (1, 1, 0)]
    built = []
    monkeypatch.setattr(deligne, "_kron",
                        lambda *args: built.append(args))
    with pytest.raises(NotPremodular, match="missing"):
        bad = CategorySpec("ising_defective", spec.ring, spec.dims,
                           spec.theta, tables["F"], tables["R"])
        factors = (bad, spec_of("semion")) if defective_first \
            else (spec_of("semion"), bad)
        deligne_pair(*factors)
    assert not built


def test_pairing_builds_one_spec(spec_of, monkeypatch):
    """The product's tables are paired on its fusion ring, so the only spec
    built is the product itself."""
    built = []

    class Counting(CategorySpec):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(deligne, "CategorySpec", Counting)
    prod = deligne_pair(spec_of("ising"), spec_of("semion"))
    assert built == [prod.name]


def test_power_metadata(spec_of):
    prod = deligne_power(spec_of("semion"), 2)
    assert prod.name == "semion^2"
    assert prod.product_of == ("semion", 2)
    with pytest.raises(RankOverflow):
        deligne_power(spec_of("ising"), 5)
    assert 3 ** 5 > MAX_PRODUCT_RANK


@pytest.mark.parametrize("n", [True, False, 2.0, np.int64(2), "2", None, 0])
def test_power_must_be_a_positive_int(spec_of, n):
    """Only a Python int of at least 1 is a power: a bool, a float or a
    numpy integer is refused before any product is built."""
    with pytest.raises(ValueError, match="power"):
        deligne_power(spec_of("semion"), n)


# ---------------------------------------------------------------------------
# paired morphisms


def test_pair_morphism_identity_and_composition(spec_of, squares,
                                                rep_a4_square, rng):
    """Pairing is functorial: identities pair to identities and composition
    is computed factorwise."""
    cases = [(spec_of("fibonacci"), squares["fibonacci"], (1, 1), (1, 0)),
             (*rep_a4_square, (3, 3, 3), (3, 1, 3))]
    for spec, prod, w1, w2 in cases:
        pw = tuple(a * spec.rank + b for a, b in zip(w1, w2))
        i1 = pair_morphism(prod, identity(spec, w1), identity(spec, w2))
        assert i1.deviation(identity(prod, pw)) < 1e-12
        f1, g1 = random_endo(spec, w1, rng), random_endo(spec, w1, rng)
        f2, g2 = random_endo(spec, w2, rng), random_endo(spec, w2, rng)
        lhs = pair_morphism(prod, f1, f2) @ pair_morphism(prod, g1, g2)
        rhs = pair_morphism(prod, f1 @ g1, f2 @ g2)
        assert lhs.deviation(rhs) < 1e-9 * max(1.0, rhs.max_abs())


def test_pair_morphism_braiding_factorizes(spec_of, squares, rep_a4_square):
    """The braid generator of the square is the pair of factor braids."""
    spec = spec_of("ising")
    prod = squares["ising"]
    r = spec.rank
    for (a1, a2, b1, b2) in ((1, 1, 1, 1), (1, 2, 2, 1), (1, 0, 2, 1)):
        word = (a1 * r + a2, b1 * r + b2)
        lhs = braid_generator(prod, word, 1, True)
        rhs = pair_morphism(prod,
                            braid_generator(spec, (a1, b1), 1, True),
                            braid_generator(spec, (a2, b2), 1, True))
        assert lhs.deviation(rhs) < 1e-11
    # words of length 3 also pass through the paired F-blocks
    spec, prod = rep_a4_square
    r = spec.rank
    for w1, w2 in (((3, 3, 3), (3, 3, 3)), ((1, 3, 3), (3, 2, 3)),
                   ((3, 3, 2), (2, 3, 3))):
        word = tuple(a * r + b for a, b in zip(w1, w2))
        for p in (1, 2):
            for over in (True, False):
                lhs = braid_generator(prod, word, p, over)
                rhs = pair_morphism(prod,
                                    braid_generator(spec, w1, p, over),
                                    braid_generator(spec, w2, p, over))
                assert lhs.deviation(rhs) < 1e-11 * max(1.0, rhs.max_abs())


def test_pair_morphism_monodromy_factorizes(spec_of, squares):
    spec = spec_of("semion")
    prod = squares["semion"]
    word = (3, 3)
    lhs = double_braiding(prod, word, 1, 1)
    rhs = pair_morphism(prod,
                        double_braiding(spec, (1, 1), 1, 1),
                        double_braiding(spec, (1, 1), 1, 1))
    assert lhs.deviation(rhs) < 1e-11


def test_pair_morphism_word_guard(spec_of, squares):
    spec = spec_of("semion")
    with pytest.raises(ShapeMismatch):
        pair_morphism(squares["semion"], identity(spec, (1,)),
                      identity(spec, (1, 1)))


def test_pair_morphism_checks_the_factors(spec_of):
    """The product's fusion rules must be those of the morphisms'
    categories, in order: morphisms on the factors swapped, or on another
    category of the same rank, are refused, even though the ranks multiply
    to the product's."""
    ising, semion = spec_of("ising"), spec_of("semion")
    prod = deligne_pair(ising, semion)
    paired = pair_morphism(prod, identity(ising, (1,)), identity(semion, (1,)))
    assert paired.deviation(identity(prod, (3,))) == 0
    with pytest.raises(ShapeMismatch):
        pair_morphism(prod, identity(semion, (1,)), identity(ising, (1,)))
    with pytest.raises(ShapeMismatch):
        pair_morphism(prod, braid_generator(semion, (1, 1), 1, True),
                      braid_generator(ising, (1, 1), 1, True))
    fib = deligne_pair(spec_of("fibonacci"), semion)
    with pytest.raises(ShapeMismatch):
        pair_morphism(fib, identity(semion, (1,)), identity(semion, (1,)))
    # a category with the factor's fusion rules pairs like the factor
    z2 = spec_of("rep_z2_symmetric")
    sq = deligne_power(semion, 2)
    assert pair_morphism(sq, identity(z2, (1,)), identity(semion, (1,))
                         ).deviation(identity(sq, (3,))) == 0


def test_pair_morphism_on_a_loaded_product(spec_of):
    """A product saved and loaded back pairs morphisms like the one built
    by deligne_pair, and still refuses factors in the wrong order."""
    ising, semion = spec_of("ising"), spec_of("semion")
    sq = deligne_power(semion, 2)
    loaded = spec_from_dict(spec_to_dict(sq))
    f = braid_generator(semion, (1, 1), 1, True)
    assert pair_morphism(loaded, f, f).deviation(pair_morphism(sq, f, f)) == 0
    mixed = spec_from_dict(spec_to_dict(deligne_pair(ising, semion)))
    pair_morphism(mixed, identity(ising, (1,)), identity(semion, (1,)))
    with pytest.raises(ShapeMismatch):
        pair_morphism(mixed, identity(semion, (1,)), identity(ising, (1,)))


def test_pair_morphism_refuses_sum_endpoints(spec_of, squares):
    """pair_morphism pairs word morphisms: a direct sum of words, even of
    one word, as the source or target of either factor is refused."""
    spec = spec_of("ising")
    word = identity(spec, (1,))
    pair = identity(spec, ((1,), (2,)))
    for f1, f2 in ((pair, identity(spec, ((0,), (1,)))),
                   (pair, word), (word, pair),
                   (identity(spec, ((1,),)), word),
                   (word, direct_sum(spec, (1,), ((1,),), {(0, 0): word}))):
        with pytest.raises(ShapeMismatch):
            pair_morphism(squares["ising"], f1, f2)


@pytest.mark.parametrize("first, second", [
    ("ising", "ising"), ("ising", "fibonacci"), ("fibonacci", "ising"),
    ("z_3(1)", "ising"), ("rep_a4", "ising"), ("rep_a4", "rep_a4"),
    ("semion", "rep_a4")])
def test_pair_morphism_matches_reference(spec_of, rep_a4_square, rng,
                                         first, second):
    """Every paired morphism equals the tree-by-tree decoding bit for bit,
    with the same endpoints: random endomorphisms on random words of
    length 1 to 3 and on the powers of each factor's label with the most
    channels, and every two-letter braid generator.  Kronecker order
    differs from the product's once two labels of a tree vary, as on the
    ising and fibonacci powers of length 5 and the Rep(A4) ones of length
    3, whose multiplicities reach 2 on one factor or on both; Rep(A4)
    stops at length 4, where a root of its square has 400 trees."""
    s1, s2 = (rep_a4_square[0] if x == "rep_a4" else spec_of(x)
              for x in (first, second))
    prod = rep_a4_square[1] if first == second == "rep_a4" \
        else deligne_pair(s1, s2)
    words = []
    for n in (1, 2, 3):
        for _ in range(4):
            words.append([tuple(int(x) for x in rng.integers(0, s.rank, n))
                          for s in (s1, s2)])
    tops = [int(np.argmax(s.ring.N.sum(axis=(1, 2)))) for s in (s1, s2)]
    longest = 4 if "rep_a4" in (first, second) else 5
    words += [[(top,) * n for top in tops] for n in range(1, longest + 1)]
    pairs = [(random_endo(s1, w1, rng), random_endo(s2, w2, rng))
             for w1, w2 in words]
    for a1, b1, a2, b2 in itertools.product(range(s1.rank), range(s1.rank),
                                            range(s2.rank), range(s2.rank)):
        over = bool((a1 + b2) % 2)
        pairs.append((braid_generator(s1, (a1, b1), 1, over),
                      braid_generator(s2, (a2, b2), 1, over)))
    for f1, f2 in pairs:
        got = pair_morphism(prod, f1, f2)
        ref = _reference_pair_morphism(prod, f1, f2)
        assert (got.src, got.dst) == (ref.src, ref.dst)
        assert np.array_equal(got.flat, ref.flat), (f1, f2)


def test_pair_morphism_matches_reference_across_lengths(spec_of, squares,
                                                        rng):
    """On the ising square, morphisms of the empty word, cups, fusion
    vertices and random maps between words of different lengths pair as
    the reference does."""
    spec, prod = spec_of("ising"), squares["ising"]
    pairs = [(identity(spec, ()), identity(spec, ())),
             (cup(spec, 1), cup(spec, 2)),
             (fusion_basis(spec, 1, 1, 2, 0), fusion_basis(spec, 2, 1, 1, 0)),
             (random_map(spec, (1, 1), (2,), rng),
              random_map(spec, (1, 2), (1,), rng)),
             (random_map(spec, (1,), (1, 1, 1), rng),
              random_map(spec, (2,), (1, 2, 2), rng))]
    for f1, f2 in pairs:
        got = pair_morphism(prod, f1, f2)
        ref = _reference_pair_morphism(prod, f1, f2)
        assert (got.src, got.dst) == (ref.src, ref.dst)
        assert np.array_equal(got.flat, ref.flat), (f1, f2)


def test_product_tree_map_is_a_permutation(spec_of, rep_a4_square):
    """At every root, the map orders the whole Kronecker grid of the two
    factor tree bases."""
    spec, prod = rep_a4_square
    r = spec.rank
    for w1, w2 in (((3,), (2,)), ((3, 3), (3, 1)), ((3, 3, 3), (3, 2, 3)),
                   ((), ())):
        word = tuple(a * r + b for a, b in zip(w1, w2))
        t1, t2 = trees(spec, w1), trees(spec, w2)
        got = product_tree_map(prod.ring, spec.ring, spec.ring, word)
        assert got.keys() == trees(prod, word).keys()
        for root, perm in got.items():
            c1, c2 = divmod(root, r)
            n = len(t1[c1]) * len(t2[c2])
            assert sorted(perm.tolist()) == list(range(n)), root


def test_product_tree_counts(spec_of, squares):
    """Tree multiplicities of the square match products of factor counts."""
    spec = spec_of("ising")
    prod = squares["ising"]
    r = spec.rank
    word = (1 * r + 1, 1 * r + 1)
    got = trees(prod, word)
    d1 = spec.ring.word_dims((1, 1))
    for c1 in range(r):
        for c2 in range(r):
            assert len(got.get(c1 * r + c2, ())) == d1[c1] * d1[c2]


def _dict_route(s1, s2):
    """The product's F and R as the pairing built them block by block, from
    each factor's table of every block, unit strands included: each pair
    of blocks one Kronecker product, its rows and columns sorted by their
    interleaved factor labels into the product basis."""
    r2, F, R = s2.rank, {}, {}

    def order(basis1, basis2):
        labels = [[v for xy in zip(x, y) for v in xy]
                  for x in basis1 for y in basis2]
        return sorted(range(len(labels)), key=labels.__getitem__)

    keys = [[k for k in itertools.product(range(s.rank), repeat=4)
             if s.f_block(*k).size] for s in (s1, s2)]
    for k1, k2 in itertools.product(*keys):
        (rows1, _, cols1, _), (rows2, _, cols2, _) = \
            s1.ring.f_basis(*k1), s2.ring.f_basis(*k2)
        F[tuple(x * r2 + y for x, y in zip(k1, k2))] = np.kron(
            s1.f_block(*k1), s2.f_block(*k2))[np.ix_(order(rows1, rows2),
                                                     order(cols1, cols2))]
    for k1, k2 in itertools.product(*(map(tuple, np.argwhere(s.ring.N))
                                      for s in (s1, s2))):
        R[tuple(int(x * r2 + y) for x, y in zip(k1, k2))] = np.kron(
            s1.r_block(*map(int, k1)), s2.r_block(*map(int, k2)))
    return F, R


@pytest.mark.parametrize("first, second", [
    ("fibonacci", "ising"), ("ising", "ising"), ("z_3(1)", "semion"),
    ("rep_a4", "semion")])
def test_paired_blocks_equal_the_dict_route(spec_of, rep_a4_square, first,
                                            second):
    """``deligne_pair`` lays the paired blocks out as the product spec holds
    them, and the spec makes the identities of the unit strands: every F-
    and R-block, those included, is bit for bit the block the pairing
    built one by one through a dict."""
    s1, s2 = (rep_a4_square[0] if x == "rep_a4" else spec_of(x)
              for x in (first, second))
    prod = deligne_pair(s1, s2)
    F, R = _dict_route(s1, s2)
    r = prod.rank
    assert sorted(F) == [k for k in itertools.product(range(r), repeat=4)
                         if prod.f_block(*k).size]
    assert sorted(R) == [tuple(k) for k in np.argwhere(prod.ring.N).tolist()]
    for key, blk in F.items():
        assert np.array_equal(prod.f_block(*key), blk), key
    for key, blk in R.items():
        assert np.array_equal(prod.r_block(*key), blk), key
