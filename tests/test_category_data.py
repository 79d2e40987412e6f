"""Skeletal category layer: ring axioms, coherence validation, modular data,
and the JSON interchange format."""

import itertools
import json

import numpy as np
import pytest

from mtc import get_category, modular_datum, validate_category, verlinde_fusion
from mtc.builtins import BUILTIN_NAMES
from mtc.category import (CategorySpec, FusionRing, ToleranceConfig,
                          _f_store, _groups, _hexagon_deviation,
                          _pentagon_deviation,
                          dump_category, load_category, modular_group_relations,
                          spec_from_dict, spec_to_dict)
from mtc.deligne import deligne_power
from mtc.errors import (CategoryFileError, NotModular, NotPremodular,
                        RingAxiomError, SnapFailure)
from mtc.report import max_dev

from conftest import MODULAR, random_rep_a4

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
    """A fusion tensor whose unit row is not the identity is refused."""
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0, 0, 0] = 1
    N[0, 1, 1] = 1
    N[1, 0, 0] = 1  # wrong: 1 x 0 should be 1
    N[1, 1, 0] = 1
    with pytest.raises(RingAxiomError):
        FusionRing(N, [0, 1]).check_axioms()


def test_bad_dual_rejected():
    """The dual map must be an involutive permutation fixing the unit."""
    N = np.zeros((2, 2, 2), dtype=np.int64)
    eye = np.eye(2, dtype=np.int64)
    N[0] = eye
    N[:, 0, :] = eye
    N[1, 1, 0] = 1
    with pytest.raises(RingAxiomError):
        FusionRing(N, [1, 0]).check_axioms()


def test_non_associative_ring_rejected():
    """Unit and duality hold, but (1 x 2) x 2 = 0 + 1 + 2 while
    1 x (2 x 2) = 1."""
    N = np.zeros((3, 3, 3), dtype=np.int64)
    eye = np.eye(3, dtype=np.int64)
    N[0] = eye
    N[:, 0, :] = eye
    N[1, 1] = [1, 0, 1]
    N[1, 2] = N[2, 1] = [0, 1, 1]
    N[2, 2] = [1, 0, 0]
    with pytest.raises(RingAxiomError, match="fusion associativity fails"):
        FusionRing(N, [0, 1, 2]).check_axioms()


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
    for inverse in (False, True):
        assert _hexagon_deviation(spec, inverse) == \
            _reference_hexagon(spec, inverse)


def test_batched_coherence_matches_the_loops_with_multiplicity():
    """On random data with a fusion multiplicity of 2, where the groups
    have many multiplicity signatures, the deviations are the loops'."""
    spec = random_rep_a4()
    assert _pentagon_deviation(spec) == _reference_pentagon(spec)
    for inverse in (False, True):
        assert _hexagon_deviation(spec, inverse) == \
            _reference_hexagon(spec, inverse)


def test_multiplicity_deviations_are_pinned():
    """On random data with a fusion multiplicity of 2, the coherence
    deviations equal those of the scalar loops that summed every
    multiplicity index by hand."""
    spec = random_rep_a4()
    spec.ring.check_axioms()
    assert _pentagon_deviation(spec) == \
        pytest.approx(52.811151219724614, rel=1e-12)
    assert _hexagon_deviation(spec, inverse=False) == \
        pytest.approx(21.927861018782412, rel=1e-12)
    assert _hexagon_deviation(spec, inverse=True) == \
        pytest.approx(271.07264024483294, rel=1e-12)


def test_nan_braiding_fails(spec_of):
    """A NaN R-symbol fails every check that reads it instead of being
    dropped by the running maximum."""
    ising = spec_of("ising")
    R = dict(ising.R)
    R[(1, 1, 0)] = np.array([[np.nan]], dtype=np.complex128)
    bad = CategorySpec("ising-nan", ising.ring, ising.dims, ising.theta,
                       dict(ising.F), R)
    rep = validate_category(bad)
    by_name = {c.name: c for c in rep.checks}
    for name in ("hexagon_braiding", "hexagon_inverse",
                 "ribbon_compatibility"):
        assert by_name[name].status == "fail", name
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
    first)."""
    fib = spec_of("fibonacci")
    F, R = dict(fib.F), dict(fib.R)
    if table == "F":
        F[(1, 1, 1, 1)] = F[(1, 1, 1, 1)].copy()
        F[(1, 1, 1, 1)][1, 0] = np.nan
    else:
        R[(1, 1, 1)] = np.array([[np.nan]], dtype=np.complex128)
    bad = CategorySpec("fibonacci-nan", fib.ring, fib.dims, fib.theta, F, R)
    if table == "F":
        assert np.isnan(_pentagon_deviation(bad))
    for inverse in (False, True):
        assert np.isnan(_hexagon_deviation(bad, inverse))


def test_rank_25_square_is_coherent(spec_of):
    """validate_category on the z_5(2) square: 390,625 pentagon tuples,
    enumerated one first label at a time."""
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
    labels = [key for key in itertools.product(range(r), repeat=6)
              if spec.f_tensor(*key).size]
    codes = [int(np.ravel_multi_index(key, (r,) * 6)) for key in labels]
    assert store.keys.tolist() == codes
    for key in labels:
        want = spec.f_tensor(*key)
        got = store.take([np.array([x]) for x in key], want.shape)[0]
        assert np.array_equal(got, want)


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


def test_label_resolution(spec_of):
    """A label's name is read from the spec's label names."""
    assert spec_of("ising").label_name(2) == "psi"
