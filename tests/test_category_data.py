"""Skeletal category layer: ring axioms, coherence validation, modular data,
and the JSON interchange format."""

import json

import numpy as np
import pytest

from mtc import get_category, modular_datum, validate_category, verlinde_fusion
from mtc.builtins import BUILTIN_NAMES
from mtc.category import (CategorySpec, FusionRing, ToleranceConfig,
                          _hexagon_deviation, _pentagon_deviation,
                          dump_category, load_category, modular_group_relations,
                          spec_from_dict, spec_to_dict)
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


@pytest.mark.parametrize("section,slot", [("F", 0), ("F", 5), ("R", 2),
                                          ("R", 3)])
def test_non_integer_labels_rejected(section, slot):
    """1.4 is not truncated to a label or multiplicity index of 1."""
    data = _semion_data()
    data[section][-1][slot] += 0.4
    idx = len(data[section]) - 1
    with pytest.raises(CategoryFileError, match=rf"{section}\[{idx}\]"):
        spec_from_dict(data, origin="unit")


@pytest.mark.parametrize("image", [1.7, "1"])
def test_non_integer_dual_rejected(image):
    """1.7 and "1" are not read as the label 1."""
    data = _semion_data()
    data["dual"][1] = image
    with pytest.raises(CategoryFileError, match="unit:dual: "):
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


def test_fusion_violation_carries_entry_location():
    data = _semion_data()
    data["F"].append([1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1.0, 0.0])
    idx = len(data["F"]) - 1
    with pytest.raises(CategoryFileError,
                       match=rf"F\[{idx}\]: .*violates fusion"):
        spec_from_dict(data, origin="unit")


def test_label_resolution(spec_of):
    """Labels resolve by index or by name, case-sensitively."""
    spec = spec_of("ising")
    assert spec.resolve_label("sigma") == 1
    assert spec.resolve_label("2") == 2
    assert spec.label_name(2) == "psi"
    with pytest.raises(KeyError):
        spec.resolve_label("nope")
