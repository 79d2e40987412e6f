"""Command line interface: exit codes, JSON determinism, and the compute
subcommands."""

import cmath
import json
import os
import pathlib
import subprocess
import sys

import pytest

from mtc.builtins import BUILTIN_NAMES
from mtc.cli import main

from test_category_data import DEFECTS, defective_file
from test_suite import GOLDEN_DEVIATION_ATOL

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_COMPUTE = pathlib.Path(__file__).parent / "golden" / "compute"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# list / check


def test_list(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    for name in ("semion", "fibonacci", "ising", "rep_z2_symmetric"):
        assert name in out


def test_check_single_suite(capsys):
    code, out, _ = run(capsys, "check", "semion", "--suite", "category")
    assert code == 0
    assert "pentagon" in out
    assert "pass" in out


def test_check_json_is_deterministic(capsys):
    args = ("check", "fibonacci", "--suite", "category,modular", "--json",
            "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["summary"]["ok"] is True
    assert payload["tool_version"]


def test_check_repeated_suites_add_up(capsys):
    """Each --suite is comma-split and the options accumulate: the report
    is the one of the joined list, not of the last option alone."""
    code, out, _ = run(capsys, "check", "semion", "--suite", "modular",
                       "--suite", "frobenius,invariants", "--json")
    joined = run(capsys, "check", "semion", "--suite",
                 "modular,frobenius,invariants", "--json")
    assert (code, out) == joined[:2]
    assert json.loads(out)["options"]["suites"] == [
        "modular", "frobenius", "invariants"]


def test_check_unknown_target(capsys):
    code, _, err = run(capsys, "check", "nosuch_category")
    assert code == 2
    assert "error" in err


def test_check_bad_suite_name(capsys):
    code, _, err = run(capsys, "check", "semion", "--suite", "nonsense")
    assert code == 2
    assert "error" in err


def test_check_control_target(capsys):
    """The symmetric control passes its suite (skips noted, control check
    inverted)."""
    code, out, _ = run(capsys, "check", "rep_z2_symmetric", "--n-range", "0,1")
    assert code == 0
    assert "skip" in out


def test_check_tolerance_env(capsys, monkeypatch):
    """An absurdly tight tolerance from the environment forces failures on
    a category with irrational data (semion's checks are exactly zero)."""
    monkeypatch.setenv("MTC_TOL", "1e-30")
    code, out, _ = run(capsys, "check", "fibonacci", "--suite", "category")
    assert code == 1
    assert "fail" in out


def test_check_file_target(capsys, tmp_path):
    from mtc import get_category
    from mtc.category import save_category
    path = tmp_path / "custom.json"
    save_category(get_category("semion"), path)
    code, out, _ = run(capsys, "check", str(path), "--suite", "category")
    assert code == 0


def test_check_non_integral_verlinde_fails(capsys, tmp_path):
    """A fibonacci file with theta_tau off by e^{0.3i} loads, and its
    Verlinde coefficients fail to snap: the check fails with the reason,
    and the exit status is 1."""
    from mtc import get_category
    from mtc.category import spec_to_dict
    data = spec_to_dict(get_category("fibonacci"))
    theta = complex(*data["theta"][1]) * cmath.exp(0.3j)
    data["theta"][1] = [theta.real, theta.imag]
    path = tmp_path / "fibonacci-twisted.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path), "--suite", "modular",
                       "--json")
    assert code == 1
    check = next(c for c in json.loads(out)["checks"]
                 if c["name"] == "verlinde_fusion")
    assert check["status"] == "fail"
    assert "not integral" in check["detail"]


def test_check_malformed_file_is_a_usage_error(tmp_path):
    """A section of the wrong JSON type exits 2 with a located message, not
    a traceback; run in a fresh interpreter to see the real exit status."""
    from mtc import get_category
    from mtc.category import spec_to_dict
    data = spec_to_dict(get_category("semion"))
    data["theta"] = 5
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "mtc.cli", "check", str(path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert f"{path}:theta: theta must be a list" in done.stderr


@pytest.mark.parametrize("suite", [[], ["--suite", "category"]],
                         ids=["all", "category"])
@pytest.mark.parametrize("defect", DEFECTS)
def test_check_defective_tables_is_a_usage_error(capsys, tmp_path, defect,
                                                 suite):
    """A missing, misshapen or unit-strand block exits 2 at load, with the
    file and the block key, whichever sections were asked for."""
    path = tmp_path / f"{defect}.json"
    key = defective_file(defect, path)
    code, _, err = run(capsys, "check", str(path), *suite)
    assert code == 2
    assert err.startswith(f"error: {path}") and str(key) in err


@pytest.mark.parametrize("table, key, block", [
    ("R", (1, 1, 0), "R-block (1, 1, 0)"),
    ("F", (1, 1, 1, 1), "F-block (1,1,1;1)")])
def test_check_singular_block_is_a_usage_error(capsys, tmp_path, table, key,
                                               block):
    """A fibonacci file with R^{tau tau}_1 or F[tau, tau, tau; tau] set to 0
    loads, and the full check exits 2 naming the block where its inverse is
    first taken, not with numpy's unlocated "Singular matrix"."""
    from mtc import get_category
    from mtc.category import spec_to_dict
    data = spec_to_dict(get_category("fibonacci"))
    for entry in data[table]:
        if tuple(entry[:len(key)]) == key:
            entry[-2:] = [0.0, 0.0]
    path = tmp_path / f"fibonacci-singular-{table}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert err == f"error: {block} is singular\n"


@pytest.mark.parametrize("theta", [0.0, 1e308 * (1 + 1j)],
                         ids=["zero", "huge"])
def test_degenerate_twist_fails_without_warnings(tmp_path, theta):
    """A fibonacci spec with theta_tau zero or near the float limit fails
    ribbon_structure and ribbon_compatibility, with no RuntimeWarning,
    which the tests turn into errors.  ``mtc check`` on its file exits 2
    with one ``error:`` line and nothing else on stderr; run in a fresh
    interpreter, where warnings are printed."""
    from mtc import get_category
    from mtc.category import CategorySpec, save_category, validate_category
    fib = get_category("fibonacci")
    twists = fib.theta.astype(complex)
    twists[1] = theta
    spec = CategorySpec("fibonacci-degenerate", fib.ring, fib.dims, twists,
                        fib.F, fib.R)
    checks = {c.name: c.status for c in validate_category(spec).checks}
    assert checks["ribbon_structure"] == "fail"
    assert checks["ribbon_compatibility"] == "fail"
    path = tmp_path / "fibonacci-degenerate.json"
    save_category(spec, path)
    done = subprocess.run(
        [sys.executable, "-m", "mtc.cli", "check", str(path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 2
    assert done.stderr == \
        "error: S-matrix of fibonacci-degenerate is not finite\n"


@pytest.mark.parametrize("seed", ["-1", "-5"])
def test_check_negative_seed_is_a_usage_error(capsys, seed):
    """A negative --seed exits 2 naming the seed, not with numpy's bare
    "expected non-negative integer"."""
    code, out, err = run(capsys, "check", "semion", "--seed", seed)
    assert (code, out) == (2, "")
    assert err == f"error: seed must be a non-negative Python int, not " \
        f"{seed}\n"


# ---------------------------------------------------------------------------
# compute


def test_compute_modular_data(capsys):
    code, out, _ = run(capsys, "compute", "modular-data", "ising", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 3
    assert payload["is_modular"] is True
    assert abs(payload["S"][0][1][0] - 0.5 * 2 ** 0.5) < 1e-12
    assert abs(payload["global_dim"] - 4.0) < 1e-12


def test_compute_xi(capsys):
    code, out, _ = run(capsys, "compute", "xi", "fibonacci", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["azumaya"] is True
    assert abs(payload["xi"][0][0] - 1) < 1e-9
    assert abs(payload["xi"][1][0]) < 1e-9

    code, out, _ = run(capsys, "compute", "xi", "rep_z2_symmetric", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["azumaya"] is False
    assert abs(payload["xi"][1][0] - 1) < 1e-9


def test_compute_z(capsys):
    code, out, _ = run(capsys, "compute", "z", "--perm", "(1 2)", "semion",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["perm"] == [2, 1]
    assert payload["Z"][0][0] == 1
    statuses = {c["name"]: c["status"] for c in payload["invariance"]}
    assert statuses["s_commutation"] == "pass"


def test_compute_z_three_cycle(capsys):
    code, out, _ = run(capsys, "compute", "z", "--perm", "(1 2 3)",
                       "fibonacci")
    assert code == 0
    assert "pass" in out


def test_compute_z_bad_cycles(capsys):
    code, _, err = run(capsys, "compute", "z", "--perm", "oops", "semion")
    assert code == 2
    assert "error" in err


def test_compute_annulus(capsys):
    code, out, _ = run(capsys, "compute", "annulus", "--i", "1", "--j", "1",
                       "--k", "1", "--l", "1", "ising", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ring_route"] == payload["tree_route"] == 2
    assert payload["agree"] is True


@pytest.mark.parametrize("target,labels,bad", [
    ("trivial", ("1", "1", "1", "1"), "--i 1"),
    ("fibonacci", ("-1", "1", "1", "1"), "--i -1"),
], ids=["past_rank", "negative"])
def test_compute_annulus_label_out_of_range(capsys, target, labels, bad):
    """A label outside [0, rank) is a usage error naming the label and the
    rank, not a traceback or a silently wrong count."""
    argv = [x for flag, label in zip(("--i", "--j", "--k", "--l"), labels)
            for x in (flag, label)]
    code, out, err = run(capsys, "compute", "annulus", *argv, target)
    assert code == 2
    assert out == ""
    assert bad in err
    assert "rank" in err


def _assert_matches(got, want, where):
    """Equal except that floats may differ by GOLDEN_DEVIATION_ATOL."""
    assert type(got) is type(want), where
    if isinstance(want, float):
        assert abs(got - want) <= GOLDEN_DEVIATION_ATOL, (where, want, got)
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    else:
        assert got == want, (where, want, got)


@pytest.mark.parametrize("target", BUILTIN_NAMES)
def test_compute_matches_golden(capsys, target):
    r"""The --json outputs of compute modular-data, xi and z --perm "(1 2)"
    equal the committed golden file of the target.

    After a change that is meant to alter them, regenerate the files from
    the repository root with

        for t in trivial semion fibonacci ising 'z_3(1)' rep_z2_symmetric; do
          { printf '{"modular-data": '
            PYTHONPATH=src python3 -m mtc.cli compute modular-data "$t" --json
            printf ', "xi": '
            PYTHONPATH=src python3 -m mtc.cli compute xi "$t" --json
            printf ', "z": '
            PYTHONPATH=src python3 -m mtc.cli compute z --perm "(1 2)" "$t" \
                --json
            printf '}'; } | python3 -m json.tool --indent 2 \
            > "tests/golden/compute/$t.json"
        done
    """
    want = json.loads((GOLDEN_COMPUTE / f"{target}.json").read_text(
        encoding="utf-8"))
    for quantity, extra in (("modular-data", ()), ("xi", ()),
                            ("z", ("--perm", "(1 2)"))):
        _, out, _ = run(capsys, "compute", quantity, target, *extra, "--json")
        _assert_matches(json.loads(out), want[quantity], quantity)


def test_bad_n_range(capsys):
    code, _, err = run(capsys, "check", "semion", "--n-range", "x..y")
    assert code == 2
    assert "error" in err


def test_check_negative_n_range(capsys):
    """A negative range is written --n-range=-2..-1, as argparse reads a
    separate -2..-1 as an option; every check passes there on semion."""
    code, out, _ = run(capsys, "check", "semion", "--n-range=-2..-1")
    assert code == 0, out
