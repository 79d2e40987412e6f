"""Command line interface: exit codes, JSON determinism, and the compute
subcommands."""

import json

import pytest

from mtc.cli import main


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


def test_bad_n_range(capsys):
    code, _, err = run(capsys, "check", "semion", "--n-range", "x..y")
    assert code == 2
    assert "error" in err
