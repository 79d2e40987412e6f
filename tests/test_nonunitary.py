"""Modular data with negative quantum dimensions.

Yang-Lee is the Galois conjugate of fibonacci with d_tau = (1 - sqrt 5)/2;
the Galois-conjugate Ising has d_sigma = -sqrt 2.  Both are valid modular
data (Rowell, Stong and Wang, arXiv:0712.1377), so every check of the suite
must pass on them, and a Yang-Lee file without dims must not load with the
positive dims that |F| alone gives.
"""

import numpy as np
import pytest

import mtc.suite as suite
from mtc import get_category
from mtc.category import (CategorySpec, load_category, save_category,
                          spec_from_dict, spec_to_dict)
from mtc.errors import CategoryFileError
from mtc.suite import run_suite


def yang_lee():
    fib = get_category("fibonacci")
    p = (1.0 - np.sqrt(5.0)) / 2.0
    root = np.sqrt(complex(p))
    F, R = dict(fib.F), dict(fib.R)
    F[1, 1, 1, 1] = np.array([[1 / p, 1 / root], [1 / root, -1 / p]])
    R[1, 1, 0] = np.array([[np.exp(2j * np.pi / 5)]])
    R[1, 1, 1] = np.array([[np.exp(1j * np.pi / 5)]])
    return CategorySpec("yang_lee", fib.ring, [1.0, p],
                        [1.0, np.exp(-2j * np.pi / 5)], F, R)


def galois_ising():
    ising = get_category("ising")
    F, R = dict(ising.F), dict(ising.R)
    F[1, 1, 1, 1] = -ising.F[1, 1, 1, 1]
    R[1, 1, 0] = np.array([[np.exp(2j * np.pi * 3 / 16)]])
    R[1, 1, 2] = np.array([[np.exp(2j * np.pi * 7 / 16)]])
    return CategorySpec("galois_ising", ising.ring,
                        [1.0, -np.sqrt(2.0), 1.0],
                        [1.0, np.exp(2j * np.pi * 5 / 16), -1.0], F, R)


FIXTURES = {"yang_lee": yang_lee, "galois_ising": galois_ising}


@pytest.mark.parametrize("build", FIXTURES.values(), ids=FIXTURES)
def test_every_check_passes_on_negative_dims(build, tmp_path, monkeypatch):
    """On the spec itself, which ``run_suite`` is handed in place of a
    builtin, and on its saved file, which keeps the dims; the pairing
    modulus |phi_i d_i| / dim A = 1 holds for either sign of d_i."""
    spec = build()
    path = tmp_path / f"{spec.name}.json"
    save_category(spec, path)
    assert np.array_equal(load_category(path).dims, spec.dims)
    reports = [run_suite(str(path))]
    monkeypatch.setattr(suite, "resolve_target", lambda target: spec)
    reports.append(run_suite(spec.name))
    for report in reports:
        assert report.passed, [c.name for c in report.failures()]
        assert len(report.checks) == 61


def test_derived_positive_dims_that_do_not_fuse_are_refused():
    """Without dims, Yang-Lee would load with d_tau = +0.618, which fails
    d_tau^2 = 1 + d_tau by 1.236."""
    data = spec_to_dict(yang_lee())
    del data["dims"]
    with pytest.raises(CategoryFileError,
                       match=r"^unit: derived positive dims fail .* by 1\.24"):
        spec_from_dict(data, origin="unit")
