"""Verdicts under a vertex gauge transform.

A gauge multiplies each fusion vertex (a, b -> c) by a phase u[a,b,c], with
u = 1 when a or b is the unit.  F and R change and the category does not
(Kitaev 2006, App. E), so no check of the category, modular, product and
module sections may change its status, and S and T may not move.  The
frobenius section's maps are not yet natural in the vertex basis; the
expected failure below pins that.
"""

import numpy as np
import pytest

import mtc.suite as suite
from mtc import get_category
from mtc.category import CategorySpec, modular_datum
from mtc.suite import run_suite

from test_nonunitary import FIXTURES

SECTIONS = ["category", "modular", "product", "module"]
TARGETS = {"fibonacci": lambda: get_category("fibonacci"),
           "ising": lambda: get_category("ising"),
           "z_3(1)": lambda: get_category("z_3(1)"), **FIXTURES}


def gauge(spec: CategorySpec, seed: int) -> CategorySpec:
    """``spec`` under the gauge u[a,b,c] = e^{i phi} on every vertex with
    N_abc > 0 and a, b != 0, phi seeded and uniform.  Entry (e, f) of
    F[a,b,c;d] is multiplied by u[a,b,e] u[e,c,d] / (u[b,c,f] u[a,f,d]),
    rows and columns as in ``FusionRing.f_basis``, and R[a,b;c] by
    u[a,b,c] / u[b,a,c].  Multiplicity-free rings only."""
    ring = spec.ring
    assert ring.N.max() <= 1
    phases = np.random.default_rng(seed).uniform(0, 2 * np.pi, ring.N.shape)
    u = np.where(ring.N > 0, np.exp(1j * phases), 1)
    u[0] = u[:, 0] = 1
    F = {}
    for (a, b, c, d), blk in spec.F.items():
        rows, _, cols, _ = ring.f_basis(a, b, c, d)
        row = np.array([u[a, b, e] * u[e, c, d] for e, _, _ in rows])
        col = np.array([u[b, c, f] * u[a, f, d] for f, _, _ in cols])
        F[a, b, c, d] = blk * row[:, None] / col[None, :]
    R = {(a, b, c): blk * u[a, b, c] / u[b, a, c]
         for (a, b, c), blk in spec.R.items()}
    return CategorySpec(f"{spec.name}-gauged", ring, spec.dims, spec.theta,
                        F, R)


def _run(monkeypatch, spec, **options):
    monkeypatch.setattr(suite, "resolve_target", lambda target: spec)
    return run_suite(spec.name, **options)


@pytest.mark.parametrize("name", TARGETS)
def test_verdicts_do_not_depend_on_the_gauge(monkeypatch, name):
    spec = TARGETS[name]()
    gauged = gauge(spec, seed=7)
    assert not all(np.allclose(gauged.F[key], blk)
                   for key, blk in spec.F.items())
    want, got = (_run(monkeypatch, s, suites=SECTIONS)
                 for s in (spec, gauged))
    assert want.passed
    assert [(c.name, c.status) for c in got.checks] == \
        [(c.name, c.status) for c in want.checks]
    md, mg = modular_datum(spec), modular_datum(gauged)
    assert np.max(np.abs(md.S - mg.S)) <= 1e-12
    assert np.max(np.abs(md.T - mg.T)) <= 1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="m, delta and the twisted cups and caps are not "
                   "natural in the vertex basis")
def test_frobenius_verdicts_do_not_depend_on_the_gauge(monkeypatch):
    report = _run(monkeypatch, gauge(get_category("ising"), seed=7),
                  suites=["frobenius"], n_values=(0,))
    assert report.passed, [c.name for c in report.failures()]
