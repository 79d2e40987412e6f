"""The suite runner: measured check times and the coverage of capped
module sweeps."""

import time

import pytest

import mtc.suite as suite
from mtc.report import VerificationReport
from mtc.suite import run_suite


def test_report_times_each_check_since_the_previous():
    rep = VerificationReport("clock")
    time.sleep(0.1)
    rep.add_deviation("slow", "t", 0.0, 1.0)
    rep.add_skip("fast", "t", "nothing to do")
    sub = VerificationReport("sub")
    sub.add_deviation("inner", "t", 0.0, 1.0)
    kept = sub.checks[0].wall_time
    time.sleep(0.1)
    rep.extend(sub)
    rep.add_deviation("after", "t", 0.0, 1.0)
    slow, fast, inner, after = (c.wall_time for c in rep.checks)
    assert slow >= 0.1 > fast
    assert inner == kept
    assert after < 0.1


def test_suite_check_times_are_measured():
    """Each check carries its own time, not a share of its section's."""
    t0 = time.perf_counter()
    report = run_suite("fibonacci", suites=["category", "frobenius"])
    elapsed = time.perf_counter() - t0
    times = {c.name: c.wall_time for c in report.checks}
    assert len(times) == len(report.checks)
    assert min(times.values()) >= 0.0
    assert sum(times.values()) <= elapsed
    assert times["pentagon"] > times["ring_axioms"]
    frob = [c.wall_time for c in report.checks
            if c.theorem_tag.startswith(("algebra", "coalgebra"))]
    assert len(set(frob)) > 1


class _Zero:
    def deviation(self, _other):
        return 0.0


def test_capped_sweeps_reach_every_module(monkeypatch):
    """On a rank-2 category the sampled or enumerated tuples of each capped
    sweep include both modules M = 0 and M = 1."""
    seen = {}

    def record(name, module_slot, result=0.0):
        def dev(*args):
            seen.setdefault(name, set()).add(args[module_slot])
            return result
        return dev

    monkeypatch.setattr(suite, "left_module_pentagon_deviation",
                        record("left_module_pentagon", 4))
    monkeypatch.setattr(suite, "psi",
                        record("associator_from_chain", 1, _Zero()))
    monkeypatch.setattr(suite, "psi_from_gamma", lambda *args: None)
    monkeypatch.setattr(suite, "alpha_functor_deviation",
                        record("alpha_module_functor", 1))
    monkeypatch.setattr(suite, "commutor_witness_deviation",
                        record("commutor_witness", 1))
    report = run_suite("fibonacci", suites=["module"])
    assert report.passed
    assert seen == {name: {(0,), (1,)} for name in
                    ("left_module_pentagon", "associator_from_chain",
                     "alpha_module_functor", "commutor_witness")}
