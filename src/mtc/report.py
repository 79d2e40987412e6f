"""Check results and verification reports.

A report is an ordered list of named checks, each with a measured maximal
deviation and the tolerance it was held against.  A check's wall time is
measured by the report: the time since its previous check, or since the
report was created.  Reports render either as a human-readable table or as
deterministic JSON: two runs on the same input with the same seed produce
byte-identical JSON, so wall times are kept out of the serialized form.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

TOOL_VERSION = "0.1.0"

PASS = "pass"
FAIL = "fail"
SKIP = "skipped"


def max_dev(*devs):
    """The largest deviation, or NaN as soon as one of them is NaN.

    ``max`` keeps its running value when compared with NaN, so a deviation
    accumulator built on it would let a NaN deviation pass its tolerance.
    """
    out = 0.0
    for dev in devs:
        if dev != dev:
            return math.nan
        if dev > out:
            out = dev
    return out


def exponents(n_values) -> tuple:
    """The exponents ``n_values`` as a tuple; ValueError unless they are
    one or more Python ints."""
    n_values = tuple(n_values)
    if not n_values or any(type(n) is not int for n in n_values):
        raise ValueError(f"n_values must list Python ints, not {n_values!r}")
    return n_values


def json_document(target: str, **fields) -> str:
    """Deterministic JSON about one target: sorted keys, a fixed indent and
    repr-roundtrip floats, with the tool version and the target included."""
    payload = {"tool_version": TOOL_VERSION, "target": target, **fields}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@dataclass
class CheckResult:
    name: str
    theorem_tag: str
    status: str
    max_deviation: float
    tolerance: float
    wall_time: float = 0.0
    detail: str = ""

    @classmethod
    def from_deviation(cls, name, tag, deviation, tolerance, detail=""):
        status = PASS if deviation <= tolerance else FAIL
        return cls(name, tag, status, float(deviation), float(tolerance),
                   detail=detail)

    @classmethod
    def skipped(cls, name, tag, reason):
        return cls(name, tag, SKIP, 0.0, 0.0, detail=reason)

    def to_record(self) -> dict:
        """The check as written to JSON; the wall time is left out, as it
        differs from run to run."""
        return {"name": self.name, "theorem_tag": self.theorem_tag,
                "status": self.status, "max_deviation": self.max_deviation,
                "tolerance": self.tolerance, "detail": self.detail}


@dataclass
class VerificationReport:
    target: str
    options: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)
    _clock: float = field(default_factory=time.perf_counter, init=False,
                          repr=False, compare=False)

    def add(self, check: CheckResult) -> CheckResult:
        now = time.perf_counter()
        check.wall_time, self._clock = now - self._clock, now
        self.checks.append(check)
        return check

    def add_deviation(self, name, tag, deviation, tolerance, detail=""):
        return self.add(CheckResult.from_deviation(name, tag, deviation, tolerance,
                                                   detail))

    def add_skip(self, name, tag, reason):
        return self.add(CheckResult.skipped(name, tag, reason))

    def extend(self, other: "VerificationReport"):
        """Append another report's checks with the times it measured."""
        self.checks.extend(other.checks)
        self._clock = time.perf_counter()

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    @property
    def max_deviation(self) -> float:
        return max_dev(*(c.max_deviation for c in self.checks
                         if c.status != SKIP))

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == FAIL]

    def summary(self) -> dict:
        counts = {PASS: 0, FAIL: 0, SKIP: 0}
        for c in self.checks:
            counts[c.status] += 1
        return {
            "passed": counts[PASS],
            "failed": counts[FAIL],
            "skipped": counts[SKIP],
            "ok": counts[FAIL] == 0,
        }

    def to_json(self) -> str:
        return json_document(self.target, options=self.options,
                             checks=[c.to_record() for c in self.checks],
                             summary=self.summary())

    def to_table(self) -> str:
        rows = []
        name_w = max([len("check")] + [len(c.name) for c in self.checks])
        tag_w = max([len("statement")] + [len(c.theorem_tag) for c in self.checks])
        header = (f"{'check':<{name_w}}  {'statement':<{tag_w}}  "
                  f"{'status':<7}  {'deviation':>12}  {'tol':>9}  {'time':>8}")
        rows.append(header)
        rows.append("-" * len(header))
        for c in self.checks:
            dev = "-" if c.status == SKIP else f"{c.max_deviation:.3e}"
            tol = "-" if c.status == SKIP else f"{c.tolerance:.1e}"
            rows.append(f"{c.name:<{name_w}}  {c.theorem_tag:<{tag_w}}  "
                        f"{c.status:<7}  {dev:>12}  {tol:>9}  {c.wall_time:>7.2f}s")
            if c.detail:
                rows.append(f"{'':<{name_w}}  note: {c.detail}")
        s = self.summary()
        rows.append("-" * len(header))
        rows.append(f"{self.target}: {s['passed']} passed, {s['failed']} failed, "
                    f"{s['skipped']} skipped")
        return "\n".join(rows)
