"""Check results and verification reports.

A report is an ordered list of named checks, each with a measured maximal
deviation and the tolerance it was held against.  Reports render either as a
human-readable table or as deterministic JSON: two runs on the same input with
the same seed produce byte-identical JSON, so wall times are kept out of the
serialized form.
"""

from __future__ import annotations

import json
import math
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
    def from_deviation(cls, name, tag, deviation, tolerance, wall_time=0.0, detail=""):
        status = PASS if deviation <= tolerance else FAIL
        return cls(name, tag, status, float(deviation), float(tolerance), wall_time, detail)

    @classmethod
    def skipped(cls, name, tag, reason):
        return cls(name, tag, SKIP, 0.0, 0.0, 0.0, reason)


@dataclass
class VerificationReport:
    target: str
    options: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, check: CheckResult) -> CheckResult:
        self.checks.append(check)
        return check

    def add_deviation(self, name, tag, deviation, tolerance, wall_time=0.0, detail=""):
        return self.add(CheckResult.from_deviation(name, tag, deviation, tolerance,
                                                   wall_time, detail))

    def add_skip(self, name, tag, reason):
        return self.add(CheckResult.skipped(name, tag, reason))

    def extend(self, other: "VerificationReport"):
        self.checks.extend(other.checks)

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
        # Deterministic: fixed key order, no wall times, repr-roundtrip floats.
        payload = {
            "tool_version": TOOL_VERSION,
            "target": self.target,
            "options": self.options,
            "checks": [
                {
                    "name": c.name,
                    "theorem_tag": c.theorem_tag,
                    "status": c.status,
                    "max_deviation": c.max_deviation,
                    "tolerance": c.tolerance,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "summary": self.summary(),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

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
