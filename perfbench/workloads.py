"""The three closed-loop workloads of the mtc benchmark.

One caller in one process sends the next call only after the previous one
returned.  Each workload has a set-up (spec construction and, for the warm
sweep, an untimed pass that fills the engine caches) and a pass over its
whole input set.  A pass times every call it makes, checks every verdict
against the correctness gate, and returns a digest of its outputs so that
repeated and traced passes can be compared byte for byte.

Every time is read from the ``clock`` a pass is given: the reference clock
of ``clock.py`` for the end-to-end metrics, ``time.perf_counter`` in the
traced run.  The program is reached through module attributes at call time
(never names bound here at import), so that the tracer's wrappers see every
call.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from dataclasses import dataclass, field

# Gate for every coherence report and every module-pentagon deviation.
# Written as ``not dev <= GATE`` so that a NaN deviation fails.
GATE = 1e-9

# Targets whose time per pass is an end-to-end metric: the two that every
# workload runs.
TARGET_METRIC = {
    "ising": "check_s.ising",
    "fibonacci": "check_s.fibonacci",
}


@dataclass
class PassResult:
    """What one pass did; the caller fills in ``pass_s`` and, for a traced
    pass, ``layers``."""

    target_s: dict = field(default_factory=dict)
    calls_s: list = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    digest: tuple | None = None
    pass_s: float = 0.0
    layers: dict = field(default_factory=dict)


class Workload:
    """Seeded inputs, a set-up, and a guarded pass over the inputs."""

    name = ""
    targets: tuple = ()

    def __init__(self, seed: int):
        self.order = list(self.targets)
        random.Random(seed).shuffle(self.order)
        self.specs = {}  # specs held across passes
        self.checks_per_pass = 1

    def setup(self, mtc) -> None:
        """Nothing beyond the import by default."""

    def held_specs(self) -> list:
        return list(self.specs.values())

    def _guarded(self, body) -> PassResult:
        """Run one pass.  An exception fails every check the pass attempted,
        and at least as many as the last complete pass made."""
        out = PassResult()
        try:
            body(out)
        except Exception:  # a broken program must not abort the benchmark
            traceback.print_exc(file=sys.stderr)
            out.attempted = max(self.checks_per_pass, out.attempted)
            out.failed = out.attempted
            out.digest = None
        else:
            self.checks_per_pass = out.attempted
        return out


class SuiteCold(Workload):
    """``run_suite(target)`` with default options, then ``to_json()``, for
    every builtin except ``z_5(2)``, each on a freshly resolved spec."""

    name = "suite_cold"
    targets = ("trivial", "semion", "fibonacci", "ising", "z_3(1)",
               "rep_z2_symmetric")
    # checks that run_suite skips, or turns into a control, on purpose
    expected_skips = {
        "rep_z2_symmetric": {"verlinde_fusion", "modular_group",
                             "permutation_invariants"},
    }
    expected_controls = {"rep_z2_symmetric": {"azumaya_control"}}

    def run_pass(self, mtc, clock) -> PassResult:
        def body(out: PassResult) -> None:
            digest = []
            for target in self.order:
                t0 = clock()
                report = mtc.run_suite(target)
                text = report.to_json()
                dt = clock() - t0
                out.calls_s.append(dt)
                if target in TARGET_METRIC:
                    out.target_s[TARGET_METRIC[target]] = dt
                digest.append(text)
                out.failed += self._failures(target, report)
                out.attempted += len(report.checks)
                out.items += len(report.checks)
            out.digest = tuple(digest)

        return self._guarded(body)

    def _failures(self, target: str, report) -> int:
        skips = self.expected_skips.get(target, set())
        controls = self.expected_controls.get(target, set())
        names = {c.name for c in report.checks}
        bad = len((skips | controls) - names)
        for c in report.checks:
            if c.status == "skipped":
                bad += c.name not in skips
            else:
                bad += c.status != "pass"
        return bad


def pentagon_cells(N) -> int:
    """Label tuples (a, b, f, c, g, d, e) visited by the pentagon sweep of
    ``validate_category``: f in a (x) b, g in f (x) c, e in g (x) d."""
    P = (N > 0).astype(int)
    return int(P.sum(axis=(0, 1)) @ P.sum(axis=1) @ P.sum(axis=(1, 2)))


def hexagon_cells(N) -> int:
    """Label tuples (a, b, c, d) with d in a (x) c (x) b, once for each of
    the two hexagons."""
    import numpy as np  # here, so that importing numpy counts in setup_s
    acbd = np.einsum("acx,xbd->abcd", N, N)
    return 2 * int(np.count_nonzero(acbd))


class CoherenceSquares(Workload):
    """``validate_category(deligne_power(spec, 2))``: pentagon and hexagons
    of the square; no morphism is ever built."""

    name = "coherence_squares"
    targets = ("fibonacci", "ising", "z_3(1)", "semion", "rep_z2_symmetric")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cells = {}

    def setup(self, mtc) -> None:
        self.specs = {t: mtc.get_category(t) for t in self.order}

    def run_pass(self, mtc, clock) -> PassResult:
        def body(out: PassResult) -> None:
            digest = []
            for target in self.order:
                t0 = clock()
                square = mtc.deligne_power(self.specs[target], 2)
                report = mtc.validate_category(square)
                dt = clock() - t0
                out.calls_s.append(dt)
                if target in TARGET_METRIC:
                    out.target_s[TARGET_METRIC[target]] = dt
                digest.append(report.to_json())
                out.attempted += len(report.checks)
                out.failed += sum(not c.max_deviation <= GATE
                                  or c.status != "pass"
                                  for c in report.checks)
                if target not in self.cells:
                    N = square.ring.N
                    self.cells[target] = pentagon_cells(N) + hexagon_cells(N)
                out.items += self.cells[target]
            out.digest = tuple(digest)

        return self._guarded(body)


class ModuleSweepWarm(Workload):
    """Right module pentagons for n = 0, 1, 2 and the left one for n = 0
    over a seeded sample of label tuples (m, x1, x2, y1, y2, z1, z2), on
    specs held across passes so that every psi / psi_hat is a cache hit."""

    name = "module_sweep_warm"
    targets = ("fibonacci", "ising")
    # tuples per target: fibonacci has 2^7 = 128, so it is swept in full and
    # the seed only sets the order; ising has 3^7 = 2187
    sample_size = 256
    kinds = (("right", 0), ("right", 1), ("right", 2), ("left", 0))

    def __init__(self, seed: int):
        super().__init__(seed)
        self.rng = random.Random(seed)
        self.tuples = {}

    def setup(self, mtc) -> None:
        self.specs = {t: mtc.get_category(t) for t in self.targets}
        self.tuples = {t: self._sample(s.rank) for t, s in self.specs.items()}
        # warm-up: fills every engine and psi cache
        self.run_pass(mtc, time.perf_counter)

    def _sample(self, rank: int) -> list:
        total = rank ** 7
        picks = self.rng.sample(range(total), min(self.sample_size, total))
        return [tuple(p // rank ** i % rank for i in range(7)) for p in picks]

    def run_pass(self, mtc, clock) -> PassResult:
        def body(out: PassResult) -> None:
            modcat = mtc.modcat
            digest = []
            for target in self.targets:
                spec = self.specs[target]
                t_target = clock()
                for m, x1, x2, y1, y2, z1, z2 in self.tuples[target]:
                    M = (m,)
                    X, Y, Z = ((x1,), (x2,)), ((y1,), (y2,)), ((z1,), (z2,))
                    for side, n in self.kinds:
                        t0 = clock()
                        if side == "right":
                            dev = modcat.module_pentagon_deviation(
                                spec, M, X, Y, Z, n)
                        else:
                            dev = modcat.left_module_pentagon_deviation(
                                spec, X, Y, Z, M, n)
                        out.calls_s.append(clock() - t0)
                        digest.append(dev)
                        out.failed += not dev <= GATE
                out.target_s[TARGET_METRIC[target]] = clock() - t_target
            out.items = out.attempted = len(digest)
            out.digest = tuple(digest)

        return self._guarded(body)


WORKLOADS = {w.name: w for w in (SuiteCold, CoherenceSquares,
                                 ModuleSweepWarm)}
