"""Benchmark of the mtc verifier: one workload per process.

    python3 perfbench/run.py --workload suite_cold --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line holds the end-to-end metrics, timed
on the reference clock of ``clock.py``.  With ``--trace 1`` it holds the
per-layer metrics of traced passes, timed with ``time.perf_counter`` (see
README.md).  The lines before it give the metadata, the sample counts and
every metric by name with its unit.  Exit status 2 means the program could
not be loaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import ReferenceClock
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up runs in this process, then in fresh child processes until there
# are SETUP_MIN set-ups and, while they took under SETUP_BUDGET_S in total,
# up to SETUP_MAX; setup_s is their median
SETUP_MIN = 3
SETUP_MAX = 9
SETUP_BUDGET_S = 2.0
# untraced passes are at least MIN_PASSES and last at least --seconds
MIN_PASSES = 3
TRACED_PASSES = 2



def declared_units(trace: int) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def load_mtc():
    """Import mtc from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    import mtc
    if not Path(mtc.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"mtc was imported from {mtc.__file__}")
    return mtc


def setup(workload, clock):
    """Import, spec construction and warm-up; returns (mtc, seconds)."""
    t0 = clock()
    mtc = load_mtc()
    workload.setup(mtc)
    return mtc, clock() - t0


def probe_setup(args) -> float:
    """Set-up time of a fresh process with the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_passes(workload, mtc, clock, seconds: float, min_passes: int = 1,
               tracer=None) -> list:
    """Timed passes until ``seconds`` have elapsed and ``min_passes`` ran."""
    passes = []
    start = time.perf_counter()
    while (len(passes) < min_passes
           or time.perf_counter() - start < seconds):
        if tracer is not None:
            tracer.start(workload.held_specs())
        t0 = clock()
        res = workload.run_pass(mtc, clock)
        res.pass_s = clock() - t0
        if tracer is not None:
            tracer.stop()
            res.layers = tracer.pass_metrics(res.pass_s)
        passes.append(res)
    return passes


def end_to_end(passes, setups) -> dict:
    """Medians over the passes that did not raise; empty if all raised."""
    ok = [p for p in passes if p.digest is not None]
    if not ok:
        return {}
    pass_s = statistics.median(p.pass_s for p in ok)
    calls = [c for p in ok for c in p.calls_s]
    out = {
        "setup_s": statistics.median(setups),
        "pass_s": pass_s,
    }
    for metric in ok[0].target_s:
        out[metric] = statistics.median(p.target_s[metric] for p in ok)
    out["items_per_s"] = ok[0].items / pass_s
    out["call_p50_ms"] = 1e3 * statistics.median(calls)
    # p90, the lowest tail allowed: over ten seeds on a shared machine the
    # p99 of the sweep's sub-millisecond calls spread 27% between quartiles,
    # as bursts of contention reach the reference clock a few ticks late;
    # linear interpolation inside the data
    out["call_p90_ms"] = 1e3 * statistics.quantiles(
        calls, n=10, method="inclusive")[8]
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    return out


def per_layer(untraced, traced, units) -> tuple[dict, list]:
    """Median per-layer metrics of the traced passes, and the problems found:
    counts that differ between traced passes, or outputs that differ from
    the untraced ones."""
    problems = []
    out = {}
    for name in traced[0].layers:
        values = [p.layers[name] for p in traced]
        if units.get(name) == "s":
            out[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced "
                                f"passes: {values}")
            out[name] = values[0]
    want = untraced[-1].digest
    if any(p.digest != want for p in traced):
        problems.append("traced output differs from untraced output")
    out["trace.pass_s"] = statistics.median(p.pass_s for p in traced)
    out["trace.untraced_pass_s"] = statistics.median(p.pass_s
                                                     for p in untraced)
    out["trace.overhead_s"] = out["trace.pass_s"] - out["trace.untraced_pass_s"]
    return out, problems


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def metadata(args, mtc) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_sha": git_sha(), "src_sha256": src_digest(),
        "mtc_version": mtc.__version__,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # one caller, one BLAS thread: the blocks are tiny and a shared machine
    # makes extra BLAS threads a source of noise
    for var in BLAS_VARS:
        os.environ[var] = "1"
    workload = WORKLOADS[args.workload](args.seed)
    ref = ReferenceClock()
    clock = time.perf_counter if args.trace else ref
    try:
        if not args.trace:
            ref.start()
        mtc, setup_s = setup(workload, clock)
    except ImportError as exc:
        print(f"cannot load mtc from {SRC}: {exc}", file=sys.stderr)
        return 2
    finally:
        ref.stop()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    meta = metadata(args, mtc)
    units = declared_units(args.trace)
    problems = []
    if args.trace:
        from tracing import Tracer
        untraced = run_passes(workload, mtc, clock, args.seconds, MIN_PASSES)
        traced = run_passes(workload, mtc, clock, 0.0, TRACED_PASSES,
                            Tracer())
        metrics, problems = per_layer(untraced, traced, units)
        passes = untraced + traced
    else:
        setups = [setup_s]
        while len(setups) < SETUP_MIN or (sum(setups) < SETUP_BUDGET_S
                                          and len(setups) < SETUP_MAX):
            setups.append(probe_setup(args))
        raw0, ref0 = ref.raw_s, ref()
        ref.start()
        untraced = run_passes(workload, mtc, clock, args.seconds, MIN_PASSES)
        ref.stop()
        metrics = end_to_end(untraced, setups)
        meta["setup_samples"] = len(setups)
        # reference seconds per raw second over the passes: above 1 when
        # the machine ran faster than the reference speed
        meta["reference_per_raw_s"] = (ref() - ref0) / (ref.raw_s - raw0)
        passes = untraced
    digests = {p.digest for p in untraced}
    if len(digests) != 1 or None in digests:
        problems.append("untraced passes disagree or raised")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    meta["passes"] = len(passes)
    meta["calls_per_pass"] = len(untraced[0].calls_s)
    meta["items_per_pass"] = untraced[0].items
    if set(metrics) != set(units):
        problems.append("metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(units))}")
    print(json.dumps(meta, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:<40} {metrics.get(name, float('nan')):>16.6g} {unit}")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"checks_failed {failed} of checks_attempted {attempted}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
