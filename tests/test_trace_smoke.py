"""The benchmark's traced run still finds every layer function it wraps.

``perfbench/tracing.py`` looks the package's public functions up by module
and name; a renamed or deleted one breaks ``run.py --trace 1``.  It reads
the sizes of ``spec._cache`` by section name, so a renamed section reads 0
rather than failing; the sections the semion run fills must not read 0,
and neither may the calls of the layer functions it runs.
The trace runs in a fresh interpreter, because the tracer refuses to start
while any loaded module (a test module here) still holds an unwrapped
function.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import mtc
from tracing import Tracer
tracer = Tracer()
tracer.start([])
try:
    report = mtc.run_suite("semion", suites=["category", "product", "module",
                                             "frobenius"])
    # the suite's module sweeps run on fusion paths and build no psi or
    # psi_hat
    semion = mtc.get_category("semion")
    mtc.modcat.module_pentagon_deviation(
        semion, (1,), ((1,), (1,)), ((1,), ()), ((), (1,)))
    mtc.modcat.left_module_pentagon_deviation(
        semion, ((1,), (1,)), ((1,), ()), ((), (1,)), (1,))
    # the suite's frobenius section runs on channel coefficients and pairs
    # no morphisms
    mtc.frobenius.PermutationAlgebra(semion).multiplication(0)
finally:
    tracer.stop()
metrics = tracer.pass_metrics(1.0)
print(json.dumps({{"passed": report.passed, "metrics": sorted(metrics),
                  "calls": {{k: v for k, v in metrics.items()
                            if k.endswith("_calls")}},
                  "entries": {{k: v for k, v in metrics.items()
                              if ".cache_entries." in k}}}}))
"""


def test_traced_suite_runs():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["passed"]
    # a layer function that stopped going through its traced name would
    # read 0 calls here instead of failing
    for name in ("engine.trees_calls", "deligne.pair_morphism_calls",
                 "deligne.product_tree_map_calls"):
        assert out["calls"][name] > 0, name
    # a renamed cache section would read 0 here instead of failing
    for section in ("finv", "split", "braid_gen", "block_crossing",
                    "double_braiding"):
        assert out["entries"][f"engine.cache_entries.{section}"] > 0, section
    for section in ("psi", "psi_hat"):
        assert out["entries"][f"modcat.cache_entries.{section}"] > 0, section
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # run.py adds the traced/untraced pass comparison itself
    from_run = {"trace.pass_s", "trace.untraced_pass_s", "trace.overhead_s"}
    assert set(out["metrics"]) == {m["name"] for m in declared} - from_run
