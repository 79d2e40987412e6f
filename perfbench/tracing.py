"""Per-layer spans and counters for mtc, installed from outside the package.

The layers are the package's modules.  ``Tracer.start`` replaces each
layer's public functions (and the methods listed in ``CLASS_METHODS``) by a
timing wrapper in every ``mtc`` namespace that bound them, including names
bound by ``from .engine import ...`` at import time; ``Tracer.stop`` puts the
originals back.  Nothing under ``src/`` is edited.

A span's self time is its duration minus the time of the spans it caused.
Time outside every span belongs to the benchmark itself.  Inclusive times
(``<layer>.<fn>_s``) count only the outermost call of a recursive function.
Suite sections are built from the spans of the public calls that
``run_suite`` makes directly: the sections run in a fixed order, and each
such call belongs to the latest section its kind can belong to.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time

from workloads import hexagon_cells, pentagon_cells

LAYERS = ("category", "deligne", "engine", "modcat", "frobenius",
          "invariants", "suite")
# None: every method but __repr__.  Of CategorySpec only the constructor,
# since its accessors run inside the scalar pentagon loops.
CLASS_METHODS = {
    "category": {"CategorySpec": ("__init__",)},
    "engine": {"Morphism": None},
    "frobenius": {"PermutationAlgebra": None},
}

SECTIONS = ("category", "modular", "product", "module", "frobenius",
            "invariants")
RUN_SUITE = "suite.run_suite"


def _first_section(key: str) -> int | None:
    """Earliest suite section a direct call from ``run_suite`` can be in;
    None for calls that any section makes (engine, spec helpers)."""
    layer, _, name = key.partition(".")
    if key == "category.validate_category":
        return 0
    if layer == "category" and name in ("modular_datum", "verlinde_fusion",
                                        "modular_group_relations"):
        return 1
    return {"deligne": 2, "modcat": 3, "frobenius": 4,
            "invariants": 5}.get(layer)


# cache section of spec._cache -> (owning layer, span key of its filler or
# None when the filler is private); hit ratio = 1 - new entries / calls
CACHE_SECTIONS = {
    "trees": ("engine", "engine.trees"),
    "tree_pos": ("engine", "engine.tree_positions"),
    "fcols_pos": ("engine", None),
    "finv": ("engine", None),
    "split": ("engine", "engine.split_transform"),
    "braid_local": ("engine", None),
    "braid_gen": ("engine", "engine.braid_generator"),
    "block_crossing": ("engine", "engine.block_crossing"),
    "double_braiding": ("engine", "engine.double_braiding"),
    "cap_scale": ("engine", None),
    "psi": ("modcat", "modcat.psi"),
    "psi_hat": ("modcat", "modcat.psi_hat"),
    "ptree_map": ("deligne", "deligne.product_tree_map"),
}

# per-layer metric -> (kind, span keys): "s" sums inclusive times, "calls"
# sums call counts
SPAN_METRICS = {
    "category.validate_s": ("s", ["category.validate_category"]),
    "category.validate_calls": ("calls", ["category.validate_category"]),
    "category.modular_datum_s": ("s", ["category.modular_datum"]),
    "deligne.power_s": ("s", ["deligne.deligne_power"]),
    "deligne.pair_morphism_s": ("s", ["deligne.pair_morphism"]),
    "deligne.pair_morphism_calls": ("calls", ["deligne.pair_morphism"]),
    "deligne.product_tree_map_calls": ("calls",
                                       ["deligne.product_tree_map"]),
    "engine.tensor_s": ("s", ["engine.tensor"]),
    "engine.tensor_calls": ("calls", ["engine.tensor"]),
    "engine.morphisms_built": ("calls", ["engine.Morphism.__init__"]),
    "engine.compose_calls": ("calls", ["engine.Morphism.__matmul__"]),
    "engine.trees_s": ("s", ["engine.trees"]),
    "engine.trees_calls": ("calls", ["engine.trees"]),
    "engine.split_transform_s": ("s", ["engine.split_transform"]),
    "engine.split_transform_calls": ("calls", ["engine.split_transform"]),
    "engine.braid_generator_s": ("s", ["engine.braid_generator"]),
    "engine.braid_generator_calls": ("calls", ["engine.braid_generator"]),
    "engine.block_crossing_s": ("s", ["engine.block_crossing"]),
    "engine.block_crossing_calls": ("calls", ["engine.block_crossing"]),
    "engine.double_braiding_s": ("s", ["engine.double_braiding"]),
    "engine.double_braiding_calls": ("calls", ["engine.double_braiding"]),
    "modcat.psi_s": ("s", ["modcat.psi"]),
    "modcat.psi_calls": ("calls", ["modcat.psi"]),
    "modcat.psi_hat_s": ("s", ["modcat.psi_hat"]),
    "modcat.psi_hat_calls": ("calls", ["modcat.psi_hat"]),
    "frobenius.report_s": ("s", ["frobenius.frobenius_report"]),
    "frobenius.multiplication_s": (
        "s", ["frobenius.PermutationAlgebra.multiplication"]),
    "frobenius.comultiplication_s": (
        "s", ["frobenius.PermutationAlgebra.comultiplication"]),
    "frobenius.pairing_iso_s": (
        "s", ["frobenius.PermutationAlgebra.pairing_iso"]),
    "frobenius.sum_tensor_calls": ("calls", ["frobenius.sum_tensor"]),
    "invariants.report_s": ("s", ["invariants.invariant_report"]),
    "invariants.symmetric_group_s": ("s",
                                     ["invariants.symmetric_group_check"]),
    "invariants.annulus_s": ("s", ["invariants.annulus_coefficient",
                                   "invariants.annulus_tree_count"]),
}


def _layer_functions(module, layer: str):
    """(span key, owner, function) for every traced callable."""
    for name, obj in vars(module).items():
        if (inspect.isfunction(obj) and not name.startswith("_")
                and obj.__module__ == module.__name__):
            yield f"{layer}.{name}", module, obj
    for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
        cls = getattr(module, cls_name)
        if methods is None:
            methods = [n for n, v in vars(cls).items()
                       if inspect.isfunction(v) and n != "__repr__"]
        for name in methods:
            yield f"{layer}.{cls_name}.{name}", cls, vars(cls)[name]


class Tracer:
    """Spans, counts and spec-cache sizes of the traced passes.

    Use ``start``, run one pass, ``stop``; then ``pass_metrics`` gives the
    per-layer numbers of that pass.
    """

    def __init__(self):
        self.originals = {}  # span key -> original function
        self.classes = []
        for layer in LAYERS:
            module = sys.modules[f"mtc.{layer}"]
            for key, owner, fn in _layer_functions(module, layer):
                self.originals[key] = fn
                if inspect.isclass(owner) and owner not in self.classes:
                    self.classes.append(owner)
        self._patched = []

    # -- installation ------------------------------------------------------

    def start(self, held_specs) -> None:
        self.stats = {}  # span key -> [calls, inclusive s, active depth]
        self.layer_self = {layer: [0.0] for layer in LAYERS}
        self.section_s = dict.fromkeys(SECTIONS, 0.0)
        self.embed_sides = collections.Counter()
        self.validated = []
        self.new_specs = []
        self._root = [0.0, None]  # [child span time, suite section state]
        self._stack = [self._root]
        self.held = list(held_specs)
        self._before = self._cache_sizes(self.held)

        wrappers = {id(fn): self._wrap(key, fn)
                    for key, fn in self.originals.items()}
        # every mtc namespace and class that holds a traced function
        owners = [m for n, m in list(sys.modules.items())
                  if n == "mtc" or n.startswith("mtc.")]
        owners += self.classes
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if id(value) in wrappers:
                    self._patched.append((owner, name, value))
                    setattr(owner, name, wrappers[id(value)])
        self._check_installed()

    def stop(self) -> None:
        for owner, name, value in reversed(self._patched):
            setattr(owner, name, value)
        self._patched = []

    def _check_installed(self) -> None:
        """No loaded module may still hold an original: calls through it
        would escape the trace."""
        originals = {id(fn) for fn in self.originals.values()}
        left = [f"{name}.{attr}"
                for name, module in list(sys.modules.items())
                if module is not None
                for attr, value in list(getattr(module, "__dict__",
                                                {}).items())
                if id(value) in originals]
        if left:
            raise RuntimeError(f"unwrapped import sites: {left}")

    # -- spans -------------------------------------------------------------

    def _wrap(self, key: str, fn):
        layer_self = self.layer_self[key.partition(".")[0]]
        first_section = _first_section(key)
        is_run_suite = key == RUN_SUITE
        hook = {
            "engine.embed": self._count_embed,
            "category.validate_category": self._record_validated,
            "category.CategorySpec.__init__": self._record_spec,
        }.get(key)
        stat = self.stats[key] = [0, 0.0, 0]
        stack = self._stack
        section_s = self.section_s
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            stat[0] += 1
            stat[2] += 1
            frame = [0.0, -1 if is_run_suite else None]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stat[2] -= 1
                if not stat[2]:
                    stat[1] += dt
                layer_self[0] += dt - frame[0]
                parent = stack[-1]
                parent[0] += dt
                if parent[1] is not None:  # a direct call from run_suite
                    if first_section is not None and first_section > parent[1]:
                        parent[1] = first_section
                    if parent[1] >= 0:
                        section_s[SECTIONS[parent[1]]] += dt

        return wrapper

    def _count_embed(self, args, kwargs) -> None:
        left = kwargs.get("left", args[2] if len(args) > 2 else ())
        right = kwargs.get("right", args[3] if len(args) > 3 else ())
        self.embed_sides["left"] += bool(tuple(left))
        self.embed_sides["right"] += bool(tuple(right))

    def _record_validated(self, args, kwargs) -> None:
        self.validated.append(args[0] if args else kwargs["spec"])

    def _record_spec(self, args, kwargs) -> None:
        self.new_specs.append(args[0])

    # -- caches ------------------------------------------------------------

    @staticmethod
    def _cache_sizes(specs) -> collections.Counter:
        sizes = collections.Counter()
        for spec in {id(s): s for s in specs}.values():
            for section, entries in spec._cache.items():
                sizes[section] += len(entries)
        return sizes

    # -- results -----------------------------------------------------------

    def pass_metrics(self, pass_s: float) -> dict:
        """Per-layer metrics of the pass that ran between start and stop."""
        out = {}
        calls = {k: v[0] for k, v in self.stats.items()}
        for metric, (kind, keys) in SPAN_METRICS.items():
            field = 1 if kind == "s" else 0
            out[metric] = sum(self.stats[k][field] for k in keys)
        out["engine.embed_left_calls"] = self.embed_sides["left"]
        out["engine.embed_right_calls"] = self.embed_sides["right"]
        out["modcat.identity_evals"] = sum(
            n for k, n in calls.items()
            if k.startswith("modcat.") and k.endswith("_deviation"))
        out["category.pentagon_cells"] = sum(
            pentagon_cells(s.ring.N) for s in self.validated)
        out["category.hexagon_cells"] = sum(
            hexagon_cells(s.ring.N) for s in self.validated)

        after = self._cache_sizes(self.held + self.new_specs)
        for section, (layer, filler) in CACHE_SECTIONS.items():
            out[f"{layer}.cache_entries.{section}"] = after[section]
            if filler is not None:
                new = after[section] - self._before[section]
                out[f"{layer}.{section}_hit_ratio"] = (
                    1.0 - new / calls[filler] if calls[filler] else 0.0)

        for section in SECTIONS:
            out[f"suite.section_s.{section}"] = self.section_s[section]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer][0]
        out["bench.self_s"] = pass_s - self._root[0]
        out["trace.unaccounted_s"] = (
            pass_s - out["bench.self_s"]
            - sum(out[f"{layer}.self_s"] for layer in LAYERS))
        return out
