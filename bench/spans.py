"""In-memory span tracer that wraps rectflip's public functions from outside.

Each wrapped call records one span (name, start, end, parent span).  The
wrappers are installed into every rectflip module namespace that binds
the function, so calls between modules are traced too, and removed
again after the traced pass.  Nothing in the package itself is edited.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager

# Public functions timed per module; the metric names in BENCHMARK.json
# are built from these.
LAYERS = {
    "rectangulation": (
        "geometry",
        "diagonal_obstruction",
        "canonicalize",
        "bounding_boxes",
        "extraction_word",
        "rho",
    ),
    "flips": ("classify_edge", "flip", "neighbors"),
    "bijection": ("fiber", "baxter_of", "block_deletion_word"),
    "permutation": ("enumerate_avoiders", "avoids_class"),
    "order": ("drec_covers", "covers_within", "inversion_mask"),
    "flipgraph": (
        "build",
        "metrics",
        "graph_json",
        "verify_counts",
        "verify_theorem_main",
        "verify_theorem_lr",
        "verify_characterization",
        "verify_inversion",
    ),
    "cli": ("render_svg",),
}

CLI_COMMANDS = ("map", "perms", "flips", "flip", "render", "graph")


class Tracer:
    """Spans kept as tuples in a list; aggregated once the pass is over."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.geometry_inputs: set[int] = set()
        self.flippable = 0
        self.avoiders = 0
        self.scanned = 0

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    @contextmanager
    def span(self, name: str):
        idx = self._name_index(name)
        parent = self._stack[-1] if self._stack else -1
        i = len(self.spans)
        self.spans.append(None)
        self._stack.append(i)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[i] = (idx, start, end, parent)

    def _wrap(self, name: str, fn):
        # Same record as span(), inlined: a generator-based context manager
        # would add its own cost to hundreds of thousands of calls.
        idx = self._name_index(name)
        spans, stack = self.spans, self._stack
        observe = self._observer(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            i = len(spans)
            spans.append(None)
            stack.append(i)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[i] = (idx, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        for attr in ("cache_info", "cache_clear"):  # keep @cache controls usable
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _observer(self, name: str):
        # Counts behind the ratio metrics, taken at the same boundary.
        if name == "rectangulation.geometry":
            return lambda args, result: self.geometry_inputs.add(hash(args[0]))
        if name == "flips.classify_edge":

            def count_flippable(args, result):
                self.flippable += result.flippable

            return count_flippable
        if name == "permutation.enumerate_avoiders":

            def count_scanned(args, result):
                self.avoiders += len(result)
                self.scanned += math.factorial(args[0])

            return count_scanned
        return None

    def install(self, modules: dict[str, object], package: object) -> None:
        """Replace each listed function wherever a rectflip namespace binds it."""
        wrappers = {}
        for layer, names in LAYERS.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                wrappers[id(original)] = self._wrap(f"{layer}.{fname}", original)
        for namespace in (*modules.values(), package):
            for attr, value in list(vars(namespace).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._patched):
            setattr(namespace, attr, value)
        self._patched.clear()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            _, start, end, parent = span
            if parent >= 0:
                child_time[parent] += end - start
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
                 for name in self.names}
        for i, (idx, start, end, _) in enumerate(self.spans):
            entry = stats[self.names[idx]]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["durations"].append(end - start)
        return stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cache_info) -> dict[str, tuple[float, str]]:
    """Per-layer metric values with units, keyed by their BENCHMARK.json names.

    ``cache_info`` is ``build.cache_info()`` read right after the pass.
    """
    stats = tracer.aggregate()

    def get(name: str, key: str) -> float:
        entry = stats.get(name)
        return entry[key] if entry else 0

    out: dict[str, tuple[float, str]] = {}

    def calls_and_self(layer: str, fnames) -> None:
        for fname in fnames:
            name = f"{layer}.{fname}"
            out[f"{name}.calls"] = (get(name, "calls"), "count")
            out[f"{name}.self_s"] = (get(name, "self_s"), "s")

    calls_and_self("rectangulation", LAYERS["rectangulation"])
    out["rectangulation.geometry.distinct_ratio"] = (
        _ratio(len(tracer.geometry_inputs), get("rectangulation.geometry", "calls")),
        "ratio",
    )
    calls_and_self("flips", LAYERS["flips"])
    classified = get("flips.classify_edge", "calls")
    out["flips.classify_per_flip"] = (
        _ratio(classified, get("flips.flip", "calls")),
        "ratio",
    )
    out["flips.flippable_ratio"] = (_ratio(tracer.flippable, classified), "ratio")
    calls_and_self("bijection", LAYERS["bijection"])
    out["permutation.enumerate_avoiders.self_s"] = (
        get("permutation.enumerate_avoiders", "self_s"),
        "s",
    )
    out["permutation.avoids_class.calls"] = (
        get("permutation.avoids_class", "calls"),
        "count",
    )
    out["permutation.avoider_ratio"] = (_ratio(tracer.avoiders, tracer.scanned), "ratio")
    out["order.drec_covers.self_s"] = (get("order.drec_covers", "self_s"), "s")
    out["order.covers_within.self_s"] = (get("order.covers_within", "self_s"), "s")
    out["order.inversion_mask.calls"] = (get("order.inversion_mask", "calls"), "count")
    for fname in LAYERS["flipgraph"]:
        out[f"flipgraph.{fname}.self_s"] = (get(f"flipgraph.{fname}", "self_s"), "s")
    out["flipgraph.build.cache_hits"] = (cache_info.hits, "count")
    out["flipgraph.build.cache_misses"] = (cache_info.misses, "count")
    for command in CLI_COMMANDS:
        durations = stats.get(f"cli.{command}", {}).get("durations")
        p50 = statistics.median(durations) * 1e3 if durations else 0.0
        out[f"cli.{command}.p50_ms"] = (p50, "ms")
    out["cli.render_svg.self_s"] = (get("cli.render_svg", "self_s"), "s")
    return out
