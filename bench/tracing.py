"""In-process tracing of the casimir_plates layers from outside the package.

The tracer wraps every public function of each layer module and installs the
wrapper under every name the function is bound to in the package.  The
rebinding matters because modules import each other's functions by name
(``from .numerics import integrate_semi_infinite`` leaves a second binding
in ``regsum``), so patching only the defining module would miss those calls.
No source file of the package changes.

Each call records a span (name, start, end, parent, invocation) in memory;
spans are written out once, at the end of the run.  A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: Package modules that form the traced layers; ``units`` holds only
#: constants and is left out.
LAYERS = ("cli", "regsum", "numerics", "stress", "modes", "verify")
PACKAGE = "casimir_plates"

_EVALUATIONS = ("numerics.integrate_semi_infinite", "numerics.mean_over_box",
                "numerics.mean_over_rectangle")
_POINTS = ("modes.electric_mode_at", "modes.magnetic_mode_at",
           "stress.stress_tensor")


class Tracer:
    """Span recorder and call counter for one traced replay."""

    def __init__(self):
        #: [name, start_s, end_s, parent index or -1, invocation]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.invocation = -1
        #: names of the wrapped functions, "layer.function"
        self.names: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Bind a wrapper in place of every public layer function."""
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}")
                    for m in LAYERS + ("units",)]
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
                    self.names.add(f"{layer}.{attr}")
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore the original bindings; a no-op when not installed."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- recording ----------------------------------------------------

    def _wrap(self, name: str, fn):
        counts = self.counts
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        t0 = self._t0
        count_terms = name == "numerics.sum_until_tail_bound"
        count_evals = name in _EVALUATIONS
        count_points = name in _POINTS

        def counted_term(term):
            def wrapped(n):
                counts[name + ".terms"] += 1
                return term(n)
            return wrapped

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if count_points:
                counts[name + ".points"] += np.size(args[0]) // 3
            if count_terms:
                args = (counted_term(args[0]),) + args[1:]
            index = len(spans)
            spans.append([name, clock() - t0, None,
                          stack[-1] if stack else -1, self.invocation])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if count_evals:
                    counts[name + ".evaluations"] += getattr(exc, "evaluations", 0)
                raise
            finally:
                stack.pop()
                spans[index][2] = clock() - t0
            if count_evals:
                counts[name + ".evaluations"] += result.evaluations
            return result

        return wrapper

    # -- results ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time of every traced function, by span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            totals[name] += end - start - covered
        return totals

    def dump(self, path: Path) -> None:
        document = {"fields": ["name", "start_s", "end_s", "parent",
                               "invocation"],
                    "spans": self.spans}
        path.write_text(json.dumps(document, separators=(",", ":")))


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values derived from one traced replay."""
    self_s = tracer.self_times()
    counts = tracer.counts
    metrics: dict[str, float] = {}
    for name, value in self_s.items():
        metrics[name + ".self_s"] = value
    metrics.update(counts)
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.startswith(layer + "."))
    field_points = (counts["modes.electric_mode_at.points"]
                    + counts["modes.magnetic_mode_at.points"])
    field_s = (self_s.get("modes.electric_mode_at", 0.0)
               + self_s.get("modes.magnetic_mode_at", 0.0))
    metrics["modes.field_ns_per_point"] = (
        1e9 * field_s / field_points if field_points else 0.0)
    return metrics


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds of import self time per top-level package, from -X importtime."""
    totals: dict[str, float] = defaultdict(float)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        package = fields[2].strip().split(".")[0]
        totals[package] += int(fields[0]) * 1e-6
    return totals
