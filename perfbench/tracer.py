"""Span tracer that times the qdiscrim layers from outside the package.

A layer is one package module. The tracer wraps every public function of
each layer (module-level names without a leading underscore) and the
constructor of every public class, and it rebinds each wrapped function
at every package module that imports it by name: `solve` binds
`bloch.shifted_ball_dual` itself, so that binding is wrapped as well.
Private helpers stay unwrapped, so their time is self time of the public
caller (the Jacobi `_eigh` inside `complementary_states` is `solve` time).

Spans are kept in memory as [name, start, end, parent, raised, note] and
written out when the run ends. Wrappers cost one flag test while the
tracer is inactive.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "qdiscrim"
LAYERS = ("operators", "bloch", "solve", "certify", "serialize", "factory", "oracle", "cli")

# Per-span notes read from a wrapped call's arguments or result, taken
# after the span's end time so they cost the span nothing.
_NOTES = {
    "bloch.convex_weights_for_center": lambda args, kwargs, result: len(
        args[0] if args else kwargs["points"]
    ),
    "certify.verify_kkt": lambda args, kwargs, result: [result.passed, result.max_residual()],
    "factory.generate_from_symmetry_operator": lambda args, kwargs, result: result.certified,
}

NAME, START, END, PARENT, RAISED, NOTE = range(6)


class Tracer:
    """Records one span per call into a wrapped layer function while active."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        note = _NOTES.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = perf_counter()
                span[RAISED] = True
                raise
            finally:
                stack.pop()
            span[END] = perf_counter()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every layer's public functions and constructors; return their names."""
        importlib.import_module(f"{PACKAGE}.cli")
        replacements: dict[int, tuple[object, object]] = {}
        names = []
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    replacements[id(obj)] = (obj, self._wrap(name, obj))
                    names.append(name)
                elif inspect.isclass(obj) and "__init__" in vars(obj):
                    obj.__init__ = self._wrap(name, obj.__init__)
                    names.append(name)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == PACKAGE or module_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, obj in list(vars(module).items()):
                entry = replacements.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
        return names


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def summarize(spans: list[list]) -> dict:
    """Per-name and per-layer totals: calls, self seconds, total seconds, raised."""
    by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    by_layer: dict[str, float] = defaultdict(float)
    outer_raised: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        name = span[NAME]
        layer = name.split(".", 1)[0]
        entry = by_name[name]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += span[END] - span[START]
        by_layer[layer] += own
        parent = span[PARENT]
        outermost = parent < 0 or spans[parent][NAME].split(".", 1)[0] != layer
        if span[RAISED] and outermost:
            outer_raised[layer] += 1
    return {"by_name": dict(by_name), "by_layer": dict(by_layer), "raised": dict(outer_raised)}
