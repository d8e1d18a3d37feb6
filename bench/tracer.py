"""Outside-in tracer: spans around solvrad's public layer functions, recorded
without touching the program's source.

Modules import each other's functions by name (`from .bsgs import
normal_closure`), so wrapping a function means rebinding it in every
`solvrad.*` namespace that holds it.  `Bsgs.__init__` is wrapped on the class,
which counts every subgroup build however it is reached.  The `perm` layer is
left alone: its primitives are too hot to wrap and are timed by a
microbenchmark instead.

Spans are kept in memory as [name, start, end, parent] and written out once
at the end; `layer_metrics` turns a written trace into per-layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("zoo", "bsgs", "structure", "criteria", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._originals: dict[int, object] = {}  # id(original) -> original

    def wrap(self, name: str, fn, on_return=None):
        """A traced stand-in for fn; on_return(tracer, args, result) may
        add to the counters."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name_id, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_return is not None:
                on_return(self, args, result)
            return result

        self._originals[id(fn)] = fn
        return traced

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def install(self, hooks: dict) -> None:
        """Wrap every public function of the traced layers in every solvrad
        namespace.  `hooks` maps a span name such as "bsgs.centralizer" to an
        on_return callback."""
        import solvrad.bsgs

        wrapped = {}
        for fn in layer_functions():
            name = f"{fn.__module__.split('.')[-1]}.{fn.__name__}"
            wrapped[id(fn)] = self.wrap(name, fn, hooks.get(name))
        for module in solvrad_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and self._originals[id(value)] is value:
                    setattr(module, attr, wrapped[id(value)])
        bsgs_cls = solvrad.bsgs.Bsgs
        bsgs_cls.__init__ = self.wrap(
            "bsgs.Bsgs.__init__", bsgs_cls.__init__, hooks.get("bsgs.Bsgs.__init__")
        )

    def unwrapped_left(self) -> list[str]:
        """Names in solvrad namespaces that still hold an original layer
        function after `install`; empty when patching is complete."""
        def original(value):
            return id(value) in self._originals and self._originals[id(value)] is value

        left = []
        for module in solvrad_modules():
            for attr, value in vars(module).items():
                if original(value):
                    left.append(f"{module.__name__}.{attr}")
                if inspect.isclass(value):
                    left += [
                        f"{module.__name__}.{attr}.{method}"
                        for method, fn in vars(value).items()
                        if original(fn)
                    ]
        return left

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                {"names": self.names, "spans": self.spans, "counters": self.counters},
                f,
            )


def solvrad_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "solvrad" or name.startswith("solvrad."))
    ]


def layer_functions() -> list:
    """Public plain functions defined in the traced layer modules.  Generator
    functions are skipped: a span would close before any work is done."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"solvrad.{layer}"]
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and not attr.startswith("_")
                and value.__module__ == module.__name__
                and not inspect.isgeneratorfunction(value)
            ):
                out.append(value)
    return out


def layer_metrics(trace: dict) -> dict:
    """Per-layer totals from a written trace.

    For each span name: calls, total duration and self time (duration minus
    the durations of its direct children).  For each layer: summed self
    time, calls, and inclusive time of its outermost spans (those with no
    ancestor in the same layer).
    """
    names = trace["names"]
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_name = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in names}
    layer = [n.split(".")[0] for n in names]
    per_layer = {
        l: {"calls": 0, "self_s": 0.0, "outer_s": 0.0} for l in set(layer)
    }
    for i, (name_id, start, end, parent) in enumerate(spans):
        dur = end - start
        stats = per_name[names[name_id]]
        stats["calls"] += 1
        stats["total_s"] += dur
        stats["self_s"] += dur - child_time[i]
        lstats = per_layer[layer[name_id]]
        lstats["calls"] += 1
        lstats["self_s"] += dur - child_time[i]
        ancestor = parent
        while ancestor >= 0 and layer[spans[ancestor][0]] != layer[name_id]:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            lstats["outer_s"] += dur
    return {"names": per_name, "layers": per_layer, "counters": trace["counters"]}
