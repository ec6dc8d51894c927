"""In-memory spans around every public function of the semilink layers.

The tracer replaces each module binding of a layer's public functions with a
timing wrapper and puts the originals back on ``restore``.  Names are
imported by name across the package (``semilink.linker.local_cut`` is
``semilink.flows.local_cut``), so every binding that refers to the same
function object gets the same wrapper and the same span name.

A span is ``[name, start, end, parent, op, counts]``; ``parent`` is the index
of the enclosing span (-1 at the top) and ``op`` the id of the benchmark
operation that caused it.  Everything runs in one thread, so a span's
children never overlap each other.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

LAYERS = ("generators", "digraph", "flows", "dominators", "linker",
          "certificates", "counterexample", "oracle")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# Work counts read from a call's arguments and result, keyed by span name.
COUNTERS = {
    "flows.local_cut": lambda a, kw, r: {
        "capped": int(_arg(a, kw, 3, "cap") is not None),
        "direct_arc": int(r.direct_arc),
        "paths_returned": len(r.paths),
    },
    "linker.adjust_paths": lambda a, kw, r: {"rounds": r.rounds},
    "linker.link": lambda a, kw, r: {
        "certificates": int(type(r).__name__ == "LinkageCertificate")},
    "oracle.exists_disjoint_linkage": lambda a, kw, r: {
        "nodes_explored": r.nodes_explored},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = "setup"
        self.paused = False
        self.wrapped = 0
        self._stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []
        self._wrappers: dict[types.FunctionType, object] = {}

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def install(self) -> None:
        """Wrap every binding of every public layer function."""
        if not self._wrappers:
            for layer in LAYERS:
                mod = importlib.import_module(f"semilink.{layer}")
                for name, obj in vars(mod).items():
                    if (not name.startswith("_") and isinstance(obj, types.FunctionType)
                            and obj.__module__ == mod.__name__):
                        self._wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "semilink" and not mod_name.startswith("semilink."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in self._wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, self._wrappers[obj])
        self.wrapped = len(self._saved)

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "counts": counts}) + "\n")


def installed_wrappers() -> list[str]:
    """Bindings in the semilink package that still point at a tracer wrapper."""
    left = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "semilink" or mod_name.startswith("semilink."):
            for attr, obj in vars(mod).items():
                if getattr(obj, "__wrapped_by_tracer__", False):
                    left.append(f"{mod_name}.{attr}")
    return left


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, op, counts in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, op, counts) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(i, ())):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (self time) and summed work counts."""
    agg: dict[str, dict[str, float]] = {}
    for span, busy in zip(spans, self_times(spans)):
        name, counts = span[0], span[5]
        entry = agg.setdefault(name, {"calls": 0, "busy_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += busy
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return agg
