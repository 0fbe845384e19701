"""Per-module tracing by rebinding the names quivermod's modules bind.

Every public function of a traced module, and a few named methods, is
replaced by a wrapper that records one span (name, start, end, parent span)
per call. The wrapper is bound under every name, in every quivermod module
namespace, that refers to the original function, so calls across modules and
within a module are both caught. Spans live in flat arrays in memory and are
written out once, when the run ends; busy and self time come from the span
tree afterwards. Generator functions get a counting wrapper instead of a
span, since their work happens in the caller's frames.
"""
from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("l")
        self.stack = [-1]
        self.items: dict[str, list[int]] = {}  # generator name -> [calls, items]
        self.tags: dict[int, str] = {}  # span index -> outcome suffix
        self.counters: dict[str, float] = defaultdict(float)
        self.seen: dict[str, set] = defaultdict(set)  # distinct hook keys by name
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, package: str, modules, methods, hooks) -> None:
        """Wrap the public functions of `modules` and the (class, name) `methods`.

        `hooks` maps a span name to a callback (tracer, span index, args,
        result) run after each successful call.
        """
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == package or name.startswith(package + "."))]
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn, hooks)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._rebind(ns, key, wrapped)
        for cls, attr in methods:
            short = cls.__module__.rsplit(".", 1)[-1]
            name = f"{short}.{cls.__name__}.{attr}"
            self._rebind(cls, attr, self._wrap(name, vars(cls)[attr], hooks))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def _rebind(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn, hooks):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        nid = len(self.names)
        self.names.append(name)
        after = hooks.get(name)
        start, end, parent, names, stack = self.start, self.end, self.parent, self.name, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, idx, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _wrap_generator(self, name: str, fn):
        counts = self.items.setdefault(name, [0, 0])

        def wrapper(*args, **kwargs):
            counts[0] += 1
            for item in fn(*args, **kwargs):
                counts[1] += 1
                yield item

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def open_names(self) -> list[str]:
        """Names of the spans currently open, outermost first."""
        return [self.names[self.name[i]] for i in self.stack[1:]]

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict:
        """calls, busy_s (outermost spans of a name only) and self_s per span name,
        the same split by outcome tag, generator item counts, and hook counters."""
        n = len(self.name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_time = defaultdict(float)
        path: list[int] = []
        open_count = defaultdict(int)
        for i in range(n):
            p, nid = self.parent[i], self.name[i]
            if p >= 0:
                child[p] += dur[i]
            while path and path[-1] != p:
                open_count[self.name[path.pop()]] -= 1
            calls[nid] += 1
            if not open_count[nid]:
                busy[nid] += dur[i]
            path.append(i)
            open_count[nid] += 1
        for i in range(n):
            self_time[self.name[i]] += dur[i] - child[i]
        out = {}
        for nid, name in enumerate(self.names):
            out[name] = {"calls": calls[nid], "busy_s": busy[nid], "self_s": self_time[nid]}
        for idx, tag in self.tags.items():
            entry = out.setdefault(f"{self.names[self.name[idx]]}.{tag}",
                                   {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += dur[idx]
            entry["self_s"] += dur[idx] - child[idx]
        for name, (ncalls, nitems) in self.items.items():
            out[name] = {"calls": ncalls, "items": nitems}
        return {"spans": n, "names": out, "counters": dict(self.counters)}

    def dump(self, path) -> None:
        """Write every span: a JSON header line, then the raw arrays, gzip-compressed."""
        header = {"names": self.names, "count": len(self.name),
                  "arrays": [["start", "d"], ["end", "d"], ["parent", "q"], ["name", "l"]],
                  "tags": {str(k): v for k, v in self.tags.items()}}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.parent, self.name):
                arr.tofile(fh)
