"""Spans and call counts for the traced run, kept in memory.

A span is (name, start, end, parent), with times from
``time.perf_counter_ns`` and ``parent`` the index of the enclosing span
(-1 at the top).  Spans are opened by the benchmark around its own calls
and by wrappers that the benchmark patches over the program's public
callables for the length of the traced phase; the program's source is not
changed.  Callables too fine-grained for a span each (constructors,
``Permutation.cycles``) only get a call counter.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from types import ModuleType


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(sid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    # -- patching the program ------------------------------------------------

    def trace_function(self, modules: list[ModuleType], owner: ModuleType, attr: str, name: str) -> bool:
        """Give every call of ``owner.attr`` a span, wherever a module of
        the program bound that function.  False if it does not exist."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, key, wrapper)
        return True

    def count_method(self, cls: type, attr: str, name: str) -> bool:
        """Count calls of ``cls.attr``.  False if it does not exist."""
        fn = cls.__dict__.get(attr)
        if fn is None:
            return False
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(cls, attr, wrapper)
        return True

    def _patch(self, obj: object, key: str, new: object) -> None:
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, new)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, old = self._undo.pop()
            setattr(obj, key, old)

    # -- reading spans back --------------------------------------------------

    def durations_ns(self, name: str, lo: int = 0, hi: int | None = None) -> list[int]:
        """Durations of the spans called ``name`` with index in [lo, hi)."""
        sid = self._ids.get(name)
        if sid is None:
            return []
        hi = len(self) if hi is None else hi
        ids, start, end = self.name_id, self.start, self.end
        return [end[i] - start[i] for i in range(lo, hi) if ids[i] == sid]

    def totals_by_parent_ns(self, name: str, lo: int = 0, hi: int | None = None) -> list[int]:
        """Summed duration of the spans called ``name`` under each parent
        that has any, in order of the parent."""
        sid = self._ids.get(name)
        if sid is None:
            return []
        hi = len(self) if hi is None else hi
        sums: dict[int, int] = {}
        for i in range(lo, hi):
            if self.name_id[i] == sid:
                p = self.parent[i]
                sums[p] = sums.get(p, 0) + self.end[i] - self.start[i]
        return [sums[p] for p in sorted(sums)]

    def write(self, path) -> None:
        """One JSON header line (names, counts), then one
        ``[name, start_ns, end_ns, parent]`` line per span."""
        t0 = self.start[0] if len(self) else 0
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "counts": self.counts}) + "\n")
            for i in range(len(self)):
                fh.write(
                    f"[{self.name_id[i]},{self.start[i] - t0},{self.end[i] - t0},{self.parent[i]}]\n"
                )


class NullTracer:
    """Stands in for a Tracer when the run is not traced."""

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()
