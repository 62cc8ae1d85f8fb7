"""Span recording around calls into the library, from outside it.

A span is (name, start, end, parent). Spans stay in memory while the
benchmark runs; self time (duration minus the time child spans cover) is
accumulated as each span closes, keyed by (name, parent name), and the raw
spans are written out once at the end.

Hooks replace module-level names of the ``seednorm`` package with wrappers
that open a span around the original call. A function imported into several
modules (``adamw_step`` lives in ``optim`` and is called through
``training``) is replaced under every module that holds it, so the span is
recorded whichever name the caller resolves. A missing name is reported back
instead of raised, so a refactor that deletes a function costs only that
layer's metrics.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "seednorm"

_clock = time.perf_counter
ANY = object()  # parent filter that matches every parent, including none


def _sum(table: dict, name: str, parent):
    return sum(v for (n, p), v in table.items() if n == name and (parent is ANY or p == parent))


class Tracer:
    """Records nested spans and aggregates self and total time per span key."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans: [index, name, start, time covered by closed children]
        self._stack: list[list] = []
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.count: dict = defaultdict(int)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        start = _clock()
        self.span_start.append(start)
        self._stack.append([idx, name, start, 0.0])

    def exit(self) -> None:
        end = _clock()
        idx, name, start, covered = self._stack.pop()
        self.span_end[idx] = end
        duration = end - start
        parent_name = self._stack[-1][1] if self._stack else None
        if self._stack:
            self._stack[-1][3] += duration
        key = (name, parent_name)
        self.self_s[key] += duration - covered
        self.total_s[key] += duration
        self.count[key] += 1

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, fn, name):
        """Wrapper around ``fn`` that records one span per call.

        ``name`` is a string or a callable of the call's positional
        arguments that returns one.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name if isinstance(name, str) else name(args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    def self_time(self, name: str, parent=ANY) -> float:
        """Summed self seconds of spans called ``name`` (under ``parent``, if given)."""
        return _sum(self.self_s, name, parent)

    def total_time(self, name: str, parent=ANY) -> float:
        return _sum(self.total_s, name, parent)

    def calls(self, name: str, parent=ANY) -> int:
        return _sum(self.count, name, parent)

    def names_with_prefix(self, prefix: str) -> set[str]:
        return {n for (n, _) in self.count if n.startswith(prefix)}

    def write_tsv(self, path) -> None:
        """One line per span: name, start_s, end_s, parent index (-1 for roots)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.span_start[i]!r}\t"
                         f"{self.span_end[i]!r}\t{self.span_parent[i]}\n")


class Hooks:
    """Installs tracing wrappers over ``module.attr`` targets and restores them.

    ``targets`` is a list of (defining module, attribute, span name). Every
    loaded module of the package that holds the same function object under
    that attribute gets the wrapper. Targets whose attribute is gone from the
    defining module are listed in ``missing`` and skipped.
    """

    def __init__(self, tracer: Tracer, targets):
        self.tracer = tracer
        self.targets = list(targets)
        self.missing: list[str] = []
        self._saved: list[tuple] = []
        for modname, attr, _ in self.targets:
            mod = sys.modules.get(modname)
            if mod is None or not callable(getattr(mod, attr, None)):
                self.missing.append(f"{modname}.{attr}")

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        try:
            for modname, attr, name in self.targets:
                if f"{modname}.{attr}" in self.missing:
                    continue
                original = getattr(sys.modules[modname], attr)
                wrapper = self.tracer.wrap(original, name)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
