"""In-memory span recording around calls into loveline, from outside.

A :class:`Tracer` wraps functions so each call records a span: its name,
start and end from ``perf_counter_ns``, and the index of the span that was
open when it began (its cause). Spans stay in memory until the caller reads
them. :func:`patch` installs a wrapper on every module attribute bound to
the wrapped function, because loveline's modules import functions by name.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns
from typing import Callable


class Tracer:
    """Span store: parallel lists indexed by span number."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[[tuple, object], None] | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``on_result(args, result)`` runs after the span has closed, so its
        bookkeeping counts as self time of the enclosing span, not this one.
        """

        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(0)
            self._open.append(index)
            self.starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = perf_counter_ns()
                self._open.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced


def write(tracer: Tracer, path) -> None:
    """Write the spans as JSON: a name table and [name, start, end, parent]."""
    names = sorted(set(tracer.names))
    index = {name: i for i, name in enumerate(names)}
    spans = [[index[n], s, e, p] for n, s, e, p in
             zip(tracer.names, tracer.starts, tracer.ends, tracer.parents)]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"names": names, "spans": spans}, handle)


def self_times(starts: list[int], ends: list[int], parents: list[int]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    out = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered, reach = 0, start
        kids = sorted((max(starts[k], start), min(ends[k], end))
                      for k in children.get(index, ()))
        for lo, hi in kids:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def patch(fn: Callable, wrapper: Callable, package: str) -> list[tuple]:
    """Bind ``wrapper`` wherever a module of ``package`` binds ``fn``.

    Returns the ``(owner, attribute, original)`` triples that
    :func:`restore` needs.
    """
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)
                undo.append((module, attr, fn))
    return undo


def restore(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
