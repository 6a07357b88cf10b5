"""Spans recorded around calls into the program's layers, from outside it.

A :class:`Tracer` replaces an attribute (a class method or a module-level
binding) with a wrapper that records one span per call: name, start, end,
parent span and the request it belongs to. The wrapper is installed on the
attribute the *caller* resolves, so ``Session.execute`` is patched on the
class while ``send_message`` is patched in ``repro.serving.router``, which
imported it by name. Nothing inside ``src/`` is edited.

Spans live in memory until :meth:`Tracer.dump`. A layer's self time is its
span's duration minus the time its child spans cover; children of one span
run on the parent's thread, one after another, so that cover is their sum.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from dataclasses import dataclass

@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``module:Owner.attr`` or ``module:attr``."""

    path: str
    name: str  # span name, e.g. "session.execute"

    def resolve(self):
        """Return ``(owner, attr)`` for the attribute this target names."""
        module_name, _, dotted = self.path.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = dotted.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int  # span id, -1 for a root
    request: int  # request id, -1 outside any request
    thread: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Installs span-recording wrappers and collects their spans."""

    def __init__(self, targets: list[Target]):
        self.targets = list(targets)
        self._records: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        if self._patches:
            return
        for target in self.targets:
            owner, attr = target.resolve()
            raw = inspect.getattr_static(owner, attr)
            descriptor = isinstance(raw, (classmethod, staticmethod))
            fn = raw.__func__ if descriptor else raw
            if inspect.isgeneratorfunction(fn):
                raise TypeError(f"{target.path} is a generator; a span "
                                "around it would end before its work does")
            wrapper = self._wrap(fn, target.name)
            if descriptor:
                wrapper = type(raw)(wrapper)
            # Inherited methods are patched on the subclass the caller uses;
            # restoring must then delete the shadow, not copy the base's.
            own = attr in getattr(owner, "__dict__", {})
            self._patches.append((owner, attr, raw if own else None))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- recording -------------------------------------------------------
    def set_request(self, request: int) -> None:
        """Tag the calling thread's next spans with *request* (-1: none)."""
        self._local.request = request

    def _wrap(self, fn, name: str):
        local = self._local
        ids = self._ids
        record = self._records.append
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((span_id, name, start, end, parent,
                        getattr(local, "request", -1),
                        threading.get_ident()))

        return wrapper

    def spans(self) -> list[Span]:
        return [Span(*r) for r in list(self._records)]

    def dump(self, path: str) -> int:
        """Write every span as one tab-separated line; returns the count."""
        rows = list(self._records)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tstart_ns\tend_ns\tparent\trequest\tthread\n")
            for row in rows:
                handle.write("\t".join(str(v) for v in row) + "\n")
        return len(rows)


def self_times(spans: list[Span]) -> dict[int, int]:
    """span id -> self time in ns (duration minus its children's)."""
    child_ns: dict[int, int] = {}
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] = child_ns.get(span.parent, 0) + span.duration_ns
    return {
        span.span_id: max(0, span.duration_ns - child_ns.get(span.span_id, 0))
        for span in spans
    }
