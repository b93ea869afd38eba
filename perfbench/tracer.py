"""Span tracing for the traced benchmark run, installed from outside.

The program has no tracing of its own yet, so the traced run wraps the
public entry points of each layer in the process it runs in.  A wrapper
replaces a function under *every* name a ``repro`` module looks it up
by: ``client`` and ``server`` import ``recv_frame`` straight out of
``protocol``, ``engine`` imports ``execute_plan`` out of ``executor``,
and patching only the defining module would miss those callers.

Spans are plain tuples kept in memory and written out once, when the
run ends::

    (span_id, name, start_ns, end_ns, parent_id, op_id, thread_id, value)

``name`` is ``"<layer>.<what>"``; ``parent_id`` is the innermost open
span of the same thread (0 for a root); ``op_id`` names the pipeline run
or operation the span belongs to; ``value`` is an optional count the
wrapper measured (rows, bytes, items).

Only the traced run imports this module; untraced runs never do.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

#: span tuple field positions
SID, NAME, START, END, PARENT, OP, TID, VALUE = range(8)

#: value extractor: (args, kwargs, result) -> number or None; ``result``
#: is None when the call raised
Measure = Callable[[tuple, dict, Any], Optional[float]]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._op_ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- operation context ------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op_id: Optional[str]) -> None:
        """Tag the spans this thread records from now on with *op_id*."""
        self._local.op = op_id

    # -- recording ---------------------------------------------------------

    def record(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        value: Optional[float] = None,
    ) -> None:
        """Add a finished leaf span under the thread's innermost open span."""
        stack = self._stack()
        self.spans.append(
            (
                next(self._ids),
                name,
                start_ns,
                end_ns,
                stack[-1] if stack else 0,
                getattr(self._local, "op", None),
                threading.get_ident(),
                value,
            )
        )

    def wrap(
        self,
        fn: Callable,
        name: str,
        measure: Optional[Measure] = None,
        new_op: Optional[str] = None,
    ) -> Callable:
        """A traced twin of *fn*: one span per call.

        ``new_op`` makes every call the root of a fresh operation, named
        ``<new_op><n>`` (the server numbers requests this way)."""
        tracer = self
        ids = self._ids
        spans = self.spans
        local = self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            saved_op = getattr(local, "op", None)
            if new_op is not None:
                local.op = f"{new_op}{next(tracer._op_ids)}"
            op = getattr(local, "op", None)
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if new_op is not None:
                    local.op = saved_op
                value = (
                    measure(args, kwargs, result) if measure is not None else None
                )
                spans.append(
                    (sid, name, start, end, parent, op, threading.get_ident(), value)
                )

        return traced

    def wrap_enter(self, fn: Callable, name: str) -> Callable:
        """Trace only the ``__enter__`` of the context manager *fn* returns:
        the time spent waiting to get in (latches)."""
        tracer = self

        class _TimedEnter:
            __slots__ = ("inner",)

            def __init__(self, inner) -> None:
                self.inner = inner

            def __enter__(self):
                start = time.perf_counter_ns()
                entered = self.inner.__enter__()
                tracer.record(name, start, time.perf_counter_ns())
                return entered

            def __exit__(self, *exc):
                return self.inner.__exit__(*exc)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TimedEnter(fn(*args, **kwargs))

        return traced

    # -- installation ------------------------------------------------------

    def patch_function(self, module_name: str, attr: str, wrapper_for) -> None:
        """Replace ``module.attr`` everywhere a loaded ``repro`` module binds
        the same object.  ``wrapper_for(original)`` builds the replacement."""
        original = getattr(sys.modules[module_name], attr)
        replacement = wrapper_for(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, replacement)

    def patch_method(self, module_name: str, qualname: str, wrapper_for) -> None:
        """Replace ``Class.method`` (looked up through the class, so
        inheriting subclasses see it and overriding ones do not)."""
        cls_name, attr = qualname.split(".")
        cls = getattr(sys.modules[module_name], cls_name)
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper_for(original))

    def patch(self, module_name: str, name: str, wrapper_for) -> None:
        """:meth:`patch_method` for ``Class.method``, else
        :meth:`patch_function`."""
        if "." in name:
            self.patch_method(module_name, name, wrapper_for)
        else:
            self.patch_function(module_name, name, wrapper_for)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans as one gzipped JSON list."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load(path: str) -> list[tuple]:
    """The spans :meth:`Tracer.dump` wrote."""
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


# -- analysis -------------------------------------------------------------


def _covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of *intervals* clipped to [lo, hi]."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> self time in ns: the span's duration minus the part of
    its interval covered by its children (overlapping children count
    once, children reaching outside the parent only for the overlap).
    Span ids must be unique, i.e. the spans of one process."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT]:
            children[span[PARENT]].append((span[START], span[END]))
    return {
        span[SID]: (span[END] - span[START])
        - _covered_ns(children.get(span[SID], []), span[START], span[END])
        for span in spans
    }


def outermost(spans: list[tuple], names: set[str]) -> list[tuple]:
    """The spans named in *names* that have no ancestor named in *names*."""
    by_id = {span[SID]: span for span in spans}
    found = []
    for span in spans:
        if span[NAME] not in names:
            continue
        parent = by_id.get(span[PARENT])
        while parent is not None and parent[NAME] not in names:
            parent = by_id.get(parent[PARENT])
        if parent is None:
            found.append(span)
    return found
