"""In-memory span recorder that measures basepar's layers from outside.

Public functions are wrapped where their callers look them up (the module
global a caller reads at call time), so the program itself is unchanged.
Two kinds of wrapper exist:

* a *span* records name, start, end and parent for each call; it suits
  calls made a few times per control step;
* a *leaf* is for calls made hundreds of thousands of times (``actm.step``,
  ``parallel.objective``): it adds a count and a duration to the innermost
  open span of its thread instead of creating a span.

Each thread keeps its own span stack.  A function submitted to a
``ThreadPoolExecutor`` starts with the submitting thread's innermost span as
its parent, so a solve run in the pool hangs under the ``run_parallel_cell``
span that submitted it.  Spans stay in memory until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "attrs", "leaves", "covered",
                 "leaf_depth")

    def __init__(self, span_id, parent, name):
        self.id = span_id
        self.parent = parent.id if parent is not None else None
        self.name = name
        self.t0 = self.t1 = 0.0
        self.attrs = {}
        self.leaves = {}      # leaf name -> [calls, seconds]
        self.covered = 0.0    # time inside outermost leaf calls
        self.leaf_depth = 0

    def as_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "name": self.name, "t0": self.t0,
            "t1": self.t1, "attrs": self.attrs, "leaves": self.leaves, "covered": self.covered,
        }


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.inherited = None
        return local

    def _current(self):
        local = self._state()
        return local.stack[-1] if local.stack else local.inherited

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, attrs=None, after=None):
        """Wrap ``fn`` so each call records a span.

        ``attrs(args, kwargs)`` returns attributes known at entry (``key``
        tells calls of one function apart, such as the controller a solve
        is for); ``after(span, result)`` may add attributes from the result.
        """
        def wrapper(*args, **kwargs):
            local = self._state()
            parent = local.stack[-1] if local.stack else local.inherited
            sp = Span(next(self._ids), parent, name)
            if attrs is not None:
                sp.attrs.update(attrs(args, kwargs))
            local.stack.append(sp)
            sp.t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.t1 = _clock()
                local.stack.pop()
                self.spans.append(sp)
            if after is not None:
                after(sp, result)
            return result

        return wrapper

    def leaf(self, name, fn, keys=None):
        """Wrap ``fn`` so each call adds one count and its duration to the
        innermost open span under ``name``; ``keys(args, result)`` names
        further counters that the call also adds to."""
        def wrapper(*args, **kwargs):
            stack = self._state().stack
            if not stack:
                return fn(*args, **kwargs)   # outside every span: not recorded
            sp = stack[-1]
            sp.leaf_depth += 1
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                sp.leaf_depth -= 1
                if sp.leaf_depth == 0:
                    sp.covered += dt
                self._add(sp.leaves, name, dt)
            if keys is not None:
                for key in keys(args, result):
                    self._add(sp.leaves, key, dt)
            return result

        return wrapper

    @staticmethod
    def _add(table, key, dt):
        entry = table.get(key)
        if entry is None:
            table[key] = [1, dt]
        else:
            entry[0] += 1
            entry[1] += dt

    # -- installation -------------------------------------------------------

    def patch(self, owner, attr, wrapper_factory):
        """Replace ``owner.attr`` by ``wrapper_factory(original)``."""
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper_factory(original))
        self._undo.append((owner, attr, original))

    def propagate_into_pools(self):
        """Give work submitted to a thread pool the submitter's current span
        as its parent."""
        recorder = self

        def factory(submit):
            def traced_submit(pool, fn, /, *args, **kwargs):
                parent = recorder._current()

                def run(*a, **kw):
                    local = recorder._state()
                    saved, local.inherited = local.inherited, parent
                    try:
                        return fn(*a, **kw)
                    finally:
                        local.inherited = saved

                return submit(pool, run, *args, **kwargs)
            return traced_submit

        self.patch(ThreadPoolExecutor, "submit", factory)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write every span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sp in sorted(self.spans, key=lambda s: s.t0):
                fh.write(json.dumps(sp.as_dict(), separators=(",", ":")) + "\n")
