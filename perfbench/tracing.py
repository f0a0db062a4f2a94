"""Span tracing of the program's public functions, applied from outside.

The tracer replaces module functions and class methods of `koopcontrol` with
wrappers for the duration of a `with tracer.installed(patches):` block, and
puts every original back on exit, also when the block raises. Each wrapped
call records one span: name, start, end and the index of the enclosing span.
A span's self time is its duration minus the durations of its direct
children; calls here are single-threaded and strictly nested, so the
children never overlap and their sum is the part of the span they cover.

An optional observer sees each call's arguments, result or exception and can
add to named counters (packets delivered, DARE sweeps, ...), so ratios are
counted at the same boundary the span times.

Names bound with `from module import name` are separate references: each
place a name is looked up from needs its own patch.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Patch:
    owner: object          # module or class holding the attribute
    attr: str
    span: str              # span name the calls are recorded under
    observe: object = None  # observe(tracer, args, kwargs, result, exc)


class Tracer:
    """In-memory span store plus counters. Spans are kept in flat arrays
    (name id, parent index, start, end) so tracing a long run stays small."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._stack = [-1]

    # -- recording ---------------------------------------------------------

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def parent_name(self):
        """Name of the innermost open span, or None at top level."""
        top = self._stack[-1]
        return None if top < 0 else self.names[self.name_id[top]]

    def wrap(self, fn, span, observe=None):
        nid = self._id(span)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(self.clock())
            self.end.append(0.0)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(idx)
                if observe is not None:
                    observe(self, args, kwargs, None, exc)
                raise
            self._close(idx)
            if observe is not None:
                observe(self, args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, idx):
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def installed(self, patches):
        """Swap every patch in, yield, and restore the originals in reverse
        order whatever happens inside the block."""
        saved = []
        try:
            for p in patches:
                original = vars(p.owner)[p.attr]
                saved.append((p.owner, p.attr, original))
                wrapped = self.wrap(original, p.span, p.observe)
                setattr(p.owner, p.attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def summary(self):
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_t = dur - child
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        selfs = np.bincount(ids, weights=self_t, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(selfs[i])}
                for i, name in enumerate(self.names)}
