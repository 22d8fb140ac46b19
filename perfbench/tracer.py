"""Span tracer that wraps library functions at the names their callers bind.

A traced call records one span: its layer name, start and end times from
``time.perf_counter``, and the index of the enclosing span. Spans stay in
memory; :meth:`Tracer.summary` turns them into per-layer totals and self
times (a span's duration minus the durations of its direct children).

The tracer only rebinds module attributes for the duration of an
``installed()`` block and restores the original objects afterwards, so
code run outside the block is untouched.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

#: layer whose spans are the roots of the solve decomposition
SOLVE_LAYER = "solvers.solve"


class Tracer:
    def __init__(self, bindings):
        """``bindings`` is a list of (module, attribute, layer, counter);
        ``counter(counts, args, result)`` adds computed counts, or is None."""
        self.bindings = bindings
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, fn, layer, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, time.perf_counter(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, layer, counter in self.bindings:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, layer, counter))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def summary(self) -> tuple[dict, dict]:
        """Per-layer totals and self times.

        Spans of the tsvd, tensor_ops and solvers layers count only when
        they run inside a solve, so their self times add up to the solve
        time; other layers count wherever they run.
        """
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        in_solve = [False] * len(self.spans)
        for i, (layer, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
            in_solve[i] = layer == SOLVE_LAYER or (parent >= 0 and in_solve[parent])
        total: dict = defaultdict(float)
        self_time: dict = defaultdict(float)
        for i, (layer, _, _, _) in enumerate(self.spans):
            if in_solve[i] or not layer.startswith(("tsvd.", "tensor_ops.", "solvers.")):
                total[layer] += dur[i]
                self_time[layer] += dur[i] - child[i]
        return dict(total), dict(self_time)
