"""In-memory spans around chainsig's public functions, wrapped by name.

The tracer replaces module attributes (for example `chainsig.cli.simulate_batch`)
with wrappers that record a span (name, start, end, parent) per call and
let a hook count the work the call did. Nothing in chainsig is edited:
the originals come back when the `installed` block exits. Spans stay in
memory until the benchmark dumps them at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

#: called as hook(tracer, span, result, args) after a wrapped call returns
Hook = Callable[["Tracer", "Span", Any, tuple], None]


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in Tracer.spans, or -1 at top level
    parent: int


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.spans)
            span = Span(name, self.clock(), 0.0, self._open[-1] if self._open else -1)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if hook is not None:
                hook(self, span, result, args)
            return result

        return traced

    @contextlib.contextmanager
    def installed(
        self, targets: Sequence[tuple[str, str, str, Hook | None]]
    ) -> Iterator["Tracer"]:
        """Wrap each (module, attribute, span name, hook) for the block's duration."""
        originals = []
        try:
            for module_name, attribute, name, hook in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute)
                originals.append((module, attribute, original))
                setattr(module, attribute, self.wrap(name, original, hook))
            yield self
        finally:
            for module, attribute, original in reversed(originals):
                setattr(module, attribute, original)

    def dump(self) -> list[dict]:
        return [vars(span).copy() for span in self.spans]


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent and overlapping children are
    merged, so the result never goes below zero.
    """
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[index]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


def totals(spans: Sequence[Span]) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, total duration, total self time)."""
    selfs = self_times(spans)
    out: dict[str, tuple[int, float, float]] = {}
    for span, own in zip(spans, selfs):
        calls, busy, self_total = out.get(span.name, (0, 0.0, 0.0))
        out[span.name] = (calls + 1, busy + span.end - span.start, self_total + own)
    return out
