"""In-memory spans for the benchmark's outside probes.

The program's own tracer (``repro.experiments.telemetry``) only covers
``ksp / lp_assemble / lp_solve / place / store_append``; every other
layer boundary is timed from here, around the call into the layer.
Spans are (name, start, end, parent) tuples kept in a list and written
out once, with the child's result — nothing touches a file while a
measured operation runs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, Optional[int]]


class SpanLog:
    """Nested wall-clock spans of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            start = self.spans[index][1]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def children_seconds(self, name: str) -> float:
        """Summed duration of the direct children of the span ``name``."""
        parents = {i for i, span in enumerate(self.spans) if span[0] == name}
        return sum(
            end - start
            for _, start, end, parent in self.spans
            if parent in parents
        )
