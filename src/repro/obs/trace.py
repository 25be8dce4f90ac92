"""Span-based tracing with monotonic timings and JSONL export.

A span is a named, timed section of the pipeline
(``characterize`` → ``predict`` → ``evaluate_space`` → ``pareto`` …)
opened as a context manager.  Spans nest: the tracer keeps an open-span
stack, each finished span records its parent's index, and the JSONL
export (one JSON object per line) preserves start order so traces can
be replayed or diffed.

Timings use :func:`time.perf_counter` — monotonic, immune to wall-clock
steps.  ``start_s`` values are offsets from the tracer's creation.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, TextIO


@dataclass
class SpanRecord:
    """One finished (or still-open) span."""

    index: int
    name: str
    start_s: float
    duration_s: float | None = None
    parent: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """One JSONL line."""
        return json.dumps(
            {
                "index": self.index,
                "name": self.name,
                "start_s": self.start_s,
                "duration_s": self.duration_s,
                "parent": self.parent,
                "attrs": self.attrs,
            },
            sort_keys=True,
        )


class Span:
    """Context manager recording one span into a tracer."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span (chainable)."""
        self.record.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: object) -> bool:
        self._tracer._finish(self)
        return False


class Tracer:
    """Collects spans; bounded so runaway loops cannot exhaust memory."""

    def __init__(self, max_spans: int = 100_000) -> None:
        self.max_spans = max_spans
        self.spans: list[SpanRecord] = []
        self.dropped = 0
        self._t0 = time.perf_counter()
        self._stack: list[int] = []

    def span(self, name: str, attrs: dict[str, Any] | None = None) -> Span:
        """Open a span; close it by exiting the returned context manager."""
        now = time.perf_counter() - self._t0
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            record = SpanRecord(index=-1, name=name, start_s=now)
            return Span(self, record)
        record = SpanRecord(
            index=len(self.spans),
            name=name,
            start_s=now,
            parent=self._stack[-1] if self._stack else None,
            attrs=dict(attrs) if attrs else {},
        )
        self.spans.append(record)
        self._stack.append(record.index)
        return Span(self, record)

    def _finish(self, span: Span) -> None:
        record = span.record
        record.duration_s = time.perf_counter() - self._t0 - record.start_s
        if record.index >= 0 and self._stack and self._stack[-1] == record.index:
            self._stack.pop()
        elif record.index >= 0 and record.index in self._stack:
            # out-of-order close: unwind to keep parents consistent
            while self._stack and self._stack[-1] != record.index:
                self._stack.pop()
            if self._stack:
                self._stack.pop()

    def names(self) -> set[str]:
        """Distinct span names recorded so far."""
        return {s.name for s in self.spans}

    def to_jsonl(self) -> str:
        """All spans, one JSON object per line, in start order."""
        return "\n".join(s.to_json() for s in self.spans) + (
            "\n" if self.spans else ""
        )

    def write_jsonl(self, target: str | TextIO) -> None:
        """Write the JSONL dump to a path or open file object."""
        text = self.to_jsonl()
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text)


def read_jsonl(path: str) -> list[dict]:
    """Parse a trace file back into span dicts (analysis, tests)."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
