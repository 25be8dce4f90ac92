"""Span tracing by wrapping public calls, and the self-time fold.

Nothing inside ``src/`` is instrumented.  :class:`Tracer` replaces a set
of functions and methods (a :class:`Target` each) with timing wrappers
for as long as it is installed, and puts the original objects back on
:meth:`Tracer.uninstall`.  A module-level function is replaced on its
defining module *and* on every ``repro`` module that bound it by name
(``from repro.x import f``), so calls through either name are seen.

The parent chain lives in a :class:`contextvars.ContextVar`, so it is
per thread and per asyncio task.  Work handed to a thread pool loses its
context; a target can name a ``link`` key instead, and the span opened
by a ``link_to`` target with the same key becomes its parent.

:func:`fold` turns the recorded spans into per-layer figures:

* a span's **self time** is its duration minus the union of its
  children's intervals (clipped to the span);
* a layer's ``busy_s`` is the union of all its spans' intervals;
* a layer's ``calls`` counts only outermost entries: a span whose
  ancestors include a span of the same layer is part of that entry
  (recursion is counted once).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "e2ebench_span", default=None
)


@dataclass(eq=False)
class Span:
    """One timed call of a wrapped target."""

    layer: str
    op: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    data: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``owner`` is a module or a class and ``name`` the attribute.  ``note``
    runs after the call as ``note(span, args, kwargs, result)`` and
    ``pre`` before it as ``pre(span, args, kwargs)``; both may store
    figures in ``span.data``.  ``link_to``/``link`` compute a key from
    the call's arguments: a ``link`` span adopts the most recent open
    ``link_to`` span with the same key as its parent.
    """

    owner: Any
    name: str
    layer: str
    op: str | None = None
    note: Callable | None = None
    pre: Callable | None = None
    link_to: Callable | None = None
    link: Callable | None = None


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Installs wrappers for a list of targets and records their spans."""

    def __init__(self, targets: Iterable[Target]) -> None:
        self.targets = list(targets)
        self.spans: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._links: dict[Any, Span] = {}
        self._lock = threading.Lock()

    # -- install / restore ---------------------------------------------

    @property
    def installed(self) -> bool:
        """Whether the wrappers are currently in place."""
        return bool(self._patches)

    def install(self) -> None:
        """Replace every target (and every alias of it) by a wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        aliases: dict[int, list[Any]] = {}
        functions = {
            id(vars(t.owner)[t.name]): t
            for t in self.targets
            if not isinstance(t.owner, type)
        }
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in functions:
                    aliases.setdefault(id(value), []).append((module, attr))
        for target in self.targets:
            original = vars(target.owner)[target.name]
            wrapper = self._wrap(original, target)
            places = (
                [(target.owner, target.name)]
                if isinstance(target.owner, type)
                else aliases.get(id(original), [(target.owner, target.name)])
            )
            for owner, attr in places:
                if vars(owner).get(attr) is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original attribute back, in reverse order."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._links.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- wrappers -------------------------------------------------------

    def _open(self, target: Target, args: tuple, kwargs: dict) -> tuple:
        parent = _CURRENT.get()
        if target.link is not None:
            with self._lock:
                parent = self._links.pop(target.link(args, kwargs), parent)
        span = Span(target.layer, target.op or target.name, parent)
        if target.pre is not None:
            target.pre(span, args, kwargs)
        if target.link_to is not None:
            with self._lock:
                self._links[target.link_to(args, kwargs)] = span
        token = _CURRENT.set(span)
        span.start = time.perf_counter()
        return span, token

    def _close(
        self, target: Target, span: Span, token: Any, args: tuple,
        kwargs: dict, result: Any, ok: bool,
    ) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        if ok and target.note is not None:
            target.note(span, args, kwargs, result)
        self.spans.append(span)

    def _wrap(self, original: Callable, target: Target) -> Callable:
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                span, token = self._open(target, args, kwargs)
                result, ok = None, False
                try:
                    result = await original(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    self._close(target, span, token, args, kwargs, result, ok)

            return traced_async

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span, token = self._open(target, args, kwargs)
            result, ok = None, False
            try:
                result = original(*args, **kwargs)
                ok = True
                return result
            finally:
                self._close(target, span, token, args, kwargs, result, ok)

        return traced


@dataclass
class LayerFold:
    """Per-layer totals from :func:`fold`."""

    calls: int = 0
    self_s: float = 0.0
    busy_s: float = 0.0
    spans: list = field(default_factory=list)


def fold(spans: list[Span]) -> tuple[dict[str, LayerFold], float]:
    """Per-layer self/busy time and call counts, plus the attributed total.

    The attributed total is the sum of every span's self time.  When the
    spans of one timeline nest (each child inside its parent, siblings
    disjoint), it equals the union of that timeline's top-level spans.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    layers: dict[str, LayerFold] = {}
    attributed = 0.0
    for span in spans:
        kids = children.get(id(span), ())
        covered = union_length(
            (max(k.start, span.start), min(k.end, span.end)) for k in kids
        )
        own = (span.end - span.start) - covered
        span.data["self_s"] = own
        layer = layers.setdefault(span.layer, LayerFold())
        layer.self_s += own
        layer.spans.append(span)
        attributed += own
        ancestor = span.parent
        while ancestor is not None and ancestor.layer != span.layer:
            ancestor = ancestor.parent
        if ancestor is None:
            layer.calls += 1
            span.data["outermost"] = True
    for layer in layers.values():
        layer.busy_s = union_length((s.start, s.end) for s in layer.spans)
    return layers, attributed


def dump_spans(spans: list[Span]) -> list[list]:
    """Spans as JSON-able rows ``[parent_row, layer, op, start, end, data]``."""
    index = {id(span): row for row, span in enumerate(spans)}
    return [
        [
            index.get(id(span.parent)) if span.parent is not None else None,
            span.layer, span.op, span.start, span.end, span.data,
        ]
        for span in spans
    ]


def load_spans(rows: list[list]) -> list[Span]:
    """Inverse of :func:`dump_spans`."""
    spans = [Span(layer, op, None, start, end, dict(data))
             for _, layer, op, start, end, data in rows]
    for span, row in zip(spans, rows):
        if row[0] is not None:
            span.parent = spans[row[0]]
    return spans
