"""Span tracer that wraps the public entry points of each layer.

The benchmark installs the wrappers from its own files, around the
calls into each layer; nothing inside ``src/`` changes.  Each wrapped
call records a span (name, start, end, parent, message uid where the
call carries one).  Span clocks read thread CPU time, so a span's
duration is work done, not time spent waiting for the machine.

A span's *self* time is its duration minus the time its child spans
cover.  A child's cost to its parent includes the wrapper's own
bookkeeping after the child ends; that bookkeeping is summed separately
(:attr:`Tracer.bookkeeping_s`) rather than charged to the parent.  Self
times are summed per span name; per-layer ledgers group the names by
layer, and what neither the spans nor the bookkeeping cover is reported
as ``unattributed``, so that layers plus bookkeeping plus
``unattributed`` equal the traced CPU.  Spans are kept in memory (up to :data:`KEEP_SPANS`) and written
out when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Raw spans kept for the written trace; aggregates cover every span.
KEEP_SPANS = 20000


class Tracer:
    """Installs wrappers, records spans, aggregates self time."""

    def __init__(self) -> None:
        self.active = False
        self.self_time: Dict[str, float] = defaultdict(float)
        self.total_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.layer_of: Dict[str, str] = {}
        self.spans: List[Tuple[Any, ...]] = []
        self._stack: List[List[Any]] = []
        self._next_id = 0
        self._bookkeeping = [0.0]
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        observe: Optional[Callable[[tuple, Any], None]] = None,
        uid: Optional[Callable[[tuple, Any], Any]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a class method or module function) by a
        span-recording wrapper.  ``observe(args, result)`` may count work
        the call did; ``uid(args, result)`` names the message it carries."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        self.patch(owner, attr, self.span(layer, label, original, observe, uid))

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def span(
        self,
        layer: str,
        label: str,
        function: Callable[..., Any],
        observe: Optional[Callable[[tuple, Any], None]] = None,
        uid: Optional[Callable[[tuple, Any], Any]] = None,
    ) -> Callable[..., Any]:
        """``function`` wrapped so that each call, while the tracer is
        active, records a span named ``layer:label``."""
        name = f"{layer}:{label}"
        self.layer_of[name] = layer
        tracer = self
        clock = time.thread_time
        stack = self._stack
        bookkeeping = self._bookkeeping
        self_time, total_time, calls, spans = (
            self.self_time, self.total_time, self.calls, self.spans
        )

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return function(*args, **kwargs)
            tracer._next_id += 1
            span_id = tracer._next_id
            parent = stack[-1][2] if stack else None
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                self_time[name] += duration - frame[1]
                total_time[name] += duration
                calls[name] += 1
                if observe is not None:
                    observe(args, result)
                if len(spans) < KEEP_SPANS:
                    spans.append((
                        name, frame[0], end, parent, span_id,
                        uid(args, result) if uid is not None else None,
                    ))
                done = clock()
                bookkeeping[0] += done - end
                if stack:
                    stack[-1][1] += done - frame[0]

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    @property
    def bookkeeping_s(self) -> float:
        """Thread CPU seconds the wrappers spent recording ended spans."""
        return self._bookkeeping[0]

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total(self, *names: str) -> float:
        return sum(self.total_time[n] for n in self._match(names))

    def self_of(self, *names: str) -> float:
        return sum(self.self_time[n] for n in self._match(names))

    def calls_of(self, *names: str) -> int:
        return sum(self.calls[n] for n in self._match(names))

    def _match(self, suffixes: Tuple[str, ...]) -> List[str]:
        """Span names ending in any of ``suffixes`` (e.g. ``"Pki.verify"``)."""
        return [
            name for name in self.layer_of
            if any(name.endswith(":" + s) or name.endswith("." + s) for s in suffixes)
        ]

    def layer_self_times(self) -> Dict[str, float]:
        """Self seconds per layer."""
        layers: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_time.items():
            layers[self.layer_of[name]] += seconds
        return dict(layers)

    def write(self, path: str) -> None:
        """Write kept spans and per-name aggregates as JSON."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "clock": "thread_time",
                    "kept_spans": len(self.spans),
                    "bookkeeping_s": self.bookkeeping_s,
                    "span_fields": ["name", "start", "end", "parent", "id", "uid"],
                    "spans": [
                        [n, s, e, p, i, repr(u) if u is not None else None]
                        for n, s, e, p, i, u in self.spans
                    ],
                    "by_name": {
                        name: {
                            "layer": self.layer_of[name],
                            "calls": self.calls[name],
                            "self_s": self.self_time[name],
                            "total_s": self.total_time[name],
                        }
                        for name in sorted(self.layer_of)
                    },
                },
                handle,
            )
