"""Hierarchical span tracing for the simulator — deterministic by design.

A :class:`Span` is one named unit of work (``locate``, ``deliver``,
``cell-run``...) with a parent id, integer attributes (hops, node counts)
and a **logical-clock** timestamp.  The driver injects the clock — the
trace time of the operation being executed — so two runs of the same seed
produce byte-identical span streams, and a span export can never perturb a
run's digest: spans carry no wall-clock time at all.

Recording uses an explicit begin/end protocol on a :class:`SpanRecorder`::

    sid = tracer.begin("locate", port=repr(port))
    ...
    tracer.end(sid, hops=query_hops + reply_hops)

``begin`` pushes the span on the recorder's stack, so spans begun while
another is open become its children — that is the whole hierarchy.

The deeply-instrumented layers (matchmaker, network) take no tracer
parameter: the workload driver binds its recorder to the network for one
run (``network.tracer``) and unbinds it when the run ends, and they read
that attribute.  Nothing is looked up per message; with tracing off the
attribute is ``None`` and an instrumentation point costs one ``is None``
test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Span:
    """One completed (or still-open) unit of work."""

    span_id: int
    parent_id: Optional[int]
    name: str
    clock: float
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe representation (attrs key-sorted for determinism)."""
        return {
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "clock": self.clock,
            "attrs": {key: self.attrs[key] for key in sorted(self.attrs)},
        }


class SpanRecorder:
    """Collects spans with sequential ids and a driver-injected clock."""

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._clock = 0.0

    def set_clock(self, clock: float) -> None:
        """Install the logical time stamped on subsequently begun spans."""
        self._clock = clock

    def begin(self, name: str, **attrs: object) -> int:
        """Open a span (child of the innermost open span); returns its id."""
        span = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            clock=self._clock,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._spans.append(span)
        self._stack.append(span.span_id)
        return span.span_id

    def end(self, span_id: int, **attrs: object) -> None:
        """Close the span ``begin`` returned, folding in final attributes.

        Spans must close innermost-first; closing out of order means an
        instrumentation bug, so it raises instead of silently reparenting.
        """
        if not self._stack or self._stack[-1] != span_id:
            raise ValueError(
                f"span {span_id} is not the innermost open span "
                f"(stack: {self._stack})"
            )
        self._stack.pop()
        self._spans[span_id].attrs.update(attrs)

    def event(self, name: str, **attrs: object) -> int:
        """A zero-duration span: begin and end in one call."""
        span_id = self.begin(name, **attrs)
        self.end(span_id)
        return span_id

    @property
    def spans(self) -> List[Span]:
        """Every recorded span, in begin order (ids are dense from 0)."""
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)
