"""Structured trace events for the collapse lifecycle.

Every COLLAPSE a live framework performs can be captured as one
:class:`TraceEvent` carrying the operation's inputs (level, input
weights, output weight, offset) and the summary's certified-accuracy
state *at that moment*: ``W`` (sum of collapse output weights), ``C``
(collapse count), ``w_max`` (heaviest surviving buffer) and the Lemma 5
bound ``(W - C - 1)/2 + w_max``.  Because NEW operations change none of
those quantities, the bound on the most recent event **is** the bound
:meth:`~repro.core.framework.QuantileFramework.error_bound` certifies
for any answer issued before the next collapse -- a live sketch answers
``observed_state -> current epsilon*N`` by reading its last trace event
(the property suite asserts bit-equality).

Events fan out to any number of sinks.  Two are provided:

:class:`TraceRing`
    a bounded in-memory ring buffer (the "flight recorder" view --
    cheap, always safe to enable);

:class:`JsonLinesSink`
    one JSON object per line to a file or file-like object, for offline
    analysis of collapse-tree growth.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Any, Deque, Dict, List, Optional, Tuple, Union

__all__ = [
    "TraceEvent",
    "TraceRing",
    "JsonLinesSink",
    "Tracer",
]


class TraceEvent:
    """One observed framework operation plus the certified-bound state.

    Immutable, slotted, and nothing but its eleven fields: the trace
    ring keeps 1024 of these alive in every observed process.
    """

    __slots__ = (
        "kind",  #: "collapse" | "new" | "output"
        "sketch_id",  #: id() of the framework (correlates events per sketch)
        "level",  #: buffer level the operation acted on / produced
        "n",  #: genuine elements ingested so far
        "n_collapses",  #: C after the operation
        "sum_collapse_weights",  #: W after the operation
        "w_max",  #: heaviest surviving buffer after the operation
        "bound",  #: Lemma 5 certified rank bound, in elements
        "weights",  #: input buffer weights (collapse only)
        "out_weight",  #: collapse output weight (0 otherwise)
        "offset",  #: collapse offset (0 otherwise)
    )

    def __init__(
        self,
        kind: str,
        sketch_id: int,
        level: int,
        n: int,
        n_collapses: int,
        sum_collapse_weights: int,
        w_max: int,
        bound: float,
        weights: Tuple[int, ...] = (),
        out_weight: int = 0,
        offset: int = 0,
    ) -> None:
        values = (
            kind, sketch_id, level, n, n_collapses, sum_collapse_weights,
            w_max, bound, weights, out_weight, offset,
        )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"TraceEvent is immutable (set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"TraceEvent is immutable (delete {name!r})")

    def _fields(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"TraceEvent({body})"

    def to_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class TraceRing:
    """Bounded in-memory event buffer (newest ``capacity`` events kept)."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.n_emitted = 0

    def emit(self, event: TraceEvent) -> None:
        self._events.append(event)
        self.n_emitted += 1

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def last(self, kind: Optional[str] = None) -> Optional[TraceEvent]:
        if kind is None:
            return self._events[-1] if self._events else None
        for event in reversed(self._events):
            if event.kind == kind:
                return event
        return None

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)


class JsonLinesSink:
    """Append trace events as JSON lines to a path or file-like object."""

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._fp: IO[str] = open(target, "a", encoding="utf-8")
            self._owns = True
        else:
            self._fp = target
            self._owns = False

    def emit(self, event: TraceEvent) -> None:
        self._fp.write(event.to_json())
        self._fp.write("\n")

    def flush(self) -> None:
        self._fp.flush()

    def close(self) -> None:
        self.flush()
        if self._owns:
            self._fp.close()

    def __enter__(self) -> "JsonLinesSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class Tracer:
    """Fan-out of trace events to a ring buffer plus optional extra sinks.

    The ring is always present (it is the live ``observed_state ->
    current epsilon*N`` answer surface); JSON-lines or custom sinks are
    attached with :meth:`add_sink`.  A sink is anything with an
    ``emit(event)`` method.
    """

    def __init__(self, ring_capacity: int = 1024) -> None:
        self.ring = TraceRing(ring_capacity)
        self._sinks: List[Any] = []

    def add_sink(self, sink: Any) -> Any:
        if not hasattr(sink, "emit"):
            raise TypeError(
                f"trace sinks need an emit(event) method, got {type(sink)!r}"
            )
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Any) -> None:
        self._sinks.remove(sink)

    def emit(self, event: TraceEvent) -> None:
        self.ring.emit(event)
        for sink in self._sinks:
            sink.emit(event)

    def current_bound(self) -> Optional[float]:
        """The running certified bound: the last collapse event's bound.

        ``None`` before the first collapse has been observed (a summary
        with no collapses answers exactly: its bound is 0.0).
        """
        event = self.ring.last("collapse")
        return None if event is None else event.bound
