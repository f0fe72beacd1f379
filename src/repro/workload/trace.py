"""Trace record/replay: a workload run as a byte-reproducible artifact.

A :class:`Trace` is the fully-resolved operation stream of one run — every
request and every concrete churn action, in execution order, with all
targets reduced to integer indices (client #, port #, node #, server slot #)
so the stream serializes to JSON lines regardless of node-id types (grid
tuples, bit strings, ...).

Replaying a trace through the driver executes exactly the recorded
operations against a freshly built system and must reproduce the original
metrics exactly; recording a run and shipping the ``.jsonl`` file is how a
surprising result travels between machines.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from typing import Dict, IO, Iterator, List, Optional, Sequence, Tuple

from ..codec import decode

#: Trace operation kinds.  Fault-timeline node events get their own kinds
#: (same execution semantics as churn-driven crash/recover, but metered as
#: fault events, so replays reproduce the churn/fault split exactly).
REQUEST = "request"    # args: (client_index, port_index)
MIGRATE = "migrate"    # args: (server_slot, target_node_index)
CRASH = "crash"        # args: (node_index,)
RECOVER = "recover"    # args: (node_index,)
RESPAWN = "respawn"    # args: (server_slot, target_node_index)
STORM = "storm"        # args: (node_index, node_index, ...)
FAULT_CRASH = "fault_crash"      # args: (node_index,)
FAULT_RECOVER = "fault_recover"  # args: (node_index,)
LINK_DOWN = "link_down"  # args: (node_index_u, node_index_v)
LINK_UP = "link_up"      # args: (node_index_u, node_index_v)

OP_KINDS = (
    REQUEST, MIGRATE, CRASH, RECOVER, RESPAWN, STORM,
    FAULT_CRASH, FAULT_RECOVER, LINK_DOWN, LINK_UP,
)


def canonical_digest(payload) -> str:
    """SHA-256 hex digest of ``payload``'s canonical bytes.

    Strings are hashed as-is; anything else is hashed as its sorted-keys
    JSON.  Every "byte-identical" comparison in the workload layer
    (``Trace.digest``, ``WorkloadResult.digest``,
    ``MatrixReport.digest``) funnels through here, so the canonical form
    cannot drift between artifact types.
    """
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TraceOp:
    """One fully-resolved operation of a workload run."""

    kind: str
    time: float
    args: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(
                f"unknown trace op kind {self.kind!r}; expected one of {OP_KINDS}"
            )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe representation."""
        return {"op": self.kind, "t": self.time, "args": list(self.args)}


class Trace:
    """An ordered operation stream plus the scenario it was captured under."""

    def __init__(
        self,
        scenario: Dict[str, object],
        ops: Optional[Sequence[TraceOp]] = None,
    ) -> None:
        self._scenario = dict(scenario)
        self._ops: List[TraceOp] = list(ops) if ops else []

    @property
    def scenario(self) -> Dict[str, object]:
        """The ``ScenarioSpec.to_dict()`` this trace was recorded under."""
        return dict(self._scenario)

    @property
    def ops(self) -> List[TraceOp]:
        """The recorded operations, in execution order."""
        return list(self._ops)

    def append(self, op: TraceOp) -> None:
        """Record one executed operation."""
        self._ops.append(op)

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[TraceOp]:
        return iter(self._ops)

    def operation_counts(self) -> Dict[str, int]:
        """How many ops of each kind the trace holds."""
        counts: Dict[str, int] = {}
        for op in self._ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    # -- serialization -------------------------------------------------------

    def dump(self, fp: IO[str]) -> None:
        """Write JSON lines: a header with the scenario, then one op per
        line."""
        fp.write(json.dumps({"scenario": self._scenario}, sort_keys=True) + "\n")
        for op in self._ops:
            fp.write(json.dumps(op.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, fp: IO[str]) -> "Trace":
        """Read a trace written by :meth:`dump`.  An op line that is not
        :meth:`TraceOp.to_dict`'s keys typed as the op's fields is a
        ``ValueError`` naming its line number."""
        header_line = fp.readline()
        if not header_line.strip():
            raise ValueError("empty trace stream")
        header = json.loads(header_line)
        if type(header) is not dict or "scenario" not in header:
            raise ValueError("trace stream is missing the scenario header")
        trace = cls(scenario=header["scenario"])
        for number, line in enumerate(fp, start=2):
            if line.strip():
                try:
                    op = json.loads(line)
                    if type(op) is not dict or op.keys() != {"op", "t", "args"}:
                        raise ValueError(f"an op has exactly the keys op, t and args, got {op!r}")
                    trace.append(decode(
                        TraceOp, {"kind": op["op"], "time": op["t"], "args": op["args"]}
                    ))
                except ValueError as error:
                    raise ValueError(f"trace line {number}: {error}") from error
        return trace

    def digest(self) -> str:
        """SHA-256 over the serialized stream — trace identity in one
        string.

        Two traces with equal digests serialize to the same bytes: same
        scenario header, same operations in the same order.  Used to pin
        that a trace recorded inside a worker process is exactly the trace
        the parent merges.
        """
        buffer = io.StringIO()
        self.dump(buffer)
        return canonical_digest(buffer.getvalue())

    def to_path(self, path) -> None:
        """Write the trace to ``path`` as JSON lines."""
        with open(path, "w", encoding="utf-8") as fp:
            self.dump(fp)

    @classmethod
    def from_path(cls, path) -> "Trace":
        """Read a trace file written by :meth:`to_path`."""
        with open(path, "r", encoding="utf-8") as fp:
            return cls.load(fp)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace(scenario={self._scenario.get('name')!r}, ops={len(self._ops)})"
        )
