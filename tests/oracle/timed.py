"""The time model done naively: a reference for ``TimedOverlay`` at zero jitter.

A request is plain data, ``(arrival, ok, calls)``: the raw tap calls it made,
``("delivery", source, reached, category)``, ``("replies", responders,
client)`` or ``("payload", source, destination)``.  The model is a dict
(``latency``/``capacity`` of the default link, ``links``: key -> ``(latency,
capacity)``, ``service``, ``nodes``: repr -> seconds, ``timeout``);
``adjacency`` maps a node to its neighbours, ``None`` for ``ideal`` delivery.
Arrivals and the model are in seconds.

Worked out here the obvious way: batches in ``repr`` order without
self-messages; paths by BFS (neighbours in ``repr`` order), the next hop
searched again at every node; earliest-gap admission over plain busy lists,
never merged or pruned; barrier batches, a batch that lost every message
ending the request.  Hops are priced in ``(time, launch/schedule order)``,
each its link then the far node's server (none if it serves in zero time).
Depth counts earlier admissions that no arrival since has seen finish.
Time is integer nanoseconds: each second figure is converted once, half a
nanosecond up, and a microsecond figure is a rounded endpoint (half up) or,
for a wait or a busy hold, the duration rounded the same way.
"""

from bisect import bisect_left
from collections import deque

NS = 1_000_000_000
#: Latency-shaped histogram bounds: 1-2-5 per decade, 1 us .. 500 s.
BOUNDS = tuple(m * 10 ** e for e in range(9) for m in (1, 2, 5))


def ns(seconds):
    """Seconds as integer nanoseconds, half up."""
    return int(seconds * NS + 0.5)


def us(nanoseconds):
    """Integer nanoseconds as integer microseconds, half up."""
    return (nanoseconds + 500) // 1000


def batches(calls):
    """One request's tap calls as ``(phase, [(source, destination)])``."""
    out = []
    for call in calls:
        if call[0] == "delivery":
            _, source, reached, phase = call
            pairs = [(source, d) for d in sorted(reached, key=repr) if d != source]
        elif call[0] == "replies":
            _, responders, client = call
            phase = "reply"
            pairs = [(r, client) for r in sorted(responders, key=repr) if r != client]
        else:
            _, source, destination = call
            phase = "payload"
            pairs = [(source, destination)] if source != destination else []
        if pairs:
            out.append((phase, pairs))
    return out


def path(adjacency, source, destination):
    """The nodes a message visits, both ends included."""
    if adjacency is None:
        return [source, destination]
    nodes = [source]
    while nodes[-1] != destination:
        here = nodes[-1]
        parent, queue = {here: here}, deque([here])
        while queue:
            node = queue.popleft()
            for neighbour in sorted(adjacency[node], key=repr):
                if neighbour not in parent:
                    parent[neighbour] = node
                    queue.append(neighbour)
        step = destination
        while parent[step] != here:
            step = parent[step]
        nodes.append(step)
    return nodes


class Station:
    """``capacity`` servers, each a list of ``(start, end)`` busy intervals."""

    def __init__(self, capacity):
        self.servers = [[] for _ in range(capacity)]
        self.ends = []

    def visit(self, now, hold, timeout):
        """``(depth, wait, start)``; ``start`` is ``None`` for a drop."""
        self.ends = [end for end in self.ends if end > now]
        best = None
        for busy in self.servers:
            start = min(
                t for t in [now] + [end for _, end in busy if end > now]
                if all(end <= t or begin >= t + hold for begin, end in busy)
            )
            if best is None or start < best[0]:
                best = (start, busy)
        start, busy = best
        depth, wait = len(self.ends), start - now
        if timeout > 0 and wait > timeout:
            return depth, wait, None
        busy.append((start, start + hold))
        self.ends.append(start + hold)
        return depth, wait, start


def dump(samples, bounds=None):
    """A registry histogram dump of integer ``samples``."""
    counts = {}
    for value in samples:
        if bounds is not None:
            index = bisect_left(bounds, value)
            value = bounds[index] if index < len(bounds) else bounds[-1] + 1
        counts[value] = counts.get(value, 0) + 1
    out = {"type": "histogram", "count": len(samples), "sum": sum(samples),
           "buckets": [list(pair) for pair in sorted(counts.items())]}
    if bounds is not None:
        out["bounds"] = list(bounds)
    return out


def price(requests, model, adjacency, width_us, objective_us=float("inf")):
    """Per-request latencies (us) and the run's timed instruments."""
    stations, latencies, waits, depths = {}, [], [], []
    windows, busy, blame = {}, {}, {}
    timeouts, horizon = 0, 0

    def window(at_us):
        return windows.setdefault(at_us // width_us, {})

    for arrival, ok, calls in requests:
        arrival = clock = ns(arrival)
        for phase, pairs in batches(calls):
            events, messages = [], []
            for seq, (source, destination) in enumerate(pairs):
                nodes = path(adjacency, source, destination)
                messages.append({"hops": list(zip(nodes, nodes[1:])),
                                 "segments": [], "completed": None})
                events.append((clock, seq, messages[-1], 0))
            seq = len(pairs)
            while events:
                event = min(events, key=lambda e: e[:2])
                events.remove(event)
                time, _, message, hop = event
                u, v = message["hops"][hop]
                key, node = "<->".join(sorted((repr(u), repr(v)))), repr(v)
                latency, capacity = model["links"].get(
                    key, (model["latency"], model["capacity"]))
                visits = [("link", key, ns(latency), capacity)]
                service = ns(model["nodes"].get(node, model["service"]))
                if service > 0:
                    visits.append(("node", node, service, 1))
                for kind, where, hold, capacity in visits:
                    queue = stations.setdefault(where, Station(capacity))
                    depth, wait, start = queue.visit(time, hold, ns(model["timeout"]))
                    waits.append(us(wait))
                    depths.append(depth)
                    fields = window(us(time))
                    fields["depth_peak"] = max(fields.get("depth_peak", 0), depth)
                    fields.setdefault("admitted", 0)
                    fields.setdefault("dropped", 0)
                    if start is None:
                        fields["dropped"] += 1
                        timeouts += 1
                        break
                    fields["admitted"] += 1
                    if kind == "link":
                        busy[where] = busy.get(where, 0) + us(hold)
                    service_kind = "link_xfer" if kind == "link" else "node_service"
                    message["segments"] += [(f"{kind}_wait", where, start),
                                            (service_kind, where, start + hold)]
                    time = start + hold
                else:
                    if hop + 1 == len(message["hops"]):
                        message["completed"] = time
                    else:
                        events.append((time, seq, message, hop + 1))
                        seq += 1
            arrived = [m for m in messages if m["completed"] is not None]
            if not arrived:
                break
            barrier = max(arrived, key=lambda m: m["completed"])  # first of ties
            start_us = us(clock)
            for kind, where, end in barrier["segments"]:
                segment_us = us(end) - start_us
                if segment_us:
                    contributor = f"{phase}:{kind}:{where}"
                    blame[contributor] = blame.get(contributor, 0) + segment_us
                    start_us += segment_us
            clock = max(clock, barrier["completed"])
        horizon = max(horizon, clock)
        latency_us = us(clock) - us(arrival)
        latencies.append(latency_us)
        fields = window(us(clock))
        for name, amount in (("served", 1), ("failed", 0 if ok else 1),
                             ("latency_sum_us", latency_us),
                             ("bad_latency", int(latency_us > objective_us))):
            fields[name] = fields.get(name, 0) + amount
        fields["latency_us_max"] = max(fields.get("latency_us_max", 0), latency_us)
    return latencies, {
        "request_latency_us": dump(latencies, BOUNDS),
        "queue_wait_us": dump(waits, BOUNDS),
        "queue_depth": dump(depths),
        "timeline": {"type": "timeline", "width_us": width_us, "windows": [
            [index, dict(sorted(fields.items()))]
            for index, fields in sorted(windows.items())]},
        "link_busy_us": busy,
        "message_timeouts": timeouts,
        "critical_path_us": blame,
        "virtual_time_us": us(horizon),
    }
