"""``repro.simtime``: a seed-deterministic discrete-event time kernel.

The paper prices a locate in *messages*; a production locate service is
judged in *milliseconds*.  This package turns the simulator's hop counts
into wall-clock-shaped latency numbers without ever reading the wall
clock: a heap-based event kernel advances a purely logical virtual time
(:mod:`.kernel`), a declarative :class:`~repro.simtime.model.TimeModelSpec`
prices every link and node (:mod:`.model`), and FIFO queueing resources
accumulate congestion — queue depths, waits, utilization, drops
(:mod:`.queueing`).  :mod:`.binding` ties the three to a live
:class:`~repro.network.simulator.Network` through a message tap, so the
synchronous simulation stays byte-identical while a timed overlay prices
each request.

Everything is a pure function of the scenario seed: jitter comes from a
dedicated ``random.Random(f"{seed}/simtime")`` stream consumed in kernel
event order, so a replayed trace reproduces every latency histogram
bucket-for-bucket.
"""

from .binding import TimedOverlay
from .kernel import SimKernel
from .model import LinkTiming, TimeModelSpec, link_key
from .queueing import FifoResource

__all__ = [
    "SimKernel",
    "LinkTiming",
    "TimeModelSpec",
    "TimedOverlay",
    "FifoResource",
    "link_key",
]
