"""Window-based streaming join (§2.1 Figure 1, §5.3).

Two record streams (from a remote machine A and a near machine B) are
joined at machine C: records carry sequential keys and a record joins
when its key partner from the other stream is present within a sliding
window of the most recent ``window`` records.  If the streams run at
different speeds the slower stream's records fall out of the faster
stream's window — the join throughput degrades to twice the slower
stream's rate, which is the paper's point: TCP's RTT bias on the long
path caps the whole application.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.sim.node import Host
from repro.sim.topology import JoinTopology, Network


@dataclass
class JoinStats:
    records_a: int = 0
    records_b: int = 0
    joined: int = 0
    expired: int = 0

    def joined_bytes(self, record_size: int) -> int:
        return self.joined * 2 * record_size


class StreamingJoin:
    """The join operator running at machine C.

    Byte streams arrive from the two transports; they are reframed into
    ``record_size``-byte records with implicit sequential keys (records
    are generated in key order at both sources, like the paper's
    same-size-record setup).
    """

    def __init__(self, record_size: int = 1456, window: int = 4096):
        if record_size <= 0 or window <= 0:
            raise ValueError("record size and window must be positive")
        self.record_size = record_size
        self.window = window
        self.stats = JoinStats()
        self._residual = {"a": 0, "b": 0}
        self._next_key = {"a": 0, "b": 0}
        self._pending: Dict[str, Dict[int, bool]] = {"a": {}, "b": {}}

    def on_bytes(self, stream: str, nbytes: int) -> None:
        """Feed ``nbytes`` of arrived payload from stream 'a' or 'b'."""
        if stream not in ("a", "b"):
            raise ValueError("stream must be 'a' or 'b'")
        if nbytes < 0:
            raise ValueError("negative byte count")
        self._residual[stream] += nbytes
        while self._residual[stream] >= self.record_size:
            self._residual[stream] -= self.record_size
            self._on_record(stream)

    def _on_record(self, stream: str) -> None:
        key = self._next_key[stream]
        self._next_key[stream] += 1
        if stream == "a":
            self.stats.records_a += 1
        else:
            self.stats.records_b += 1
        other = "b" if stream == "a" else "a"
        if key in self._pending[other]:
            del self._pending[other][key]
            self.stats.joined += 1
            return
        mine = self._pending[stream]
        mine[key] = True
        # Sliding window: evict the oldest keys beyond the window.
        while len(mine) > self.window:
            oldest = next(iter(mine))
            del mine[oldest]
            self.stats.expired += 1


class PacedSource:
    """Generates a real-time record stream at a fixed rate into a flow.

    §2.1's streams are *generated* in real time; a transport that cannot
    sustain the generation rate falls behind and its records miss the
    join window.  Works with any flow exposing ``offer(nbytes) -> int``
    (an ``app_driven`` UdtFlow, whose bounded send buffer may accept only
    part, or a TcpFlow, which takes everything); what the flow does not
    accept stays in the source's backlog.
    """

    TICK = 0.01

    def __init__(self, net: Network, flow: object, rate_bps: float, start: float = 0.0):
        if rate_bps <= 0:
            raise ValueError("source rate must be positive")
        self.net = net
        self.flow = flow
        self.chunk = int(rate_bps * self.TICK / 8.0)
        self._backlog = 0
        net.sim.schedule_at(max(start, net.sim.now), self._tick)

    def _tick(self) -> None:
        self._backlog += self.chunk
        self._backlog -= self.flow.offer(self._backlog)
        self.net.sim.schedule(self.TICK, self._tick)


def run_streaming_join(
    topology: JoinTopology,
    flow_factory: Callable[[Network, Host, Host, object], object],
    duration: float,
    record_size: int = 1456,
    window: int = 65536,
    source_rate_bps: Optional[float] = None,
) -> tuple[StreamingJoin, object, object]:
    """Drive the Figure 1 experiment with any transport.

    ``flow_factory(net, src, dst, flow_id)`` must return a flow object
    whose receiver delivers through ``net.monitor`` and that exposes
    ``add_delivery_tap(cb)`` (both UdtFlow and TcpFlow qualify); this
    function taps deliveries into the join operator.  With
    ``source_rate_bps`` set, both sources generate
    records in real time at that rate (each), the paper's workload;
    otherwise both transports run as bulk sources.
    """
    join = StreamingJoin(record_size=record_size, window=window)
    net = topology.net
    flow_a = flow_factory(net, topology.src_a, topology.sink, "join-a")
    flow_b = flow_factory(net, topology.src_b, topology.sink, "join-b")
    if source_rate_bps is not None:
        PacedSource(net, flow_a, source_rate_bps)
        PacedSource(net, flow_b, source_rate_bps)
    flow_a.add_delivery_tap(lambda n: join.on_bytes("a", n))
    flow_b.add_delivery_tap(lambda n: join.on_bytes("b", n))
    net.run(until=duration)
    return join, flow_a, flow_b

