"""Parallel TCP striping — §2.2's application-level baseline (PSockets).

"One of the common solutions is to use parallel TCP connections and tune
the TCP parameters, such as window size and number of flows.  However,
parallel TCP is inflexible because it needs to be tuned on each
particular network scenario.  Moreover, parallel TCP does not address
fairness issues."

:class:`ParallelTcpTransfer` stripes one logical bulk transfer across N
concurrent TCP connections between the same host pair — the PSockets /
GridFTP-style workaround UDT was built to replace.  The ablation bench
shows both published criticisms: the best N is scenario-dependent, and
an N-striped transfer takes ~N shares from a competing single TCP.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.node import Host
from repro.sim.topology import Network, flow_start
from repro.tcp import TcpConfig, TcpFlow
from repro.tcp.responses import Response


class ParallelTcpTransfer:
    """One logical transfer striped over ``n_streams`` TCP connections."""

    def __init__(
        self,
        net: Network,
        src: Host,
        dst: Host,
        n_streams: int,
        nbytes: Optional[int] = None,
        config: Optional[TcpConfig] = None,
        start: float = 0.0,
        flow_id_prefix: str = "ptcp",
        response_factory=Response,
    ):
        if n_streams < 1:
            raise ValueError("need at least one stream")
        self.net = net
        self.n_streams = n_streams
        per_stream = None if nbytes is None else -(-nbytes // n_streams)
        self.streams: List[TcpFlow] = [
            TcpFlow(
                net,
                src,
                dst,
                config=config,
                response=response_factory(),
                nbytes=per_stream,
                # Staggered like any set of "concurrent" flows so the N
                # handshakes never tie in virtual time (docs/ANALYSIS.md).
                start=start + flow_start(i),
                flow_id=f"{flow_id_prefix}-{i}",
            )
            for i in range(n_streams)
        ]

    @property
    def done(self) -> bool:
        return all(s.done for s in self.streams)

    @property
    def finish_time(self) -> Optional[float]:
        if not self.done:
            return None
        return max(s.finish_time for s in self.streams)

    @property
    def delivered_bytes(self) -> int:
        return sum(s.delivered_bytes for s in self.streams)

    def throughput_bps(self, t0: float = 0.0, t1: Optional[float] = None) -> float:
        return sum(s.throughput_bps(t0, t1) for s in self.streams)

    def close(self) -> None:
        for s in self.streams:
            s.close()
