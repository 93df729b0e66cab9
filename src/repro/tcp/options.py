"""TCP configuration."""

from __future__ import annotations

from dataclasses import dataclass

#: TCP + IPv4 header bytes per segment.
TCP_IP_HEADER = 40


@dataclass(frozen=True)
class TcpConfig:
    """Knobs of one TCP connection.

    The paper stipulates "the TCP buffer size is set to at least the BDP"
    in every comparison, so ``rwnd_pkts`` defaults high; experiments that
    want buffer-limited TCP set it explicitly.

    Frozen: sender and sink read the per-connection constants (payload
    size, ``dupthresh``, ``rwnd_pkts``) once at construction.
    """

    #: Total on-wire segment size in bytes (headers included), like the
    #: UDT MSS convention.
    mss: int = 1500

    #: Receiver window in packets (>= BDP for all paper scenarios).
    rwnd_pkts: int = 1 << 20

    #: Initial congestion window (RFC 5681 allows up to 4).
    init_cwnd: float = 2.0

    #: Initial slow-start threshold (effectively unbounded, like NS-2).
    init_ssthresh: float = float(1 << 20)

    #: Duplicate-ACK / SACK threshold for fast retransmit.
    dupthresh: int = 3

    #: Minimum retransmission timeout, seconds (RFC 6298 lower bound;
    #: Linux of the paper's era used 200 ms).
    min_rto: float = 0.2

    max_rto: float = 60.0

    #: Maximum SACK blocks carried per ACK.
    max_sack_blocks: int = 3

    def __post_init__(self) -> None:
        if self.mss <= TCP_IP_HEADER:
            raise ValueError("mss must exceed TCP/IP headers")
        if self.dupthresh < 1:
            raise ValueError("dupthresh must be >= 1")
        if self.min_rto <= 0:
            raise ValueError("min_rto must be positive")

    @property
    def payload_size(self) -> int:
        return self.mss - TCP_IP_HEADER
