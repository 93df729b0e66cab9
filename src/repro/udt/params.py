"""Protocol constants and per-socket configuration.

The values mirror §3–§4 of the paper: SYN (the constant rate-control /
ACK / NAK interval) is 0.01 s, MSS defaults to 1500 bytes, a packet pair
is emitted every 16 data packets, and the flow window is driven by a
16-sample median filter on packet arrival intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Rate-control / ACK interval, seconds (§3.1, §3.3: "The constant SYN
#: value in UDT is 0.01 second").
SYN = 0.01

#: UDT header bytes on every data/control packet (32-bit seqno + timestamp
#: + type fields — matches the reference implementation's 16-byte header).
UDT_HEADER = 16

#: Sequence number space: 31 usable bits, top bit is the loss-compression
#: flag (appendix).
MAX_SEQ_NO = 1 << 31

#: A packet pair is sent every N packets (§3.4: "We use N = 16").
PKT_PAIR_INTERVAL = 16

#: Sizes of the sliding windows feeding the median filters (§3.2, §3.4).
ARRIVAL_WINDOW = 16
PROBE_WINDOW = 16


@dataclass
class UdtConfig:
    """Tunables of one UDT endpoint.

    Every field corresponds to a designed-in knob from the paper; the
    defaults reproduce the published configuration.
    """

    #: Fixed data packet payload size in bytes, excluding UDT/UDP/IP
    #: headers.  The paper treats MSS as the full packet size with 1500
    #: matching the path MTU; we keep payload+headers == mss on the wire.
    mss: int = 1500

    #: Rate-control interval (seconds).  Exposed for the SYN-tradeoff
    #: ablation (§3.7: smaller SYN => more efficient, less friendly).
    syn: float = SYN

    #: Flow-control window on/off (Figure 7 ablation) and its cap.
    flow_control: bool = True
    max_flow_window: int = 1 << 20

    #: Receiver buffer size in packets (flow control feeds back
    #: min(window, available buffer), §3.2).
    rcv_buffer_pkts: int = 8192

    #: Send buffer size in packets; senders block (in the app model) when
    #: it fills.
    snd_buffer_pkts: int = 8192

    #: Initial packet sending period in seconds.  The reference
    #: implementation starts at 1 packet per SYN.
    initial_period: Optional[float] = None

    #: Packet-pair probe spacing (packets).
    probe_interval: int = PKT_PAIR_INTERVAL

    #: EXP (timeout) timer floor, seconds (reference implementation: 0.3 s).
    min_exp_timeout: float = 0.3

    #: Number of continuous EXP timeouts before the peer is declared dead.
    max_exp_count: int = 64

    #: Enable the §3.3 "freeze" — stop sending for one SYN after a NAK
    #: that reports fresh (post-decrease) loss.
    freeze_on_new_loss: bool = True

    #: Use bandwidth estimation to pick the increase parameter.  When
    #: False the ablation FixedAimdCC-style constant increase is used.
    bandwidth_estimation: bool = True

    #: §4.4: correct the sending period with the measured real sending
    #: rate.  Intended for real hosts where one send() costs more than
    #: the nominal period (the live runtime); in the simulator emission
    #: timing is exact, and a window-limited sender must NOT have its
    #: rate control frozen at the achieved rate, so this defaults off.
    correct_sending_rate: bool = False

    def __post_init__(self) -> None:
        if self.mss <= UDT_HEADER + 28:
            raise ValueError(
                f"mss {self.mss} must exceed the UDT+UDP/IP headers ({UDT_HEADER + 28})"
            )
        if self.syn <= 0:
            raise ValueError("syn must be positive")
        if self.rcv_buffer_pkts < 2 or self.snd_buffer_pkts < 2:
            raise ValueError("buffers need at least 2 packets")
        if self.probe_interval < 2:
            raise ValueError("probe interval must be >= 2")

    @property
    def payload_size(self) -> int:
        """Application bytes carried per full data packet.

        ``mss`` is the *total on-wire* packet size (the paper equates the
        optimal MSS with the path MTU, Figure 15), so the payload excludes
        the UDT header and the IP/UDP headers (28 bytes).
        """
        return self.mss - UDT_HEADER - 28
