"""Send/receive buffers with overlapped-IO accounting (§4.3, §4.6).

The simulator does not ship real payload bytes around (packets carry byte
*counts*), but the buffer logic is complete: the receive buffer reorders
out-of-order arrivals, delivers contiguous runs to the application, and
reports available space for flow control.  When real data is present (the
loopback runtime) the same code paths carry ``bytes``.

Overlapped IO is modelled exactly as Figure 10 describes: the application
may post a user buffer that becomes a logical extension of the protocol
buffer; packets whose position falls inside the posted region are counted
as *zero-copy* (they would land directly in user memory), everything else
incurs a protocol-buffer copy.  The speculation counters implement §4.6:
the receiver always guesses the next packet is LRSN+1; each loss and each
retransmission arrival cost one speculation miss.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional, Tuple

from repro.udt.seqno import seq_inc, seq_off


class SendBuffer:
    """Application bytes queued for (re)transmission, packetised at MSS.

    Packets keep their payload until acknowledged so retransmissions can
    look sizes (and live-mode data) back up by sequence number.  The
    unacknowledged packets are one deque of ``(size, data)`` entries
    from ``_first``, the sequence number of its head: the sender binds
    consecutive sequence numbers (``UdtCore`` always passes
    ``curr_seq``), so a packet's place in the window is its offset from
    ``_first`` and no map by sequence number is needed.  Every full-size
    packet without payload (a simulated source) shares one entry.
    """

    def __init__(self, capacity_pkts: int, payload_size: int):
        if capacity_pkts < 1 or payload_size < 1:
            raise ValueError("bad buffer geometry")
        self.capacity_pkts = capacity_pkts
        self.payload_size = payload_size
        self._pending_bytes = 0  # accepted, not yet packetised
        #: live mode only: views of the application's bytes, consumed
        #: from the front, so packetising never copies what is left
        self._pending_data: deque[memoryview] = deque()
        #: unacknowledged packets, oldest first; ACKs release a prefix.
        #: Read-only outside this class: its length is the sender's
        #: unacknowledged count, ``seq_off(snd_last_ack, curr_seq)``.
        self.unacked: deque[Tuple[int, Optional[bytes]]] = deque()
        self._first = 0  # sequence number of the window's head
        self._full = (payload_size, None)

    # -- application side --------------------------------------------------
    def free_packets(self) -> int:
        used = len(self.unacked) + self.queued_packets()
        return max(self.capacity_pkts - used, 0)

    def queued_packets(self) -> int:
        return -(-self._pending_bytes // self.payload_size) if self._pending_bytes else 0

    def add(self, nbytes: int, data: Optional[bytes] = None) -> int:
        """Queue up to ``nbytes`` application bytes; returns bytes accepted."""
        if nbytes < 0:
            raise ValueError("negative byte count")
        room = self.free_packets() * self.payload_size
        take = min(nbytes, room)
        if take <= 0:
            return 0
        if data is not None:
            self._pending_data.append(memoryview(data)[:take])
        self._pending_bytes += take
        return take

    # -- sender side ---------------------------------------------------------
    def packetise(self, seq: int) -> Optional[int]:
        """Bind the next chunk to sequence ``seq``; returns payload size."""
        entry = self.next_packet(seq)
        return None if entry is None else entry[0]

    def next_packet(
        self, seq: int, refill: int = 0
    ) -> Optional[Tuple[int, Optional[bytes]]]:
        """Bind the next chunk to ``seq``; returns its ``(size, data)`` entry.

        The send tick's single call.  An unlimited source passes its
        top-up as ``refill``: with nothing pending, that many bytes are
        queued first, room permitting, as ``add(refill)`` would.  Returns
        None when there is (still) nothing to send.  ``seq`` follows the
        last packet bound; with no packet unacknowledged it may be any.
        """
        pending = self._pending_bytes
        if pending <= 0:
            room = (self.capacity_pkts - len(self.unacked)) * self.payload_size
            pending = room if room < refill else refill  # min(refill, room)
            if pending <= 0:
                return None
        payload_size = self.payload_size
        size = pending if pending < payload_size else payload_size
        self._pending_bytes = pending - size
        pending_data = self._pending_data
        if pending_data:  # live mode: real payload rides along
            # A view of the caller's bytes; only a packet that straddles
            # two add() calls is joined into bytes of its own.
            chunks: list[memoryview] = []
            need = size
            while need and pending_data:
                head = pending_data[0]
                if len(head) <= need:
                    chunks.append(pending_data.popleft())
                    need -= len(head)
                else:
                    chunks.append(head[:need])
                    pending_data[0] = head[need:]
                    need = 0
            data = chunks[0] if len(chunks) == 1 else b"".join(chunks)
            entry = (size, data)
        elif size == payload_size:
            entry = self._full
        else:
            entry = (size, None)
        window = self.unacked
        if not window:
            self._first = seq
        window.append(entry)
        return entry

    def lookup(self, seq: int) -> Optional[Tuple[int, Optional[bytes]]]:
        """Payload (size, data) for a retransmission, None if not in flight."""
        off = seq_off(self._first, seq)
        if 0 <= off < len(self.unacked):
            return self.unacked[off]
        return None

    def ack_upto(self, seq: int) -> int:
        """Release every packet strictly before ``seq``; returns count freed."""
        window = self.unacked
        freed = min(max(seq_off(self._first, seq), 0), len(window))
        if freed:
            self._first = seq_inc(self._first, freed)
            popleft = window.popleft
            for _ in range(freed):
                popleft()
        return freed

    @property
    def inflight_packets(self) -> int:
        return len(self.unacked)


class ReceiveBuffer:
    """Reordering receive buffer with in-order delivery.

    ``deliver`` is invoked once per contiguous run handed to the
    application (monitors hook this).  Available space — what flow control
    advertises — shrinks with packets held for reordering *and* delivered
    packets the application has not yet drained (the sim application
    drains instantly by default).
    """

    def __init__(
        self,
        capacity_pkts: int,
        deliver: Optional[Callable[[int, Optional[bytes]], None]] = None,
        hold_for_app: bool = False,
    ):
        if capacity_pkts < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity_pkts = capacity_pkts
        self._deliver = deliver
        #: when True, delivered packets still occupy buffer space until the
        #: application explicitly reads them (disk-limited workloads where
        #: flow control must throttle the sender to the drain rate).
        self.hold_for_app = hold_for_app
        self.unread_packets = 0
        self._held: Dict[int, Tuple[int, Optional[bytes]]] = {}
        self.next_expected: Optional[int] = None
        self._speculated: Optional[int] = None  # §4.6 guess: largest seen + 1
        self.delivered_bytes = 0
        self.delivered_packets = 0
        self.duplicates = 0
        # §4.6 speculation accounting
        self.speculation_hits = 0
        self.speculation_misses = 0
        # §4.3 overlapped IO accounting
        self._user_buffer_bytes = 0
        self.zero_copy_bytes = 0
        self.copied_bytes = 0

    def start(self, init_seq: int) -> None:
        self.next_expected = init_seq
        self._speculated = init_seq

    def post_user_buffer(self, nbytes: int) -> None:
        """Overlapped IO: extend the protocol buffer with user memory."""
        if nbytes < 0:
            raise ValueError("negative buffer size")
        self._user_buffer_bytes += nbytes

    @property
    def available(self) -> int:
        """Free packet slots (advertised in ACKs for flow control)."""
        return max(self.capacity_pkts - len(self._held) - self.unread_packets, 0)

    def app_read(self, npkts: int) -> int:
        """Application consumed ``npkts`` delivered packets (hold mode)."""
        if npkts < 0:
            raise ValueError("negative read count")
        taken = min(npkts, self.unread_packets)
        self.unread_packets -= taken
        return taken

    def accepts(self, seq: int) -> bool:
        """Would a packet with this sequence fit the buffer window?"""
        expected = self.next_expected
        if expected is None:
            return False
        # Identity (not ordering) of two in-range seqs is wrap-safe.
        if seq == expected:  # lint: disable=seqno-taint
            return self.unread_packets < self.capacity_pkts
        return seq_off(expected, seq) < self.capacity_pkts - self.unread_packets

    def on_data(self, seq: int, size: int, data: Optional[bytes] = None) -> bool:
        """Accept one data packet; returns False for duplicates/overflow."""
        expected = self.next_expected
        if expected is None:
            raise RuntimeError("buffer not started")
        held = self._held
        # Identity (not ordering) of two in-range seqs is wrap-safe, here
        # and for the speculation check below.
        in_order = seq == expected  # lint: disable=seqno-taint
        if in_order:
            if self.unread_packets >= self.capacity_pkts:
                return False  # no room — dropped as if the NIC queue overflowed
        else:
            off = seq_off(expected, seq)
            if off < 0 or seq in held:
                self.duplicates += 1
                return False
            if off >= self.capacity_pkts - self.unread_packets:
                return False
        # Speculation: the receiver always guesses the largest-seen + 1.
        following = seq_inc(seq)
        if seq == self._speculated:  # lint: disable=seqno-taint
            self.speculation_hits += 1
            self._speculated = following
        else:
            self.speculation_misses += 1
            if seq_off(self._speculated, seq) >= 0:
                self._speculated = following
        if not in_order:
            held[seq] = (size, data)
            return True
        # §4.6: the expected packet goes straight to the application and
        # takes whatever contiguous run was waiting behind it along.
        while True:
            if self.hold_for_app:
                self.unread_packets += 1
            if self._user_buffer_bytes >= size:
                self._user_buffer_bytes -= size
                self.zero_copy_bytes += size
            else:
                self.copied_bytes += size
            self.delivered_bytes += size
            self.delivered_packets += 1
            if self._deliver is not None:
                self._deliver(size, data)
            self.next_expected = expected = following
            if expected not in held:
                return True
            size, data = held.pop(expected)
            following = seq_inc(expected)

    @property
    def held_packets(self) -> int:
        return len(self._held)
