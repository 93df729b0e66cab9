"""Loss-information storage (paper appendix + §4.2).

Continuous losses are stored as ``[start, end]`` range nodes instead of one
entry per lost packet, so the cost of every insert/delete/query scales with
the number of *loss events*, not lost packets — the property Figure 9
measures (~1 µs per access, independent of how many packets a congestion
event killed).

The lists keep ranges sorted by an *unwrapped* absolute coordinate so the
31-bit sequence wrap (§6) is handled uniformly: each incoming sequence
number is unwrapped against the most recent position, which is valid as
long as live loss spans less than half the sequence space — guaranteed
because the flow window is far smaller than 2^30 packets.

``NaiveLossList`` is the strawman (one entry per lost sequence number) used
by the Figure 9 ablation benchmark.
"""

from __future__ import annotations

# This module IS the wrap handling: every internal comparison and
# addition runs on the unwrapped monotone absolute axis built by
# _Unwrapper (see module docstring), where raw int arithmetic is the
# point.  Boundary crossings go through seq_off/valid_seq/to_seq.
# lint: disable-file=seqno-taint

from typing import List, Optional, Tuple

from repro.ranges import RangeList
from repro.udt.params import MAX_SEQ_NO
from repro.udt.seqno import seq_inc, seq_off, valid_seq


class _Unwrapper:
    """Maps wrapped 31-bit sequence numbers to a monotone absolute axis."""

    __slots__ = ("_last_abs", "_last_seq", "_initialized")

    def __init__(self) -> None:
        self._last_abs = 0
        self._last_seq = 0
        self._initialized = False

    def to_abs(self, seq: int) -> int:
        if not valid_seq(seq):
            raise ValueError(f"sequence number {seq} out of range")
        if not self._initialized:
            self._initialized = True
            self._last_seq = seq
            self._last_abs = seq
            return seq
        a = self._last_abs + seq_off(self._last_seq, seq)
        if a > self._last_abs:
            self._last_abs = a
            self._last_seq = seq
        return a

    @staticmethod
    def to_seq(abs_pos: int) -> int:
        return abs_pos % MAX_SEQ_NO


class SenderLossList:
    """Sequence numbers reported lost by the receiver, pending retransmit.

    The sender always services this list before new data (§4.8: "It always
    sends the lost packets with higher priority").
    """

    def __init__(self) -> None:
        #: The lost sequence numbers, at absolute positions.  Read-only
        #: outside this class: its ``count`` (an attribute) is how many
        #: wait for retransmission, the send tick's test before ``peek``.
        self.ranges = RangeList()
        self._uw = _Unwrapper()

    def __len__(self) -> int:
        return len(self.ranges)

    def events(self) -> int:
        return self.ranges.events()

    def insert(self, seq1: int, seq2: Optional[int] = None) -> int:
        if seq2 is None:
            seq2 = seq1
        a = self._uw.to_abs(seq1)
        b = a + seq_off(seq1, seq2)
        if b < a:
            raise ValueError(f"inverted loss range {seq1}..{seq2}")
        return self.ranges.insert(a, b)

    def remove_upto(self, seq: int) -> int:
        """Drop everything at or before ``seq`` (covered by a new ACK)."""
        return self.ranges.remove_upto(self._uw.to_abs(seq))

    def pop(self) -> Optional[int]:
        """Lowest lost sequence number, removed — next retransmission."""
        a = self.ranges.pop_first()
        return None if a is None else _Unwrapper.to_seq(a)

    def peek(self) -> Optional[int]:
        starts = self.ranges.starts
        return _Unwrapper.to_seq(starts[0]) if starts else None

    def contains(self, seq: int) -> bool:
        return self.ranges.contains(self._uw.to_abs(seq))


class ReceiverLossList:
    """Holes detected in the receive stream, with NAK feedback state.

    Each loss event remembers when its loss report was last sent and how
    many times, so reports can be retransmitted after an *increasing*
    interval (§3.1, and §3.5's congestion-collapse guard).
    """

    def __init__(self) -> None:
        self._rl = RangeList()
        self._uw = _Unwrapper()
        # feedback state per absolute seq -> [last_sent_time, sent_count]
        # kept per-event at range granularity: dict keyed by range start.
        self._feedback: dict[int, list] = {}

    def __len__(self) -> int:
        return len(self._rl)

    def events(self) -> int:
        return self._rl.events()

    def insert(self, seq1: int, seq2: Optional[int] = None, now: float = 0.0) -> int:
        if seq2 is None:
            seq2 = seq1
        a = self._uw.to_abs(seq1)
        b = a + seq_off(seq1, seq2)
        added = self._rl.insert(a, b)
        if added:
            self._feedback[a] = [now, 1]
        return added

    def remove(self, seq: int) -> bool:
        """A retransmission arrived; drop just this number."""
        return self._rl.remove_one(self._uw.to_abs(seq))

    def remove_upto(self, seq: int) -> int:
        return self._rl.remove_upto(self._uw.to_abs(seq))

    def first(self) -> Optional[int]:
        a = self._rl.first()
        return None if a is None else _Unwrapper.to_seq(a)

    def contains(self, seq: int) -> bool:
        return self._rl.contains(self._uw.to_abs(seq))

    def ranges(self) -> List[Tuple[int, int]]:
        return [
            (_Unwrapper.to_seq(a), _Unwrapper.to_seq(b)) for a, b in self._rl.ranges()
        ]

    def expired_ranges(self, now: float, rtt: float) -> List[Tuple[int, int]]:
        """Loss ranges whose report timed out and must be re-NAKed.

        The per-event resend interval grows linearly with the number of
        reports already sent (``count * RTT`` plus one SYN of slack), so a
        receiver drowning in loss backs off instead of melting the sender
        with feedback (§3.5).
        """
        out = []
        gc: List[int] = []
        live_starts = set(self._rl.starts)
        for key in list(self._feedback):
            if key not in live_starts:
                gc.append(key)
        for key in gc:
            del self._feedback[key]
        for a, b in self._rl.ranges():
            st = self._feedback.setdefault(a, [0.0, 1])
            # First resend waits 2x(RTT+SYN): a NAK'd retransmission needs
            # a full RTT to arrive, so re-reporting sooner just duplicates
            # it.  Subsequent resends back off further (§3.5).
            interval = (st[1] + 1) * (rtt + 0.01)
            if now - st[0] >= interval:
                st[0] = now
                st[1] += 1
                out.append((_Unwrapper.to_seq(a), _Unwrapper.to_seq(b)))
        return out


class NaiveLossList:
    """Strawman: one set entry per lost packet (what §4.2 warns against)."""

    def __init__(self) -> None:
        self._lost: set[int] = set()

    def __len__(self) -> int:
        return len(self._lost)

    def insert(self, seq1: int, seq2: Optional[int] = None) -> int:
        if seq2 is None:
            seq2 = seq1
        n = seq_off(seq1, seq2) + 1
        before = len(self._lost)
        for i in range(n):
            self._lost.add(seq_inc(seq1, i))
        return len(self._lost) - before

    def remove_upto(self, seq: int) -> int:
        doomed = [s for s in self._lost if seq_off(s, seq) >= 0]
        for s in doomed:
            self._lost.remove(s)
        return len(doomed)

    def pop(self) -> Optional[int]:
        if not self._lost:
            return None
        s = min(self._lost)  # O(n) scan — the point of the ablation
        self._lost.remove(s)
        return s

    def contains(self, seq: int) -> bool:
        return seq in self._lost
