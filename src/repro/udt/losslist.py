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

from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Iterator, List, Optional, Tuple

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


class _RangeList:
    """Sorted disjoint inclusive ranges on the absolute axis.

    Mirrors the appendix insert algorithm: locate the would-be position,
    extend/merge with the prior node when overlapping or adjacent, then
    coalesce with following nodes.  ``bisect`` gives O(log E) search —
    the same "few steps around the near neighbours" locality the static
    list exploits.
    """

    __slots__ = ("starts", "ends", "count")

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.count = 0  # number of individual sequence numbers stored

    def __len__(self) -> int:
        return self.count

    def events(self) -> int:
        """Number of range nodes (loss events)."""
        return len(self.starts)

    def ranges(self) -> Iterator[Tuple[int, int]]:
        return zip(self.starts, self.ends)

    def first(self) -> Optional[int]:
        return self.starts[0] if self.starts else None

    def contains(self, x: int) -> bool:
        i = bisect_right(self.starts, x) - 1
        return i >= 0 and self.ends[i] >= x

    def find(self, x: int) -> Optional[Tuple[int, int]]:
        """The range holding ``x``, or ``None``."""
        i = bisect_right(self.starts, x) - 1
        if i >= 0 and self.ends[i] >= x:
            return self.starts[i], self.ends[i]
        return None

    def top(self, k: int) -> Iterator[Tuple[int, int]]:
        """The ``k`` highest ranges, highest first."""
        return islice(zip(reversed(self.starts), reversed(self.ends)), k)

    def insert(self, a: int, b: int) -> int:
        """Insert inclusive [a, b]; returns how many numbers were new."""
        if b < a:
            raise ValueError(f"inverted range [{a}, {b}]")
        starts, ends = self.starts, self.ends
        # Leftmost node that could merge with [a, b] (adjacency counts).
        lo = bisect_left(ends, a - 1)
        # Rightmost node that could merge.
        hi = bisect_right(starts, b + 1)
        if lo >= hi:
            # No overlap/adjacency: plain insertion.
            starts.insert(lo, a)
            ends.insert(lo, b)
            self.count += b - a + 1
            return b - a + 1
        # Merge nodes lo..hi-1 with [a, b].
        new_a = min(a, starts[lo])
        new_b = max(b, ends[hi - 1])
        absorbed = sum(ends[i] - starts[i] + 1 for i in range(lo, hi))
        del starts[lo:hi]
        del ends[lo:hi]
        starts.insert(lo, new_a)
        ends.insert(lo, new_b)
        added = (new_b - new_a + 1) - absorbed
        self.count += added
        return added

    def remove_one(self, x: int) -> bool:
        """Remove a single number; splits its range if interior."""
        starts, ends = self.starts, self.ends
        i = bisect_right(starts, x) - 1
        if i < 0 or ends[i] < x:
            return False
        s, e = starts[i], ends[i]
        if s == e:
            del starts[i]
            del ends[i]
        elif x == s:
            starts[i] = x + 1
        elif x == e:
            ends[i] = x - 1
        else:
            ends[i] = x - 1
            starts.insert(i + 1, x + 1)
            ends.insert(i + 1, e)
        self.count -= 1
        return True

    def remove_upto(self, x: int) -> int:
        """Remove every number <= x; returns how many were removed."""
        starts, ends = self.starts, self.ends
        i = bisect_right(ends, x)
        removed = sum(ends[j] - starts[j] + 1 for j in range(i))
        if i:
            del starts[:i]
            del ends[:i]
        if starts and starts[0] <= x:
            removed += x - starts[0] + 1
            starts[0] = x + 1
        self.count -= removed
        return removed

    def pop_first(self) -> Optional[int]:
        """Remove and return the smallest stored number."""
        if not self.starts:
            return None
        x = self.starts[0]
        if self.starts[0] == self.ends[0]:
            del self.starts[0]
            del self.ends[0]
        else:
            self.starts[0] += 1
        self.count -= 1
        return x


class SenderLossList:
    """Sequence numbers reported lost by the receiver, pending retransmit.

    The sender always services this list before new data (§4.8: "It always
    sends the lost packets with higher priority").
    """

    def __init__(self) -> None:
        self._rl = _RangeList()
        self._uw = _Unwrapper()

    def __len__(self) -> int:
        return len(self._rl)

    def events(self) -> int:
        return self._rl.events()

    def insert(self, seq1: int, seq2: Optional[int] = None) -> int:
        if seq2 is None:
            seq2 = seq1
        a = self._uw.to_abs(seq1)
        b = a + seq_off(seq1, seq2)
        if b < a:
            raise ValueError(f"inverted loss range {seq1}..{seq2}")
        return self._rl.insert(a, b)

    def remove_upto(self, seq: int) -> int:
        """Drop everything at or before ``seq`` (covered by a new ACK)."""
        return self._rl.remove_upto(self._uw.to_abs(seq))

    def pop(self) -> Optional[int]:
        """Lowest lost sequence number, removed — next retransmission."""
        a = self._rl.pop_first()
        return None if a is None else _Unwrapper.to_seq(a)

    def peek(self) -> Optional[int]:
        # Asked once per send tick and almost always of an empty list.
        starts = self._rl.starts
        return _Unwrapper.to_seq(starts[0]) if starts else None

    def contains(self, seq: int) -> bool:
        return self._rl.contains(self._uw.to_abs(seq))


class ReceiverLossList:
    """Holes detected in the receive stream, with NAK feedback state.

    Each loss event remembers when its loss report was last sent and how
    many times, so reports can be retransmitted after an *increasing*
    interval (§3.1, and §3.5's congestion-collapse guard).
    """

    def __init__(self) -> None:
        self._rl = _RangeList()
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
