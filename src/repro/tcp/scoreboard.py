"""SACK scoreboard (sender side), RFC 6675 flavoured.

Packet sequence numbers are plain monotone integers here (TCP in this
simulator never wraps: Python ints), so raw ``<``/``>``/``-`` comparisons
are exact by design and the scoreboard is a set of sorted disjoint ranges
plus loss/retransmission marks.  This is why the ``seqno-taint`` lint
rule scopes itself to ``repro/udt/`` and ``repro/sabul/`` (the 31-bit
wrapping spaces) and excludes ``repro/tcp/`` — see docs/ANALYSIS.md.
``pipe`` — consulted for every transmission decision — is kept O(1) by
maintaining the count of lost-but-not-retransmitted packets
incrementally, and every other per-ACK operation touches only the
sequences the ACK itself covers, never the whole ``lost`` set (the
paper's Fig 9 property: bookkeeping cost must not grow with the size of
a loss event).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import List, Optional


class Scoreboard:
    """Sender-side SACK state for one connection.

    Invariants, upheld by every public method:

    * ``lost`` and the SACKed ranges are disjoint — a sequence is never
      marked lost while SACKed, and a SACK un-loses what it covers.
      ``add_sack`` relies on this: only the part of a block that is
      *newly* covered can hold a lost sequence.
    * no member of ``lost`` or ``retransmitted`` lies below ``_floor``
      (the highest cumulative ACK seen, lowered again if a caller marks
      beneath it), so ``ack_upto`` walks just the sequences it passes.

    ``TcpSender`` reads three fields directly on its per-ACK path instead
    of calling through: ``_sacked`` (zero exactly when no range is stored)
    and ``_lost_not_retx`` (``|lost - retransmitted|``) are :meth:`pipe`'s
    two terms, and an empty ``_retx_heap`` is
    :meth:`next_lost_to_retransmit` answering ``None``.
    """

    def __init__(self, dupthresh: int = 3):
        self.dupthresh = dupthresh
        self._starts: List[int] = []
        self._ends: List[int] = []  # inclusive
        self.lost: set[int] = set()
        self.retransmitted: set[int] = set()
        self._lost_not_retx = 0
        self._sacked = 0
        self._retx_heap: List[int] = []  # lazy min-heap of retransmit candidates
        self._loss_frontier = 0  # all holes below are already classified
        self._floor = 0  # nothing in lost/retransmitted is below this

    # -- sack bookkeeping -------------------------------------------------
    def add_sack(self, a: int, b: int) -> None:
        """Record that [a, b] was received out of order."""
        if b < a:
            raise ValueError("inverted SACK block")
        starts, ends = self._starts, self._ends
        lo = bisect_left(ends, a - 1)
        hi = bisect_right(starts, b + 1)
        if hi - lo == 1 and starts[lo] <= a and b <= ends[lo]:
            return  # a repeated block: nothing newly covered
        if self.lost:
            # A packet marked lost that turns out to have arrived is
            # un-lost.  Lost sequences are never SACKed, so only the gaps
            # of [a, b] between the stored ranges can hold one.
            cur = a
            for i in range(lo, hi):
                if cur < starts[i]:
                    self._forget_lost(cur, starts[i] - 1)
                cur = max(cur, ends[i] + 1)
            if cur <= b:
                self._forget_lost(cur, b)
        if lo >= hi:
            starts.insert(lo, a)
            ends.insert(lo, b)
            self._sacked += b - a + 1
            return
        na, nb = min(a, starts[lo]), max(b, ends[hi - 1])
        absorbed = sum(ends[i] - starts[i] + 1 for i in range(lo, hi))
        del starts[lo:hi]
        del ends[lo:hi]
        starts.insert(lo, na)
        ends.insert(lo, nb)
        self._sacked += (nb - na + 1) - absorbed

    def _forget_lost(self, a: int, b: int) -> None:
        """Drop [a, b] from ``lost``, keeping the pipe count exact."""
        lost, retransmitted = self.lost, self.retransmitted
        for s in range(a, b + 1):
            if s in lost:
                lost.discard(s)
                if s not in retransmitted:
                    self._lost_not_retx -= 1

    def is_sacked(self, seq: int) -> bool:
        i = bisect_right(self._starts, seq) - 1
        return i >= 0 and self._ends[i] >= seq

    def highest_sacked(self) -> Optional[int]:
        return self._ends[-1] if self._ends else None

    def sacked_count(self) -> int:
        return self._sacked

    # -- loss inference ------------------------------------------------------
    def _mark_lost(self, seq: int) -> bool:
        if seq in self.lost:
            return False
        self.lost.add(seq)
        if seq < self._floor:
            self._floor = seq
        if seq not in self.retransmitted:
            self._lost_not_retx += 1
            heapq.heappush(self._retx_heap, seq)
        return True

    def update_lost(self, snd_una: int) -> int:
        """FACK-style loss inference: every unsacked packet more than
        ``dupthresh`` below the highest SACKed packet is lost.  (With no
        in-network reordering — true of this simulator — this matches the
        RFC 6675 IsLost rule.)  A monotone scan frontier makes the total
        work linear in the sequence space, not per-ACK.
        """
        high = self.highest_sacked()
        if high is None:
            return 0
        limit = high - self.dupthresh  # inclusive upper bound for "lost"
        new = 0
        seq = max(self._loss_frontier, snd_una)
        starts, ends = self._starts, self._ends
        while seq <= limit:
            i = bisect_right(starts, seq) - 1
            if i >= 0 and ends[i] >= seq:
                seq = ends[i] + 1  # jump over a sacked run
                continue
            if self._mark_lost(seq):
                new += 1
            seq += 1
        self._loss_frontier = max(self._loss_frontier, seq)
        return new

    def mark_lost(self, seq: int) -> bool:
        """Presume ``seq`` lost (dupack path); a SACKed one never is."""
        return not self.is_sacked(seq) and self._mark_lost(seq)

    def mark_lost_range(self, a: int, b: int) -> int:
        """Timeout path: everything unsacked in [a, b] is presumed lost."""
        return sum(self.mark_lost(s) for s in range(a, b + 1))

    def next_lost_to_retransmit(self, snd_una: int) -> Optional[int]:
        heap = self._retx_heap
        while heap:
            s = heap[0]
            if s < snd_una or s not in self.lost or s in self.retransmitted:
                heapq.heappop(heap)
                continue
            return s
        return None

    def on_retransmit(self, seq: int) -> None:
        if seq in self.lost and seq not in self.retransmitted:
            self._lost_not_retx -= 1
        self.retransmitted.add(seq)
        if seq < self._floor:
            self._floor = seq

    def re_mark_lost(self, seq: int) -> bool:
        """A retransmission was itself judged lost: make the sequence
        eligible for retransmission again (without this, a dropped
        retransmission wedges the cumulative ACK until an RTO)."""
        if seq in self.lost and seq in self.retransmitted and not self.is_sacked(seq):
            self.retransmitted.discard(seq)
            self._lost_not_retx += 1
            heapq.heappush(self._retx_heap, seq)
            return True
        return False

    # -- advancing ------------------------------------------------------------
    def ack_upto(self, snd_una: int) -> None:
        """Cumulative ACK advanced: forget everything below ``snd_una``."""
        starts, ends = self._starts, self._ends
        if not (starts or self.lost or self.retransmitted):
            # No range and no mark to forget: only the two bounds move.
            if snd_una > self._floor:
                self._floor = snd_una
            if snd_una > self._loss_frontier:
                self._loss_frontier = snd_una
            return
        i = bisect_right(ends, snd_una - 1)
        if i:
            self._sacked -= sum(ends[j] - starts[j] + 1 for j in range(i))
            del starts[:i]
            del ends[:i]
        if starts and starts[0] < snd_una:
            self._sacked -= snd_una - starts[0]
            starts[0] = snd_una
        if self.lost:
            self._forget_lost(self._floor, snd_una - 1)
        if self.retransmitted:
            self.retransmitted.difference_update(range(self._floor, snd_una))
        self._floor = max(self._floor, snd_una)
        self._loss_frontier = max(self._loss_frontier, snd_una)

    def clear(self) -> None:
        self._starts.clear()
        self._ends.clear()
        self.lost.clear()
        self.retransmitted.clear()
        self._lost_not_retx = 0
        self._sacked = 0
        self._retx_heap.clear()
        self._loss_frontier = 0
        # ``_floor`` stays: it bounds two sets that are now empty, and
        # keeping it lets the ACK after a timeout walk only its own advance
        # (marks beneath it lower it again).

    def pipe(self, snd_una: int, snd_nxt: int) -> int:
        """Packets judged in flight (RFC 6675 pipe), O(1)."""
        flight = snd_nxt - snd_una
        return max(flight - self._sacked - self._lost_not_retx, 0)
