"""Sorted disjoint integer ranges: the loss lists' and the TCP sink's store.

UDT's loss lists (:mod:`repro.udt.losslist`) keep their ranges on an
unwrapped absolute axis, and the TCP sink (:mod:`repro.tcp.agent`) keeps
its out-of-order segments on the unbounded packet numbers of
:mod:`repro.tcp`; both are plain monotone integers, so the container
knows nothing of either protocol and lives beneath both.  Neither
transport loads the other to use it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Iterator, List, Optional, Tuple


class RangeList:
    """Sorted disjoint inclusive ranges of plain integers.

    Mirrors the paper's loss-list appendix insert algorithm: locate the would-be position,
    extend/merge with the prior node when overlapping or adjacent, then
    coalesce with following nodes.  ``bisect`` gives O(log E) search —
    the same "few steps around the near neighbours" locality the static
    list exploits.
    """

    __slots__ = ("starts", "ends", "count")

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.count = 0  # number of individual integers stored

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
