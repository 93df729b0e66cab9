"""Unit + property tests for the appendix loss-list data structure."""

from hypothesis import given, settings, strategies as st

from repro.ranges import RangeList
from repro.udt.losslist import NaiveLossList, ReceiverLossList, SenderLossList
from repro.udt.params import MAX_SEQ_NO
from repro.udt.seqno import seq_inc


class TestRangeList:
    def test_paper_appendix_example(self):
        # Figure 16: losses 3, 4, 5 and 7 -> nodes (3,5) and (7,7).
        rl = RangeList()
        rl.insert(3, 5)
        rl.insert(7, 7)
        assert list(rl.ranges()) == [(3, 5), (7, 7)]
        assert len(rl) == 4
        assert rl.events() == 2

    def test_adjacent_ranges_coalesce(self):
        rl = RangeList()
        rl.insert(3, 5)
        rl.insert(6, 8)
        assert list(rl.ranges()) == [(3, 8)]
        assert rl.events() == 1

    def test_overlapping_insert_counts_only_new(self):
        rl = RangeList()
        assert rl.insert(3, 10) == 8
        assert rl.insert(5, 12) == 2
        assert list(rl.ranges()) == [(3, 12)]

    def test_insert_bridging_many_nodes(self):
        rl = RangeList()
        for start in (0, 10, 20, 30):
            rl.insert(start, start + 2)
        rl.insert(1, 31)
        assert list(rl.ranges()) == [(0, 32)]

    def test_remove_one_splits(self):
        rl = RangeList()
        rl.insert(3, 7)
        assert rl.remove_one(5)
        assert list(rl.ranges()) == [(3, 4), (6, 7)]
        assert not rl.remove_one(5)  # already gone

    def test_remove_one_edges(self):
        rl = RangeList()
        rl.insert(3, 7)
        rl.remove_one(3)
        rl.remove_one(7)
        assert list(rl.ranges()) == [(4, 6)]

    def test_remove_upto(self):
        rl = RangeList()
        rl.insert(3, 7)
        rl.insert(10, 12)
        assert rl.remove_upto(10) == 6
        assert list(rl.ranges()) == [(11, 12)]

    def test_pop_first(self):
        rl = RangeList()
        rl.insert(3, 4)
        assert rl.pop_first() == 3
        assert rl.pop_first() == 4
        assert rl.pop_first() is None

    def test_contains(self):
        rl = RangeList()
        rl.insert(3, 7)
        assert rl.contains(3) and rl.contains(7) and rl.contains(5)
        assert not rl.contains(2) and not rl.contains(8)


@st.composite
def op_sequences(draw):
    ops = []
    n = draw(st.integers(1, 60))
    for _ in range(n):
        kind = draw(st.sampled_from(["insert", "remove_one", "remove_upto", "pop"]))
        if kind == "insert":
            a = draw(st.integers(0, 400))
            b = a + draw(st.integers(0, 30))
            ops.append(("insert", a, b))
        elif kind == "remove_one":
            ops.append(("remove_one", draw(st.integers(0, 430))))
        elif kind == "remove_upto":
            ops.append(("remove_upto", draw(st.integers(0, 430))))
        else:
            ops.append(("pop",))
    return ops


@given(op_sequences())
@settings(max_examples=200)
def test_rangelist_matches_set_model(ops):
    """The range list behaves exactly like a plain set of integers."""
    rl = RangeList()
    model = set()
    for op in ops:
        if op[0] == "insert":
            _, a, b = op
            added = rl.insert(a, b)
            new = set(range(a, b + 1)) - model
            assert added == len(new)
            model |= set(range(a, b + 1))
        elif op[0] == "remove_one":
            _, x = op
            assert rl.remove_one(x) == (x in model)
            model.discard(x)
        elif op[0] == "remove_upto":
            _, x = op
            removed = rl.remove_upto(x)
            gone = {v for v in model if v <= x}
            assert removed == len(gone)
            model -= gone
        else:
            got = rl.pop_first()
            expect = min(model) if model else None
            assert got == expect
            model.discard(got) if got is not None else None
        # Invariants: count matches, ranges sorted/disjoint/non-adjacent.
        assert len(rl) == len(model)
        rs = list(rl.ranges())
        for (a1, b1), (a2, b2) in zip(rs, rs[1:]):
            assert b1 + 1 < a2
        for a, b in rs:
            assert a <= b


class TestSenderLossList:
    def test_priority_pop_order(self):
        sl = SenderLossList()
        sl.insert(10, 12)
        sl.insert(5)
        assert sl.pop() == 5
        assert sl.pop() == 10
        assert sl.pop() == 11

    def test_remove_upto_on_ack(self):
        sl = SenderLossList()
        sl.insert(10, 20)
        sl.remove_upto(15)
        assert sl.peek() == 16
        assert len(sl) == 5

    def test_wrap_around_range(self):
        sl = SenderLossList()
        top = MAX_SEQ_NO - 2
        sl.insert(top, seq_inc(top, 4))  # spans the wrap
        assert len(sl) == 5
        assert sl.pop() == top
        got = [sl.pop() for _ in range(4)]
        assert got == [MAX_SEQ_NO - 1, 0, 1, 2]

    def test_inverted_range_rejected(self):
        import pytest

        sl = SenderLossList()
        with pytest.raises(ValueError):
            sl.insert(10, 5)

    def test_contains(self):
        sl = SenderLossList()
        sl.insert(7, 9)
        assert sl.contains(8)
        assert not sl.contains(6)


class TestReceiverLossList:
    def test_insert_and_first(self):
        rl = ReceiverLossList()
        rl.insert(100, 110, now=1.0)
        rl.insert(50, now=1.0)
        assert rl.first() == 50

    def test_remove_on_retransmission(self):
        rl = ReceiverLossList()
        rl.insert(5, 9, now=0.0)
        assert rl.remove(7)
        assert rl.ranges() == [(5, 6), (8, 9)]
        assert not rl.remove(7)

    def test_expired_ranges_backoff(self):
        rl = ReceiverLossList()
        rl.insert(5, 9, now=0.0)
        rtt = 0.1
        # first resend due after 2*(rtt+SYN) = 0.22 (a NAKed
        # retransmission needs a full RTT to arrive)
        assert rl.expired_ranges(0.10, rtt) == []
        assert rl.expired_ranges(0.23, rtt) == [(5, 9)]
        # second resend needs a LONGER interval: 3*(rtt+SYN) from 0.23
        assert rl.expired_ranges(0.50, rtt) == []
        assert rl.expired_ranges(0.60, rtt) == [(5, 9)]

    def test_feedback_state_garbage_collected(self):
        rl = ReceiverLossList()
        rl.insert(5, 9, now=0.0)
        rl.remove_upto(9)
        assert rl.expired_ranges(10.0, 0.1) == []
        assert rl._feedback == {}


class TestNaiveLossList:
    def test_same_semantics_as_range_list(self):
        nl = NaiveLossList()
        nl.insert(3, 7)
        assert len(nl) == 5
        assert nl.pop() == 3
        assert nl.contains(4)
        nl.remove_upto(5)
        assert len(nl) == 2
