"""Unit tests for the SACK scoreboard."""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.tcp.scoreboard import Scoreboard
from tests._reference_scoreboard import Scoreboard as ReferenceScoreboard


def test_sack_merge_and_count():
    sb = Scoreboard()
    sb.add_sack(5, 7)
    sb.add_sack(9, 9)
    sb.add_sack(8, 8)  # bridges the two blocks
    assert sb.sacked_count() == 5
    assert sb.highest_sacked() == 9
    assert sb.is_sacked(6) and not sb.is_sacked(4)


def test_fack_loss_marking():
    sb = Scoreboard(dupthresh=3)
    sb.add_sack(4, 10)
    # holes 0..3; those <= 10-3=7 are lost -> 0,1,2,3
    assert sb.update_lost(0) == 4
    assert sb.lost == {0, 1, 2, 3}


def test_loss_marking_respects_dupthresh_margin():
    sb = Scoreboard(dupthresh=3)
    sb.add_sack(2, 3)
    # highest sacked 3, limit = 0: only hole 0 qualifies
    assert sb.update_lost(0) == 1
    assert sb.lost == {0}


def test_frontier_is_monotone():
    sb = Scoreboard(dupthresh=3)
    sb.add_sack(5, 10)
    sb.update_lost(0)
    first = set(sb.lost)
    # new sack higher up marks more holes, never unmarks
    sb.add_sack(12, 20)
    sb.update_lost(0)
    assert first <= sb.lost
    assert 11 in sb.lost


def test_pipe_accounting():
    sb = Scoreboard(dupthresh=3)
    # 20 in flight, 5 sacked, 3 lost (not retx): pipe = 20-5-3
    sb.add_sack(10, 14)
    sb.update_lost(0)  # marks 0..11? no: limit=14-3=11, holes 0..9 -> lost
    lost_not_retx = len(sb.lost)
    assert sb.pipe(0, 20) == 20 - 5 - lost_not_retx


def test_retransmit_rejoins_pipe():
    sb = Scoreboard(dupthresh=3)
    sb.add_sack(4, 10)
    sb.update_lost(0)
    p0 = sb.pipe(0, 11)
    seq = sb.next_lost_to_retransmit(0)
    assert seq == 0
    sb.on_retransmit(seq)
    assert sb.pipe(0, 11) == p0 + 1


def test_next_lost_order_and_exhaustion():
    sb = Scoreboard(dupthresh=3)
    sb.add_sack(5, 10)
    sb.update_lost(0)
    got = []
    while True:
        s = sb.next_lost_to_retransmit(0)
        if s is None:
            break
        sb.on_retransmit(s)
        got.append(s)
    assert got == sorted(got)
    assert got[0] == 0


def test_sacked_lost_packet_is_revived():
    sb = Scoreboard(dupthresh=3)
    sb.add_sack(5, 10)
    sb.update_lost(0)
    assert 0 in sb.lost
    sb.add_sack(0, 0)  # it arrived after all (reordering)
    assert 0 not in sb.lost
    assert sb.pipe(0, 11) == 11 - sb.sacked_count() - len(
        [s for s in sb.lost if s not in sb.retransmitted]
    )


def test_ack_upto_clears_state():
    sb = Scoreboard(dupthresh=3)
    sb.add_sack(5, 10)
    sb.update_lost(0)
    sb.on_retransmit(0)
    sb.ack_upto(8)
    assert sb.sacked_count() == 3  # 8,9,10
    assert all(s >= 8 for s in sb.lost)
    assert all(s >= 8 for s in sb.retransmitted)


def test_mark_lost_range_skips_sacked():
    sb = Scoreboard()
    sb.add_sack(3, 4)
    n = sb.mark_lost_range(0, 6)
    assert n == 5
    assert 3 not in sb.lost and 4 not in sb.lost


def test_clear_resets_everything():
    sb = Scoreboard()
    sb.add_sack(3, 4)
    sb.update_lost(0)
    sb.clear()
    assert sb.sacked_count() == 0
    assert not sb.lost
    assert sb.pipe(0, 10) == 10


def test_inverted_sack_rejected():
    with pytest.raises(ValueError):
        Scoreboard().add_sack(5, 3)


# -- differential test against the frozen scan-based implementation ----------

SEQ_SPACE = 48
seqs = st.integers(0, SEQ_SPACE - 1)
spans = st.tuples(seqs, st.integers(0, 12))


class ScoreboardVsReference(RuleBasedStateMachine):
    """Any sequence of public calls leaves the scoreboard in the state the
    old whole-set scans would have produced."""

    def __init__(self):
        super().__init__()
        self.new = Scoreboard(dupthresh=3)
        self.ref = ReferenceScoreboard(dupthresh=3)
        self.una = 0

    @rule(span=spans)
    def add_sack(self, span):
        a, n = span
        self.new.add_sack(a, a + n)
        self.ref.add_sack(a, a + n)

    @rule(una=seqs)
    def ack_upto(self, una):
        self.una = una  # deliberately not monotone: the oracle accepts any
        self.new.ack_upto(una)
        self.ref.ack_upto(una)

    @rule()
    def update_lost(self):
        assert self.new.update_lost(self.una) == self.ref.update_lost(self.una)

    @rule()
    def retransmit_next(self):
        seq = self.new.next_lost_to_retransmit(self.una)
        assert seq == self.ref.next_lost_to_retransmit(self.una)
        if seq is not None:
            self.new.on_retransmit(seq)
            self.ref.on_retransmit(seq)

    @rule(seq=seqs)
    def on_retransmit(self, seq):
        self.new.on_retransmit(seq)
        self.ref.on_retransmit(seq)

    @rule(seq=seqs)
    def re_mark_lost(self, seq):
        assert self.new.re_mark_lost(seq) == self.ref.re_mark_lost(seq)

    @rule(seq=seqs)
    def mark_lost(self, seq):
        expect = not self.ref.is_sacked(seq) and self.ref._mark_lost(seq)
        assert self.new.mark_lost(seq) == expect

    @rule(span=spans)
    def mark_lost_range(self, span):
        a, n = span
        assert self.new.mark_lost_range(a, a + n) == self.ref.mark_lost_range(a, a + n)

    @rule()
    def clear(self):
        self.new.clear()
        self.ref.clear()

    @invariant()
    def same_observable_state(self):
        new, ref = self.new, self.ref
        assert new.lost == ref.lost
        assert new.retransmitted == ref.retransmitted
        assert new.highest_sacked() == ref.highest_sacked()
        assert new.sacked_count() == ref.sacked_count()
        for nxt in (self.una, self.una + 7, SEQ_SPACE + 16):
            assert new.pipe(self.una, nxt) == ref.pipe(self.una, nxt)
        assert new.next_lost_to_retransmit(self.una) == ref.next_lost_to_retransmit(
            self.una
        )

    @invariant()
    def documented_invariants(self):
        new = self.new
        assert not any(new.is_sacked(s) for s in new.lost)
        assert all(s >= new._floor for s in new.lost | new.retransmitted)
        # The counts the sender's straight path reads instead of calling
        # pipe / highest_sacked (DESIGN.md, "The TCP baseline").
        assert new._lost_not_retx == len(new.lost - new.retransmitted)
        assert (new._sacked == 0) == (new.highest_sacked() is None)


ScoreboardVsReference.TestCase.settings = settings(
    max_examples=300, stateful_step_count=60, deadline=None
)
TestScoreboardVsReference = ScoreboardVsReference.TestCase
