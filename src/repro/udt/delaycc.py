"""The abandoned delay-based design (§6, "lessons learned").

Early UDT used the PCT/PDT trend tests of Jain & Dovrolis's Pathload on
packet delays as a *supportive* congestion signal: a rising one-way-delay
trend triggers a rate decrease before any packet is lost.  The paper
kept the code out of the final protocol — delay measurements are noisy
on real end systems and correlate imperfectly with congestion — but
records that the design was "friendlier to TCP, but may lead to poor
throughputs on certain systems".

This module reproduces that obsolete design so the tradeoff can be
measured (the ``ablation-delay`` experiment; its claims are in
:mod:`repro.obs.claims`):

* the receiver tracks one-way-delay samples (sender timestamp vs arrival
  time) per SYN epoch;
* PCT (pairwise comparison test) and PDT (pairwise difference test) are
  applied to the sample window;
* when both report an increasing trend, a delay warning is fed to the
  congestion controller, which reacts like a (gentler) loss event.
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs import bus as OB
from repro.udt.cc import UdtNativeCC
from repro.udt.params import UdtConfig

#: Pathload decision thresholds (Jain & Dovrolis 2002).
PCT_THRESHOLD = 0.66
PDT_THRESHOLD = 0.55


def pct(samples: List[float]) -> float:
    """Pairwise Comparison Test: fraction of consecutive increases."""
    if len(samples) < 2:
        return 0.0
    inc = sum(1 for a, b in zip(samples, samples[1:]) if b > a)
    return inc / (len(samples) - 1)


def pdt(samples: List[float]) -> float:
    """Pairwise Difference Test: net drift over total variation."""
    if len(samples) < 2:
        return 0.0
    total = sum(abs(b - a) for a, b in zip(samples, samples[1:]))
    if total == 0:
        return 0.0
    return (samples[-1] - samples[0]) / total


def increasing_trend(samples: List[float]) -> bool:
    """Both tests agree the delay is trending upward."""
    return pct(samples) > PCT_THRESHOLD and pdt(samples) > PDT_THRESHOLD


class DelayTrendDetector:
    """Receiver-side one-way-delay trend detection per SYN epoch."""

    def __init__(self, window: int = 16, min_samples: int = 8):
        self.window = window
        self.min_samples = min_samples
        self._samples: List[float] = []
        self.warnings = 0

    def on_delay_sample(self, one_way_delay: float) -> None:
        self._samples.append(one_way_delay)
        if len(self._samples) > self.window:
            self._samples.pop(0)

    def check_and_reset(self) -> bool:
        """Called every SYN: True if a warning should be emitted."""
        if len(self._samples) < self.min_samples:
            return False
        trend = increasing_trend(self._samples)
        self._samples.clear()
        if trend:
            self.warnings += 1
        return trend


class DelayWarningCC(UdtNativeCC):
    """Native UDT control plus reaction to delay warnings.

    A warning halves the *increase* behaviour for a while by applying a
    single gentle decrease (x 8/9 of the rate, the same factor as loss)
    without freezing — early congestion avoidance, before loss occurs.
    """

    def __init__(self, config: UdtConfig):
        super().__init__(config)
        self.delay_decreases = 0

    def on_delay_warning(self) -> None:
        if self.slow_start:
            self._exit_slow_start()
        self.last_dec_period = self.period
        self.period *= 1.125
        if self.ctx is not None:
            self.last_dec_seq = self.ctx.max_seq_sent
        self.delay_decreases += 1
        self._emit(OB.CC_DELAY_WARNING, period=self.period)


def attach_delay_detection(flow, window: int = 16) -> DelayTrendDetector:
    """Wire the obsolete delay pipeline into a simulated UdtFlow.

    The receiver samples one-way delay from data-packet timestamps; every
    SYN it runs PCT/PDT and, on a detected rise, the *sender's*
    controller applies the early decrease (shortcut for the dedicated
    congestion-warning control packet of the obsolete design).
    """
    detector = DelayTrendDetector(window=window)
    receiver = flow.receiver
    sender = flow.sender
    if not isinstance(sender.cc, DelayWarningCC):
        raise TypeError("flow must use DelayWarningCC (cc_factory=DelayWarningCC)")

    original_on_data = receiver._on_data

    def tapped_on_data(pkt, now):
        if pkt.type_name == "data":
            send_time = receiver._start_time + pkt.ts / 1e6
            detector.on_delay_sample(now - send_time)
        original_on_data(pkt, now)

    receiver._on_data = tapped_on_data

    original_syn = receiver._on_syn_timer

    def tapped_syn():
        if detector.check_and_reset():
            sender.cc.on_delay_warning()
        original_syn()

    receiver._on_syn_timer = tapped_syn
    return detector
