"""Behavioural tests for TCP-PR (Section 3 of the paper)."""

import pytest

from repro.core.pr import CONG_AVOID, SLOW_START, PrConfig
from repro.net.lossgen import BernoulliLoss, DeterministicLoss
from repro.core import TcpPrSender

from conftest import make_flow, make_reordering_flow


# ----------------------------------------------------------------------
# Basics
# ----------------------------------------------------------------------
def test_bulk_transfer_completes():
    flow = make_flow("tcp-pr", pr_config=PrConfig(total_segments=50))
    flow.run(until=10.0)
    assert flow.delivered == 50
    assert flow.sender.done


def test_no_loss_no_retransmits_and_no_cuts():
    flow = make_flow("tcp-pr", pr_config=PrConfig(initial_ssthresh=32))
    flow.run(until=10.0)
    stats = flow.sender.stats
    assert stats.retransmits == 0
    assert stats.window_cuts == 0
    assert stats.drops_detected == 0
    # 1 Mbps = 125 seg/s; expect near-full utilization.
    assert flow.delivered >= 0.85 * 125 * 10


def test_slow_start_then_congestion_avoidance():
    flow = make_flow(
        "tcp-pr", bandwidth=1e8, delay=0.05, pr_config=PrConfig(initial_ssthresh=8)
    )
    flow.run(until=1.0)
    sender = flow.sender
    assert sender.mode == CONG_AVOID
    assert sender.cwnd >= 8.0
    # CA growth is ~1/RTT: far below doubling.
    assert sender.cwnd < 30.0


def test_starts_in_slow_start_with_infinite_ssthr():
    flow = make_flow("tcp-pr")
    assert flow.sender.mode == SLOW_START
    assert flow.sender.ssthr == float("inf")
    assert flow.sender.cwnd == 1.0


def test_mxrtt_tracks_beta_times_ewrtt():
    flow = make_flow("tcp-pr", pr_config=PrConfig(beta=3.0, initial_ssthresh=16))
    flow.run(until=5.0)
    sender = flow.sender
    assert sender.ewrtt is not None
    assert sender.mxrtt == pytest.approx(3.0 * sender.ewrtt)
    # ewrtt upper-bounds the no-queue RTT (28 ms on this link).
    assert sender.ewrtt >= 0.027


def test_flight_never_exceeds_window():
    flow = make_flow("tcp-pr", pr_config=PrConfig(initial_ssthresh=16))
    flow.run(until=3.0)
    sender = flow.sender
    # flush-cwnd sends while cwnd > |to-be-ack|, so at rest the flight is
    # at most cwnd (the last send can push it to ceil(cwnd)).
    assert len(sender.to_be_ack) <= sender.cwnd + 1


# ----------------------------------------------------------------------
# Timer-based loss detection
# ----------------------------------------------------------------------
def test_single_loss_detected_and_window_halved_once():
    flow = make_flow(
        "tcp-pr",
        data_loss=DeterministicLoss([40]),
        pr_config=PrConfig(initial_ssthresh=16),
    )
    flow.run(until=10.0)
    stats = flow.sender.stats
    assert stats.drops_detected == 1
    assert stats.retransmits == 1
    assert stats.window_cuts == 1
    assert stats.extreme_events == 0
    assert flow.delivered > 800  # flow kept running


def test_detection_latency_is_roughly_mxrtt():
    """The drop of a packet is declared no earlier than mxrtt after its
    send, and not much later."""
    pr_config = PrConfig(beta=3.0, initial_ssthresh=16)
    flow = make_flow("tcp-pr", data_loss=DeterministicLoss([40]), pr_config=pr_config)
    sender = flow.sender

    detection_times = []
    original = sender._declare_drop

    def spy(seq):
        detection_times.append((flow.network.sim.now, seq, sender.to_be_ack[seq][0]))
        original(seq)

    sender._declare_drop = spy
    flow.run(until=10.0)
    assert len(detection_times) == 1
    detected_at, _seq, sent_at = detection_times[0]
    elapsed = detected_at - sent_at
    # At least mxrtt (at arming time) and at most ~2 mxrtt after sending.
    assert elapsed >= 3.0 * 0.028 * 0.9
    assert elapsed < 2.0


def test_burst_of_losses_cuts_window_once():
    """The memorize list ensures one cut per loss event (like NewReno)."""
    flow = make_flow(
        "tcp-pr",
        data_loss=DeterministicLoss([40, 41, 42]),
        pr_config=PrConfig(initial_ssthresh=20),
    )
    flow.run(until=10.0)
    stats = flow.sender.stats
    assert stats.drops_detected == 3
    assert stats.window_cuts == 1
    assert stats.memorize_drops == 2


def test_memorize_disabled_cuts_per_drop():
    flow = make_flow(
        "tcp-pr",
        data_loss=DeterministicLoss([40, 41, 42]),
        pr_config=PrConfig(initial_ssthresh=20, enable_memorize=False),
    )
    flow.run(until=10.0)
    assert flow.sender.stats.window_cuts == 3


def test_halving_uses_cwnd_at_send_time():
    """cwnd(n)/2 halving: the cut lands at half the window recorded when
    the lost packet was sent, regardless of growth since."""
    flow = make_flow(
        "tcp-pr",
        data_loss=DeterministicLoss([40]),
        pr_config=PrConfig(initial_ssthresh=16),
    )
    sender = flow.sender
    cuts = []
    original = sender._new_drop

    def spy(seq, cwnd_at_send):
        before = sender.cwnd
        original(seq, cwnd_at_send)
        cuts.append((before, cwnd_at_send, sender.cwnd))

    sender._new_drop = spy
    flow.run(until=10.0)
    assert len(cuts) == 1
    _before, at_send, after = cuts[0]
    assert after == pytest.approx(max(at_send / 2.0, 1.0))


def test_ack_loss_robustness():
    """TCP-PR must not misbehave under heavy ACK loss (Section 3: it does
    not distinguish data losses from ACK losses)."""
    import random

    flow = make_flow(
        "tcp-pr",
        ack_loss=BernoulliLoss(0.3, random.Random(5)),  # lint: allow-module-random(fixed-seed fixture stream; the literal seed keeps the test deterministic)
        pr_config=PrConfig(initial_ssthresh=16),
    )
    flow.run(until=10.0)
    assert flow.delivered >= 0.7 * 125 * 10
    # ACK loss alone causes no (or almost no) spurious window cuts.
    assert flow.sender.stats.window_cuts <= 2


# ----------------------------------------------------------------------
# Reordering robustness (the headline property)
# ----------------------------------------------------------------------
def test_no_window_cuts_under_pure_reordering():
    net, sender, receiver = make_reordering_flow(
        pr_config=PrConfig(initial_ssthresh=64)
    )
    net.run(until=10.0)
    assert receiver.reordered_arrivals > 50, "scenario must actually reorder"
    assert sender.stats.window_cuts == 0
    assert sender.stats.extreme_events == 0
    assert sender.stats.retransmits == 0


def test_throughput_high_under_reordering():
    net, sender, receiver = make_reordering_flow(
        pr_config=PrConfig(initial_ssthresh=64)
    )
    net.run(until=10.0)
    # Two 10 Mbps paths used 50/50: aggregate capacity 20 Mbps = 2500 seg/s.
    assert receiver.delivered >= 0.6 * 2500 * 10


def test_small_beta_causes_spurious_detections_but_no_deadlock():
    """beta=1 makes mxrtt == ewrtt: reordered stragglers get declared
    dropped spuriously and throughput suffers badly (Figure 4's beta=1
    regime), but the sender must keep making progress."""
    net, sender, receiver = make_reordering_flow(
        pr_config=PrConfig(beta=1.0, initial_ssthresh=64)
    )
    net.run(until=10.0)
    assert sender.stats.drops_detected > 0
    assert sender.stats.window_cuts > 0, "spurious drops must cut the window"
    assert receiver.delivered > 100  # degraded, but no deadlock
    healthy = make_reordering_flow(pr_config=PrConfig(beta=3.0, initial_ssthresh=64))
    healthy[0].run(until=10.0)
    assert healthy[2].delivered > 3 * receiver.delivered


def test_pure_cumulative_ablation_degrades():
    """With use_sack_accounting=False (the literal pseudo-code against a
    cumulative-only receiver), a single loss makes the timers of every
    packet above the hole expire too: a storm of spurious drop
    declarations that costs real throughput (most of the redundant
    retransmissions are cancelled in time, but the window collapses)."""
    kwargs = dict(data_loss=DeterministicLoss([40]), bandwidth=1e7, queue=25)
    pure = make_flow(
        "tcp-pr",
        pr_config=PrConfig(initial_ssthresh=64, use_sack_accounting=False),
        **kwargs,
    )
    pure.run(until=10.0)
    sacked = make_flow(
        "tcp-pr", pr_config=PrConfig(initial_ssthresh=64), **kwargs
    )
    sacked.run(until=10.0)
    # The cascade multiplies detections well beyond the real loss count
    # (the shallow queue also causes some genuine sawtooth losses, which
    # both flows see alike).
    assert pure.sender.stats.drops_detected > 3 * sacked.sender.stats.drops_detected
    assert pure.sender.stats.spurious_drops > 0
    assert sacked.sender.stats.spurious_drops == 0
    assert pure.delivered < 0.8 * sacked.delivered


# ----------------------------------------------------------------------
# Extreme losses (Section 3.2)
# ----------------------------------------------------------------------
def test_blackout_triggers_extreme_loss_and_backoff():
    flow = make_flow(
        "tcp-pr",
        data_loss=DeterministicLoss(range(30, 3000)),
        pr_config=PrConfig(initial_ssthresh=32),
    )
    flow.run(until=20.0)
    stats = flow.sender.stats
    assert stats.extreme_events >= 1
    assert stats.backoff_doublings >= 1
    assert flow.sender.cwnd == 1.0
    assert flow.sender.mode == SLOW_START


def test_extreme_loss_inflates_mxrtt_to_at_least_one_second():
    flow = make_flow(
        "tcp-pr",
        data_loss=DeterministicLoss(range(30, 3000)),
        pr_config=PrConfig(initial_ssthresh=32),
    )
    sender = flow.sender
    observed = []
    original = sender._extreme_loss

    def spy():
        original()
        observed.append(sender.mxrtt)

    sender._extreme_loss = spy
    flow.run(until=20.0)
    assert observed, "extreme loss must have triggered"
    assert observed[0] >= 1.0


def test_recovery_after_blackout():
    flow = make_flow(
        "tcp-pr",
        data_loss=DeterministicLoss(range(30, 45)),
        pr_config=PrConfig(initial_ssthresh=32),
    )
    flow.run(until=30.0)
    assert flow.delivered > 500
    assert flow.sender.stats.drops_detected >= 10


def test_extreme_disabled_by_config():
    flow = make_flow(
        "tcp-pr",
        data_loss=DeterministicLoss(range(30, 300)),
        pr_config=PrConfig(initial_ssthresh=32, extreme_loss_enabled=False),
    )
    flow.run(until=20.0)
    assert flow.sender.stats.extreme_events == 0


def test_flight_invariant_holds_throughout_run():
    """flush-cwnd discipline sampled during a lossy, contended run: the
    in-flight set never exceeds the window by more than the final send."""
    flow = make_flow(
        "tcp-pr",
        data_loss=DeterministicLoss([40, 41, 90, 200]),
        pr_config=PrConfig(initial_ssthresh=24),
    )
    sender = flow.sender
    violations = []

    def check():
        # In-flight may transiently exceed a freshly-halved cwnd (those
        # packets were sent under the old window and must drain), but it
        # can never exceed the historical peak window or the receiver
        # window: packets are only *sent* when the window allows.
        limit = min(
            max(sender.stats.cwnd_peak, sender.cwnd),
            float(sender.config.receiver_window),
        )
        if len(sender.to_be_ack) > limit + 1:
            violations.append((flow.network.sim.now, len(sender.to_be_ack), limit))
        flow.network.sim.schedule_in(0.05, check)

    flow.network.sim.schedule(0.1, check)
    flow.run(until=15.0)
    assert not violations, violations[:5]


def test_done_and_stats_consistency():
    flow = make_flow("tcp-pr", pr_config=PrConfig(total_segments=30))
    flow.run(until=10.0)
    sender = flow.sender
    assert sender.done
    assert sender.stats.packets_acked >= 30
    assert sender.stats.data_packets_sent >= 30
    assert not sender.to_be_ack
