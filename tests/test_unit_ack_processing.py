"""Micro-level ACK-processing tests: hand-crafted ACKs, no network RTT.

These pin the exact state transitions of Table 1 (TCP-PR) and the
Reno-family recovery logic, independent of queueing dynamics.
"""

import pytest

from repro.core.pr import CONG_AVOID, SLOW_START, PrConfig, TcpPrSender
from repro.net.network import Network, install_static_routes
from repro.net.packet import Packet
from repro.tcp.base import TcpConfig
from repro.tcp.reno import RenoSender
from repro.tcp.sack import SackSender


def _harness(sender_cls, **sender_kwargs):
    """A sender on an isolated node; we feed ACKs by hand."""
    net = Network(seed=0)
    net.add_nodes("snd", "rcv")
    net.add_duplex_link("snd", "rcv", bandwidth=1e9, delay=1e-6, queue=10_000)
    install_static_routes(net)
    sender = sender_cls(net.sim, net.node("snd"), 1, "rcv", **sender_kwargs)
    return net, sender


def _ack(ack, sack_blocks=None, dsack=None):
    return Packet("ack", "rcv", "snd", flow_id=1, ack=ack,
                  sack_blocks=sack_blocks, dsack=dsack)


# ----------------------------------------------------------------------
# TCP-PR (Table 1)
# ----------------------------------------------------------------------
def test_pr_initialization_matches_table1():
    net, sender = _harness(TcpPrSender)
    assert sender.mode == SLOW_START
    assert sender.cwnd == 1.0
    assert sender.ssthr == float("inf")
    assert not sender.memorize


def test_pr_ack_removes_cumulatively():
    net, sender = _harness(TcpPrSender)
    sender.start(0.0)
    net.run(until=0.0)  # sends segment 0 (cwnd = 1)
    assert sorted(sender.to_be_ack) == [0]
    net.sim.now = 0.03  # a plausible RTT elapses before the ACK
    sender.receive(_ack(1))
    assert 0 not in sender.to_be_ack
    assert sender.cwnd == 2.0  # slow start +1


def test_pr_sack_block_removes_out_of_order():
    net, sender = _harness(TcpPrSender, config=PrConfig(initial_cwnd=4.0))
    sender.start(0.0)
    net.run(until=0.0)  # sends 0..3
    assert sorted(sender.to_be_ack) == [0, 1, 2, 3]
    net.sim.now = 0.03
    # Dupack (ack=0) carrying SACK for segment 2 only.
    sender.receive(_ack(0, sack_blocks=[(2, 3)]))
    assert 2 not in sender.to_be_ack
    assert 0 in sender.to_be_ack  # cumulative point untouched
    assert sender.cwnd == pytest.approx(5.0)  # one acked packet, +1 (SS)


def test_pr_pure_dupack_is_ignored():
    net, sender = _harness(TcpPrSender, config=PrConfig(initial_cwnd=4.0))
    sender.start(0.0)
    net.run(until=0.0)
    cwnd_before = sender.cwnd
    sent_before = sender.stats.data_packets_sent
    for _ in range(5):
        sender.receive(_ack(0))  # no SACK info at all
    assert sender.cwnd == cwnd_before
    assert sender.stats.data_packets_sent == sent_before
    assert len(sender.to_be_ack) == 4


def test_pr_mode_transition_at_ssthr():
    net, sender = _harness(
        TcpPrSender, config=PrConfig(initial_cwnd=1.0, initial_ssthresh=2.0)
    )
    sender.start(0.0)
    net.run(until=0.0)
    net.sim.now = 0.03  # a plausible RTT before the first ACK, so the
    # resulting ewrtt (and mxrtt = 0.09) exceeds the little run below.
    sender.receive(_ack(1))  # cwnd 1 -> 2 (cwnd+1 <= ssthr)
    assert sender.mode == SLOW_START
    assert sender.cwnd == 2.0
    net.run(until=net.sim.now + 0.01)  # let it transmit the next window
    sender.receive(_ack(2))  # cwnd+1 > ssthr: CA, += 1/cwnd
    assert sender.mode == CONG_AVOID
    assert sender.cwnd == pytest.approx(2.5)


def test_pr_ewrtt_updates_per_acked_packet():
    net, sender = _harness(TcpPrSender, config=PrConfig(initial_cwnd=3.0))
    sender.start(0.0)
    net.run(until=0.0)
    assert sender.estimator.samples == 0
    net.sim.now = 0.05  # pretend 50 ms elapsed
    sender.receive(_ack(3))  # cumulative ACK for 0,1,2
    assert sender.estimator.samples == 3
    assert sender.ewrtt == pytest.approx(0.05)
    assert sender.mxrtt == pytest.approx(0.15)  # beta = 3


def test_pr_window_cut_and_memorize_snapshot():
    net, sender = _harness(TcpPrSender, config=PrConfig(initial_cwnd=8.0))
    sender.start(0.0)
    net.run(until=0.0)  # sends 0..7
    sender._declare_drop(0)
    assert sender.stats.window_cuts == 1
    assert sender.cwnd == pytest.approx(4.0)  # cwnd(n)/2 = 8/2
    assert sender.ssthr == pytest.approx(4.0)
    # memorize snapshots what was outstanding (minus the dropped packet
    # itself and anything just retransmitted/sent by the flush).
    assert 0 not in sender.memorize
    assert {1, 2, 3} <= sender.memorize


def test_pr_memorize_drop_does_not_cut_again():
    net, sender = _harness(TcpPrSender, config=PrConfig(initial_cwnd=8.0))
    sender.start(0.0)
    net.run(until=0.0)
    sender._declare_drop(0)
    cwnd_after_first = sender.cwnd
    sender._declare_drop(1)  # 1 is in memorize
    assert sender.cwnd == cwnd_after_first
    assert sender.stats.window_cuts == 1
    assert sender.stats.memorize_drops == 1
    assert sender.cburst == 1


def test_pr_ack_empties_memorize_and_resets_cburst():
    net, sender = _harness(TcpPrSender, config=PrConfig(initial_cwnd=4.0))
    sender.start(0.0)
    net.run(until=0.0)
    sender._declare_drop(0)
    sender._declare_drop(1)  # memorize drop -> cburst 1
    assert sender.cburst == 1
    sender.receive(_ack(0, sack_blocks=[(2, 4)]))  # clears 2 and 3
    assert not sender.memorize
    assert sender.cburst == 0


def test_pr_snapshot_excludes_dropped_packet():
    """Table 1 order: the dropped packet leaves to-be-ack *before* the
    memorize snapshot is taken."""
    net, sender = _harness(TcpPrSender, config=PrConfig(initial_cwnd=4.0))
    sender.start(0.0)
    net.run(until=0.0)
    sender._declare_drop(2)
    assert 2 not in sender.memorize


@pytest.mark.parametrize(
    "ack, sack_blocks", [(0, [(1, 2)]), (2, None)], ids=["sack", "cumulative"]
)
def test_pr_ack_cancels_pending_retransmission(ack, sack_blocks):
    """A declared drop the receiver turns out to hold leaves to-be-sent,
    counts once as spurious, and is never resent."""
    net, sender = _harness(TcpPrSender, config=PrConfig(initial_cwnd=4.0))
    sender.start(0.0)
    net.run(until=0.0)  # sends 0..3
    net.sim.now = 0.03
    # cwnd 4 -> 2 with 0, 2 and 3 still in flight: the resend must wait.
    sender._declare_drop(1)
    assert sender.to_be_sent == [1]
    sender.receive(_ack(ack, sack_blocks=sack_blocks))
    assert sender.to_be_sent == []
    assert sender.stats.spurious_drops == 1
    net.sim.now = 0.06
    sender.receive(_ack(4))  # acks the rest; the window reopens
    sender.receive(_ack(sender.snd_nxt))
    assert sender.stats.spurious_drops == 1
    assert sender.stats.retransmits == 0
    assert sender.stats.data_packets_sent == sender.snd_nxt
    assert 1 not in sender.to_be_ack


def test_pr_karn_rule_skips_retransmitted_samples():
    """The ACK of a retransmission leaves ewrtt alone (its RTT sample is
    ambiguous); the ACK of a fresh segment updates it."""
    net, sender = _harness(TcpPrSender)
    sender.start(0.0)
    net.run(until=0.0)  # sends 0
    net.sim.now = 0.05
    sender.receive(_ack(1))  # fresh: ewrtt = 0.05; cwnd 2 sends 1, 2
    assert sorted(sender.to_be_ack) == [1, 2]
    net.sim.now = 0.06
    sender._declare_drop(2)  # cwnd 2 -> 1; 1 still fills the window
    net.sim.now = 0.07
    sender.receive(_ack(2))  # acks 1; the window reopens and 2 is resent
    assert sender.stats.retransmits == 1
    assert sender.to_be_ack[2][4], "the resend carries the Karn flag"
    samples, ewrtt = sender.estimator.samples, sender.ewrtt
    net.sim.now = 0.5  # a long, ambiguous "RTT" for the resent 2
    sender.receive(_ack(3))
    assert sender.estimator.samples == samples
    assert sender.ewrtt == ewrtt
    sent_time, _, _, _, retransmitted = sender.to_be_ack[3]
    assert not retransmitted  # 3 went out fresh
    net.sim.now = 0.6
    sender.receive(_ack(4))
    assert sender.estimator.samples == samples + 1
    # Max-tracking: the longer fresh sample becomes the new ewrtt.
    assert sender.ewrtt == pytest.approx(0.6 - sent_time)
    assert sender.ewrtt > ewrtt


def test_pr_zero_rtt_sample_does_not_deadlock():
    """Regression: a degenerate zero-RTT sample once made mxrtt = 0 and
    spun the declare/retransmit loop at a single timestamp forever.  The
    min_mxrtt floor keeps the simulation advancing."""
    net, sender = _harness(TcpPrSender)
    sender.start(0.0)
    net.run(until=0.0)
    sender.receive(_ack(1))  # instant ACK: RTT sample of exactly zero
    assert sender.mxrtt > 0.0
    # Without the floor this run never returned (events at one instant).
    net.run(until=0.05, max_events=200_000)
    assert net.sim.now == pytest.approx(0.05)


# ----------------------------------------------------------------------
# Reno / SACK recovery details
# ----------------------------------------------------------------------
def test_reno_enters_recovery_on_third_dupack():
    net, sender = _harness(
        RenoSender, config=TcpConfig(initial_cwnd=8.0, initial_ssthresh=64)
    )
    sender.start(0.0)
    net.run(until=0.0)  # 8 segments out
    for i in range(2):
        sender.receive(_ack(0))
        assert not sender.in_recovery
    sender.receive(_ack(0))  # third dupack
    assert sender.in_recovery
    assert sender.stats.fast_retransmits == 1
    assert sender.ssthresh == pytest.approx(4.0)


def test_reno_inflation_and_exit():
    net, sender = _harness(
        RenoSender, config=TcpConfig(initial_cwnd=8.0, initial_ssthresh=64)
    )
    sender.start(0.0)
    net.run(until=0.0)
    for _ in range(3):
        sender.receive(_ack(0))
    cwnd_at_entry = sender.cwnd  # ssthresh + 3
    sender.receive(_ack(0))  # extra dupack inflates
    assert sender.cwnd == pytest.approx(cwnd_at_entry + 1)
    sender.receive(_ack(8))  # new ACK: classic Reno exits
    assert not sender.in_recovery
    assert sender.cwnd == pytest.approx(sender.ssthresh)


def test_sack_recovery_uses_scoreboard_not_dupack_count():
    """RFC 3517: recovery can trigger via IsLost(snd_una) even if the
    literal dupack count is below dupthresh (e.g. ACK loss)."""
    net, sender = _harness(
        SackSender, config=TcpConfig(initial_cwnd=10.0, initial_ssthresh=64)
    )
    sender.start(0.0)
    net.run(until=0.0)
    # One dupack whose SACK blocks already report 3 segments above 0.
    sender.receive(_ack(0, sack_blocks=[(2, 5)]))
    assert sender.in_recovery
    assert sender.stats.fast_retransmits == 1


def test_sack_exit_on_recovery_point():
    net, sender = _harness(
        SackSender, config=TcpConfig(initial_cwnd=6.0, initial_ssthresh=64)
    )
    sender.start(0.0)
    net.run(until=0.0)  # 0..5 out, snd_max = 6
    sender.receive(_ack(0, sack_blocks=[(1, 4)]))
    assert sender.in_recovery
    recovery_point = sender.recovery_point
    sender.receive(_ack(recovery_point - 1))  # partial: still in recovery
    assert sender.in_recovery
    sender.receive(_ack(recovery_point + 2))
    assert not sender.in_recovery
