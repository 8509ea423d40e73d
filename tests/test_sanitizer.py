"""Runtime invariant sanitizer: ``Simulator(sanitize=True)``.

Two halves:

* Clean runs stay clean — a seeded fairness cell runs to completion
  under the sanitizer, and a single-flow run produces bit-identical
  sender state with the sanitizer on and off (the checks observe, never
  perturb).
* Each invariant actually fires — a deliberately corrupted sender or
  engine trips the named :class:`InvariantViolation` when the
  simulation continues.

Corruptions are applied mid-run (after 1 s of traffic, so the window is
populated and ACKs keep arriving to drive the checks), then the run is
resumed with ``sim.sanitize = True``.
"""

import dataclasses
import heapq
from bisect import insort

import pytest

from repro.app.bulk import BulkTransfer
from repro.core.pr import PrConfig
from repro.experiments.runner import build_fairness_scenario, run_fairness_scenario
from repro.net.network import Network, install_static_routes
from repro.sim.errors import InvariantViolation
from repro.tcp.receiver import TcpReceiver
from repro.tcp.registry import make_sender
from repro.topologies.multipath_mesh import (
    MultipathMeshSpec,
    install_epsilon_routing,
)

from conftest import make_reordering_flow


@pytest.fixture(autouse=True)
def _both_engines(engine):
    """Run the whole module once per hot-core build: the sanitizer's
    checks (and the corruptions that trip them) must behave identically
    on the pure and compiled engines."""


def _single_flow(seed=0, sanitize=False):
    """One TCP-PR flow over a clean 2 Mbps / 10 ms link."""
    net = Network(seed=seed)
    net.add_nodes("snd", "rcv")
    net.add_duplex_link("snd", "rcv", bandwidth=2e6, delay=0.01, queue=50)
    install_static_routes(net)
    sender = make_sender("tcp-pr", net.sim, net.node("snd"), 1, "rcv")
    TcpReceiver(net.sim, net.node("rcv"), 1, "snd")
    net.sim.sanitize = sanitize
    sender.start(0.0)
    return net, sender


# ----------------------------------------------------------------------
# Clean runs
# ----------------------------------------------------------------------
def test_fairness_cell_runs_clean_under_sanitizer():
    scenario = build_fairness_scenario(topology="dumbbell", total_flows=4, seed=3)
    scenario.network.sim.sanitize = True
    result = run_fairness_scenario(scenario, duration=15.0, measure_window=10.0)
    assert result.mean_normalized  # completed and produced metrics


def _multipath_cell():
    """The ε-multipath Figure 6 TCP-PR cell: data and ACKs reordered."""
    network = MultipathMeshSpec(link_delay=0.01, seed=0).build().network
    install_epsilon_routing(network, epsilon=0.01, reorder_acks=True)
    flow = BulkTransfer(network, "tcp-pr", "src", "dst", flow_id=1)
    network.sim.sanitize = True
    network.run(until=3.0)
    assert flow.delivered_bytes() > 0


def _beta1_reordering_flow():
    """beta=1 over two paths: spurious declarations, some cancelled."""
    net, sender, _ = make_reordering_flow(
        pr_config=PrConfig(beta=1.0, initial_ssthresh=64)
    )
    net.sim.sanitize = True
    net.run(until=10.0)
    stats = sender.stats
    assert stats.spurious_drops > 0
    # Each declaration is resent, cancelled or still pending: never two.
    assert stats.drops_detected == (
        stats.retransmits + stats.spurious_drops + len(sender.to_be_sent)
    )


@pytest.mark.parametrize(
    "run_cell",
    [_multipath_cell, _beta1_reordering_flow],
    ids=["fig6-multipath", "beta1-reordering"],
)
def test_reordered_cell_runs_clean_under_sanitizer(run_cell):
    """Out-of-order and stale lower ACKs keep every list at or above
    cum_ack (pr-window-floor) and the lists disjoint."""
    run_cell()


def test_sanitizer_does_not_perturb_results():
    runs = []
    for sanitize in (False, True):
        net, sender = _single_flow(seed=7, sanitize=sanitize)
        net.run(until=10.0)
        runs.append(
            (
                dataclasses.asdict(sender.stats),
                sender.cwnd,
                sender.cum_ack,
                sender.snd_nxt,
                sorted(sender.to_be_ack),
            )
        )
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# Corruption detection — TCP-PR structural invariants (Tables 1-2)
# ----------------------------------------------------------------------
def _corrupt_and_resume(corrupt):
    net, sender = _single_flow(seed=1)
    net.run(until=1.0)
    assert sender.to_be_ack, "window should be populated after 1 s"
    corrupt(net, sender)
    net.sim.sanitize = True
    with pytest.raises(InvariantViolation) as excinfo:
        net.run(until=3.0)
    return excinfo.value


def test_detects_list_overlap():
    def corrupt(net, sender):
        # Highest in-flight seq: survives lower-seq ACKs uncancelled,
        # and the flight exceeds cwnd at 1 s, so no flush resends it
        # before the next check.
        insort(sender.to_be_sent, max(sender.to_be_ack))

    assert _corrupt_and_resume(corrupt).invariant == "pr-list-disjoint"


@pytest.mark.parametrize("listed_in", ["to_be_ack", "to_be_sent"])
def test_detects_entry_below_cumulative_ack(listed_in):
    def corrupt(net, sender):
        # An entry the cumulative range scan (which starts at cum_ack)
        # can never reach again.
        seq = sender.cum_ack - 1
        if listed_in == "to_be_ack":
            sender.to_be_ack[seq] = sender.to_be_ack[max(sender.to_be_ack)]
        else:
            insort(sender.to_be_sent, seq)

    assert _corrupt_and_resume(corrupt).invariant == "pr-window-floor"


def test_detects_memorize_stray():
    def corrupt(net, sender):
        sender.memorize.add(999999)

    assert _corrupt_and_resume(corrupt).invariant == "pr-memorize-subset"


def test_detects_missed_cburst_reset():
    def corrupt(net, sender):
        sender.memorize.clear()
        sender.cburst = 5

    assert _corrupt_and_resume(corrupt).invariant == "pr-cburst-reset"


def test_detects_missed_extreme_loss_trigger():
    def corrupt(net, sender):
        sender.memorize = {max(sender.to_be_ack)}
        sender.cburst = 10000
        sender._extreme_active = False

    assert _corrupt_and_resume(corrupt).invariant == "pr-cburst-bound"


def test_detects_cwnd_below_floor():
    def corrupt(net, sender):
        # Far enough below 1 that per-ACK growth can't heal it before
        # the check runs.
        sender.cwnd = -50.0

    assert _corrupt_and_resume(corrupt).invariant == "pr-cwnd-floor"


def test_detects_non_max_tracking_estimator():
    def corrupt(net, sender):
        # An estimator that returns less than its own sample violates
        # the paper's max-tracking ewrtt definition.
        sender.estimator.observe = lambda sample, cwnd: sample * 0.5

    assert _corrupt_and_resume(corrupt).invariant == "ewrtt-max-tracking"


# ----------------------------------------------------------------------
# Corruption detection — engine invariants
# ----------------------------------------------------------------------
def test_detects_clock_regression():
    def corrupt(net, sender):
        net.sim.now = 1e9  # every pending event is now in the past

    assert _corrupt_and_resume(corrupt).invariant == "heap-time-monotonic"


def test_detects_live_counter_drift():
    def corrupt(net, sender):
        # A raw heap entry smuggled in without bumping _live is caught
        # by the run()-entry audit.  Smuggled by *assignment* rather
        # than in-place heappush: the compiled engine materializes
        # ``_heap`` on read, so only the setter reaches its real heap
        # (the assignment form corrupts both engine builds equally).
        heap = net.sim._heap
        heapq.heappush(heap, (1.5, 10**9, (lambda: None), None, "bogus"))
        net.sim._heap = heap

    assert _corrupt_and_resume(corrupt).invariant == "live-counter"


def test_sanitize_off_misses_the_same_corruption():
    """The flag gates the checks: the same corrupted state runs
    (wrongly) to completion without it."""
    net, sender = _single_flow(seed=1)
    net.run(until=1.0)
    sender.memorize.add(999999)
    net.run(until=3.0)  # no InvariantViolation
    assert 999999 in sender.memorize
