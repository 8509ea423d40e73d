"""Shared test fixtures: a two-node flow harness with scriptable loss,
plus a per-test wall-clock ceiling (pytest-timeout, with a SIGALRM
fallback when the plugin is not installed)."""

from __future__ import annotations

import importlib.util
import signal
from dataclasses import dataclass
from typing import Optional

import pytest

_HAVE_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None


def pytest_addoption(parser):
    if not _HAVE_PYTEST_TIMEOUT:
        # Claim the ini key pytest-timeout would own, so `timeout = 120`
        # in pytest.ini works (and warns about nothing) either way.
        parser.addini(
            "timeout",
            "per-test wall-clock ceiling in seconds "
            "(pytest-timeout compatible; SIGALRM fallback)",
            default="0",
        )


if not _HAVE_PYTEST_TIMEOUT and hasattr(signal, "SIGALRM"):

    @pytest.fixture(autouse=True)
    def _test_deadline(request):
        """Fail any test that exceeds the configured wall-clock budget.

        The sweep runner only ever arms SIGALRM inside pool *workers*
        (never in this process), so the parent-side alarm here cannot
        collide with a cell timeout.
        """
        limit = float(request.config.getini("timeout") or 0)
        marker = request.node.get_closest_marker("timeout")
        if marker is not None and marker.args:
            limit = float(marker.args[0])
        if limit <= 0:
            yield
            return

        def _on_alarm(signum, frame):
            raise TimeoutError(
                f"test exceeded the {limit:g}s wall-clock ceiling"
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

from repro.core import engine_select
from repro.core.pr import PrConfig, TcpPrSender
from repro.net.lossgen import LossModel
from repro.net.network import Network, install_static_routes
from repro.routing.multipath import EpsilonMultipathPolicy
from repro.tcp.base import TcpConfig
from repro.tcp.receiver import TcpReceiver
from repro.tcp.registry import make_sender


@dataclass
class Flow:
    """A sender/receiver pair over a single duplex link."""

    network: Network
    sender: object
    receiver: TcpReceiver

    def run(self, until: float) -> None:
        self.network.run(until=until)

    @property
    def delivered(self) -> int:
        return self.receiver.delivered


def make_flow(
    variant: str,
    data_loss: Optional[LossModel] = None,
    ack_loss: Optional[LossModel] = None,
    bandwidth: float = 1e6,
    delay: float = 0.01,
    queue: int = 100,
    tcp_config: Optional[TcpConfig] = None,
    pr_config: Optional[PrConfig] = None,
    receiver_sack: bool = True,
    receiver_dsack: bool = True,
    seed: int = 0,
    start_at: float = 0.0,
) -> Flow:
    """Build a one-link flow with optional scripted loss on either path.

    Default link: 1 Mbps / 10 ms, so a 1000 B segment serializes in 8 ms
    and the no-queue RTT is ~28 ms (data serialization + 2x propagation).
    """
    net = Network(seed=seed)
    net.add_nodes("snd", "rcv")
    net.add_duplex_link(
        "snd",
        "rcv",
        bandwidth=bandwidth,
        delay=delay,
        queue=queue,
        loss_model=data_loss,
        reverse_loss_model=ack_loss,
    )
    install_static_routes(net)
    sender = make_sender(
        variant,
        net.sim,
        net.node("snd"),
        1,
        "rcv",
        tcp_config=tcp_config,
        pr_config=pr_config,
    )
    receiver = TcpReceiver(
        net.sim,
        net.node("rcv"),
        1,
        "snd",
        sack=receiver_sack,
        dsack=receiver_dsack,
    )
    sender.start(start_at)
    return Flow(network=net, sender=sender, receiver=receiver)


def make_reordering_flow(pr_config=None, seed=0, paths=2, bandwidth=1e7):
    """A TCP-PR flow over two disjoint paths with ε=0 routing.

    The paths have different propagation delays, so per-packet random
    path choice persistently reorders both data and ACKs — the paper's
    core scenario — without any packet loss (queues are deep).
    """
    net = Network(seed=seed)
    net.add_nodes("snd", "rcv")
    for k in range(paths):
        mids = [f"p{k}m{i}" for i in range(k + 1)]
        for m in mids:
            net.add_node(m)
        chain = ["snd", *mids, "rcv"]
        for u, v in zip(chain, chain[1:]):
            net.add_duplex_link(u, v, bandwidth=bandwidth, delay=0.01, queue=10_000)
    install_static_routes(net)
    EpsilonMultipathPolicy(net, "snd", epsilon=0.0, destinations=["rcv"]).install()
    EpsilonMultipathPolicy(net, "rcv", epsilon=0.0, destinations=["snd"]).install()
    sender = TcpPrSender(net.sim, net.node("snd"), 1, "rcv", pr_config)
    receiver = TcpReceiver(net.sim, net.node("rcv"), 1, "snd")
    sender.start(0.0)
    return net, sender, receiver


@pytest.fixture
def flow_factory():
    return make_flow


#: Both hot-core builds (docs/COMPILED.md).  Suites that assert
#: build-independent behavior — the golden-seed gate, the sanitizer —
#: request the ``engine`` fixture to run once per build; the compiled
#: leg auto-skips on checkouts without the C extension.
ENGINE_PARAMS = [
    "pure",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(
            not engine_select.compiled_available(),
            reason="compiled extension not built "
            f"(`{engine_select.BUILD_HINT}`)",
        ),
    ),
]


@pytest.fixture(params=ENGINE_PARAMS)
def engine(request):
    """Force one engine build for the duration of a test."""
    with engine_select.use_engine(request.param):
        yield request.param
