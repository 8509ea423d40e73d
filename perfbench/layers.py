"""Per-layer tracing for the traced benchmark run.

The benchmark records spans from its own files: :class:`LayerTracer`
replaces the public entry points of each ``repro`` layer with timing
wrappers *at class level*, before a scenario is built, and puts the
originals back afterwards.  Patching the class rather than an instance
matters because components cache bound methods when they are built
(``Link._finish_cb``, ``TcpPrSender._sweep_cb``, ``TcpSenderBase._rto_cb``),
so a later patch would miss every event dispatched through the cache.

A span's *self time* is its duration minus the time covered by the
wrapped spans it encloses; every second of a traced round therefore
lands in exactly one layer's self time or in the unattributed
remainder (benchmark bookkeeping, scenario wiring that no wrapper
covers).  The compiled engine overrides ``Link``/``Node`` in C, so on
that engine the ``net`` wrappers are not installed and that time is
part of ``sim.self_s``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

clock = time.perf_counter

#: (module, class or None for a module function, attribute, layer).  Calls
#: are counted under ``<layer>.<attribute>``.
_SPANS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.net.network", "Network", "run", "sim"),
    ("repro.routing.multipath", "EpsilonMultipathPolicy", "choose_route", "routing"),
    ("repro.routing.multipath", "FlowHashPolicy", "choose_route", "routing"),
    ("repro.routing.flap", "RouteFlapper", "choose_route", "routing"),
    ("repro.tcp.receiver", "TcpReceiver", "receive", "tcp.receiver"),
    ("repro.tcp.receiver", "TcpReceiver", "_delack_fire", "tcp.receiver"),
    ("repro.tcp.base", "TcpSenderBase", "receive", "tcp.sender"),
    ("repro.tcp.base", "TcpSenderBase", "_send_available", "tcp.sender"),
    ("repro.tcp.base", "TcpSenderBase", "_on_rto_fire", "tcp.sender"),
    ("repro.tcp.sack", "SackSender", "_send_available", "tcp.sender"),
    ("repro.core.pr", "TcpPrSender", "receive", "core.pr"),
    ("repro.core.pr", "TcpPrSender", "_sweep_drop_checks", "core.pr"),
    ("repro.core.pr", "TcpPrSender", "_flush_cwnd", "core.pr"),
    ("repro.topologies.dumbbell", "DumbbellSpec", "build", "topologies"),
    ("repro.topologies.multipath_mesh", "MultipathMeshSpec", "build", "topologies"),
    ("repro.topologies.fat_tree", "FatTreeSpec", "build", "topologies"),
    ("repro.scenarios.shard", None, "run_shard_cell", "scenarios.shard"),
    ("repro.scenarios.shard", "_ShardDriver", "_admit", "scenarios.shard"),
    ("repro.scenarios.shard", "_ShardDriver", "_reap_tick", "scenarios.shard"),
)

#: Pure-engine forwarding entry points; the compiled engine runs these in C.
_NET_SPANS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.net.link", "Link", "enqueue", "net.link"),
    ("repro.net.link", "Link", "_finish_transmission", "net.link"),
    ("repro.net.node", "Node", "receive", "net.node"),
    ("repro.net.node", "Node", "send", "net.node"),
)


class LayerTracer:
    """Span self times, call counts and the component instances seen.

    Use as a context manager around one traced round; ``span`` times a
    call the benchmark makes itself (trace reading, decoding, analysis).
    """

    def __init__(self, engine: Optional[str]) -> None:
        self.engine = engine
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: id -> instance for receivers/senders/networks touched by a span,
        #: so their public counters can be summed after the round.
        self.instances: Dict[str, Dict[int, Any]] = defaultdict(dict)
        self.ooo_hwm = 0
        self._stack: List[float] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        import importlib

        specs = _SPANS + (_NET_SPANS if self.engine == "pure" else ())
        for module_name, class_name, attr, layer in specs:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            self._patch(owner, attr, layer)
        from repro.scenarios.spec import ScenarioSpec

        original_flows = ScenarioSpec.flows
        tracer = self

        def flows(spec: Any) -> Iterator[Any]:
            return tracer._timed_iter(original_flows(spec), "scenarios.generate")

        self._patched.append((ScenarioSpec, "flows", original_flows))
        ScenarioSpec.flows = flows  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    def _close(self, layer: str, started: float) -> None:
        elapsed = clock() - started
        self.self_s[layer] += elapsed - self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed

    def span(self, layer: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Call ``fn(*args)`` inside a span attributed to ``layer``."""
        self._stack.append(0.0)
        started = clock()
        try:
            return fn(*args)
        finally:
            self._close(layer, started)

    def _patch(self, owner: Any, attr: str, layer: str) -> None:
        original = owner.__dict__[attr]
        key = f"{layer}.{attr}"
        tracer = self
        observe = self._observer(layer, attr)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer._stack.append(0.0)
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(layer, started)
                tracer.calls[key] += 1
                if observe is not None and args:
                    observe(args[0])

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _observer(self, layer: str, attr: str) -> Optional[Callable[[Any], None]]:
        """Bookkeeping run after a span closes (charged to the enclosing span)."""
        seen = self.instances[layer]
        if layer == "tcp.receiver" and attr == "receive":

            def receiver(obj: Any) -> None:
                seen[id(obj)] = obj
                buffered = obj.buffered_segments
                if buffered > self.ooo_hwm:
                    self.ooo_hwm = buffered

            return receiver
        if layer in ("sim", "tcp.sender", "core.pr"):
            return lambda obj: seen.setdefault(id(obj), obj)
        return None

    def _timed_iter(self, inner: Iterator[Any], layer: str) -> Iterator[Any]:
        done = object()
        while True:
            self._stack.append(0.0)
            started = clock()
            try:
                item = next(inner, done)
            finally:
                self._close(layer, started)
            if item is done:
                return
            yield item


def layer_metrics(tracer: LayerTracer, packets: int) -> Dict[str, float]:
    """The model layers' per-layer metrics from one traced round."""
    self_s = tracer.self_s
    calls = tracer.calls
    networks = tracer.instances["sim"].values()
    links = [link for net in networks for link in net.links.values()]
    receivers = tracer.instances["tcp.receiver"].values()
    tcp_senders = tracer.instances["tcp.sender"].values()
    pr_senders = [obj.stats for obj in tracer.instances["core.pr"].values()]
    pr_sent = sum(stats.data_packets_sent for stats in pr_senders)
    events = sum(net.sim.dispatched_events for net in networks)
    return {
        "sim.events": events,
        "sim.self_s": self_s["sim"],
        "sim.ns_per_event": self_s["sim"] / events * 1e9 if events else 0.0,
        "net.packets": packets,
        "net.link.enqueue_calls": sum(link.arrived_packets for link in links),
        "net.link.self_s": self_s["net.link"],
        "net.link.drops": sum(link.total_drops for link in links),
        "net.node.receive_calls": calls["net.node.receive"],
        "net.node.self_s": self_s["net.node"],
        "routing.choose_route_calls": calls["routing.choose_route"],
        "routing.self_s": self_s["routing"],
        "tcp.receiver.receive_calls": calls["tcp.receiver.receive"],
        "tcp.receiver.self_s": self_s["tcp.receiver"],
        "tcp.receiver.reordered_arrivals": sum(
            obj.reordered_arrivals for obj in receivers
        ),
        "tcp.receiver.ooo_hwm": tracer.ooo_hwm,
        "tcp.sender.self_s": self_s["tcp.sender"],
        "tcp.sender.retransmits": sum(obj.stats.retransmits for obj in tcp_senders),
        "core.pr.acks": sum(stats.acks_received for stats in pr_senders),
        "core.pr.self_s": self_s["core.pr"],
        "core.pr.drops_detected": sum(stats.drops_detected for stats in pr_senders),
        "core.pr.spurious_drops": sum(stats.spurious_drops for stats in pr_senders),
        "core.pr.useful_ratio": (
            sum(stats.packets_acked for stats in pr_senders) / pr_sent
            if pr_sent
            else 0.0
        ),
        "topologies.build_s": self_s["topologies"],
        "scenarios.generate_s": self_s["scenarios.generate"],
        "scenarios.shard_self_s": self_s["scenarios.shard"],
    }
