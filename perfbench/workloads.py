"""The five benchmark workloads.

Each workload builds its inputs from the run's ``--seed`` and hands the
program only those inputs.  ``build`` is the per-round set-up (also what
the fresh-interpreter ``setup_s`` probe times), ``run`` is the timed
phase, and ``outcome`` summarizes what the program produced so every
round can be checked and digested.  Why each workload exists is in
``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Simulated seconds per round.  Sized so that a pure-engine round takes
#: 0.5-1.3 s on a 2-vCPU Xeon host and a 15 s run holds at least three
#: rounds of each of its three scenarios.
FIG2_DURATION = 10.0
FIG6_DURATION = 3.0
SCALE_DURATION = 6.0
#: Simulated seconds of the traced fig6 cell behind ``trace_analyze``:
#: about 100k ``repro.obs/v1`` trace records, which spans the 10k-100k
#: event range where the analyzer's events/s falls off.
TRACE_DURATION = 24.0

#: Worker processes for the sharded workload (the host has 2 cores).
SCALE_JOBS = min(2, os.cpu_count() or 1)
SCALE_SHARDS = 4
#: Finite-variance tail.  At the generator's default shape of 1.3 one
#: seed in twenty draws a multi-million-segment flow, and the work per
#: seed spreads three times wider than any regression bound could hold.
SCALE_PARETO_SHAPE = 2.0


def digest(value: Any) -> str:
    """Stable short hash of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    """One benchmark workload (see the module docstring for the protocol)."""

    name = ""
    engine = "pure"
    #: Scenarios (seeds) one run rotates its rounds through.
    scenarios = 3
    #: Outcome keys counted by ``flows_per_s`` and ``records_per_s``.
    throughput_counts = ("flows", "events")

    def prepare(self, seeds: List[int], workdir: Path) -> Dict[str, Any]:
        """Make the run's inputs, untimed; returns reference facts."""
        return {}

    def reference_problems(
        self, reference: Dict[str, Any], digests: Dict[int, str]
    ) -> List[str]:
        """What the reference facts from ``prepare`` say is wrong."""
        return []

    def build(self, seed: int, in_process: bool = False) -> Any:
        raise NotImplementedError

    def run(self, state: Any) -> None:
        raise NotImplementedError

    def run_traced(self, state: Any, tracer: Any) -> None:
        """The timed phase under a tracer (spans come from its wrappers)."""
        self.run(state)

    def outcome(self, state: Any) -> Dict[str, Any]:
        """JSON-able results of a finished round; ``digest`` is compared."""
        raise NotImplementedError

    def failures(self, outcome: Dict[str, Any]) -> List[str]:
        """What is wrong with one round's outcome (empty when correct)."""
        return []

    def peak_rss_kb(self, outcomes: List[Dict[str, Any]]) -> int:
        """Peak RSS of the process the workload ran in."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ----------------------------------------------------------------------
# Simulation figure cells
# ----------------------------------------------------------------------
class _SimCell(Workload):
    """A built network run to a fixed horizon; digests its statistics."""

    duration = 0.0

    def _flows(self, seed: int) -> Any:
        raise NotImplementedError

    def build(self, seed: int, in_process: bool = False) -> Any:
        from repro.net.packet import peek_next_uid

        first_uid = peek_next_uid()
        network, flows = self._flows(seed)
        return {"network": network, "flows": flows, "first_uid": first_uid}

    def run(self, state: Any) -> None:
        state["network"].run(until=self.duration)

    def outcome(self, state: Any) -> Dict[str, Any]:
        from repro.net.packet import peek_next_uid

        network = state["network"]
        stats = {
            "events": network.sim.dispatched_events,
            "packets": peek_next_uid() - state["first_uid"],
            "drops": network.total_drops(),
            "flows": [
                {
                    "flow_id": flow.flow_id,
                    "variant": flow.variant,
                    "delivered_bytes": flow.delivered_bytes(),
                    "sender": asdict(flow.sender.stats),
                }
                for flow in state["flows"]
            ],
        }
        return {
            "digest": digest(stats),
            "events": stats["events"],
            "flows": len(state["flows"]),
        }

    def failures(self, outcome: Dict[str, Any]) -> List[str]:
        return [] if outcome["events"] > 0 else ["no events dispatched"]


class Fig2Fairness(_SimCell):
    name = "fig2_fairness"
    duration = FIG2_DURATION

    def _flows(self, seed: int) -> Any:
        from repro.experiments.runner import build_fairness_scenario

        scenario = build_fairness_scenario(
            topology="dumbbell", total_flows=8, seed=seed
        )
        return scenario.network, scenario.flows


class Fig6Multipath(_SimCell):
    name = "fig6_multipath"
    duration = FIG6_DURATION

    def _flows(self, seed: int) -> Any:
        from repro.app.bulk import BulkTransfer
        from repro.topologies.multipath_mesh import (
            MultipathMeshSpec,
            install_epsilon_routing,
        )

        network = MultipathMeshSpec(link_delay=0.01, seed=seed).build().network
        install_epsilon_routing(network, epsilon=0.01, reorder_acks=True)
        flow = BulkTransfer(network, "tcp-pr", "src", "dst", flow_id=1)
        return network, [flow]


class Fig6MultipathCompiled(Fig6Multipath):
    name = "fig6_multipath_compiled"
    engine = "compiled"

    def prepare(self, seeds: List[int], workdir: Path) -> Dict[str, Any]:
        """Digest one pure-engine round per scenario; compiled must match."""
        from repro.core.engine_select import use_engine

        pure = {}
        with use_engine("pure"):
            for seed in seeds:
                state = self.build(seed)
                self.run(state)
                pure[seed] = self.outcome(state)["digest"]
        return {"pure_digests": pure}

    def reference_problems(
        self, reference: Dict[str, Any], digests: Dict[int, str]
    ) -> List[str]:
        pure = reference["pure_digests"]
        return [
            f"seed {seed}: compiled digest {digests[seed]} != pure {pure[seed]}"
            for seed in digests
            if digests[seed] != pure[seed]
        ]


# ----------------------------------------------------------------------
# Sharded fat-tree scenario
# ----------------------------------------------------------------------
class ScaleFattree(Workload):
    name = "scale_fattree"
    throughput_counts = ("completed", "flows")

    def build(self, seed: int, in_process: bool = False) -> Any:
        from repro.exec.runner import ParallelRunner
        from repro.scenarios import ScenarioSpec, ShardPlan, WorkloadSpec
        from repro.topologies import FatTreeSpec

        scenario = ScenarioSpec(
            topology=FatTreeSpec(k=4, hosts_per_edge=2, seed=seed),
            workload=WorkloadSpec(
                arrival="poisson",
                arrival_rate=300.0,
                size="pareto",
                mean_size_segments=10.0,
                pareto_shape=SCALE_PARETO_SHAPE,
                variant_mix=(("tcp-pr", 0.5), ("sack", 0.5)),
            ),
            duration=SCALE_DURATION,
            seed=seed,
            name="perfbench-fattree",
        )
        runner = ParallelRunner(jobs=1 if in_process else SCALE_JOBS, cache=None)
        return {
            "plan": ShardPlan(scenario=scenario, num_shards=SCALE_SHARDS),
            "runner": runner,
        }

    def run(self, state: Any) -> None:
        from repro.scenarios import run_scale

        state["report"] = run_scale(state["plan"], runner=state["runner"])

    def outcome(self, state: Any) -> Dict[str, Any]:
        report = state["report"]
        stats = state["runner"].last_stats
        merged = report.to_jsonable()
        merged.pop("max_rss_kb")
        walls = sorted(cell.wall_time for cell in stats.telemetry.cells)
        return {
            "digest": digest(merged),
            "flows": report.flows,
            "completed": report.completed,
            "expected_flows": state["plan"].scenario.flow_count(),
            "failed_shards": list(report.failed_shards),
            "layer": {"scenarios.flows_admitted": report.flows},
            "max_rss_kb": report.max_rss_kb,
            "exec": {
                "cells": stats.total,
                "cache_hits": stats.cached,
                "failed": stats.failed,
                "shard_walls": walls,
                "sweep_wall": stats.elapsed,
            },
        }

    def failures(self, outcome: Dict[str, Any]) -> List[str]:
        problems = []
        if outcome["failed_shards"] or outcome["exec"]["failed"]:
            problems.append(f"failed shards {outcome['failed_shards']}")
        if outcome["flows"] != outcome["expected_flows"]:
            problems.append(
                f"{outcome['flows']} flows ran, {outcome['expected_flows']} generated"
            )
        if outcome["exec"]["cache_hits"]:
            problems.append(f"{outcome['exec']['cache_hits']} executor cache hits")
        return problems

    def peak_rss_kb(self, outcomes: List[Dict[str, Any]]) -> int:
        """The largest shard worker's peak RSS (``ScenarioReport.max_rss_kb``)."""
        return max(outcome["max_rss_kb"] for outcome in outcomes)


# ----------------------------------------------------------------------
# Trace analysis
# ----------------------------------------------------------------------
class TraceAnalyze(Workload):
    name = "trace_analyze"
    #: One generated trace per run: generating it takes ~8 s.
    scenarios = 1
    throughput_counts = ("flows", "records")
    path: Optional[Path] = None

    def prepare(self, seeds: List[int], workdir: Path) -> Dict[str, Any]:
        """Record the input trace in a child process (its memory stays there)."""
        (seed,) = seeds
        self.path = workdir / f"fig6-trace-{seed}.jsonl"
        made = subprocess.run(
            [
                sys.executable, str(Path(__file__).with_name("run.py")),
                "--make-trace", str(self.path), "--seed", str(seed),
            ],
            check=True,
            capture_output=True,
            text=True,
            timeout=170,
        )
        facts: Dict[str, Any] = json.loads(made.stdout.splitlines()[-1])
        return facts

    def reference_problems(
        self, reference: Dict[str, Any], digests: Dict[int, str]
    ) -> List[str]:
        if reference["cache_hits"] or reference["failed"]:
            return [f"trace generation: {reference}"]
        return []

    def build(self, seed: int, in_process: bool = False) -> Any:
        import repro.obs.export  # noqa: F401  (the program's import cost)
        import repro.traces  # noqa: F401

        return {"path": self.path}

    def run_traced(self, state: Any, tracer: Any) -> None:
        tracer.span("obs.read", self.read, state)
        tracer.span("obs.decode", self.decode, state)
        tracer.span("traces.analyze", self.analyze, state)

    def read(self, state: Any) -> None:
        from repro.obs.export import read_jsonl

        state["records"] = read_jsonl(state["path"])

    def decode(self, state: Any) -> None:
        from repro.traces import TraceStream

        state["stream"] = TraceStream(state["records"])

    def analyze(self, state: Any) -> None:
        from repro.traces import analyze_stream

        state["report"] = analyze_stream(state["stream"])

    def run(self, state: Any) -> None:
        self.read(state)
        self.decode(state)
        self.analyze(state)

    def outcome(self, state: Any) -> Dict[str, Any]:
        report = state["report"]
        records = state["records"]
        return {
            "digest": digest(report.to_jsonable()),
            "records": len(records),
            "trace_records": sum(1 for r in records if r.get("record") == "trace"),
            "total_events": report.total_events,
            "flows": len(report.flows),
            "layer": {"obs.records": len(records), "traces.flows": len(report.flows)},
        }

    def failures(self, outcome: Dict[str, Any]) -> List[str]:
        if outcome["total_events"] != outcome["trace_records"]:
            return [
                f"analyzed {outcome['total_events']} events from "
                f"{outcome['trace_records']} trace records"
            ]
        return []


def make_trace(path: Path, seed: int) -> Dict[str, Any]:
    """Write the traced fig6 cell (tcp-pr, ε=4) as ``repro.obs/v1`` JSONL."""
    from repro.exec.runner import ParallelRunner
    from repro.experiments.fig6_multipath import Fig6Spec
    from repro.obs.export import write_jsonl

    spec = Fig6Spec(
        protocols=("tcp-pr",), epsilons=(4.0,), duration=TRACE_DURATION, seed=seed
    )
    runner = ParallelRunner(jobs=1, cache=None, collect_trace=True)
    runner.run(spec)
    stats = runner.last_stats
    records = list(stats.telemetry.trace_records())
    path.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(records, path, command="fig6")
    return {"cache_hits": stats.cached, "failed": stats.failed, "written": len(records)}


WORKLOADS = {
    cls.name: cls
    for cls in (
        Fig2Fairness,
        Fig6Multipath,
        Fig6MultipathCompiled,
        ScaleFattree,
        TraceAnalyze,
    )
}
