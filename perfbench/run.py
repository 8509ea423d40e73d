#!/usr/bin/env python3
"""Repository benchmark: one seeded workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig6_multipath --seed 3 \\
        --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced rounds;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the host fingerprint, the output digests and every measurement
taken.  Metrics and their units are declared in ``BENCHMARK.json`` and
explained in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import host
import layers
from workloads import WORKLOADS, make_trace

clock = time.perf_counter

#: Fresh-interpreter set-up probes per run.  ``setup_s`` is their mean
#: without the fastest and the slowest: probe times fall in a fast and a
#: slow cluster with the host's spells, and a median of a few such
#: samples jumps between the clusters.
SETUP_PROBES = 8
#: Timed rounds per scenario at least, whatever ``--seconds`` says.
MIN_ROUNDS = 2

#: Host-speed calibration.  After every round the run spends a quarter of
#: that round's time on fixed chunks of interpreter work that never touch
#: ``repro`` (heap-driven events on small objects, then JSON decoding),
#: and multiplies its round times by ``CALIBRATION_REF_S / mean(chunk)``.
#: Shared-host slowdowns stretch the chunks and the rounds alike; a change
#: to ``repro`` moves only the rounds.  One chunk takes 0.02 s on an
#: unloaded 2 GHz Xeon vCPU, so the values read as seconds there.
CALIBRATION_REF_S = 0.02
CALIBRATION_SHARE = 0.25


class _Event:
    __slots__ = ("time", "hops")

    def __init__(self, time: float, hops: int) -> None:
        self.time = time
        self.hops = hops


_CALIBRATION_JSON = json.dumps([
    {"record": "trace", "time": i * 1e-3, "kind": "recv", "seq": i, "path": "a>b"}
    for i in range(150)
])


def calibration_chunk() -> float:
    """Wall seconds of one fixed chunk of work that never touches ``repro``."""
    started = clock()
    heap = [(0.0, i, _Event(0.0, 0)) for i in range(64)]
    table: Dict[int, int] = {}
    for step in range(10_000):
        when, seq, event = heapq.heappop(heap)
        table[seq & 255] = table.get(seq & 255, 0) + event.hops
        heapq.heappush(
            heap, (when + (seq % 7) * 1e-3, step + 64, _Event(when, event.hops + 1))
        )
    for _ in range(10):
        json.loads(_CALIBRATION_JSON)
    return clock() - started


def declared_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((host.ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning an interpreter to a built, ready workload."""
    started = clock()
    child = subprocess.Popen(
        [sys.executable, __file__, "--probe-setup", "--workload", workload,
         "--seed", str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = child.stdout.readline() if child.stdout else ""
        elapsed = clock() - started
        child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"perfbench: set-up probe failed ({child.returncode})")
    return elapsed


class Run:
    """Rounds of one workload, their checks and their measurements.

    A run covers ``workload.scenarios`` scenarios, seeded
    ``scenarios * seed + j``, and rotates its rounds through them: one
    scenario's cost differs from another's by up to ~12% (fig2), so a
    metric over one scenario would mostly measure the seed.
    """

    def __init__(self, name: str, seed: int) -> None:
        self.workload = WORKLOADS[name]()
        count = self.workload.scenarios
        self.seeds = [count * seed + j for j in range(count)]
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: scenario seed -> output digest (must never change).
        self.digests: Dict[int, str] = {}
        #: scenario seed -> outcomes of its timed rounds.
        self.outcomes: Dict[int, List[Dict[str, Any]]] = {s: [] for s in self.seeds}
        self.calibration: List[float] = []
        self.setup: List[float] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check(self, seed: int, outcome: Dict[str, Any]) -> None:
        self.attempted += 1
        problems = self.workload.failures(outcome)
        known = self.digests.setdefault(seed, outcome["digest"])
        if outcome["digest"] != known:
            problems.append(f"seed {seed}: digest {outcome['digest']} != {known}")
        if problems:
            self.fail("; ".join(problems))

    def round(self, seed: int, in_process: bool = False) -> Dict[str, Any]:
        """One untraced round: build, time the run, check the outcome."""
        state = self.workload.build(seed, in_process)
        gc.collect()  # earlier rounds' garbage is not this round's cost
        started = clock()
        self.workload.run(state)
        wall = clock() - started
        outcome = self.workload.outcome(state)
        self.check(seed, outcome)
        outcome["wall"] = wall
        return outcome

    def calibrate(self, measured: float) -> None:
        """Run calibration chunks worth ``CALIBRATION_SHARE`` of ``measured``."""
        spent = 0.0
        while not spent or spent < CALIBRATION_SHARE * measured:
            self.calibration.append(calibration_chunk())
            spent += self.calibration[-1]

    def traced_round(self, seed: int) -> Dict[str, float]:
        """One round under the layer tracer; returns its per-layer metrics."""
        from repro.net.packet import peek_next_uid

        tracer = layers.LayerTracer(self.workload.engine)
        first_uid = peek_next_uid()
        started = clock()
        with tracer:
            state = self.workload.build(seed, in_process=True)
            run_started = clock()
            self.workload.run_traced(state, tracer)
            run_wall = clock() - run_started
        wall = clock() - started
        outcome = self.workload.outcome(state)
        self.check(seed, outcome)
        attributed = sum(tracer.self_s.values())
        if attributed > wall or min(tracer.self_s.values(), default=0.0) < 0:
            self.fail(
                f"span self times {dict(tracer.self_s)} do not fit in the "
                f"round's {wall:.6f}s"
            )
        return {
            **layers.layer_metrics(tracer, peek_next_uid() - first_uid),
            "obs.records": 0,
            "traces.flows": 0,
            "scenarios.flows_admitted": 0,
            **outcome.get("layer", {}),
            "obs.read_s": tracer.self_s["obs.read"],
            "obs.decode_s": tracer.self_s["obs.decode"],
            "traces.analyze_s": tracer.self_s["traces.analyze"],
            "trace.wall_s": wall,
            "trace.unattributed_s": wall - attributed,
            "trace.run_wall_s": run_wall,
        }


def per_scenario_mean(run: Run, value: Any) -> float:
    """Mean over the run's scenarios of each scenario's median ``value``."""
    return statistics.mean(
        statistics.median(value(outcome) for outcome in outcomes)
        for outcomes in run.outcomes.values()
    )


def end_to_end(run: Run, seconds: float) -> Dict[str, float]:
    run.round(run.seeds[0])  # warm-up: imports and lazy set-up finish first
    started = clock()
    deadline = started + seconds
    turn = 0
    # Set-up probes are spread over the run, so they see the same mix of
    # host states as the rounds.
    while (
        turn < MIN_ROUNDS * len(run.seeds)
        or len(run.setup) < SETUP_PROBES
        or clock() < deadline
    ):
        due = len(run.setup) * seconds / SETUP_PROBES
        if len(run.setup) < SETUP_PROBES and clock() - started >= due:
            run.setup.append(probe_setup(run.workload.name, run.seeds[0]))
            deadline += run.setup[-1]
            continue
        seed = run.seeds[turn % len(run.seeds)]
        turn += 1
        outcome = run.round(seed)
        run.calibrate(outcome["wall"])
        run.outcomes[seed].append(outcome)

    factor = CALIBRATION_REF_S / statistics.mean(run.calibration)
    flows, records = run.workload.throughput_counts
    peak_kb = run.workload.peak_rss_kb(
        [outcome for outcomes in run.outcomes.values() for outcome in outcomes]
    )
    return {
        "wall_s": per_scenario_mean(run, lambda o: o["wall"]) * factor,
        "setup_s": statistics.mean(sorted(run.setup)[1:-1]),
        "peak_rss_mb": peak_kb / 1024.0,
        "flows_per_s": per_scenario_mean(run, lambda o: o[flows] / o["wall"]) / factor,
        "records_per_s": (
            per_scenario_mean(run, lambda o: o[records] / o["wall"]) / factor
        ),
    }


def exec_metrics(outcome: Dict[str, Any]) -> Dict[str, float]:
    """Executor metrics from a pooled (untraced) sharded round."""
    stats = outcome.get("exec")
    if stats is None:
        return {
            "exec.cells": 0, "exec.cache_hits": 0, "exec.shard_wall_median_s": 0.0,
            "exec.shard_wall_max_s": 0.0, "exec.overhead_s": 0.0,
        }
    walls = stats["shard_walls"]
    return {
        "exec.cells": stats["cells"],
        "exec.cache_hits": stats["cache_hits"],
        "exec.shard_wall_median_s": statistics.median(walls),
        "exec.shard_wall_max_s": max(walls),
        "exec.overhead_s": stats["sweep_wall"] - max(walls),
    }


def per_layer(run: Run, seconds: float) -> Dict[str, float]:
    """Per-layer metrics of the first scenario, from its median traced round.

    The warm-up round runs the workload as timed (pooled, for the sharded
    workload) and supplies the executor metrics; the traced rounds run
    everything in-process, each paired with an untraced in-process round
    for ``tracing.overhead_ratio``.
    """
    seed = run.seeds[0]
    warm = run.round(seed)
    deadline = clock() + seconds
    untraced: List[float] = []
    traced: List[Dict[str, float]] = []
    while not traced or clock() < deadline:
        untraced.append(run.round(seed, in_process=True)["wall"])
        traced.append(run.traced_round(seed))
    # Report one whole round, the median by traced wall, so its self times
    # and remainder still add up to its wall.
    traced.sort(key=lambda sample: sample["trace.wall_s"])
    metrics = traced[(len(traced) - 1) // 2]
    metrics.update(exec_metrics(warm))
    metrics["tracing.overhead_ratio"] = (
        metrics.pop("trace.run_wall_s") / statistics.median(untraced)
    )
    return metrics


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--make-trace", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    host.require_source_tree()

    if args.make_trace is not None:
        host.pin_engine("pure")
        print(json.dumps(make_trace(args.make_trace, args.seed)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe_setup:
        workload = WORKLOADS[args.workload]()
        host.pin_engine(workload.engine)
        workload.build(args.seed)
        print("ready", flush=True)
        return 0

    units = declared_units(bool(args.trace))
    run = Run(args.workload, args.seed)
    if run.workload.engine == "compiled":
        host.build_extension()
    engine_info = host.pin_engine(run.workload.engine)
    workdir = host.BUILD_ROOT / f"run-{os.getpid()}"
    try:
        reference = run.workload.prepare(run.seeds, workdir)
        if args.trace:
            metrics = per_layer(run, args.seconds)
        else:
            metrics = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in run.workload.reference_problems(reference, run.digests):
        run.fail(problem)
    if set(metrics) != set(units):
        raise SystemExit(
            f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
            "disagree with BENCHMARK.json"
        )

    print(json.dumps({
        "workload": args.workload,
        "seeds": run.seeds,
        "fingerprint": host.fingerprint(engine_info),
        "digests": run.digests,
        "reference": reference,
        "problems": run.problems,
        "walls": {
            seed: [outcome["wall"] for outcome in outcomes]
            for seed, outcomes in run.outcomes.items()
        },
        "setup_probes": run.setup,
        "calibration": run.calibration,
    }))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
