"""Tests for simulator profiling (repro.sim.profile / Simulator.stats).

This module runs on the pure build; ``test_sim_compiled.py`` reruns it
on the compiled build, where a profiled run leaves the C fast loop for
``Simulator.run``.
"""

import pytest

from repro.core import engine_select
from repro.sim import Simulator
from repro.sim.profile import UNLABELED, SimProfile, build_stats, group_label

from conftest import make_flow


@pytest.fixture(autouse=True)
def _pure_engine():
    with engine_select.use_engine("pure"):
        yield


# ----------------------------------------------------------------------
# Label grouping
# ----------------------------------------------------------------------
def test_group_label_drops_digit_tokens():
    assert group_label("pr timer f1 s23") == "pr timer"
    assert group_label("tx src->p0m0") == "tx"
    assert group_label("rto timer") == "rto timer"
    assert group_label("f1 s23") == UNLABELED
    assert group_label("") == UNLABELED


# ----------------------------------------------------------------------
# Simulator(profile=True)
# ----------------------------------------------------------------------
def test_profiled_run_reports_groups_and_heap():
    sim = Simulator(profile=True)
    for i in range(5):
        sim.schedule(float(i), lambda: None, label=f"tick {i}")
    sim.schedule(2.5, lambda: None)  # unlabeled
    sim.run(until=10.0)
    stats = sim.stats
    assert stats.profiled is True
    assert stats.dispatched_events == 6
    tick = stats.group("tick")
    assert tick is not None and tick.events == 5
    assert tick.wall_time >= 0.0
    assert stats.group(UNLABELED).events == 1
    assert stats.heap_high_water >= 1


def test_unprofiled_stats_still_count_dispatches():
    sim = Simulator()
    sim.schedule(1.0, lambda: None, label="tick 1")
    sim.run(until=2.0)
    stats = sim.stats
    assert stats.profiled is False
    assert stats.dispatched_events == 1
    assert stats.heap_high_water is None
    assert stats.groups == ()
    assert "profiling disabled" in stats.report()


def test_profiling_does_not_change_the_simulation():
    plain = make_flow("tcp-pr", seed=9)
    plain.run(until=5.0)
    profiled = make_flow("tcp-pr", seed=9)
    profiled.network.sim._profile = SimProfile()  # engine reads it per-run
    profiled.run(until=5.0)
    assert profiled.delivered == plain.delivered
    assert (
        profiled.network.sim.dispatched_events == plain.network.sim.dispatched_events
    )
    stats = profiled.network.sim.stats
    assert sum(g.events for g in stats.groups) == stats.dispatched_events


# ----------------------------------------------------------------------
# build_stats / report shape
# ----------------------------------------------------------------------
def test_build_stats_sorts_groups_by_wall_time():
    profile = SimProfile()
    profile.record("cheap thing", 0.001)
    profile.record("hot thing", 0.5)
    profile.record("hot thing", 0.5)
    stats = build_stats(3, 0, profile)
    assert [g.group for g in stats.groups] == ["hot thing", "cheap thing"]
    assert stats.groups[0].events == 2
    assert stats.groups[0].wall_time == pytest.approx(1.0)


def test_to_record_shapes():
    profile = SimProfile()
    profile.record("tick 1", 0.0)
    profiled = build_stats(1, 0, profile).to_record()
    assert profiled["record"] == "sim"
    assert profiled["groups"] == [{"group": "tick", "events": 1, "wall_time": 0.0}]
    bare = build_stats(1, 0, None).to_record()
    assert bare["profiled"] is False
    assert "groups" not in bare


def test_report_is_wall_time_table():
    profile = SimProfile()
    profile.record("tick 1", 0.25)
    text = build_stats(1, 2, profile).report()
    assert "dispatched=1 pending=2" in text
    assert "tick" in text and "250.00" in text
