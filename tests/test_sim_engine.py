"""Unit tests for the discrete-event engine.

This module runs on the pure build; ``test_sim_compiled.py`` reruns it
on the compiled build.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core import engine_select
from repro.sim import ScheduleInPastError, SimulationError, Simulator


@pytest.fixture(autouse=True)
def _pure_engine():
    with engine_select.use_engine("pure"):
        yield


def test_initial_state():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending_events == 0
    assert sim.dispatched_events == 0


def test_schedule_and_run_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.5]
    assert sim.now == 1.5


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda: order.append(3))
    sim.schedule(1.0, lambda: order.append(1))
    sim.schedule(2.0, lambda: order.append(2))
    sim.run()
    assert order == [1, 2, 3]


def test_fifo_among_equal_timestamps():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.schedule(1.0, (lambda k: lambda: order.append(k))(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_schedule_in_relative_delay():
    sim = Simulator()
    times = []
    sim.schedule(1.0, lambda: sim.schedule_in(0.5, lambda: times.append(sim.now)))
    sim.run()
    assert times == [1.5]


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ScheduleInPastError):
        sim.schedule(0.5, lambda: None)
    with pytest.raises(ScheduleInPastError):
        sim.schedule_in(-0.1, lambda: None)


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(5.0, lambda: fired.append("b"))
    sim.run(until=2.0)
    assert fired == ["a"]
    assert sim.now == 2.0
    # The later event is still pending and fires on the next run.
    sim.run(until=10.0)
    assert fired == ["a", "b"]
    assert sim.now == 10.0


def test_run_until_boundary_event_fires():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append(sim.now))
    sim.run(until=2.0)
    assert fired == [2.0]


def test_cancellation():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("x"))
    assert not handle.cancelled
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert fired == []
    assert sim.pending_events == 0


def test_cancel_twice_is_harmless():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_cancel_during_run():
    sim = Simulator()
    fired = []
    later = sim.schedule(2.0, lambda: fired.append("late"))
    sim.schedule(1.0, lambda: later.cancel())
    sim.run()
    assert fired == []


def test_max_events_budget():
    sim = Simulator()

    def reschedule():
        sim.schedule_in(1.0, reschedule)

    sim.schedule(0.0, reschedule)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.run()
    assert len(errors) == 1


def test_events_scheduled_during_dispatch_run():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule_in(1.0, lambda: chain(n + 1))

    sim.schedule(0.0, lambda: chain(0))
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_peek_time_skips_cancelled():
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    first.cancel()
    assert sim.peek_time() == 2.0


def test_pending_events_counts_only_live():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert sim.pending_events == 1


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_property_dispatch_order_is_sorted(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.schedule(t, (lambda when: lambda: fired.append(when))(t))
    sim.run()
    assert fired == sorted(times)
    assert len(fired) == len(times)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_property_cancelled_events_never_fire(entries):
    sim = Simulator()
    fired = []
    for t, keep in entries:
        handle = sim.schedule(t, (lambda when: lambda: fired.append(when))(t))
        if not keep:
            handle.cancel()
    sim.run()
    expected = sorted(t for t, keep in entries if keep)
    assert fired == expected
