"""Differential test: the pure and compiled engines dispatch identically.

Hypothesis generates short programs of ``schedule``, ``post``,
``post_in``, cancel and ``run(until=...)`` calls, some runs carrying a
``max_events`` budget or a ``livelock_threshold``, and replays each
program on both builds.  Fired events may spawn chains of follow-up
events (zero-delay chains included, so same-instant bursts and the
livelock watchdog get exercised).  The two builds must agree on the
dispatch order, the clock, ``pending_events``, ``dispatched_events`` and
every error raised.  Plain runs take the compiled class's C fast loop;
runs with a watchdog take ``Simulator.run`` over the C ``_pop_due``, so
both compiled paths are held to the pure loop.  Skipped when the
extension is not built.
"""

import functools
import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import engine_select
from repro.sim import Simulator
from repro.sim.errors import SimulationError

pytestmark = pytest.mark.skipif(
    not engine_select.compiled_available(),
    reason=f"compiled extension not built (`{engine_select.BUILD_HINT}`)",
)

# Few distinct offsets, so same-time ties (ordered by seq) are common.
_OFFSETS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5])
# A chain of follow-up events: (delay between links, links).
_CHAINS = st.tuples(st.sampled_from([0.0, 0.0, 0.1, 0.75]), st.integers(0, 6))
# How the callback is called: no args, one arg, two args.
_ARG_KINDS = st.integers(0, 2)

_OPS = st.one_of(
    st.tuples(st.just("schedule"), _OFFSETS, _CHAINS, _ARG_KINDS),
    st.tuples(st.just("post"), _OFFSETS, _CHAINS, _ARG_KINDS),
    st.tuples(st.just("post_in"), _OFFSETS, _CHAINS, _ARG_KINDS),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(
        st.just("run"),
        st.one_of(st.none(), _OFFSETS),
        st.one_of(st.none(), st.integers(1, 60)),
        st.one_of(st.none(), st.integers(1, 5)),
    ),
)


def _replay(engine, program):
    """Run ``program`` on a fresh simulator of ``engine``; return the log."""
    with engine_select.use_engine(engine):
        sim = Simulator()
    log = []
    handles = []
    chains = {}
    ids = itertools.count()

    def fire(*args):
        eid = args[0]
        log.append(("fire", eid, len(args), sim.now))
        delay, links = chains.pop(eid)
        if links:
            child = next(ids)
            chains[child] = (delay, links - 1)
            sim.post_in(delay, fire, (child,))

    def event(chain, arg_kind):
        eid = next(ids)
        chains[eid] = chain
        if arg_kind == 0:
            return functools.partial(fire, eid), None
        return fire, (eid,) if arg_kind == 1 else (eid, "extra")

    for op in program:
        kind = op[0]
        try:
            if kind == "schedule":
                callback, args = event(op[2], op[3])
                handles.append(
                    sim.schedule(sim.now + op[1], callback, "ev", args)
                )
            elif kind == "post":
                callback, args = event(op[2], op[3])
                sim.post(sim.now + op[1], callback, args, "ev")
            elif kind == "post_in":
                callback, args = event(op[2], op[3])
                sim.post_in(op[1], callback, args, "ev")
            elif kind == "cancel":
                if handles:
                    handles[op[1] % len(handles)].cancel()
            else:
                until = None if op[1] is None else sim.now + op[1]
                sim.run(until=until, max_events=op[2], livelock_threshold=op[3])
            outcome = None
        except SimulationError as exc:
            outcome = (type(exc).__name__, str(exc))
        log.append(
            (kind, outcome, sim.now, sim.pending_events, sim.dispatched_events)
        )
    return log


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(program=st.lists(_OPS, min_size=1, max_size=25))
def test_pure_and_compiled_dispatch_identically(program):
    assert _replay("compiled", program) == _replay("pure", program)


def test_replay_reaches_every_watchdog():
    """The harness itself is live: both watchdogs fire in a known case."""
    zero_chain = [("post_in", 0.0, (0.0, 6), 1)]
    livelock = _replay("pure", zero_chain + [("run", None, None, 3)])
    assert livelock[-1][1][0] == "LivelockError"
    budget = _replay("pure", zero_chain + [("run", None, 2, None)])
    assert budget[-1][1] == (
        "SimulationError",
        "event budget exhausted (2 events)",
    )
