"""The :class:`StatefulComponent` protocol and generic snapshot helpers.

Components that carry simulation state (TCP senders/receivers, links,
queues, RNG registries, monitors) implement ``snapshot_state()`` /
``restore_state(state)``.  The contract:

* ``snapshot_state`` returns a dict of *logical* state only — counters,
  windows, buffers, RNG states — deep-copied so later simulation cannot
  mutate the snapshot.  Engine wiring (the simulator, nodes, cached
  bound methods, live :class:`~repro.sim.engine.EventHandle`\\ s) is
  excluded: the whole-graph codec captures those, and a snapshot must
  be comparable/transportable on its own.
* ``restore_state(snapshot_state())`` on an equivalently-wired component
  reproduces its behavior exactly (the Hypothesis round-trip tests pin
  this per component).

Most implementations are two lines over :func:`snapshot_object` /
:func:`restore_object`, with a per-class ``_SNAPSHOT_EXCLUDE`` frozenset
naming the wiring attributes to skip.
"""

from __future__ import annotations

import copy
from typing import (
    Any, Dict, FrozenSet, Iterator, Mapping, Protocol, Tuple, runtime_checkable,
)


@runtime_checkable
class StatefulComponent(Protocol):
    """Anything whose logical state can be snapshotted and restored."""

    def snapshot_state(self) -> Dict[str, Any]:
        """Deep-copied logical state, excluding engine wiring."""

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Overwrite logical state from a prior :meth:`snapshot_state`."""


def iter_state_attrs(obj: Any) -> Iterator[str]:
    """All data attribute names of ``obj``: every ``__slots__`` entry up
    the MRO plus the instance dict, deduplicated, in a stable order."""
    seen = set()
    for klass in type(obj).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if name in ("__dict__", "__weakref__") or name in seen:
                continue
            seen.add(name)
            yield name
    for name in getattr(obj, "__dict__", {}):
        if name not in seen:
            seen.add(name)
            yield name


def _canonical(value: Any, memo: Dict[int, Tuple[Any, Any]]) -> Any:
    """``value`` with every set in it rebuilt from its sorted members.

    A set pickles in hash-table order, and that order depends on the
    table's insertion/deletion history, not only on its members: a deep
    copy or a restore rebuilds the table, so two equal sets can pickle
    to different bytes.  Rebuilding from the sorted members makes equal
    sets pickle identically.  Sets whose members do not sort are left
    as they are.

    Walks dicts, lists and the instance ``__dict__`` of non-builtin
    objects (a SACK sender's scoreboard holds its sets one level down),
    replacing sets in place.  ``value`` must be a private deep copy.
    ``memo`` maps ``id`` to ``(original, canonical)``: it keeps shared
    references shared, ends cycles, and holds each original alive so
    its ``id`` cannot be reused mid-walk.
    """
    seen = memo.get(id(value))
    if seen is not None:
        return seen[1]
    kind = type(value)
    if kind is set or kind is frozenset:
        try:
            result = kind(sorted(value))
        except TypeError:
            result = value
        memo[id(value)] = (value, result)
        return result
    memo[id(value)] = (value, value)
    if kind is list:
        for index, item in enumerate(value):
            value[index] = _canonical(item, memo)
        return value
    if kind is dict:
        fields = value
    elif kind.__module__ == "builtins":
        return value
    else:
        fields = getattr(value, "__dict__", None)
        if fields is None:
            return value
    for key, item in fields.items():
        fields[key] = _canonical(item, memo)
    return value


def snapshot_object(obj: Any, exclude: FrozenSet[str] = frozenset()) -> Dict[str, Any]:
    """Generic :meth:`StatefulComponent.snapshot_state` implementation.

    Equal state snapshots to equal pickled bytes: every set in the
    snapshot is stored in a canonical order (see :func:`_canonical`).
    """
    state: Dict[str, Any] = {}
    for name in iter_state_attrs(obj):
        if name in exclude or not hasattr(obj, name):
            continue
        state[name] = copy.deepcopy(getattr(obj, name))
    return _canonical(state, {})


def restore_object(obj: Any, state: Mapping[str, Any]) -> None:
    """Generic :meth:`StatefulComponent.restore_state` implementation."""
    for name, value in state.items():
        setattr(obj, name, copy.deepcopy(value))


#: Constructor-parameter names that conventionally carry engine wiring
#: (a simulator, a peer component, an obs sink).  An attribute assigned
#: straight from one of these is wiring, not logical state — it must
#: appear in the class's ``_SNAPSHOT_EXCLUDE`` or a checkpoint will try
#: to deep-copy half the object graph.  The static checker
#: (``repro lint --deep``, REP402) enforces exactly this contract, so
#: the vocabulary lives here next to the protocol it protects.
WIRING_PARAM_NAMES: FrozenSet[str] = frozenset(
    {
        "sim", "simulator", "link", "node", "queue", "sender", "receiver",
        "agent", "network", "obs", "probe", "src", "dst",
    }
)


# ----------------------------------------------------------------------
# Process-global counters that must survive a resume in a new process.
# ----------------------------------------------------------------------
def snapshot_globals() -> Dict[str, Any]:
    """Capture process-global counters a resumed run depends on.

    Today that is one thing: the packet uid counter
    (:mod:`repro.net.packet`), which keys trace records — a resumed run
    in a fresh process must hand out uids exactly where the snapshot
    left off or trace output diverges from the uninterrupted run.
    """
    from repro.net import packet

    return {"packet_uid": packet.peek_next_uid()}


def restore_globals(state: Mapping[str, Any]) -> None:
    """Restore the counters captured by :func:`snapshot_globals`."""
    from repro.net import packet

    packet.reset_uid_counter(int(state["packet_uid"]))
