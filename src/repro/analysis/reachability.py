"""Reachable-trigger analysis for state machines, with a memoised cache.

The cross-diagram consistency rules ask one question over and over: *can
this machine ever accept event E?*  Answering it means replaying the
machine's structure under the simulator's semantics
(:mod:`repro.validation.statemachine_sim`): start at the initial
pseudostate, follow completion transitions and choice pseudostates, and
collect the triggers of every transition that leaves a reachable state —
pruning transitions whose guard is provably unsatisfiable (the same tiny
prover SM002 uses).  Composite machines are flattened first, exactly as
:class:`~repro.validation.statemachine_sim.StateMachineInterpreter`
flattens them, so the reachable set matches what the simulator would
execute.

The summary is an *over*-approximation of the dynamically reachable
trigger set (guards are pruned individually, never in combination), so a
trigger **absent** from it is genuinely unacceptable — the direction the
``XD003`` rule reports.  Machines using features outside the simulator's
fragment (orthogonal top-level regions, junction/history pseudostates)
yield ``None``: not analysable, never reported.

Memoisation protocol
--------------------
Summaries are cached per machine and invalidated through kernel change
notifications: every element of the machine's subtree is observed
individually (per-element observers only see their own element's
changes), and *any* notification — including the inverse ops a
transaction rollback replays — drops the cache entry and detaches the
observers.  Elements added to the subtree later are covered transitively:
their attachment mutates an already-observed container, which invalidates
the entry before the new element can matter.

While the incremental engine's dependency tracking is active
(``kernel._TRACKING``), the cache is bypassed entirely — same protocol
as :class:`~repro.mof.index.ModelIndex` — so dependency tracking records
the true read set of every consistency unit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

from ..mof import kernel as _kernel
from ..mof.kernel import Element
from ..mof.notify import Notification
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..uml.statemachines import (
    FinalState,
    Pseudostate,
    State,
    StateMachine,
    Vertex,
)
from .rules_statemachine import guard_unsatisfiable

#: pseudostate kinds the simulator (and therefore this analysis) supports
_SUPPORTED_KINDS = {"initial", "choice"}

#: cache entries kept before least-recently-used eviction
_MAX_ENTRIES = 256


@dataclass(frozen=True)
class ReachabilitySummary:
    """What is reachable from a machine's initial configuration."""

    states: FrozenSet[str]     # names of reachable stable states
    triggers: FrozenSet[str]   # triggers acceptable in some reachable state

    def accepts(self, trigger: str) -> bool:
        return trigger in self.triggers


# ---------------------------------------------------------------------------
# The computation
# ---------------------------------------------------------------------------


def _analysable(machine: StateMachine) -> bool:
    if len(machine.regions) != 1:
        return False
    for vertex in machine.all_vertices():
        if isinstance(vertex, Pseudostate) \
                and vertex.kind not in _SUPPORTED_KINDS:
            return False
    return True


def compute_reachability(machine: StateMachine
                         ) -> Optional[ReachabilitySummary]:
    """One uncached analysis pass; ``None`` when not analysable."""
    source = machine
    if any(isinstance(v, State) and v.is_composite
           for v in source.all_vertices()):
        from ..transform.library import flatten_state_machine
        source = flatten_state_machine(source)
    if not _analysable(source):
        return None
    initial = source.main_region().initial_pseudostate()
    if initial is None:
        return None

    states: Set[str] = set()
    triggers: Set[str] = set()
    seen: Set[int] = set()
    frontier: List[Vertex] = [initial]
    while frontier:
        vertex = frontier.pop()
        if id(vertex) in seen:
            continue
        seen.add(id(vertex))
        if isinstance(vertex, FinalState):
            continue
        if isinstance(vertex, State):
            states.add(vertex.name)
        for transition in vertex.outgoing():
            if guard_unsatisfiable(transition.guard):
                continue
            if transition.trigger and isinstance(vertex, State):
                triggers.add(transition.trigger)
            if transition.is_internal:
                continue
            if transition.target is not None:
                frontier.append(transition.target)
    return ReachabilitySummary(frozenset(states), frozenset(triggers))


# ---------------------------------------------------------------------------
# The memoised cache
# ---------------------------------------------------------------------------


class _Entry:
    __slots__ = ("summary", "observed")

    def __init__(self, summary: Optional[ReachabilitySummary],
                 observed: List[Element]):
        self.summary = summary
        self.observed = observed


#: machine id -> cached entry, LRU-ordered (oldest first)
_CACHE: "OrderedDict[int, _Entry]" = OrderedDict()
#: observed element id -> owning machine id (routes notifications)
_OWNERS: Dict[int, int] = {}

#: lifetime counters, mirrored into the metrics registry when tracing is on
HITS = 0
MISSES = 0
INVALIDATIONS = 0


def _count(name: str) -> None:
    if _trace.ON:
        _metrics.REGISTRY.counter(
            f"analysis.consistency.reachability.{name}",
            help="reachable-trigger cache events").inc()


def _on_subtree_change(notification: Notification) -> None:
    machine_id = _OWNERS.get(id(notification.element))
    if machine_id is not None:
        _evict(machine_id)
        global INVALIDATIONS
        INVALIDATIONS += 1
        _count("invalidations")


def _evict(machine_id: int) -> None:
    entry = _CACHE.pop(machine_id, None)
    if entry is None:
        return
    for element in entry.observed:
        _OWNERS.pop(id(element), None)
        element.unobserve(_on_subtree_change)


def invalidate_cache() -> None:
    """Drop every cached summary and detach all observers (test hook)."""
    for machine_id in list(_CACHE):
        _evict(machine_id)


def cache_size() -> int:
    return len(_CACHE)


def reachability(machine: StateMachine) -> Optional[ReachabilitySummary]:
    """The memoised reachable-state/trigger summary of *machine*.

    Cached until any element of the machine's subtree changes; bypasses
    the cache while dependency tracking is active so incremental
    checkers observe their true read sets.
    """
    global HITS, MISSES
    if _kernel._TRACKING:
        return compute_reachability(machine)
    entry = _CACHE.get(id(machine))
    if entry is not None:
        _CACHE.move_to_end(id(machine))
        HITS += 1
        _count("hits")
        return entry.summary
    MISSES += 1
    _count("misses")
    summary = compute_reachability(machine)
    observed = [machine] + list(machine.all_contents())
    for element in observed:
        _OWNERS[id(element)] = id(machine)
        element.observe(_on_subtree_change)
    _CACHE[id(machine)] = _Entry(summary, observed)
    while len(_CACHE) > _MAX_ENTRIES:
        _evict(next(iter(_CACHE)))
    return summary


def reachable_triggers(machine: StateMachine) -> Optional[FrozenSet[str]]:
    """The memoised reachable-trigger set (``None`` = not analysable)."""
    summary = reachability(machine)
    return summary.triggers if summary is not None else None
