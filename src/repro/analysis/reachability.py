"""Reachable-trigger analysis for state machines.

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

Nothing here is cached.  ``XD003`` keeps one summary per machine in its
lint pass's ``LintContext.cache``, so a pass analyses each machine once
however many messages it receives; the incremental engine reruns an
``XD003`` unit only when its recorded reads change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set

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
    """One analysis pass; ``None`` when not analysable."""
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


def reachable_triggers(machine: StateMachine) -> Optional[FrozenSet[str]]:
    """The reachable-trigger set (``None`` = not analysable)."""
    summary = compute_reachability(machine)
    return summary.triggers if summary is not None else None
