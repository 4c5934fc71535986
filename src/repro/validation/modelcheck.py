"""Explicit-state model checking of object collaborations —
"verification (proof, model checking)".

The checker explores every interleaving of event dispatches over a
:class:`~repro.validation.collaboration.Collaboration` (breadth-first),
checking safety invariants in every reachable global state, detecting
quiescent states that fail the progress predicate (deadlocks), bounding
queue growth, and answering reachability queries.  The execution semantics
are the simulator's own — the checker literally drives the same
interpreters, so "what is checked is what runs".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .collaboration import Collaboration

Predicate = Callable[[Collaboration], bool]


@dataclass
class Violation:
    """An invariant failure, deadlock or queue overflow, with its trace."""

    kind: str                    # invariant / deadlock / queue-overflow
    property_name: str
    trace: List[str] = field(default_factory=list)
    configuration: Dict[str, Optional[str]] = field(default_factory=dict)

    def __str__(self) -> str:
        steps = " -> ".join(self.trace) if self.trace else "(initial)"
        return (f"{self.kind} '{self.property_name}' at "
                f"{self.configuration}; trace: {steps}")


@dataclass
class ModelCheckResult:
    states_explored: int = 0
    transitions_explored: int = 0
    max_depth: int = 0
    violations: List[Violation] = field(default_factory=list)
    goals_reached: Dict[str, bool] = field(default_factory=dict)
    truncated: bool = False      # hit the state bound

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        return (f"states={self.states_explored} "
                f"transitions={self.transitions_explored} "
                f"depth={self.max_depth} "
                f"violations={len(self.violations)} "
                f"{'(truncated)' if self.truncated else ''}").strip()


class ModelChecker:
    """BFS over the global state space of a collaboration."""

    def __init__(self, collaboration: Collaboration, *,
                 max_states: int = 100_000,
                 queue_bound: int = 4):
        self.collaboration = collaboration
        self.max_states = max_states
        self.queue_bound = queue_bound
        self.invariants: List[Tuple[str, Predicate]] = []
        self.goals: List[Tuple[str, Predicate]] = []
        self.done_predicate: Optional[Predicate] = None

    # -- property registration --------------------------------------------

    def invariant(self, name: str, predicate: Predicate) -> "ModelChecker":
        """A condition that must hold in *every* reachable state."""
        self.invariants.append((name, predicate))
        return self

    def goal(self, name: str, predicate: Predicate) -> "ModelChecker":
        """A condition whose reachability is reported."""
        self.goals.append((name, predicate))
        return self

    def done(self, predicate: Predicate) -> "ModelChecker":
        """Progress predicate: a quiescent state failing it is a
        deadlock."""
        self.done_predicate = predicate
        return self

    # -- exploration -------------------------------------------------------

    def check(self, initial_stimuli: List[Tuple[str, str]] = ()
              ) -> ModelCheckResult:
        """Explore all interleavings from the started collaboration plus
        the given external stimuli ``(object, event)``."""
        collab = self.collaboration
        if not collab._started:
            collab.start()
        for object_name, event_name in initial_stimuli:
            collab.send(object_name, event_name)

        result = ModelCheckResult()
        initial_saved = collab.save_state()
        initial_key = collab.snapshot()
        # key -> (saved_state, trace, depth)
        seen: Dict[tuple, None] = {initial_key: None}
        frontier = deque([(initial_saved, [], 0)])

        while frontier:
            if result.states_explored >= self.max_states:
                result.truncated = True
                break
            saved, trace, depth = frontier.popleft()
            result.states_explored += 1
            result.max_depth = max(result.max_depth, depth)
            collab.load_state(saved)
            self._check_state(collab, trace, result)

            # successors: each object with a pending event dispatches one
            ready = [name for name, obj in collab.objects.items()
                     if obj.queue and name in collab.interpreters]
            for name in ready:
                collab.load_state(saved)
                event = collab.objects[name].queue[0]
                label = f"{name}!{event.name}"
                collab.objects[name].queue.popleft()
                collab.interpreters[name].dispatch(event)
                result.transitions_explored += 1
                key = collab.snapshot()
                if key in seen:
                    continue
                seen[key] = None
                if self._queues_overflow(collab):
                    result.violations.append(Violation(
                        "queue-overflow", f"bound={self.queue_bound}",
                        trace + [label], collab.configuration()))
                    continue    # do not expand past an overflow
                frontier.append((collab.save_state(),
                                 trace + [label], depth + 1))
        return result

    def _check_state(self, collab: Collaboration, trace: List[str],
                     result: ModelCheckResult) -> None:
        for name, predicate in self.invariants:
            if not predicate(collab):
                result.violations.append(Violation(
                    "invariant", name, list(trace),
                    collab.configuration()))
        for name, predicate in self.goals:
            if not result.goals_reached.get(name) and predicate(collab):
                result.goals_reached[name] = True
        for name, _pred in self.goals:
            result.goals_reached.setdefault(name, False)
        if collab.quiescent and self.done_predicate is not None:
            if not self.done_predicate(collab):
                result.violations.append(Violation(
                    "deadlock", "progress", list(trace),
                    collab.configuration()))

    def _queues_overflow(self, collab: Collaboration) -> bool:
        return any(len(obj.queue) > self.queue_bound
                   for obj in collab.objects.values())


def check_collaboration(collaboration: Collaboration,
                        stimuli: List[Tuple[str, str]] = (), *,
                        invariants: Optional[Dict[str, Predicate]] = None,
                        done: Optional[Predicate] = None,
                        max_states: int = 100_000,
                        queue_bound: int = 4) -> ModelCheckResult:
    """One-call convenience wrapper around :class:`ModelChecker`."""
    checker = ModelChecker(collaboration, max_states=max_states,
                           queue_bound=queue_bound)
    for name, predicate in (invariants or {}).items():
        checker.invariant(name, predicate)
    if done is not None:
        checker.done(done)
    return checker.check(list(stimuli))
