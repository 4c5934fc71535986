"""Token-flow interpretation of UML activities.

Deterministic small-step semantics: a multiset of control tokens sits on
nodes; each step picks the first ready node in the activity's node order
and fires it (executing action bodies, evaluating decision guards,
duplicating at forks, synchronising at joins).  The run ends when an
:class:`~repro.uml.activities.ActivityFinalNode` fires, or when no node is
ready (quiescence — reported as ``deadlocked`` if tokens remain).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..codegen.actions import parse_actions
from ..codegen.ir import AssignStmt
from ..ocl import Environment, evaluate
from ..ocl.errors import OclError
from ..uml.activities import (
    ActionNode,
    Activity,
    ActivityFinalNode,
    ActivityNode,
    DecisionNode,
    FlowFinalNode,
    ForkNode,
    InitialNode,
    JoinNode,
    MergeNode,
)
from .statemachine_sim import SimulationError


@dataclass
class ActivityRun:
    """Outcome of one activity execution."""

    completed: bool = False           # a final node fired
    deadlocked: bool = False          # tokens stuck (e.g. waiting join)
    steps: int = 0
    visited: List[str] = field(default_factory=list)
    variables: Dict[str, Any] = field(default_factory=dict)

    def visited_actions(self) -> List[str]:
        return self.visited


class ActivityInterpreter:
    """Executes one activity over a mutable variable context."""

    def __init__(self, activity: Activity,
                 variables: Optional[Dict[str, Any]] = None):
        self.activity = activity
        self.variables: Dict[str, Any] = dict(variables or {})
        self.tokens: Dict[int, int] = {}        # node id -> token count
        self._join_arrivals: Dict[int, set] = {}

    # -- public API -------------------------------------------------------

    def run(self, max_steps: int = 10_000) -> ActivityRun:
        initial = self.activity.initial_node()
        if initial is None:
            raise SimulationError(
                f"activity '{self.activity.name}' has no initial node")
        run = ActivityRun(variables=self.variables)
        self.tokens = {id(initial): 1}
        self._join_arrivals.clear()
        while run.steps < max_steps:
            node = self._ready_node()
            if node is None:
                break
            run.steps += 1
            if self._fire(node, run):
                run.completed = True
                run.variables = self.variables
                return run
        run.deadlocked = any(count > 0 for count in self.tokens.values())
        run.variables = self.variables
        return run

    # -- stepping ----------------------------------------------------------

    def _ready_node(self) -> Optional[ActivityNode]:
        for node in self.activity.nodes:
            count = self.tokens.get(id(node), 0)
            if count <= 0:
                continue
            if isinstance(node, JoinNode):
                needed = len(node.incoming())
                if len(self._join_arrivals.get(id(node), ())) < needed:
                    continue
            return node
        return None

    def _fire(self, node: ActivityNode, run: ActivityRun) -> bool:
        """Fire *node*; returns True when the activity completed."""
        self.tokens[id(node)] -= 1
        if isinstance(node, ActivityFinalNode):
            run.visited.append(node.name)
            return True
        if isinstance(node, FlowFinalNode):
            run.visited.append(node.name)
            return False
        if isinstance(node, ActionNode):
            run.visited.append(node.name)
            self._execute(node.body)
            self._offer_all(node)
            return False
        if isinstance(node, (InitialNode, MergeNode)):
            self._offer_all(node)
            return False
        if isinstance(node, DecisionNode):
            self._offer_decision(node)
            return False
        if isinstance(node, ForkNode):
            for edge in node.outgoing():
                self._deliver(node, edge.target)
            return False
        if isinstance(node, JoinNode):
            self.tokens[id(node)] = 0
            self._join_arrivals.pop(id(node), None)
            self._offer_all(node)
            return False
        raise SimulationError(f"cannot fire node {node!r}")

    def _offer_all(self, node: ActivityNode) -> None:
        outgoing = node.outgoing()
        if not outgoing:
            return          # token dies silently at a sink action
        if len(outgoing) > 1:
            raise SimulationError(
                f"node '{node.name}' has {len(outgoing)} outgoing edges; "
                f"use a decision or fork node")
        self._deliver(node, outgoing[0].target)

    def _offer_decision(self, node: DecisionNode) -> None:
        default = None
        for edge in node.outgoing():
            guard = (edge.guard or "").strip()
            if guard in ("", "else"):
                default = default or edge
                continue
            if self._guard(guard):
                self._deliver(node, edge.target)
                return
        if default is None:
            raise SimulationError(
                f"decision '{node.name}': no branch enabled and no "
                f"else edge")
        self._deliver(node, default.target)

    def _deliver(self, source: ActivityNode,
                 target: Optional[ActivityNode]) -> None:
        if target is None:
            raise SimulationError(
                f"edge from '{source.name}' has no target")
        if isinstance(target, JoinNode):
            self._join_arrivals.setdefault(id(target), set()).add(
                id(source))
            self.tokens[id(target)] = 1
            return
        self.tokens[id(target)] = self.tokens.get(id(target), 0) + 1

    # -- expressions -------------------------------------------------------

    def _environment(self) -> Environment:
        env = Environment()
        env.define("self", self.variables)
        for key, value in self.variables.items():
            env.define(key, value)
        return env

    def _guard(self, guard: str) -> bool:
        try:
            return evaluate(guard, self._environment()) is True
        except OclError as exc:
            raise SimulationError(
                f"guard {guard!r} in activity "
                f"'{self.activity.name}' failed: {exc}") from exc

    def _execute(self, body: str) -> None:
        for stmt in parse_actions(body):
            if isinstance(stmt, AssignStmt):
                target = stmt.lhs.replace("self.", "")
                try:
                    self.variables[target] = evaluate(
                        stmt.rhs, self._environment())
                except OclError as exc:
                    raise SimulationError(
                        f"action {stmt.rhs!r} failed: {exc}") from exc
            # sends/calls are no-ops for standalone activities


def run_activity(activity: Activity,
                 variables: Optional[Dict[str, Any]] = None,
                 max_steps: int = 10_000) -> ActivityRun:
    """One-call convenience: execute *activity* over *variables*."""
    return ActivityInterpreter(activity, variables).run(max_steps)
