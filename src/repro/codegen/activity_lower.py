"""Lowering UML activities to IR functions.

Structured activities — initial → actions/decisions/merges → final —
compile to a single IR function with nested ``if``/``else`` blocks.
Decisions become conditionals; merges are join points of the structured
control flow; fork/join (true concurrency) has no direct expression in a
sequential 3GL function and is rejected with a clear error.

The same activity therefore has *two* semantics-preserving consumers: the
token interpreter (:mod:`repro.validation.activity_sim`) and this
lowering — mirroring the state-machine story.
"""

from __future__ import annotations

from typing import List, Optional, Set

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
from .actions import parse_actions, qualify_identifiers, qualify_stmt
from .ir import (
    CommentStmt,
    FunctionDecl,
    IfStmt,
    Param,
    ReturnStmt,
    Stmt,
)


class ActivityLoweringError(Exception):
    """The activity uses constructs a sequential function cannot express."""


def lower_activity(activity: Activity, *,
                   function_name: Optional[str] = None,
                   parameters: Optional[List[Param]] = None,
                   field_names: Optional[Set[str]] = None,
                   max_nodes: int = 10_000) -> FunctionDecl:
    """Compile *activity* to an IR function.

    ``field_names`` get ``self.``-qualified (as in state-machine
    lowering).  Loops in the graph are rejected (they need a structured
    loop-recovery pass this subset does not implement); so are fork/join.
    """
    for node in activity.nodes:
        if isinstance(node, (ForkNode, JoinNode)):
            raise ActivityLoweringError(
                f"activity '{activity.name}' uses fork/join; sequential "
                f"lowering cannot express concurrency")
    initial = activity.initial_node()
    if initial is None:
        raise ActivityLoweringError(
            f"activity '{activity.name}' has no initial node")

    function = FunctionDecl(
        name=function_name or activity.name or "activity",
        return_type="void",
        params=list(parameters or []),
        doc=f"compiled from activity '{activity.name}'")
    fields = field_names or set()

    def _single_successor(node: ActivityNode) -> Optional[ActivityNode]:
        outgoing = node.outgoing()
        if not outgoing:
            return None
        if len(outgoing) > 1:
            raise ActivityLoweringError(
                f"node '{node.name}' has {len(outgoing)} unguarded "
                f"outgoing edges")
        return outgoing[0].target

    def _lower_from(node: Optional[ActivityNode],
                    stop: Optional[ActivityNode],
                    on_path: frozenset) -> List[Stmt]:
        """Statements from *node* until *stop* (exclusive) or a final."""
        statements: List[Stmt] = []
        current = node
        steps = 0
        while current is not None and current is not stop:
            steps += 1
            if steps > max_nodes:
                raise ActivityLoweringError("activity too large")
            if id(current) in on_path:
                raise ActivityLoweringError(
                    f"cycle through '{current.name}'; structured "
                    f"lowering supports acyclic activities")
            on_path = on_path | {id(current)}
            if isinstance(current, ActivityFinalNode):
                statements.append(ReturnStmt())
                return statements
            if isinstance(current, FlowFinalNode):
                statements.append(CommentStmt(text="flow ends"))
                return statements
            if isinstance(current, (InitialNode, MergeNode)):
                current = _single_successor(current)
                continue
            if isinstance(current, ActionNode):
                for stmt in parse_actions(current.body):
                    statements.append(qualify_stmt(stmt, fields))
                current = _single_successor(current)
                continue
            if isinstance(current, DecisionNode):
                statements.extend(
                    _lower_decision(current, stop, on_path))
                return statements
            raise ActivityLoweringError(
                f"unsupported node {current!r}")
        return statements

    def _merge_point(decision: DecisionNode) -> Optional[ActivityNode]:
        """The common node where the decision's branches reconverge:
        the first MergeNode reachable from every branch, else None
        (branches each run to a final)."""
        def reachable_merges(start: Optional[ActivityNode]) -> List[int]:
            out: List[int] = []
            seen: Set[int] = set()
            frontier = [start] if start is not None else []
            while frontier:
                candidate = frontier.pop(0)
                if candidate is None or id(candidate) in seen:
                    continue
                seen.add(id(candidate))
                if isinstance(candidate, MergeNode):
                    out.append(id(candidate))
                for edge in candidate.outgoing():
                    frontier.append(edge.target)
            return out
        branch_targets = [edge.target for edge in decision.outgoing()]
        merge_sets = [set(reachable_merges(t)) for t in branch_targets]
        common = set.intersection(*merge_sets) if merge_sets else set()
        if not common:
            return None
        for node in activity.nodes:           # stable order
            if id(node) in common:
                return node
        return None

    def _lower_decision(decision: DecisionNode,
                        stop: Optional[ActivityNode],
                        on_path: frozenset) -> List[Stmt]:
        merge = _merge_point(decision)
        guarded = [e for e in decision.outgoing()
                   if (e.guard or "").strip() not in ("", "else")]
        defaults = [e for e in decision.outgoing()
                    if (e.guard or "").strip() in ("", "else")]
        chain: List[Stmt] = []
        if defaults:
            chain = _lower_from(defaults[0].target, merge, on_path)
        for edge in reversed(guarded):
            chain = [IfStmt(
                condition=qualify_identifiers(edge.guard, fields),
                then_body=_lower_from(edge.target, merge, on_path),
                else_body=chain)]
        statements = list(chain)
        if merge is not None:
            statements.extend(_lower_from(merge, stop, on_path))
        return statements

    function.body = _lower_from(initial, None, frozenset())
    return function
