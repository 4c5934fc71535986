"""Behavioural lint rules for state machines.

=======  ============================================================
SM001    unreachable (dead) state or pseudostate
SM002    transition that can never fire (unsatisfiable guard)
SM003    nondeterministic conflict: overlapping guards out of one
         state for the same trigger — the static race detector for
         the collaboration simulator
=======  ============================================================

SM003 only reports *proven* overlaps.  Guards are decomposed into
conjunctions of variable-vs-constant comparisons; two guards conflict
when the combined constraint store stays satisfiable (and are cleared
when some shared variable's constraints contradict — e.g.
``balance >= 100`` against ``balance < 100``).  Guards the prover
cannot decompose are never reported, so the rule stays free of false
positives by construction.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ocl.ast import BinOp, Ident, Literal, Nav, Node, SelfExpr, UnOp
from ..ocl.compile import parse_cached
from ..ocl.errors import OclError
from ..uml.statemachines import (
    Pseudostate,
    Region,
    State,
    StateMachine,
    Transition,
    Vertex,
)
from .diagnostics import Diagnostic
from .registry import lint_rule
from .runner import LintContext

# ---------------------------------------------------------------------------
# Guard constraint extraction (the tiny disjointness prover)
# ---------------------------------------------------------------------------

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}

#: one atomic constraint: (operator, constant)
Atom = Tuple[str, object]


def _conjuncts(node: Node) -> List[Node]:
    if isinstance(node, BinOp) and node.op == "and":
        return _conjuncts(node.left) + _conjuncts(node.right)
    return [node]


def _variable_name(node: Node) -> Optional[str]:
    if isinstance(node, Ident):
        return node.name
    if isinstance(node, Nav) and isinstance(node.source, SelfExpr):
        return node.name
    return None


def guard_constraints(guard: str) -> Optional[Dict[str, List[Atom]]]:
    """Decompose *guard* into per-variable atomic constraints.

    Returns None when any conjunct is outside the decidable fragment
    (variable OP constant, a bare boolean variable, or its negation).
    """
    text = (guard or "").strip()
    if not text:
        return {}
    try:
        ast = parse_cached(text)
    except OclError:
        return None
    store: Dict[str, List[Atom]] = {}
    for conjunct in _conjuncts(ast):
        atom = _atomize(conjunct)
        if atom is None:
            return None
        name, op, value = atom
        store.setdefault(name, []).append((op, value))
    return store


def _atomize(node: Node) -> Optional[Tuple[str, str, object]]:
    name = _variable_name(node)
    if name is not None:                       # bare boolean shorthand
        return (name, "=", True)
    if isinstance(node, UnOp) and node.op == "not":
        inner = _variable_name(node.operand)
        if inner is not None:
            return (inner, "=", False)
        return None
    if isinstance(node, BinOp) and node.op in _FLIP:
        left_var = _variable_name(node.left)
        right_var = _variable_name(node.right)
        if left_var is not None and isinstance(node.right, Literal):
            return (left_var, node.op, node.right.value)
        if right_var is not None and isinstance(node.left, Literal):
            return (right_var, _FLIP[node.op], node.left.value)
    return None


def _satisfiable(atoms: List[Atom]) -> bool:
    """Can one value satisfy every atom?  (constants only, so decidable)"""
    equals: Set[object] = set()
    not_equals: Set[object] = set()
    low: Tuple[float, bool] = (float("-inf"), False)   # (bound, inclusive)
    high: Tuple[float, bool] = (float("inf"), False)
    for op, value in atoms:
        if op == "=":
            equals.add(value)
        elif op == "<>":
            not_equals.add(value)
        else:
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                return True        # non-numeric ordering: give up, assume sat
            number = float(value)
            if op == ">":
                if number >= low[0]:
                    low = (number, False)
            elif op == ">=":
                if number > low[0]:
                    low = (number, True)
            elif op == "<":
                if number <= high[0]:
                    high = (number, False)
            elif op == "<=":
                if number < high[0]:
                    high = (number, True)
    if len({repr(v) for v in equals}) > 1:
        return False
    if equals & not_equals:
        return False
    if equals:
        value = next(iter(equals))
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            number = float(value)
            if number < low[0] or (number == low[0] and not low[1]):
                return False
            if number > high[0] or (number == high[0] and not high[1]):
                return False
        return True
    if low[0] > high[0]:
        return False
    if low[0] == high[0] and not (low[1] and high[1]):
        return False
    return True


def guards_overlap(first: str, second: str) -> Optional[bool]:
    """True = proven overlap, False = proven disjoint, None = unknown."""
    first = (first or "").strip()
    second = (second or "").strip()
    if first == second:
        return True                      # same (or both empty) guard
    c1 = guard_constraints(first)
    c2 = guard_constraints(second)
    if c1 is None or c2 is None:
        # undecidable — except that an empty guard overlaps anything
        # whose satisfiability we can at least establish
        if first == "" and c2:
            return True
        if second == "" and c1:
            return True
        return None
    merged: Dict[str, List[Atom]] = {}
    for store in (c1, c2):
        for name, atoms in store.items():
            merged.setdefault(name, []).extend(atoms)
    for atoms in merged.values():
        if not _satisfiable(atoms):
            return False
    return True


def guard_unsatisfiable(guard: str) -> bool:
    """True when the guard provably never holds (e.g. ``false``,
    ``x > 2 and x < 1``)."""
    store = guard_constraints(guard)
    if store is None:
        text = (guard or "").strip()
        return text == "false"
    return any(not _satisfiable(atoms) for atoms in store.values())


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------


def _machine_regions(machine: StateMachine) -> List[Region]:
    regions = list(machine.regions)
    for vertex in machine.all_vertices():
        if isinstance(vertex, State):
            regions.extend(vertex.regions)
    return regions


def reachable_vertices(machine: StateMachine) -> Optional[Set[int]]:
    """ids of vertices reachable from the top-level initial pseudostates.

    Entering a composite state enters its regions' initial pseudostates;
    being in a substate keeps every ancestor composite active (so its
    outgoing transitions remain fireable).  Returns None when the
    machine has no top-level initial (well-formedness flags that).
    """
    roots: List[Vertex] = []
    for region in machine.regions:
        initial = region.initial_pseudostate()
        if initial is not None:
            roots.append(initial)
    if not roots:
        return None

    outgoing: Dict[int, List[Transition]] = {}
    vertices: Dict[int, Vertex] = {}
    for region in _machine_regions(machine):
        for transition in region.transitions:
            if transition.source is not None:
                outgoing.setdefault(id(transition.source),
                                    []).append(transition)
        for vertex in region.subvertices:
            vertices[id(vertex)] = vertex

    reached: Set[int] = set()
    frontier = list(roots)
    while frontier:
        vertex = frontier.pop()
        if id(vertex) in reached:
            continue
        reached.add(id(vertex))
        for transition in outgoing.get(id(vertex), ()):
            if transition.target is not None:
                frontier.append(transition.target)
        if isinstance(vertex, State):
            for region in vertex.regions:
                initial = region.initial_pseudostate()
                if initial is not None:
                    frontier.append(initial)
        # a reachable substate keeps its ancestors active
        container = vertex.container
        while isinstance(container, Region):
            parent = container.container
            if isinstance(parent, State):
                frontier.append(parent)
                container = parent.container
            else:
                break
    return reached


# ---------------------------------------------------------------------------
# The rules
# ---------------------------------------------------------------------------


@lint_rule("SM001", "dead-state", "statemachine",
           description="states unreachable from the initial pseudostate")
def check_dead_states(machine: StateMachine,
                      ctx: LintContext) -> Iterable[Diagnostic]:
    reached = reachable_vertices(machine)
    if reached is None:
        return                        # no initial: well-formedness territory
    ctx.cache[("reachable", id(machine))] = reached
    for vertex in machine.all_vertices():
        if id(vertex) in reached:
            continue
        if isinstance(vertex, Pseudostate) and vertex.kind == "initial":
            continue                  # nested initials are entry points
        kind = ("state" if isinstance(vertex, State)
                else type(vertex).__name__.lower())
        yield ctx.diag(
            vertex,
            f"{kind} '{vertex.name}' in machine '{machine.name}' is "
            f"unreachable from the initial state",
            hint="add a transition leading here or delete the state")


@lint_rule("SM002", "dead-transition", "statemachine",
           description="transitions whose guard can never hold")
def check_dead_transitions(machine: StateMachine,
                           ctx: LintContext) -> Iterable[Diagnostic]:
    for transition in machine.all_transitions():
        if guard_unsatisfiable(transition.guard):
            source = transition.source.name if transition.source else "?"
            yield ctx.diag(
                transition,
                f"transition from '{source}' on "
                f"'{transition.trigger or 'completion'}' can never fire: "
                f"guard [{transition.guard}] is unsatisfiable",
                hint="remove the transition or fix the guard")


@lint_rule("SM003", "transition-conflict", "statemachine",
           description="overlapping guards out of one state for the "
                       "same trigger (nondeterminism)")
def check_transition_conflicts(machine: StateMachine,
                               ctx: LintContext) -> Iterable[Diagnostic]:
    by_source: Dict[int, List[Transition]] = {}
    for transition in machine.all_transitions():
        source = transition.source
        if not isinstance(source, State):
            continue                 # choice/junction branches are ordered
        by_source.setdefault(id(source), []).append(transition)
    for transitions in by_source.values():
        by_trigger: Dict[str, List[Transition]] = {}
        for transition in transitions:
            by_trigger.setdefault(transition.trigger or "",
                                  []).append(transition)
        for trigger, group in by_trigger.items():
            for index, first in enumerate(group):
                for second in group[index + 1:]:
                    if guards_overlap(first.guard, second.guard):
                        source = first.source.name if first.source else "?"
                        label = trigger or "completion"
                        yield ctx.diag(
                            second,
                            f"state '{source}' has overlapping guards "
                            f"on '{label}': [{first.guard or 'true'}] vs "
                            f"[{second.guard or 'true'}] — which "
                            f"transition fires is nondeterministic",
                            hint="make the guards mutually exclusive")
