"""Reusable standard transformations.

* :class:`CloneRule` / :func:`clone_transformation` — a *syntactic*
  transformation: reflective deep copy of any model (same abstraction
  level, same semantics; the paper's example of what most "code
  generators" actually do);
* :func:`flatten_state_machine` — a *semantic* transformation collapsing a
  hierarchical state machine to an equivalent flat one (used by codegen
  and the model checker);
* :func:`state_machine_to_table` — the flat transition-table view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from ..mof.kernel import Attribute, Element, MetaClass, Reference
from ..uml.statemachines import (
    FinalState,
    Pseudostate,
    Region,
    State,
    StateMachine,
    Vertex,
)
from .engine import Transformation, TransformationContext
from .errors import TransformError
from .rule import Rule


class CloneRule(Rule):
    """Reflectively clones every element conforming to ``source_type``.

    create: fresh instance with primitive attributes copied;
    bind: containment re-established between images, cross-references
    resolved through the trace (dangling ones dropped).
    """

    def __init__(self, source_type: Union[MetaClass, type],
                 name: str = "clone"):
        super().__init__(name=name, source_type=source_type, exclusive=True)

    def create(self, source: Element, ctx: TransformationContext) -> Element:
        target = source.meta.instantiate()
        for feature in source.meta.all_features().values():
            if not isinstance(feature, Attribute) or feature.derived:
                continue
            if feature.many:
                target.eget(feature.name).extend(source.eget(feature.name))
            elif source.eis_set(feature.name):
                target.eset(feature.name, source.eget(feature.name))
        return target

    def bind(self, source: Element, targets: Dict[str, Element],
             ctx: TransformationContext) -> None:
        target = targets["default"]
        for feature in source.meta.all_features().values():
            if not isinstance(feature, Reference) or feature.derived:
                continue
            if not feature.containment:
                opposite = feature.opposite
                if opposite is not None and opposite.containment:
                    continue    # back-pointer: restored by containment
            value = source.eget(feature.name)
            originals = list(value) if feature.many else (
                [value] if value is not None else [])
            images = [ctx.resolve_optional(original)
                      for original in originals]
            images = [image for image in images if image is not None]
            if feature.many:
                collection = target.eget(feature.name)
                for image in images:
                    if image not in collection:
                        collection.append(image)
            elif images:
                current = target.eget(feature.name)
                if current is not images[0]:
                    target.eset(feature.name, images[0])


def clone_transformation(root_type: Union[MetaClass, type],
                         name: str = "identity") -> Transformation:
    """A syntactic identity transformation over models typed by
    *root_type* (use the metamodel's root, e.g. ``UmlElement``)."""
    return Transformation(name, [CloneRule(root_type)], kind="syntactic",
                          abstraction_delta=0,
                          description="reflective deep copy — same "
                                      "abstraction level, same semantics")


# ---------------------------------------------------------------------------
# State machine flattening
# ---------------------------------------------------------------------------

def _leaf_states(state: State) -> List[State]:
    if not state.is_composite:
        return [state]
    leaves: List[State] = []
    for sub in state.all_substates():
        if not sub.is_composite:
            leaves.append(sub)
    return leaves


def _flat_name(vertex: Vertex) -> str:
    """Qualified flat-state name: path of state names joined by '_'."""
    parts: List[str] = [vertex.name]
    current = vertex.container       # region
    while current is not None:
        parent = current.container   # state or machine
        if isinstance(parent, State):
            parts.append(parent.name)
            current = parent.container
        else:
            break
    return "_".join(reversed(parts))


def _initial_leaf(region: Region) -> State:
    """Follow initial pseudostates down to the default leaf state."""
    initial = region.initial_pseudostate()
    if initial is None:
        raise TransformError(
            f"region '{region.name}' has no initial pseudostate")
    outgoing = initial.outgoing()
    if len(outgoing) != 1:
        raise TransformError(
            f"initial pseudostate of region '{region.name}' must have "
            f"exactly one outgoing transition")
    target = outgoing[0].target
    if isinstance(target, State) and target.is_composite:
        return _entry_leaf(target)
    if isinstance(target, State):
        return target
    raise TransformError(
        f"initial transition of region '{region.name}' must enter a state")


def _entry_leaf(state: State) -> State:
    """The leaf reached when entering *state* by default."""
    if not state.is_composite:
        return state
    if len(state.regions) != 1:
        raise TransformError(
            f"flattening supports single-region composites; state "
            f"'{state.name}' has {len(state.regions)} regions")
    return _initial_leaf(state.regions[0])


def _entry_actions_to(leaf: State, boundary: Optional[State]) -> List[str]:
    """Entry actions executed descending from (exclusive) *boundary* down
    to *leaf*, outermost first."""
    chain: List[State] = []
    current: Optional[Element] = leaf
    while isinstance(current, State) and current is not boundary:
        chain.append(current)
        region = current.container
        current = region.container if region is not None else None
        if not isinstance(current, State):
            break
    actions = [s.entry for s in reversed(chain) if s.entry]
    return actions


def _exit_actions_from(leaf: State, boundary: Optional[State]) -> List[str]:
    """Exit actions executed ascending from *leaf* up to (exclusive)
    *boundary*, innermost first."""
    actions: List[str] = []
    current: Optional[Element] = leaf
    while isinstance(current, State) and current is not boundary:
        if current.exit:
            actions.append(current.exit)
        region = current.container
        current = region.container if region is not None else None
        if not isinstance(current, State):
            break
    return actions


def flatten_state_machine(machine: StateMachine,
                          name: Optional[str] = None) -> StateMachine:
    """Collapse a hierarchical (single-region-composite) state machine into
    an equivalent flat one.

    Transitions leaving a composite state are replicated from each of its
    leaf states; entry/exit actions along the crossed boundaries are
    composed into the transition effect, preserving UML run-to-completion
    semantics for the supported subset.
    """
    if len(machine.regions) != 1:
        raise TransformError("flattening expects exactly one top region")
    top = machine.regions[0]

    flat = StateMachine(name=name or f"{machine.name}_flat")
    flat_region = flat.add_region("main")
    flat_states: Dict[int, State] = {}
    flat_choices: Dict[int, Pseudostate] = {}

    def _state_image(leaf: State) -> State:
        image = flat_states.get(id(leaf))
        if image is None:
            image = flat_region.add_state(
                _flat_name(leaf), do_activity=leaf.do_activity)
            flat_states[id(leaf)] = image
        return image

    def _choice_image(choice: Pseudostate) -> Pseudostate:
        image = flat_choices.get(id(choice))
        if image is None:
            image = flat_region.add_choice(_flat_name(choice))
            flat_choices[id(choice)] = image
        return image

    # all leaf states anywhere in the hierarchy
    def _collect(region: Region):
        for vertex in region.subvertices:
            if isinstance(vertex, State):
                if vertex.is_composite:
                    for sub_region in vertex.regions:
                        _collect(sub_region)
                else:
                    _state_image(vertex)
    _collect(top)

    # initial
    initial_leaf = _initial_leaf(top)
    flat_initial = flat_region.add_initial()
    entry_chain = [a for a in _entry_actions_to(initial_leaf, None)]
    flat_region.add_transition(flat_initial, _state_image(initial_leaf),
                               effect="; ".join(entry_chain))

    final_image: Optional[FinalState] = None

    def _final_image() -> FinalState:
        nonlocal final_image
        if final_image is None:
            final_image = flat_region.add_final()
        return final_image

    # transitions
    def _lift(region: Region, enclosing: Optional[State]):
        for transition in region.transitions:
            source = transition.source
            target = transition.target
            if isinstance(source, Pseudostate) and source.kind == "initial":
                continue    # handled via entry chains
            if isinstance(source, Pseudostate) and source.kind == "choice":
                # choice -> X: entries composed, no exits (choice is
                # transient and belongs to 'enclosing')
                if isinstance(target, FinalState):
                    flat_region.add_transition(
                        _choice_image(source), _final_image(),
                        trigger=transition.trigger, guard=transition.guard,
                        effect=transition.effect)
                elif isinstance(target, Pseudostate) \
                        and target.kind == "choice":
                    flat_region.add_transition(
                        _choice_image(source), _choice_image(target),
                        trigger=transition.trigger, guard=transition.guard,
                        effect=transition.effect)
                elif isinstance(target, State):
                    target_leaf = _entry_leaf(target)
                    entries = _entry_actions_to(target_leaf, enclosing)
                    effect_parts = (([transition.effect]
                                     if transition.effect else [])
                                    + entries)
                    flat_region.add_transition(
                        _choice_image(source), _state_image(target_leaf),
                        trigger=transition.trigger, guard=transition.guard,
                        effect="; ".join(effect_parts))
                continue
            source_leaves: List[State]
            if isinstance(source, State):
                source_leaves = _leaf_states(source)
            else:
                continue    # junction/history unsupported in flat subset
            if transition.kind == "internal":
                for leaf in source_leaves:
                    flat_region.add_transition(
                        _state_image(leaf), _state_image(leaf),
                        trigger=transition.trigger, guard=transition.guard,
                        effect=transition.effect, kind="internal")
                continue
            for leaf in source_leaves:
                exits = _exit_actions_from(leaf, enclosing)
                if isinstance(target, FinalState):
                    effect_parts = exits + ([transition.effect]
                                            if transition.effect else [])
                    flat_region.add_transition(
                        _state_image(leaf), _final_image(),
                        trigger=transition.trigger, guard=transition.guard,
                        effect="; ".join(effect_parts))
                    continue
                if isinstance(target, Pseudostate) \
                        and target.kind == "choice":
                    exits = _exit_actions_from(leaf, enclosing)
                    effect_parts = exits + ([transition.effect]
                                            if transition.effect else [])
                    flat_region.add_transition(
                        _state_image(leaf), _choice_image(target),
                        trigger=transition.trigger, guard=transition.guard,
                        effect="; ".join(effect_parts))
                    continue
                if not isinstance(target, State):
                    continue
                target_leaf = _entry_leaf(target)
                entries = _entry_actions_to(target_leaf, enclosing)
                effect_parts = (exits
                                + ([transition.effect] if transition.effect
                                   else [])
                                + entries)
                flat_region.add_transition(
                    _state_image(leaf), _state_image(target_leaf),
                    trigger=transition.trigger, guard=transition.guard,
                    effect="; ".join(effect_parts))
        for vertex in region.subvertices:
            if isinstance(vertex, State) and vertex.is_composite:
                for sub_region in vertex.regions:
                    _lift(sub_region, vertex)
    _lift(top, None)
    return flat


@dataclass
class TransitionRow:
    """One row of a flat transition table."""

    source: str
    trigger: str
    guard: str
    effect: str
    target: str


def state_machine_to_table(machine: StateMachine) -> List[TransitionRow]:
    """The flat transition-table view (flattening first if needed)."""
    if any(s.is_composite for s in machine.all_vertices()
           if isinstance(s, State)):
        machine = flatten_state_machine(machine)
    rows: List[TransitionRow] = []
    for transition in machine.all_transitions():
        source = transition.source
        target = transition.target
        rows.append(TransitionRow(
            source=source.name if source else "?",
            trigger=transition.trigger,
            guard=transition.guard,
            effect=transition.effect,
            target=target.name if target else "?",
        ))
    return rows
