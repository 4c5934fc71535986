"""Graphviz DOT export for the three main diagram kinds.

Models must "convey information to the users of those models"; these
renderers turn class structures, state machines and activities into DOT
text any Graphviz installation draws.  Pure text generation — no external
dependency.
"""

from __future__ import annotations

from typing import List

from ..mof.query import instances_of
from .activities import (
    ActionNode,
    Activity,
    ActivityFinalNode,
    DecisionNode,
    FlowFinalNode,
    ForkNode,
    InitialNode,
    JoinNode,
    MergeNode,
)
from .classifiers import Behavior, Clazz, Enumeration, Interface
from .package import Package
from .relationships import Association
from .statemachines import (
    FinalState,
    Pseudostate,
    State,
    StateMachine,
)


def _quote(text: str) -> str:
    return '"' + text.replace('"', r'\"') + '"'


def _node_id(element) -> str:
    return f"n{element.eid}"


# ---------------------------------------------------------------------------
# class diagrams
# ---------------------------------------------------------------------------

def class_diagram(root: Package, *, show_members: bool = True) -> str:
    """All classifiers under *root* as a DOT digraph (UML-ish record
    nodes, open arrows for generalization, plain edges for
    associations)."""
    lines: List[str] = [
        f"digraph {_quote(root.name or 'model')} {{",
        "  rankdir=BT;",
        "  node [shape=record, fontsize=10];",
    ]
    classifiers = [c for c in instances_of(root, Clazz)
                   if not isinstance(c, Behavior)]
    classifiers += instances_of(root, Interface)
    classifiers += instances_of(root, Enumeration)
    for classifier in classifiers:
        label_parts = [classifier.name or "?"]
        if isinstance(classifier, Interface):
            label_parts[0] = f"«interface»\\n{label_parts[0]}"
        elif isinstance(classifier, Enumeration):
            label_parts[0] = f"«enumeration»\\n{label_parts[0]}"
        elif classifier.is_abstract:
            label_parts[0] = f"«abstract»\\n{label_parts[0]}"
        if show_members and hasattr(classifier, "owned_attributes"):
            attributes = "\\l".join(
                f"{p.name}: {p.type.name if p.type else '?'}"
                for p in classifier.owned_attributes) + "\\l" \
                if len(classifier.owned_attributes) else ""
            operations = "\\l".join(
                f"{op.name}()"
                for op in classifier.owned_operations) + "\\l" \
                if len(classifier.owned_operations) else ""
            label_parts.extend([attributes, operations])
        if isinstance(classifier, Enumeration):
            label_parts.append(
                "\\l".join(classifier.literal_names()) + "\\l"
                if classifier.literals else "")
        label = "{" + "|".join(label_parts) + "}"
        lines.append(f"  {_node_id(classifier)} [label={_quote(label)}];")

    drawn = {id(c) for c in classifiers}
    for classifier in classifiers:
        if not hasattr(classifier, "generalizations"):
            continue
        for sup in classifier.supers():
            if id(sup) in drawn:
                lines.append(
                    f"  {_node_id(classifier)} -> {_node_id(sup)} "
                    f"[arrowhead=onormal];")
    for association in instances_of(root, Association):
        ends = list(association.member_ends)
        if len(ends) != 2:
            continue
        left, right = ends[0].type, ends[1].type
        if left is None or right is None:
            continue
        if id(left) not in drawn or id(right) not in drawn:
            continue
        label = association.name or ""
        lines.append(
            f"  {_node_id(right)} -> {_node_id(left)} "
            f"[arrowhead=vee, label={_quote(label)}, fontsize=9, "
            f"constraint=false];")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# state machine diagrams
# ---------------------------------------------------------------------------

def statemachine_diagram(machine: StateMachine) -> str:
    """The machine's (flattened view of the top region) as a DOT
    digraph: rounded states, dot initial, double-circle final, diamond
    choices."""
    lines: List[str] = [
        f"digraph {_quote(machine.name or 'sm')} {{",
        "  rankdir=LR;",
        "  node [fontsize=10];",
    ]

    def _emit_region(region, prefix: str = "") -> None:
        for vertex in region.subvertices:
            node = _node_id(vertex)
            if isinstance(vertex, Pseudostate):
                if vertex.kind == "initial":
                    lines.append(f"  {node} [shape=point, width=0.15];")
                elif vertex.kind == "choice":
                    lines.append(f"  {node} [shape=diamond, "
                                 f"label=\"\", width=0.3];")
                else:
                    lines.append(f"  {node} [shape=circle, "
                                 f"label={_quote(vertex.kind)}];")
            elif isinstance(vertex, FinalState):
                lines.append(f"  {node} [shape=doublecircle, "
                             f"label=\"\", width=0.18];")
            elif isinstance(vertex, State):
                extras = []
                if vertex.entry:
                    extras.append(f"entry / {vertex.entry}")
                if vertex.exit:
                    extras.append(f"exit / {vertex.exit}")
                label = vertex.name + (
                    "\\n" + "\\n".join(extras) if extras else "")
                lines.append(f"  {node} [shape=box, style=rounded, "
                             f"label={_quote(label)}];")
                for sub_region in vertex.regions:
                    _emit_region(sub_region, prefix + vertex.name + "::")
        for transition in region.transitions:
            if transition.source is None or transition.target is None:
                continue
            lines.append(
                f"  {_node_id(transition.source)} -> "
                f"{_node_id(transition.target)} "
                f"[label={_quote(transition.label())}, fontsize=9];")

    for region in machine.regions:
        _emit_region(region)
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# activity diagrams
# ---------------------------------------------------------------------------

def activity_diagram(activity: Activity) -> str:
    """The activity as a DOT digraph with UML-conventional node shapes."""
    lines: List[str] = [
        f"digraph {_quote(activity.name or 'activity')} {{",
        "  rankdir=TB;",
        "  node [fontsize=10];",
    ]
    for node in activity.nodes:
        dot_node = _node_id(node)
        if isinstance(node, InitialNode):
            lines.append(f"  {dot_node} [shape=point, width=0.15];")
        elif isinstance(node, ActivityFinalNode):
            lines.append(f"  {dot_node} [shape=doublecircle, "
                         f"label=\"\", width=0.18];")
        elif isinstance(node, FlowFinalNode):
            lines.append(f"  {dot_node} [shape=circle, label=\"X\", "
                         f"width=0.2];")
        elif isinstance(node, DecisionNode):
            lines.append(f"  {dot_node} [shape=diamond, label=\"\", "
                         f"width=0.3];")
        elif isinstance(node, MergeNode):
            lines.append(f"  {dot_node} [shape=diamond, label=\"\", "
                         f"width=0.3, style=dashed];")
        elif isinstance(node, (ForkNode, JoinNode)):
            lines.append(f"  {dot_node} [shape=box, label=\"\", "
                         f"height=0.06, style=filled, "
                         f"fillcolor=black];")
        elif isinstance(node, ActionNode):
            label = node.name + (f"\\n{node.body}" if node.body else "")
            lines.append(f"  {dot_node} [shape=box, style=rounded, "
                         f"label={_quote(label)}];")
    for edge in activity.edges:
        if edge.source is None or edge.target is None:
            continue
        guard = f"[{edge.guard}]" if edge.guard else ""
        lines.append(f"  {_node_id(edge.source)} -> "
                     f"{_node_id(edge.target)} "
                     f"[label={_quote(guard)}, fontsize=9];")
    lines.append("}")
    return "\n".join(lines)
