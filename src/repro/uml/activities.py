"""UML activities: token-flow behaviour.

The second behaviour formalism of UML2 (next to state machines): action
nodes connected by control-flow edges, with decision/merge and fork/join
control nodes.  Actions use the same action mini-language as state-machine
effects; edge guards the same OCL-like expressions — so activities are
simulated by :mod:`repro.validation.activity_sim` with identical
semantics to the rest of the framework.
"""

from __future__ import annotations

from typing import List, Optional

from ..mof import (
    Attribute,
    M_0N,
    MString,
    Reference,
)
from .classifiers import Behavior
from .package import NamedElement


class ActivityNode(NamedElement):
    """A node of an activity graph."""

    _mof_abstract = True

    def outgoing(self) -> List["ActivityEdge"]:
        activity = self.container
        if not isinstance(activity, Activity):
            return []
        return [e for e in activity.edges if e.source is self]

    def incoming(self) -> List["ActivityEdge"]:
        activity = self.container
        if not isinstance(activity, Activity):
            return []
        return [e for e in activity.edges if e.target is self]


class InitialNode(ActivityNode):
    """Where the control token starts."""


class ActivityFinalNode(ActivityNode):
    """Terminates the activity when a token arrives."""


class FlowFinalNode(ActivityNode):
    """Consumes one token without terminating the activity."""


class ActionNode(ActivityNode):
    """An executable step; ``body`` is an action-language program."""

    body = Attribute(MString, "")


class DecisionNode(ActivityNode):
    """Routes a token along the first outgoing edge whose guard holds
    (``else`` or guardless edges are the default branch)."""


class MergeNode(ActivityNode):
    """Passes any incoming token straight through."""


class ForkNode(ActivityNode):
    """Duplicates an incoming token onto every outgoing edge."""


class JoinNode(ActivityNode):
    """Emits one token once every incoming edge has delivered one."""


class ActivityEdge(NamedElement):
    """A control flow between two nodes, optionally guarded."""

    source = Reference(ActivityNode)
    target = Reference(ActivityNode)
    guard = Attribute(MString, doc="OCL-like guard; '' or 'else' = "
                                   "default branch on decisions.")


class Activity(Behavior):
    """A behaviour expressed as a token-flow graph."""

    nodes = Reference(ActivityNode, containment=True, multiplicity=M_0N)
    edges = Reference(ActivityEdge, containment=True, multiplicity=M_0N)

    # -- construction helpers -------------------------------------------

    def add_initial(self, name: str = "start") -> InitialNode:
        node = InitialNode(name=name)
        self.nodes.append(node)
        return node

    def add_final(self, name: str = "end") -> ActivityFinalNode:
        node = ActivityFinalNode(name=name)
        self.nodes.append(node)
        return node

    def add_flow_final(self, name: str = "flow_end") -> FlowFinalNode:
        node = FlowFinalNode(name=name)
        self.nodes.append(node)
        return node

    def add_action(self, name: str, body: str = "") -> ActionNode:
        node = ActionNode(name=name, body=body)
        self.nodes.append(node)
        return node

    def add_decision(self, name: str = "decision") -> DecisionNode:
        node = DecisionNode(name=name)
        self.nodes.append(node)
        return node

    def add_merge(self, name: str = "merge") -> MergeNode:
        node = MergeNode(name=name)
        self.nodes.append(node)
        return node

    def add_fork(self, name: str = "fork") -> ForkNode:
        node = ForkNode(name=name)
        self.nodes.append(node)
        return node

    def add_join(self, name: str = "join") -> JoinNode:
        node = JoinNode(name=name)
        self.nodes.append(node)
        return node

    def flow(self, source: ActivityNode, target: ActivityNode,
             guard: str = "", name: str = "") -> ActivityEdge:
        edge = ActivityEdge(name=name, source=source, target=target,
                            guard=guard)
        self.edges.append(edge)
        return edge

    # -- queries ----------------------------------------------------------

    def initial_node(self) -> Optional[InitialNode]:
        for node in self.nodes:
            if isinstance(node, InitialNode):
                return node
        return None

    def node(self, name: str) -> Optional[ActivityNode]:
        for node in self.nodes:
            if node.name == name:
                return node
        return None

    def actions(self) -> List[ActionNode]:
        return [n for n in self.nodes if isinstance(n, ActionNode)]
