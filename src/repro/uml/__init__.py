"""``repro.uml`` — a UML metamodel subset (the M2 layer).

Defined entirely with the :mod:`repro.mof` kernel, so every UML model is
reflective, serializable and transformable.  Coverage: packages, classes,
interfaces, data types, enumerations, associations with UML ownership
semantics, generalization-as-taxonomy, hierarchical state machines,
interactions (sequence diagrams), use cases (as test obligations),
components, ports, connectors and deployment nodes — plus the
well-formedness rules of :mod:`repro.uml.wellformed` and the model-building
:class:`ModelFactory`.
"""

from .activities import (
    ActionNode,
    Activity,
    ActivityEdge,
    ActivityFinalNode,
    ActivityNode,
    DecisionNode,
    FlowFinalNode,
    ForkNode,
    InitialNode,
    JoinNode,
    MergeNode,
)
from .classifiers import (
    Behavior,
    Classifier,
    Clazz,
    DataType,
    Enumeration,
    EnumerationLiteral,
    Interface,
    OpaqueBehavior,
    PrimitiveDataType,
    Signal,
    StructuredClassifier,
    Type,
)
from .components import (
    Artifact,
    Component,
    Connector,
    ConnectorEnd,
    Deployment,
    ExecutionNode,
    Port,
)
from .diagrams import activity_diagram, class_diagram, statemachine_diagram
from .factory import ModelFactory, primitive_types_package
from .features import (
    AggregationKind,
    MultiplicityElement,
    Operation,
    Parameter,
    ParameterDirection,
    Property,
    TypedElement,
    VisibilityKind,
)
from .interactions import Interaction, Lifeline, Message, MessageSort
from .package import (
    Comment,
    NamedElement,
    Package,
    PackageableElement,
    UML,
    UmlElement,
    UmlModel,
)
from .relationships import (
    Abstraction,
    Association,
    Dependency,
    Generalization,
    InterfaceRealization,
    Refinement,
    Usage,
)
from .statemachines import (
    FinalState,
    Pseudostate,
    PseudostateKind,
    Region,
    State,
    StateMachine,
    Transition,
    Vertex,
)
from .usecases import Actor, UseCase
from .wellformed import ALL_RULES, run_wellformed_rules

__all__ = [
    "ALL_RULES", "ActionNode", "Activity", "ActivityEdge",
    "ActivityFinalNode", "ActivityNode", "DecisionNode", "FlowFinalNode",
    "ForkNode", "InitialNode", "JoinNode", "MergeNode",
    "activity_diagram", "class_diagram", "statemachine_diagram", "Abstraction", "Actor", "AggregationKind", "Artifact",
    "Association", "Behavior", "Classifier", "Clazz", "Comment",
    "Component", "Connector", "ConnectorEnd", "DataType", "Dependency",
    "Deployment", "Enumeration", "EnumerationLiteral", "ExecutionNode",
    "FinalState", "Generalization", "Interaction", "Interface",
    "InterfaceRealization", "Lifeline", "Message", "MessageSort",
    "ModelFactory", "MultiplicityElement", "NamedElement", "OpaqueBehavior",
    "Operation", "Package", "PackageableElement", "Parameter",
    "ParameterDirection", "Port", "PrimitiveDataType", "Property",
    "Pseudostate", "PseudostateKind", "Refinement", "Region", "Signal",
    "State", "StateMachine", "StructuredClassifier", "Transition", "Type",
    "TypedElement", "UML", "UmlElement", "UmlModel", "Usage", "UseCase",
    "Vertex", "VisibilityKind", "run_wellformed_rules",
    "primitive_types_package",
]
