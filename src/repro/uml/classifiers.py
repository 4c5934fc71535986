"""UML classifiers: classes, interfaces, data types, enumerations, signals.

Structural features (properties, operations) are defined in
``repro.uml.features``; the containment references that tie them to
classifiers live here and use string targets resolved within the shared
``UML`` metamodel package.
"""

from __future__ import annotations

from typing import List, Optional

from ..mof import (
    Attribute,
    M_0N,
    MBoolean,
    MString,
    Reference,
)
from .package import NamedElement, PackageableElement


class Type(PackageableElement):
    """Anything usable as the type of a typed element."""

    _mof_abstract = True


class Classifier(Type):
    """A type with features and generalizations."""

    _mof_abstract = True

    is_abstract = Attribute(MBoolean, False)
    generalizations = Reference("Generalization", containment=True,
                                multiplicity=M_0N, opposite="specific",
                                doc="Owned generalization links to more "
                                    "general classifiers.")
    incoming_generalizations = Reference("Generalization",
                                         multiplicity=M_0N,
                                         doc="Generalizations whose general "
                                             "end is this classifier.")

    # -- generalization convenience -------------------------------------

    def supers(self) -> List["Classifier"]:
        """Directly more general classifiers."""
        return [g.general for g in self.generalizations
                if g.general is not None]

    def all_supers(self) -> List["Classifier"]:
        """Transitively more general classifiers, nearest first."""
        out: List[Classifier] = []
        stack = self.supers()
        while stack:
            sup = stack.pop(0)
            if sup in out:
                continue
            out.append(sup)
            stack.extend(sup.supers())
        return out

    def specializations(self) -> List["Classifier"]:
        """Direct specializations (requires same-model scan via opposite)."""
        return [g.specific for g in self._incoming_generalizations()]

    def _incoming_generalizations(self):
        # Generalization.general has opposite 'specializations_of' stored here
        return list(self.eget("incoming_generalizations"))

    def conforms_to(self, other: "Classifier") -> bool:
        """UML type conformance: self is other or a descendant of it."""
        return self is other or other in self.all_supers()

    def add_super(self, general: "Classifier") -> "Generalization":
        """Create and own a generalization to *general*."""
        from .relationships import Generalization
        link = Generalization(general=general)
        self.generalizations.append(link)
        return link

    def inheritance_depth(self) -> int:
        """Length of the longest generalization path above this classifier."""
        supers = self.supers()
        if not supers:
            return 0
        return 1 + max(s.inheritance_depth() for s in supers)


class DataType(Classifier):
    """A value type (no identity): primitives and structured values."""


class PrimitiveDataType(DataType):
    """A UML-level primitive type (String, Integer, Real, Boolean)."""


class EnumerationLiteral(NamedElement):
    """One literal of an :class:`Enumeration`."""


class Enumeration(DataType):
    """A user-defined enumeration type."""

    literals = Reference(EnumerationLiteral, containment=True,
                         multiplicity=M_0N)

    def add_literal(self, name: str) -> EnumerationLiteral:
        literal = EnumerationLiteral(name=name)
        self.literals.append(literal)
        return literal

    def literal_names(self) -> List[str]:
        return [lit.name for lit in self.literals]


class StructuredClassifier(Classifier):
    """A classifier with owned attributes and operations."""

    _mof_abstract = True

    owned_attributes = Reference("Property", containment=True,
                                 multiplicity=M_0N, opposite="owner",
                                 doc="Attributes and navigable association "
                                     "ends owned by this classifier.")
    owned_operations = Reference("Operation", containment=True,
                                 multiplicity=M_0N, opposite="owner")

    # -- feature lookup --------------------------------------------------

    def attribute(self, name: str) -> Optional["Property"]:
        for prop in self.all_attributes():
            if prop.name == name:
                return prop
        return None

    def operation(self, name: str) -> Optional["Operation"]:
        for op in self.all_operations():
            if op.name == name:
                return op
        return None

    def all_attributes(self) -> List["Property"]:
        """Own attributes plus inherited ones (inherited first)."""
        out: List["Property"] = []
        for sup in reversed(self.all_supers()):
            if isinstance(sup, StructuredClassifier):
                out.extend(sup.owned_attributes)
        out.extend(self.owned_attributes)
        return out

    def all_operations(self) -> List["Operation"]:
        out: List["Operation"] = []
        for sup in reversed(self.all_supers()):
            if isinstance(sup, StructuredClassifier):
                out.extend(sup.owned_operations)
        out.extend(self.owned_operations)
        return out


class Interface(StructuredClassifier):
    """A declaration of a coherent set of public features."""


class Clazz(StructuredClassifier):
    """A UML Class (named ``Clazz`` to avoid the Python keyword).

    Besides attributes and operations, a class may own behaviour (state
    machines), realize interfaces, and own ports (see components module).
    """

    is_active = Attribute(MBoolean, False,
                          doc="Active objects own a thread of control.")
    interface_realizations = Reference("InterfaceRealization",
                                       containment=True, multiplicity=M_0N,
                                       opposite="implementing_class")
    owned_behaviors = Reference("Behavior", containment=True,
                                multiplicity=M_0N,
                                doc="Owned behaviours, e.g. state machines.")
    classifier_behavior = Reference("Behavior",
                                    doc="The behaviour started when an "
                                        "instance is created.")

    def realize(self, interface: Interface) -> "InterfaceRealization":
        from .relationships import InterfaceRealization
        link = InterfaceRealization(contract=interface)
        self.interface_realizations.append(link)
        return link

    def realized_interfaces(self) -> List[Interface]:
        return [r.contract for r in self.interface_realizations
                if r.contract is not None]

    def state_machine(self) -> Optional["StateMachine"]:
        """The classifier behaviour if it is a state machine, else the first
        owned state machine."""
        from .statemachines import StateMachine
        behavior = self.classifier_behavior
        if isinstance(behavior, StateMachine):
            return behavior
        for owned in self.owned_behaviors:
            if isinstance(owned, StateMachine):
                return owned
        return None


class Signal(Classifier):
    """A specification of an asynchronous stimulus."""

    parameters = Reference("Parameter", containment=True, multiplicity=M_0N)


class Behavior(Clazz):
    """Abstract behaviour; concrete kinds: OpaqueBehavior, StateMachine,
    Interaction."""

    _mof_abstract = True


class OpaqueBehavior(Behavior):
    """Behaviour given as text in some action language."""

    body = Attribute(MString, "")
    language = Attribute(MString, "action")
