"""UML relationships: generalization, realization, associations,
dependencies.

Associations follow the UML ownership model: each navigable end is a
``Property`` owned by the classifier at the *other* end; non-navigable ends
are owned by the association itself.  Every end, wherever owned, appears in
``Association.member_ends``.
"""

from __future__ import annotations

from typing import List, Optional

from ..mof import (
    Attribute,
    M_0N,
    MBoolean,
    MString,
    Multiplicity,
    Reference,
)
from .classifiers import Classifier, Clazz, Interface
from .features import Property
from .package import PackageableElement

M_22 = Multiplicity(2, 2)


class Generalization(PackageableElement):
    """A taxonomic link: ``specific`` is-a ``general``.

    The paper insists inheritance is "the taxonomy mechanism it really is",
    not a development mechanism; the well-formedness rules in
    ``repro.uml.wellformed`` and the metrics in ``repro.validation.metrics``
    lean on this distinction.
    """

    specific = Reference(Classifier,
                         doc="The more specific classifier (owner).")
    general = Reference(Classifier, opposite="incoming_generalizations",
                        doc="The more general classifier.")


class InterfaceRealization(PackageableElement):
    """A class promises to implement an interface's contract."""

    implementing_class = Reference(Clazz)
    contract = Reference(Interface)


class Association(PackageableElement):
    """A semantic relationship between (two) classifiers."""

    is_derived = Attribute(MBoolean, False)
    member_ends = Reference(Property, multiplicity=M_22, opposite="association",
                            doc="All ends, wherever owned.")
    owned_ends = Reference(Property, containment=True, multiplicity=M_0N,
                           doc="Ends not owned by a classifier "
                               "(non-navigable ends).")

    def end_for(self, classifier: Classifier) -> Optional[Property]:
        """The end typed by *classifier* (first match)."""
        for end in self.member_ends:
            if end.type is classifier:
                return end
        return None

    def other_end(self, classifier: Classifier) -> Optional[Property]:
        """The end whose type is not *classifier* (self-associations return
        the second end)."""
        ends = list(self.member_ends)
        non_matching = [e for e in ends if e.type is not classifier]
        if non_matching:
            return non_matching[0]
        return ends[1] if len(ends) > 1 else None

    def classifiers(self) -> List[Classifier]:
        return [end.type for end in self.member_ends if end.type is not None]


class Dependency(PackageableElement):
    """The client requires the supplier for its specification or
    implementation."""

    client = Reference(PackageableElement)
    supplier = Reference(PackageableElement)


class Usage(Dependency):
    """A dependency in which the client *uses* the supplier."""


class Abstraction(Dependency):
    """Client and supplier represent the same concept at different
    abstraction levels — the static record of a refinement."""

    mapping = Attribute(MString,
                        doc="Name of the transformation that produced the "
                            "client from the supplier.")


class Refinement(Abstraction):
    """A PSM element refining a PIM element (client refines supplier)."""
