"""Dynamic metamodel definition helpers.

Static metamodels are written as ``Element`` subclasses; this module covers
the other half of MOF: defining metaclasses *at runtime*, which is what a
transformation that targets a freshly loaded metamodel needs.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Union

from .errors import MetamodelError
from .kernel import (
    Attribute,
    Element,
    MetaClass,
    MetaEnum,
    MetaPackage,
    Reference,
)
from .types import M_01, Multiplicity, PrimitiveType


def define_package(name: str, uri: Optional[str] = None,
                   parent: Optional[MetaPackage] = None) -> MetaPackage:
    """Create a new metamodel package."""
    return MetaPackage(name, uri=uri, parent=parent)


def define_enum(package: MetaPackage, name: str,
                literals: Iterable[str]) -> MetaEnum:
    """Define an enumeration inside *package*."""
    return MetaEnum(name, literals, package=package)


def define_class(package: MetaPackage, name: str, *,
                 superclasses: Sequence[Union[MetaClass, type]] = (),
                 abstract: bool = False) -> MetaClass:
    """Define a metaclass inside *package*.

    Superclasses may be dynamic ``MetaClass`` objects or static ``Element``
    subclasses (their harvested metaclass is used).
    """
    resolved = []
    for sup in superclasses:
        if isinstance(sup, MetaClass):
            resolved.append(sup)
        elif isinstance(sup, type) and issubclass(sup, Element):
            resolved.append(sup._meta)
        else:
            raise MetamodelError(f"invalid superclass spec {sup!r}")
    return MetaClass(name, package=package, superclasses=resolved,
                     abstract=abstract)


def add_attribute(metaclass: MetaClass, name: str,
                  type: Union[PrimitiveType, MetaEnum],
                  default: Any = None, *,
                  multiplicity: Multiplicity = M_01,
                  ordered: bool = True, doc: str = "") -> Attribute:
    """Declare an attribute on a dynamic metaclass."""
    attribute = Attribute(type, default, multiplicity=multiplicity,
                          ordered=ordered, doc=doc)
    attribute.name = name
    metaclass.add_feature(attribute)
    return attribute


def add_reference(metaclass: MetaClass, name: str,
                  target: Union[MetaClass, type, str], *,
                  containment: bool = False,
                  opposite: Optional[str] = None,
                  multiplicity: Multiplicity = M_01,
                  ordered: bool = True, doc: str = "") -> Reference:
    """Declare a reference on a dynamic metaclass."""
    reference = Reference(target, containment=containment, opposite=opposite,
                          multiplicity=multiplicity, ordered=ordered, doc=doc)
    reference.name = name
    metaclass.add_feature(reference)
    return reference
