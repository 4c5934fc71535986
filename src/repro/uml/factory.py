"""Convenience factory for building UML (M1) models.

The factory removes the boilerplate of stitching classes, properties and
associations together, and owns the standard primitive data types
(``STRING``, ``INTEGER``, ``REAL``, ``BOOLEAN``) every model shares.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

from .classifiers import (
    Classifier,
    Clazz,
    Enumeration,
    Interface,
    PrimitiveDataType,
)
from .features import Operation, Property
from .package import Package, UmlModel
from .relationships import Association


def primitive_types_package() -> Package:
    """A fresh package holding the four standard primitive types.

    Each model gets its own copy so that models stay self-contained
    (single containment root), mirroring how UML tools import a types
    library per model.
    """
    pkg = Package(name="PrimitiveTypes")
    for type_name in ("String", "Integer", "Real", "Boolean"):
        pkg.add(PrimitiveDataType(name=type_name))
    return pkg


class ModelFactory:
    """Builds an :class:`UmlModel` with a primitive-types library attached."""

    def __init__(self, name: str = "model"):
        self.model = UmlModel(name=name)
        self.types = primitive_types_package()
        self.model.add(self.types)

    # -- standard types ---------------------------------------------------

    @property
    def string(self) -> PrimitiveDataType:
        return self.types.member("String")

    @property
    def integer(self) -> PrimitiveDataType:
        return self.types.member("Integer")

    @property
    def real(self) -> PrimitiveDataType:
        return self.types.member("Real")

    @property
    def boolean(self) -> PrimitiveDataType:
        return self.types.member("Boolean")

    def type_named(self, name: str) -> Optional[Classifier]:
        """Find a type anywhere in the model by simple name."""
        for element in self.model.all_members():
            if isinstance(element, Classifier) and element.name == name:
                return element
        return None

    # -- structure ---------------------------------------------------------

    def package(self, name: str,
                parent: Optional[Package] = None) -> Package:
        pkg = Package(name=name)
        (parent or self.model).add(pkg)
        return pkg

    def clazz(self, name: str, *,
              package: Optional[Package] = None,
              attrs: Optional[Dict[str, Union[Classifier, str]]] = None,
              supers: Iterable[Clazz] = (),
              is_abstract: bool = False,
              is_active: bool = False) -> Clazz:
        """Create a class with attributes given as ``{name: type}``.

        Types may be classifiers or names of standard primitives.
        """
        cls = Clazz(name=name, is_abstract=is_abstract, is_active=is_active)
        (package or self.model).add(cls)
        for attr_name, attr_type in (attrs or {}).items():
            self.attribute(cls, attr_name, attr_type)
        for sup in supers:
            cls.add_super(sup)
        return cls

    def interface(self, name: str, *,
                  package: Optional[Package] = None,
                  operations: Iterable[str] = ()) -> Interface:
        iface = Interface(name=name)
        (package or self.model).add(iface)
        for op_name in operations:
            iface.owned_operations.append(Operation(name=op_name))
        return iface

    def enumeration(self, name: str, literals: Iterable[str], *,
                    package: Optional[Package] = None) -> Enumeration:
        enum = Enumeration(name=name)
        (package or self.model).add(enum)
        for literal in literals:
            enum.add_literal(literal)
        return enum

    def _resolve_type(self, type_spec: Union[Classifier, str, None]
                      ) -> Optional[Classifier]:
        if type_spec is None or isinstance(type_spec, Classifier):
            return type_spec
        resolved = self.type_named(type_spec)
        if resolved is None:
            raise KeyError(f"no type named {type_spec!r} in model "
                           f"'{self.model.name}'")
        return resolved

    def attribute(self, cls: Clazz, name: str,
                  type_spec: Union[Classifier, str, None] = None, *,
                  lower: int = 1, upper: int = 1,
                  default: Optional[str] = None) -> Property:
        prop = Property(name=name, lower=lower, upper=upper)
        resolved = self._resolve_type(type_spec)
        if resolved is not None:
            prop.type = resolved
        if default is not None:
            prop.default_value = default
        cls.owned_attributes.append(prop)
        return prop

    def operation(self, cls: Clazz, name: str, *,
                  params: Optional[Dict[str, Union[Classifier, str]]] = None,
                  returns: Union[Classifier, str, None] = None,
                  body: str = "", is_query: bool = False) -> Operation:
        op = Operation(name=name, is_query=is_query, body=body)
        for param_name, param_type in (params or {}).items():
            op.add_parameter(param_name, self._resolve_type(param_type))
        if returns is not None:
            op.add_parameter("result", self._resolve_type(returns),
                             direction="return")
        cls.owned_operations.append(op)
        return op

    def associate(self, a: Clazz, b: Clazz, *,
                  name: str = "",
                  end_a: str = "", end_b: str = "",
                  a_lower: int = 0, a_upper: int = 1,
                  b_lower: int = 0, b_upper: int = 1,
                  navigable_a_to_b: bool = True,
                  navigable_b_to_a: bool = False,
                  composite_a: bool = False,
                  package: Optional[Package] = None) -> Association:
        """Create a binary association between *a* and *b*.

        ``end_b`` names the end typed by *b* (reachable from *a*), and
        symmetrically for ``end_a``.  Navigable ends become owned attributes
        of the classifier at the other end; non-navigable ends are owned by
        the association.  ``composite_a`` marks *a* as composing *b*.
        """
        association = Association(name=name or f"{a.name}_{b.name}")
        (package or self.model).add(association)

        to_b = Property(name=end_b or b.name.lower(), type=b,
                        lower=b_lower, upper=b_upper)
        if composite_a:
            to_b.aggregation = "composite"
        to_a = Property(name=end_a or a.name.lower(), type=a,
                        lower=a_lower, upper=a_upper)

        if navigable_a_to_b:
            a.owned_attributes.append(to_b)
        else:
            association.owned_ends.append(to_b)
        if navigable_b_to_a:
            b.owned_attributes.append(to_a)
        else:
            association.owned_ends.append(to_a)

        association.member_ends.append(to_b)
        association.member_ends.append(to_a)
        return association
