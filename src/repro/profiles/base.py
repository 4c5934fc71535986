"""UML profile machinery: profiles, stereotypes, tagged values.

A :class:`Stereotype` extends a metaclass and declares typed tags; applying
it to a model element attaches a validated
:class:`StereotypeApplication`.  Applications ride on the element (in a
side slot, not a metamodel feature) so that profiles extend models without
touching the metamodel — exactly UML's lightweight extension mechanism.

A tag value of ``None`` means the tag is absent: the application holds
its default, or no value when it has none, and a required tag refuses
it.  A Real tag stores a ``float``.  So an application's values are
what both interchange formats write and read back.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from ..mof.errors import MofError
from ..mof.kernel import Element, MetaClass, MetaEnum
from ..mof.types import MReal, PrimitiveType

_SLOT = "_stereotype_applications"


class ProfileError(MofError):
    """Stereotype misuse: wrong base metaclass, unknown/badly typed tag."""


class TagDefinition:
    """One typed tag of a stereotype."""

    def __init__(self, name: str, type: Union[PrimitiveType, MetaEnum],
                 default: Any = None, required: bool = False):
        self.name = name
        self.type = type
        self.default = default
        self.required = required

    def check(self, value: Any) -> None:
        if not self.type.conforms(value):
            raise ProfileError(
                f"tag '{self.name}' expects {self.type.name}, "
                f"got {value!r}")

    def stored(self, value: Any, stereotype: "Stereotype") -> Any:
        """The value an application of *stereotype* holds for *value*:
        the default for ``None``, a ``float`` for a Real tag.  ``None``
        when there is no value; a required tag raises instead."""
        if value is None:
            value = self.default
            if value is None:
                if self.required:
                    raise ProfileError(
                        f"stereotype '{stereotype.name}' requires tag "
                        f"'{self.name}'")
                return None
        self.check(value)
        return float(value) if self.type is MReal else value

    def __repr__(self) -> str:
        return f"<Tag {self.name}: {self.type.name}>"


class Stereotype:
    """An extension of a metaclass, with tag definitions."""

    def __init__(self, name: str, extends: Union[MetaClass, type],
                 profile: Optional["Profile"] = None):
        self.name = name
        self.extends: MetaClass = (extends if isinstance(extends, MetaClass)
                                   else extends._meta)
        self.tags: Dict[str, TagDefinition] = {}
        self.profile = profile
        if profile is not None:
            profile.register(self)

    def tag(self, name: str, type: Union[PrimitiveType, MetaEnum],
            default: Any = None, required: bool = False) -> "Stereotype":
        if name in self.tags:
            raise ProfileError(f"stereotype '{self.name}' already has tag "
                               f"'{name}'")
        self.tags[name] = TagDefinition(name, type, default, required)
        return self

    # -- application -----------------------------------------------------

    def apply(self, element: Element, **values: Any
              ) -> "StereotypeApplication":
        """Apply to *element* with the given tagged values."""
        if not element.meta.conforms_to(self.extends):
            raise ProfileError(
                f"stereotype '{self.name}' extends "
                f"'{self.extends.name}'; cannot apply to "
                f"'{element.meta.name}'")
        tagged: Dict[str, Any] = {}
        for tag_name, definition in self.tags.items():
            value = definition.stored(values.get(tag_name), self)
            if value is not None:
                tagged[tag_name] = value
        unknown = set(values) - set(self.tags)
        if unknown:
            raise ProfileError(
                f"stereotype '{self.name}' has no tag(s) "
                f"{sorted(unknown)}")
        application = StereotypeApplication(element, self, tagged)
        applications = getattr(element, _SLOT, None)
        if applications is None:
            applications = []
            object.__setattr__(element, _SLOT, applications)
        applications.append(application)
        return application

    def is_applied_to(self, element: Element) -> bool:
        return any(app.stereotype is self
                   for app in applications_of(element))

    def value_on(self, element: Element, tag_name: str,
                 default: Any = None) -> Any:
        for app in applications_of(element):
            if app.stereotype is self:
                return app.values.get(tag_name, default)
        return default

    def __repr__(self) -> str:
        return f"<Stereotype «{self.name}» extends {self.extends.name}>"


class StereotypeApplication:
    """One application of a stereotype to an element."""

    def __init__(self, element: Element, stereotype: Stereotype,
                 values: Dict[str, Any]):
        self.element = element
        self.stereotype = stereotype
        self.values = values

    def __getitem__(self, tag_name: str) -> Any:
        return self.values[tag_name]

    def get(self, tag_name: str, default: Any = None) -> Any:
        return self.values.get(tag_name, default)

    def set(self, tag_name: str, value: Any) -> None:
        """Set a tag; ``None`` gives it its default, or no value."""
        definition = self.stereotype.tags.get(tag_name)
        if definition is None:
            raise ProfileError(
                f"stereotype '{self.stereotype.name}' has no tag "
                f"'{tag_name}'")
        value = definition.stored(value, self.stereotype)
        if value is None:
            self.values.pop(tag_name, None)
        else:
            self.values[tag_name] = value

    def __repr__(self) -> str:
        return (f"<«{self.stereotype.name}» on {self.element!r} "
                f"{self.values}>")


class Profile:
    """A named collection of stereotypes (one per UML profile spec)."""

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self.stereotypes: Dict[str, Stereotype] = {}

    def register(self, stereotype: Stereotype) -> None:
        if stereotype.name in self.stereotypes:
            raise ProfileError(
                f"profile '{self.name}' already defines "
                f"'{stereotype.name}'")
        self.stereotypes[stereotype.name] = stereotype
        stereotype.profile = self

    def stereotype(self, name: str) -> Stereotype:
        try:
            return self.stereotypes[name]
        except KeyError:
            raise ProfileError(f"profile '{self.name}' has no stereotype "
                               f"{name!r}") from None

    def define(self, name: str, extends: Union[MetaClass, type]
               ) -> Stereotype:
        return Stereotype(name, extends, profile=self)

    def applied_elements(self, root: Element,
                         stereotype_name: str) -> List[Element]:
        """Elements under *root* carrying the named stereotype."""
        stereotype = self.stereotype(stereotype_name)
        out: List[Element] = []
        for element in [root] + list(root.all_contents()):
            if stereotype.is_applied_to(element):
                out.append(element)
        return out

    def __repr__(self) -> str:
        return f"<Profile {self.name}: {sorted(self.stereotypes)}>"


def applications_of(element: Element) -> List[StereotypeApplication]:
    """All stereotype applications on *element*."""
    return list(getattr(element, _SLOT, []) or [])


def stereotypes_of(element: Element) -> List[Stereotype]:
    return [app.stereotype for app in applications_of(element)]


def has_stereotype(element: Element, name: str) -> bool:
    return any(s.name == name for s in stereotypes_of(element))
