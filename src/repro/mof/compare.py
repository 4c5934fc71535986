"""Structural model comparison (diff).

Compares two containment trees element-by-element.  Elements are matched
by *signature path*: their position under same-named ancestors (name if
present, else metaclass + sibling index) — the practical heuristic real
model-diff tools (EMF Compare) default to when ids are absent.  The
result is a list of typed :class:`Difference` entries: added / removed
elements, changed attributes, changed (non-containment) references.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .kernel import Attribute, Element, Reference


class DiffKind(enum.Enum):
    ADDED = "added"             # element only in the right model
    REMOVED = "removed"         # element only in the left model
    ATTRIBUTE = "attribute"     # same element, attribute value differs
    REFERENCE = "reference"     # same element, reference targets differ
    TYPE = "type"               # same path, different metaclass


@dataclass
class Difference:
    kind: DiffKind
    path: str
    feature: Optional[str] = None
    left: Any = None
    right: Any = None

    def __str__(self) -> str:
        if self.kind is DiffKind.ADDED:
            return f"+ {self.path}"
        if self.kind is DiffKind.REMOVED:
            return f"- {self.path}"
        return (f"~ {self.path}.{self.feature}: "
                f"{self.left!r} -> {self.right!r}")


@dataclass
class DiffResult:
    differences: List[Difference] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not self.differences

    def of_kind(self, kind: DiffKind) -> List[Difference]:
        return [d for d in self.differences if d.kind is kind]

    @property
    def added(self) -> List[Difference]:
        return self.of_kind(DiffKind.ADDED)

    @property
    def removed(self) -> List[Difference]:
        return self.of_kind(DiffKind.REMOVED)

    @property
    def changed(self) -> List[Difference]:
        return [d for d in self.differences
                if d.kind in (DiffKind.ATTRIBUTE, DiffKind.REFERENCE,
                              DiffKind.TYPE)]

    def summary(self) -> str:
        return (f"diff: +{len(self.added)} -{len(self.removed)} "
                f"~{len(self.changed)}")

    def __str__(self) -> str:
        if self.identical:
            return "models identical"
        return "\n".join(str(d) for d in self.differences)


def _label(element: Element) -> str:
    name_feature = element.meta.find_feature("name")
    if name_feature is not None and not name_feature.many:
        name = element.eget("name")
        if name:
            return f"{element.meta.name}'{name}'"
    return element.meta.name


def _signature(element: Element, index: int) -> str:
    """Match key among siblings: prefer the name, fall back to metaclass
    plus position."""
    name_feature = element.meta.find_feature("name")
    if name_feature is not None and not name_feature.many:
        name = element.eget("name")
        if name:
            return f"{element.meta.name}:{name}"
    return f"{element.meta.name}#{index}"


def _ref_signature(element: Optional[Element]) -> Optional[str]:
    if element is None:
        return None
    parts = []
    current: Optional[Element] = element
    while current is not None:
        parts.append(_label(current))
        current = current.container
    return "/".join(reversed(parts))


class ModelComparator:
    def __init__(self) -> None:
        self.result = DiffResult()

    def compare(self, left: Element, right: Element,
                path: str = "") -> DiffResult:
        self._compare_elements(left, right, path or _label(left))
        return self.result

    # -- element pair -------------------------------------------------------

    def _compare_elements(self, left: Element, right: Element,
                          path: str) -> None:
        if left.meta is not right.meta:
            self.result.differences.append(Difference(
                DiffKind.TYPE, path, left=left.meta.name,
                right=right.meta.name))
            return          # feature sets differ; stop descending
        for feature in left.meta.all_features().values():
            if feature.derived:
                continue
            if isinstance(feature, Attribute):
                self._compare_attribute(left, right, feature, path)
            elif feature.containment:
                self._compare_children(left, right, feature, path)
            else:
                opposite = feature.opposite
                if opposite is not None and opposite.containment:
                    continue        # container back-pointer
                self._compare_reference(left, right, feature, path)

    def _compare_attribute(self, left: Element, right: Element,
                           feature: Attribute, path: str) -> None:
        left_value = left.eget(feature.name)
        right_value = right.eget(feature.name)
        if feature.many:
            left_value, right_value = list(left_value), list(right_value)
        if left_value != right_value:
            self.result.differences.append(Difference(
                DiffKind.ATTRIBUTE, path, feature.name,
                left_value, right_value))

    def _compare_reference(self, left: Element, right: Element,
                           feature: Reference, path: str) -> None:
        left_value = left.eget(feature.name)
        right_value = right.eget(feature.name)
        if feature.many:
            left_signatures = [_ref_signature(t) for t in left_value]
            right_signatures = [_ref_signature(t) for t in right_value]
        else:
            left_signatures = _ref_signature(left_value)
            right_signatures = _ref_signature(right_value)
        if left_signatures != right_signatures:
            self.result.differences.append(Difference(
                DiffKind.REFERENCE, path, feature.name,
                left_signatures, right_signatures))

    def _compare_children(self, left: Element, right: Element,
                          feature: Reference, path: str) -> None:
        left_value = left.eget(feature.name)
        right_value = right.eget(feature.name)
        left_children = list(left_value) if feature.many else (
            [left_value] if left_value is not None else [])
        right_children = list(right_value) if feature.many else (
            [right_value] if right_value is not None else [])
        left_map: Dict[str, Element] = {
            _signature(child, i): child
            for i, child in enumerate(left_children)}
        right_map: Dict[str, Element] = {
            _signature(child, i): child
            for i, child in enumerate(right_children)}
        for key, child in left_map.items():
            child_path = f"{path}/{_label(child)}"
            if key in right_map:
                self._compare_elements(child, right_map[key], child_path)
            else:
                self.result.differences.append(Difference(
                    DiffKind.REMOVED, child_path, feature.name))
        for key, child in right_map.items():
            if key not in left_map:
                self.result.differences.append(Difference(
                    DiffKind.ADDED, f"{path}/{_label(child)}",
                    feature.name))


def compare(left: Element, right: Element) -> DiffResult:
    """Diff two containment trees; see module docstring for matching."""
    return ModelComparator().compare(left, right)
