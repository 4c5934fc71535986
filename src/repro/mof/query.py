"""Traversal and query helpers over containment trees.

These are the workhorse operations every other subsystem (OCL, metrics,
transformations) uses to walk models.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, List, Optional, Set, Union

from . import kernel as _kernel
from .kernel import EXTENT_KEY, Element, MetaClass, Reference


def all_contents(element: Element, include_self: bool = False) -> Iterator[Element]:
    """Preorder traversal of the containment tree below *element*."""
    if include_self:
        yield element
    yield from element.all_contents()


def instances_of(root: Element, metaclass: Union[MetaClass, type],
                 include_self: bool = True) -> List[Element]:
    """All elements under *root* conforming to *metaclass*, in preorder.

    On a root of a :class:`~repro.mof.repository.Model` the answer is
    filtered from the preorder the model's index keeps
    (:meth:`~repro.mof.index.ModelIndex.instances_under`), and the read
    hook sees one extent read, ``(metaclass, EXTENT_KEY)``, instead of a
    read of every containment list below *root*.  Any other *root* is
    walked.  Both give the same elements in the same order.
    """
    if isinstance(metaclass, type):
        metaclass = metaclass._meta
    model = root._model
    if model is not None and root._container is None:
        if _kernel._READ_HOOK is not None:
            _kernel._READ_HOOK(metaclass, EXTENT_KEY)
        return model.index().instances_under(root, metaclass, include_self)
    return [e for e in all_contents(root, include_self=include_self)
            if e.meta.conforms_to(metaclass)]


def find_by_name(root: Element, name: str,
                 metaclass: Optional[Union[MetaClass, type]] = None
                 ) -> Optional[Element]:
    """First element under *root* whose ``name`` attribute equals *name*."""
    candidates: Iterable[Element]
    if metaclass is not None:
        candidates = instances_of(root, metaclass)
    else:
        candidates = all_contents(root, include_self=True)
    for element in candidates:
        feature = element.meta.find_feature("name")
        if feature is not None and not feature.many:
            if element.eget("name") == name:
                return element
    return None


def select(root: Element,
           predicate: Callable[[Element], bool]) -> List[Element]:
    """All elements under *root* (inclusive) satisfying *predicate*."""
    return [e for e in all_contents(root, include_self=True) if predicate(e)]


def closure(seeds: Iterable[Element],
            step: Callable[[Element], Iterable[Element]]) -> List[Element]:
    """Transitive closure of *step* starting from *seeds* (seeds excluded
    unless reachable), in discovery order."""
    seen: Set[int] = {id(s) for s in seeds}
    frontier: List[Element] = list(seeds)
    out: List[Element] = []
    while frontier:
        current = frontier.pop(0)
        for neighbour in step(current):
            if id(neighbour) not in seen:
                seen.add(id(neighbour))
                out.append(neighbour)
                frontier.append(neighbour)
    return out


def referenced_elements(element: Element,
                        include_containment: bool = False) -> List[Element]:
    """Elements *element* points at through its (non-containment) references."""
    out: List[Element] = []
    for feature in element.meta.all_features().values():
        if not isinstance(feature, Reference):
            continue
        if feature.containment and not include_containment:
            continue
        value = element.eget(feature.name)
        if feature.many:
            out.extend(value)
        elif value is not None:
            out.append(value)
    return out


def cross_references(root: Element) -> List[tuple]:
    """All (source, feature, target) non-containment links in the tree."""
    out = []
    for element in all_contents(root, include_self=True):
        for feature in element.meta.all_features().values():
            if not isinstance(feature, Reference) or feature.containment:
                continue
            value = element.eget(feature.name)
            targets = list(value) if feature.many else (
                [value] if value is not None else [])
            for target in targets:
                out.append((element, feature, target))
    return out


def path(element: Element) -> str:
    """A human-readable containment path like ``pkg/Class/attr``."""
    parts: List[str] = []
    current: Optional[Element] = element
    while current is not None:
        name_feature = current.meta.find_feature("name")
        if name_feature is not None and not name_feature.many:
            label = current.eget("name") or current.meta.name
        else:
            label = current.meta.name
        parts.append(str(label))
        current = current.container
    return "/".join(reversed(parts))


def navigate(element: Element, dotted: str) -> Any:
    """Navigate a dotted feature path, e.g. ``"container.name"``.

    Many-valued intermediate steps flatten (OCL ``collect`` semantics).
    """
    current: Any = element
    for segment in dotted.split("."):
        if current is None:
            return None
        if isinstance(current, (list, tuple)) or hasattr(current, "_items"):
            flattened: List[Any] = []
            for item in current:
                value = item.eget(segment)
                if hasattr(value, "_items") or isinstance(value, (list, tuple)):
                    flattened.extend(value)
                elif value is not None:
                    flattened.append(value)
            current = flattened
        else:
            current = current.eget(segment)
    return current
