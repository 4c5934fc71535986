"""One construction path for both model readers.

:class:`ModelBuilder` holds one load's type registry, stereotype
registry, id map, pending references and feature lookups per
(metaclass, name).  The XML and JSON readers are format adapters over
it: they walk their parsed document and call the builder, which runs
phase 1 (the containment tree) and phase 2 (the cross-references by id)
the same way for both.

Its writes go through the kernel's ``_load_*`` construction primitives:
every check the edit protocol makes, but no notification.  That is
exact because a load writes only to elements it instantiated, held by
no model but the one it builds, which nothing can observe before the
load returns.  So a load makes no ``mof.mutations`` or
``mof.notifications`` (``xmi.read.elements`` still counts it), and
inside a transaction it journals only its ``add_root`` calls.  Input
the edit protocol would move, displace or unlink for (a single-valued
containment given twice, a single-valued opposite held by another
element, a ``ref.`` naming a containment or container feature) and
stereotype applications still go through the edit protocol, so a
malformed document ends in the same model, or the same error, as
before.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from ..mof import kernel as _kernel
from ..mof.errors import RepositoryError
from ..mof.kernel import (
    Attribute,
    Element,
    MetaClass,
    MetaPackage,
    Reference,
)
from ..mof.repository import Model, Repository
from ..obs import trace as _trace
from .writer import _observe_io


class TypeRegistry:
    """Resolves ``pkg:Class`` labels to metaclasses."""

    def __init__(self, packages: Iterable[MetaPackage]):
        self._by_label: Dict[str, MetaClass] = {}
        for package in packages:
            self.add_package(package)

    def add_package(self, package: MetaPackage) -> None:
        for pkg in package.all_packages():
            for name, classifier in pkg.classifiers.items():
                if isinstance(classifier, MetaClass):
                    self._by_label[f"{pkg.name}:{name}"] = classifier

    def resolve(self, label: str) -> MetaClass:
        metaclass = self._by_label.get(label)
        if metaclass is None:
            raise RepositoryError(f"unknown metaclass label {label!r}")
        return metaclass


def _stereotype_registry(profiles: Iterable) -> Dict[str, object]:
    registry: Dict[str, object] = {}
    for profile in profiles:
        for stereotype in profile.stereotypes.values():
            registry[f"{profile.name}:{stereotype.name}"] = stereotype
    return registry


class ModelBuilder:
    """Builds one model per :meth:`build` call from a format adapter's
    walk of its document (see the module docstring)."""

    def __init__(self, packages: Iterable[MetaPackage],
                 profiles: Iterable = ()):
        self.registry = TypeRegistry(packages)
        self._stereotypes = _stereotype_registry(profiles)
        self._by_id: Dict[str, Element] = {}
        self._pending: List[tuple] = []
        self._features: Dict[tuple, Any] = {}

    def build(self, uri: str, name: Optional[str], roots: Iterable,
              build_root: Callable[[Any], Element]) -> Model:
        """A model of the elements *build_root* makes from each of
        *roots*, its references resolved once every root is built."""
        self._by_id = {}
        self._pending = []
        self._features = {}
        model = Model(uri, name)
        for source in roots:
            model.add_root(build_root(source))
        self._resolve()
        return model

    # -- phase 1: containment tree ---------------------------------------

    def element(self, label: str, doc_id: Optional[str]) -> Element:
        """A new instance of the metaclass *label* names, registered
        under *doc_id* when there is one."""
        element = self.registry.resolve(label).instantiate()
        if doc_id:
            element.set_eid(doc_id)
            self._by_id[doc_id] = element
        return element

    def _feature(self, element: Element, name: str):
        key = (element.meta, name)
        try:
            return self._features[key]
        except KeyError:
            feature = self._features[key] = element.meta.find_feature(name)
            return feature

    def attribute(self, element: Element, name: str) -> Attribute:
        feature = self._feature(element, name)
        if not isinstance(feature, Attribute):
            raise RepositoryError(f"'{element.meta.name}' has no attribute "
                                  f"{name!r}")
        return feature

    def containment(self, element: Element, name: str) -> Reference:
        feature = self._feature(element, name)
        if not isinstance(feature, Reference) or not feature.containment:
            raise RepositoryError(f"'{element.meta.name}' has no containment "
                                  f"feature {name!r}")
        return feature

    def set_value(self, element: Element, feature: Attribute,
                  value: Any) -> None:
        if feature.many:
            element.eset(feature.name, value)   # a lone value: rejected
        else:
            _kernel._load_set(element, feature, value)

    def extend(self, element: Element, feature: Attribute,
               values: Iterable[Any]) -> None:
        if feature.many:
            _kernel._load_extend(element, feature, values)
        else:
            element.eget(feature.name).extend(values)   # no list: rejected

    def adopt(self, parent: Element, feature: Reference,
              child: Element) -> None:
        """Contain the just-built *child* in *parent*'s *feature*."""
        if _kernel._load_adopt(parent, feature, child):
            return
        if feature.many:
            parent.eget(feature.name).append(child)
        else:
            parent.eset(feature.name, child)

    def stereotype(self, label: str):
        stereotype = self._stereotypes.get(label)
        if stereotype is None:
            raise RepositoryError(
                f"unknown stereotype {label!r}; pass its profile to the "
                f"reader")
        return stereotype

    def defer(self, element: Element, name: str, ids: Iterable) -> None:
        """Link *element*'s reference *name* to the elements *ids* name
        once the whole tree is built."""
        self._pending.append((element, name, ids))

    # -- phase 2: cross references ------------------------------------------

    def _resolve(self) -> None:
        by_id = self._by_id
        for element, name, ids in self._pending:
            feature = self._feature(element, name)
            if not isinstance(feature, Reference):
                raise RepositoryError(f"'{element.meta.name}' has no "
                                      f"reference {name!r}")
            targets = []
            for ref_id in ids:
                target = by_id.get(ref_id)
                if target is None:
                    raise RepositoryError(
                        f"dangling reference {ref_id!r} in feature "
                        f"'{name}'")
                targets.append(target)
            if feature.many:
                collection = _kernel._slot_list(element, feature)
                for target in targets:
                    if target not in collection and \
                            not _kernel._load_link(element, feature, target):
                        collection.append(target)
                # restore the serialized order (opposites may have
                # pre-populated the collection in document order)
                _kernel._load_order(element, feature, targets)
            elif targets:
                target = targets[0]
                if element._slots.get(name) is not target and \
                        not _kernel._load_link(element, feature, target):
                    element.eset(name, target)


def traced_read(fmt: str, read: Callable[[Any], Model], source: Any,
                size: int, repository: Optional[Repository]) -> Model:
    """``read(source)`` inside an ``xmi.read`` span while tracing is on;
    the model is registered in *repository* when one is given."""
    if _trace.ON:
        with _trace.span("xmi.read", format=fmt) as sp:
            model = read(source)
        _observe_io(sp, "xmi.read", fmt, model, size)
    else:
        model = read(source)
    if repository is not None:
        repository.add_model(model)
    return model
