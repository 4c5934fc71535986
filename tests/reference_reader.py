"""The kernel-path model readers: the reference for the builder oracle.

These are the XML and JSON readers as they were before both became
format adapters over :class:`repro.xmi.builder.ModelBuilder`.  They
build through the kernel's edit protocol (``eset``,
``FeatureList.append``, ``_link``), with one notification per write, and
``tests/test_xmi_builder.py`` compares every model the shipped readers
build with theirs, slot for slot.  Test-only: nothing in ``src/`` uses
them.

They differ from the shipped readers on purpose in one way: an XML
attribute or ``<item>`` that names no attribute is skipped here, where
the shipped readers reject it as the JSON reader always has.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from typing import Any, Dict, Iterable, List

from repro.mof.errors import RepositoryError
from repro.mof.kernel import Attribute, Element, MetaPackage, Reference
from repro.mof.repository import Model
from repro.xmi.builder import TypeRegistry, _stereotype_registry
from repro.xmi.writer import DOC_TAG, ITEM_TAG, ROOT_TAG, STEREOTYPE_TAG


class ReferenceXmiReader:
    def __init__(self, packages: Iterable[MetaPackage],
                 profiles: Iterable = ()):
        self.registry = TypeRegistry(packages)
        self._stereotypes = _stereotype_registry(profiles)
        self._by_id: Dict[str, Element] = {}
        self._pending_refs: List[tuple] = []

    def read(self, text: str) -> Model:
        doc = ET.fromstring(text)
        if doc.tag != DOC_TAG:
            raise RepositoryError(f"not an xmi document (root tag "
                                  f"{doc.tag!r})")
        model = Model(doc.get("uri", "urn:model"), doc.get("name"))
        self._by_id.clear()
        self._pending_refs.clear()
        for node in doc:
            if node.tag == ROOT_TAG:
                model.add_root(self._build_element(node))
        _resolve(self._by_id, self._pending_refs)
        return model

    def _build_element(self, node: ET.Element) -> Element:
        metaclass = self.registry.resolve(node.get("type", ""))
        element = metaclass.instantiate()
        doc_id = node.get("id")
        if doc_id:
            element.set_eid(doc_id)
            self._by_id[doc_id] = element
        for key, raw in node.attrib.items():
            if key in ("type", "id"):
                continue
            if key.startswith("ref."):
                self._pending_refs.append((element, key[4:], raw.split()))
                continue
            feature = metaclass.find_feature(key)
            if isinstance(feature, Attribute):
                element.eset(key, feature.type.coerce(raw))
        for child in node:
            if child.tag == STEREOTYPE_TAG:
                self._apply_stereotype(element, child)
                continue
            if child.tag == ITEM_TAG:
                feature_name = child.get("feature", "")
                feature = metaclass.find_feature(feature_name)
                if isinstance(feature, Attribute):
                    value = feature.type.coerce(child.text or "")
                    element.eget(feature_name).append(value)
                continue
            feature = metaclass.find_feature(child.tag)
            if not isinstance(feature, Reference) or not feature.containment:
                raise RepositoryError(
                    f"'{metaclass.name}' has no containment feature "
                    f"{child.tag!r}")
            child_element = self._build_element(child)
            if feature.many:
                element.eget(child.tag).append(child_element)
            else:
                element.eset(child.tag, child_element)
        return element

    def _apply_stereotype(self, element: Element,
                          node: ET.Element) -> None:
        label = f"{node.get('profile', '')}:{node.get('name', '')}"
        stereotype = self._stereotypes.get(label)
        if stereotype is None:
            raise RepositoryError(
                f"unknown stereotype {label!r}; pass its profile to the "
                f"reader")
        values = {}
        for key, raw in node.attrib.items():
            if key in ("profile", "name"):
                continue
            definition = stereotype.tags.get(key)
            values[key] = (definition.type.coerce(raw)
                           if definition is not None else raw)
        stereotype.apply(element, **values)


class ReferenceJsonReader:
    def __init__(self, packages: Iterable[MetaPackage],
                 profiles: Iterable = ()):
        self.registry = TypeRegistry(packages)
        self._stereotypes = _stereotype_registry(profiles)
        self._by_id: Dict[str, Element] = {}
        self._pending: List[tuple] = []

    def read(self, text: str) -> Model:
        document = json.loads(text)
        model = Model(document.get("uri", "urn:model"),
                      document.get("name"))
        self._by_id.clear()
        self._pending.clear()
        for root_dict in document.get("roots", []):
            model.add_root(self._build(root_dict))
        _resolve(self._by_id, self._pending)
        return model

    def _build(self, data: Dict[str, Any]) -> Element:
        metaclass = self.registry.resolve(data["type"])
        element = metaclass.instantiate()
        doc_id = data.get("id")
        if doc_id:
            element.set_eid(doc_id)
            self._by_id[doc_id] = element
        for name, value in data.get("attrs", {}).items():
            feature = metaclass.find_feature(name)
            if not isinstance(feature, Attribute):
                raise RepositoryError(f"'{metaclass.name}' has no attribute "
                                      f"{name!r}")
            if feature.many:
                element.eget(name).extend(value)
            else:
                element.eset(name, value)
        for name, child_dicts in data.get("children", {}).items():
            feature = metaclass.find_feature(name)
            if not isinstance(feature, Reference) or not feature.containment:
                raise RepositoryError(f"'{metaclass.name}' has no containment "
                                      f"feature {name!r}")
            for child_dict in child_dicts:
                child = self._build(child_dict)
                if feature.many:
                    element.eget(name).append(child)
                else:
                    element.eset(name, child)
        for name, target_ids in data.get("refs", {}).items():
            self._pending.append((element, name, target_ids))
        for stereotype_dict in data.get("stereotypes", []):
            label = (f"{stereotype_dict.get('profile', '')}:"
                     f"{stereotype_dict.get('name', '')}")
            stereotype = self._stereotypes.get(label)
            if stereotype is None:
                raise RepositoryError(
                    f"unknown stereotype {label!r}; pass its profile to "
                    f"the reader")
            stereotype.apply(element, **stereotype_dict.get("values", {}))
        return element


def _resolve(by_id: Dict[str, Element], pending: List[tuple]) -> None:
    for element, feature_name, target_ids in pending:
        feature = element.meta.find_feature(feature_name)
        if not isinstance(feature, Reference):
            raise RepositoryError(
                f"'{element.meta.name}' has no reference "
                f"{feature_name!r}")
        targets = []
        for ref_id in target_ids:
            target = by_id.get(ref_id)
            if target is None:
                raise RepositoryError(
                    f"dangling reference {ref_id!r} in feature "
                    f"'{feature_name}'")
            targets.append(target)
        if feature.many:
            collection = element.eget(feature_name)
            for target in targets:
                if target not in collection:
                    collection.append(target)
            # restore the serialized order (opposites may have
            # pre-populated the collection in document order)
            for position, target in enumerate(targets):
                if collection[position] is not target:
                    collection.move(position, target)
        elif targets:
            if element.eget(feature_name) is not targets[0]:
                element.eset(feature_name, targets[0])
