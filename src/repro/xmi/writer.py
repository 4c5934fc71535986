"""XMI-style XML serialization of models.

Layout (an XMI-shaped dialect, self-contained rather than OMG-schema
exact):

* one ``<xmi>`` document element carrying the model URI;
* each root element as a ``<root>`` child with ``type`` (``pkg:Class``),
  ``id``, primitive attributes as XML attributes;
* containment children as nested elements named by the containing feature;
* non-containment references as attributes holding space-separated ids;
* many-valued primitive attributes as ``<item feature="...">`` children.

Features that are derived, and references whose opposite is a containment
(i.e. pure back-pointers to the container), are not serialized — they are
reconstructed by the kernel on load.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, Iterable, List, Union

from ..mof.kernel import Attribute, Element, Feature, Reference
from ..mof.repository import Model
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .ids import assign_ids

DOC_TAG = "xmi"
ROOT_TAG = "root"
ITEM_TAG = "item"
STEREOTYPE_TAG = "stereotype"


def _observe_io(sp, name: str, fmt: str, source, size: int) -> None:
    """Tag an ``xmi.read``/``xmi.write`` span and bump the element and
    byte counters.  Only called when the observability layer is on."""
    if isinstance(source, Model):
        roots = list(source.roots)
    elif isinstance(source, Element):
        roots = [source]
    else:
        roots = list(source)
    elements = sum(1 + sum(1 for _ in root.all_contents()) for root in roots)
    sp.tag(elements=elements, chars=size)
    _metrics.REGISTRY.counter(
        name + ".elements", help="model elements (de)serialized",
        format=fmt).inc(elements)
    _metrics.REGISTRY.counter(
        name + ".chars", help="document size in characters",
        format=fmt).inc(size)


def _should_serialize(feature: Feature) -> bool:
    if feature.derived:
        return False
    if isinstance(feature, Reference) and not feature.containment:
        opposite = feature.opposite
        if opposite is not None and opposite.containment:
            return False    # container back-pointer, reconstructed on load
    return True


def _type_label(element: Element) -> str:
    meta = element.meta
    package = meta.package.name if meta.package else "?"
    return f"{package}:{meta.name}"


class XmiWriter:
    def __init__(self) -> None:
        self._ids: Dict[int, str] = {}

    def write_model(self, model: Model) -> str:
        return self._write(model.roots, uri=model.uri, name=model.name)

    def write_roots(self, roots: Iterable[Element], *,
                    uri: str = "urn:model", name: str = "model") -> str:
        return self._write(list(roots), uri=uri, name=name)

    def _write(self, roots: List[Element], *, uri: str, name: str) -> str:
        self._ids = assign_ids(roots)
        doc = ET.Element(DOC_TAG, {"uri": uri, "name": name,
                                   "version": "1.0"})
        for root in roots:
            doc.append(self._element_node(root, ROOT_TAG))
        _indent(doc)
        return ET.tostring(doc, encoding="unicode")

    def _element_node(self, element: Element, tag: str) -> ET.Element:
        node = ET.Element(tag, {
            "type": _type_label(element),
            "id": self._ids[id(element)],
        })
        for feature in element.meta.all_features().values():
            if not _should_serialize(feature):
                continue
            if isinstance(feature, Attribute):
                self._write_attribute(node, element, feature)
            else:
                self._write_reference(node, element, feature)
        self._write_stereotypes(node, element)
        return node

    @staticmethod
    def _write_stereotypes(node: ET.Element, element: Element) -> None:
        from ..profiles.base import applications_of
        for application in applications_of(element):
            stereotype = application.stereotype
            profile_name = (stereotype.profile.name
                            if stereotype.profile else "")
            sub = ET.SubElement(node, STEREOTYPE_TAG,
                                {"profile": profile_name,
                                 "name": stereotype.name})
            for tag_name, value in application.values.items():
                if isinstance(value, bool):
                    sub.set(tag_name, "true" if value else "false")
                elif value is not None:
                    sub.set(tag_name, str(value))

    def _write_attribute(self, node: ET.Element, element: Element,
                         feature: Attribute) -> None:
        if feature.many:
            for value in element.eget(feature.name):
                item = ET.SubElement(node, ITEM_TAG,
                                     {"feature": feature.name})
                item.text = str(value)
            return
        if not element.eis_set(feature.name):
            return
        value = element.eget(feature.name)
        if value is None:
            return
        if isinstance(value, bool):
            node.set(feature.name, "true" if value else "false")
        else:
            node.set(feature.name, str(value))

    def _write_reference(self, node: ET.Element, element: Element,
                         feature: Reference) -> None:
        if feature.containment:
            value = element.eget(feature.name)
            children = list(value) if feature.many else (
                [value] if value is not None else [])
            for child in children:
                node.append(self._element_node(child, feature.name))
            return
        value = element.eget(feature.name)
        targets = list(value) if feature.many else (
            [value] if value is not None else [])
        if not targets:
            return
        refs = " ".join(self._ids[id(t)] for t in targets
                        if id(t) in self._ids)
        if refs:
            node.set(f"ref.{feature.name}", refs)


def _indent(node: ET.Element, level: int = 0) -> None:
    pad = "\n" + "  " * level
    if len(node):
        if not node.text or not node.text.strip():
            node.text = pad + "  "
        for child in node:
            _indent(child, level + 1)
            if not child.tail or not child.tail.strip():
                child.tail = pad + "  "
        last = node[-1]
        if not last.tail or not last.tail.strip():
            last.tail = pad
    elif level and (not node.tail or not node.tail.strip()):
        node.tail = pad


def write_xml(source: Union[Model, Element, Iterable[Element]], *,
              uri: str = "urn:model", name: str = "model") -> str:
    """Serialize a model, a single root, or several roots to XML text."""
    def _write() -> str:
        writer = XmiWriter()
        if isinstance(source, Model):
            return writer.write_model(source)
        if isinstance(source, Element):
            return writer.write_roots([source], uri=uri, name=name)
        return writer.write_roots(source, uri=uri, name=name)

    if _trace.ON:
        if not isinstance(source, (Model, Element)):
            source = list(source)        # may be a one-shot iterable
        with _trace.span("xmi.write", format="xml") as sp:
            text = _write()
        _observe_io(sp, "xmi.write", "xml", source, len(text))
        return text
    return _write()
