"""What a save writes of an element, and the XMI-style XML writer.

:class:`ElementContent` is the one reader of what a save writes of an
element: its type label, its document id, its written features in
declaration order and its stereotype applications.  It reads the slots
directly through a per-metaclass plan, as :func:`repro.mof.index.walk`
and the column store do, so a save fires no read hook and leaves no
state behind.  :func:`write_xml` composes its content into XML, and
:mod:`repro.xmi.jsonio` into canonical JSON.

Layout of the XML (an XMI-shaped dialect, self-contained rather than
OMG-schema exact):

* one ``<xmi>`` document element carrying the model URI;
* each root element as a ``<root>`` child with ``type`` (``pkg:Class``),
  ``id``, primitive attributes as XML attributes;
* containment children as nested elements named by the containing feature;
* non-containment references as attributes holding space-separated ids;
* many-valued primitive attributes as ``<item feature="...">`` children;
* stereotype applications as ``<stereotype>`` children, after the
  features, their tag values as XML attributes.

Features that are derived, and references whose opposite is a containment
(i.e. pure back-pointers to the container), are not serialized — they are
reconstructed by the kernel on load.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import (Any, Callable, Dict, Iterator, List, Tuple, TypeVar,
                    Union)

from ..mof.index import walk
from ..mof.kernel import Attribute, Element, Feature, MetaClass, Reference
from ..mof.repository import Model
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .ids import assign_ids

DOC_TAG = "xmi"
ROOT_TAG = "root"
ITEM_TAG = "item"
STEREOTYPE_TAG = "stereotype"

# the kind of a written feature, which says what its value holds: one
# attribute value, attribute values, child elements, target ids
ATTR, ATTRS, CHILDREN, REFS = range(4)

#: (feature name, kind, value) of one written feature
Written = Tuple[str, int, Any]
#: (profile name, stereotype name, tag values) of one application
Applied = Tuple[str, str, Dict[str, Any]]

_T = TypeVar("_T")


def _observe_io(sp, name: str, fmt: str, source: Union[Model, Element],
                size: int) -> None:
    """Tag an ``xmi.read``/``xmi.write`` span and bump the element and
    byte counters.  Only called when the observability layer is on."""
    roots = source.roots if isinstance(source, Model) else [source]
    elements = sum(len(walk(root)) for root in roots)
    sp.tag(elements=elements, chars=size)
    _metrics.REGISTRY.counter(
        name + ".elements", help="model elements (de)serialized",
        format=fmt).inc(elements)
    _metrics.REGISTRY.counter(
        name + ".chars", help="document size in characters",
        format=fmt).inc(size)


def traced_write(fmt: str, source: Union[Model, Element],
                 pieces: Iterator[str],
                 sink: Callable[[Iterator[str]], _T]) -> _T:
    """``sink`` applied to *source*'s text in *pieces*, inside one
    ``xmi.write`` span that counts the characters while tracing is on."""
    if not _trace.ON:
        return sink(pieces)
    written = 0

    def counted() -> Iterator[str]:
        nonlocal written
        for piece in pieces:
            written += len(piece)
            yield piece

    with _trace.span("xmi.write", format=fmt) as sp:
        result = sink(counted())
    _observe_io(sp, "xmi.write", fmt, source, written)
    return result


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


#: a metaclass's type label and its written features' (name, kind, many)
_Plan = Tuple[str, Tuple[Tuple[str, int, bool], ...]]


def _plan(element: Element) -> _Plan:
    """The type label of *element*'s metaclass and its written features,
    in declaration order."""
    features = []
    for feature in element.meta.all_features().values():
        if not _should_serialize(feature):
            continue
        if isinstance(feature, Attribute):
            kind = ATTRS if feature.many else ATTR
        else:
            kind = CHILDREN if feature.containment else REFS
        features.append((feature.name, kind, feature.many))
    return _type_label(element), tuple(features)


class ElementContent:
    """What one save writes of each element, read with the ids of
    :func:`~repro.xmi.ids.assign_ids` and one plan per metaclass."""

    def __init__(self, ids: Dict[int, str]):
        from ..profiles.base import applications_of
        self._ids = ids
        self._applications = applications_of
        self._plans: Dict[MetaClass, _Plan] = {}

    def read(self, element: Element
             ) -> Tuple[str, str, List[Written], List[Applied]]:
        """*element*'s type label, its id, its written features in
        declaration order and its stereotype applications.

        A feature's value is the attribute value (``ATTR``), or a
        non-empty sequence of attribute values (``ATTRS``), child
        elements (``CHILDREN``) or target ids (``REFS``).  Unset and
        ``None`` attributes, empty lists and references to elements
        without an id are left out."""
        plan = self._plans.get(element.meta)
        if plan is None:
            plan = self._plans[element.meta] = _plan(element)
        label, features = plan
        ids = self._ids
        slots = element._slots
        written: List[Written] = []
        for name, kind, many in features:
            value = slots.get(name)
            if value is None:
                continue            # unset or None, or a list never made
            if kind != ATTR:
                value = value._items if many else (value,)
                if kind == REFS:
                    value = [ids[id(target)] for target in value
                             if id(target) in ids]
                if not value:
                    continue
            written.append((name, kind, value))
        applied = [(app.stereotype.profile.name
                    if app.stereotype.profile else "",
                    app.stereotype.name, app.values)
                   for app in self._applications(element)]
        return label, ids[id(element)], written, applied


def _document_source(source: Union[Model, Element], uri: str, name: str
                     ) -> Tuple[List[Element], str, str]:
    """The roots, uri and name of *source*'s document; *uri* and *name*
    name a single root's."""
    if isinstance(source, Model):
        return list(source.roots), source.uri, source.name
    return [source], uri, name


def _xml_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _element_node(content: ElementContent, element: Element,
                  tag: str) -> ET.Element:
    label, doc_id, features, applied = content.read(element)
    node = ET.Element(tag, {"type": label, "id": doc_id})
    for name, kind, value in features:
        if kind == ATTR:
            node.set(name, _xml_value(value))
        elif kind == ATTRS:
            for item in value:
                ET.SubElement(node, ITEM_TAG, {"feature": name}).text = \
                    str(item)
        elif kind == CHILDREN:
            for child in value:
                node.append(_element_node(content, child, name))
        else:
            node.set(f"ref.{name}", " ".join(value))
    for profile, name, values in applied:
        sub = ET.SubElement(node, STEREOTYPE_TAG,
                            {"profile": profile, "name": name})
        for tag_name, value in values.items():
            sub.set(tag_name, _xml_value(value))
    return node


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


def _xml_text(source: Union[Model, Element], uri: str,
              name: str) -> Iterator[str]:
    """*source*'s XML text, as one piece."""
    roots, uri, name = _document_source(source, uri, name)
    content = ElementContent(assign_ids(roots))
    doc = ET.Element(DOC_TAG, {"uri": uri, "name": name, "version": "1.0"})
    for root in roots:
        doc.append(_element_node(content, root, ROOT_TAG))
    _indent(doc)
    yield ET.tostring(doc, encoding="unicode")


def write_xml(source: Union[Model, Element], *,
              uri: str = "urn:model", name: str = "model") -> str:
    """Serialize a model or a single root element to XML text."""
    return traced_write("xml", source, _xml_text(source, uri, name),
                        "".join)
