"""XMI-style XML deserialization.

A format adapter over :class:`~repro.xmi.builder.ModelBuilder`: it walks
the parsed document and hands the builder each element, attribute,
many-valued item, containment child, stereotype application and
cross-reference.  The builder rebuilds the containment tree first
(instantiating metaclasses resolved through a type registry; this
adapter coerces the primitive attribute values from their text), then
resolves every cross-reference by id.  It writes the slots directly:
container back-pointers and opposites are set by the same construction
primitives, with no change notification (see the builder for why that
is exact).  An XML attribute, ``<item>`` or child element that names no
feature of its kind is an error, as in the JSON reader.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Iterable, Optional

from ..mof.errors import RepositoryError
from ..mof.kernel import Element, MetaPackage
from ..mof.repository import Model, Repository
from .builder import ModelBuilder, traced_read
from .writer import DOC_TAG, ITEM_TAG, ROOT_TAG, STEREOTYPE_TAG


class XmiReader(ModelBuilder):
    def read(self, text: str) -> Model:
        doc = ET.fromstring(text)
        if doc.tag != DOC_TAG:
            raise RepositoryError(f"not an xmi document (root tag "
                                  f"{doc.tag!r})")
        return self.build(doc.get("uri", "urn:model"), doc.get("name"),
                          (node for node in doc if node.tag == ROOT_TAG),
                          self._build_element)

    def _build_element(self, node: ET.Element) -> Element:
        element = self.element(node.get("type", ""), node.get("id"))
        for key, raw in node.attrib.items():
            if key in ("type", "id"):
                continue
            if key.startswith("ref."):
                self.defer(element, key[4:], raw.split())
                continue
            feature = self.attribute(element, key)
            self.set_value(element, feature, feature.type.coerce(raw))
        for child in node:
            tag = child.tag
            if tag == STEREOTYPE_TAG:
                self._apply_stereotype(element, child)
            elif tag == ITEM_TAG:
                feature = self.attribute(element, child.get("feature", ""))
                self.extend(element, feature,
                            (feature.type.coerce(child.text or ""),))
            else:
                feature = self.containment(element, tag)
                self.adopt(element, feature, self._build_element(child))
        return element

    def _apply_stereotype(self, element: Element,
                          node: ET.Element) -> None:
        stereotype = self.stereotype(
            f"{node.get('profile', '')}:{node.get('name', '')}")
        values = {}
        for key, raw in node.attrib.items():
            if key in ("profile", "name"):
                continue
            definition = stereotype.tags.get(key)
            values[key] = (definition.type.coerce(raw)
                           if definition is not None else raw)
        stereotype.apply(element, **values)


def read_xml(text: str, packages: Iterable[MetaPackage], *,
             profiles: Iterable = (),
             repository: Optional[Repository] = None) -> Model:
    """Parse XML text into a fresh :class:`Model`.

    *packages* supplies the metamodels whose instances the document holds
    (e.g. ``[UML]``); *profiles* the profiles whose stereotype
    applications it may carry (e.g. ``[SPT]``).  If *repository* is
    given, the model is registered.
    """
    return traced_read("xml", XmiReader(packages, profiles).read, text,
                       len(text), repository)
