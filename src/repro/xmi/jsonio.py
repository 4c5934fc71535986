"""JSON serialization of models — same information as the XML dialect, in
a shape convenient for web tooling.

:func:`write_json` and the sealed saves of :mod:`repro.xmi.persist`
write one text: the document's canonical form (sorted keys, no
whitespace, ASCII escapes), streamed element by element by
:func:`canonical_pieces` from :class:`~repro.xmi.writer.ElementContent`,
the reader the XML writer shares.  Its pieces join to exactly
``json.dumps(document, sort_keys=True, separators=(",", ":"))`` of the
document ``{"name", "roots", "uri", "version"}``, without building it;
an element is ``{"attrs", "children", "id", "refs", "stereotypes",
"type"}``, each of ``attrs``, ``children``, ``refs`` and
``stereotypes`` present only when not empty.

:class:`JsonReader` is the JSON format adapter over
:class:`~repro.xmi.builder.ModelBuilder`, the construction path it shares
with the XML reader (the builder's docstring says what a load does and
does not notify).  :meth:`JsonReader.read_document` builds from a
document already parsed, so a sealed file whose digest check parsed it
is not parsed twice.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, Optional, Sequence, Union

from ..mof.kernel import Element, MetaPackage
from ..mof.repository import Model, Repository
from .builder import ModelBuilder, traced_read
from .ids import assign_ids
from .writer import (CHILDREN, REFS, ElementContent, _document_source,
                     traced_write)

#: the canonical JSON text of a value: sorted keys, no whitespace, ASCII
#: escapes.  Sealed saves write it and the loader verifies against it.
canonical_dump = json.JSONEncoder(sort_keys=True,
                                  separators=(",", ":")).encode


def _canonical(content: ElementContent, element: Element,
               lead: str = "") -> Iterator[str]:
    """*lead*, then *element* and its subtree as canonical JSON text, in
    pieces: ``{"attrs":…,"children":{<sorted feature>:[…]},`` and then
    the remaining own fields (``id``, ``refs``, ``stereotypes``,
    ``type``, all of which sort after ``children``) as one dump.  An
    element without children is one dump."""
    label, doc_id, features, applied = content.read(element)
    attrs: Dict[str, Any] = {}
    children: Dict[str, Sequence[Element]] = {}
    refs: Dict[str, Sequence[str]] = {}
    for name, kind, value in features:
        if kind == CHILDREN:
            children[name] = value
        elif kind == REFS:
            refs[name] = value
        else:
            attrs[name] = value
    own: Dict[str, Any] = {"id": doc_id, "type": label}
    if refs:
        own["refs"] = refs
    if applied:
        own["stereotypes"] = [
            {"profile": profile, "name": name, "values": values}
            for profile, name, values in applied]
    if not children:
        if attrs:
            own["attrs"] = attrs
        yield lead + canonical_dump(own)
        return
    yield (f'{lead}{{"attrs":{canonical_dump(attrs)},"children":{{'
           if attrs else f'{lead}{{"children":{{')
    for index, name in enumerate(sorted(children)):
        kids = children[name]
        yield from _canonical(
            content, kids[0],
            f'{"]," if index else ""}{canonical_dump(name)}:[')
        for kid in kids[1:]:
            yield from _canonical(content, kid, ",")
    yield "]}," + canonical_dump(own)[1:]


def canonical_pieces(source: Union[Model, Element], uri: str = "urn:model",
                     name: str = "model") -> Iterator[str]:
    """*source*'s JSON document as canonical text, streamed element by
    element: ``{"name":…,"roots":[…],"uri":…,"version":"1.0"}``.  The
    document is never built; the pieces join to its canonical dump.
    *uri* and *name* name a single root's document."""
    roots, uri, name = _document_source(source, uri, name)
    content = ElementContent(assign_ids(roots))
    yield canonical_dump({"name": name})[:-1] + ',"roots":['
    for index, root in enumerate(roots):
        yield from _canonical(content, root, "," if index else "")
    yield "]," + canonical_dump({"uri": uri, "version": "1.0"})[1:]


def write_json(source: Union[Model, Element], *, uri: str = "urn:model",
               name: str = "model") -> str:
    """Serialize a model or a single root element to canonical JSON
    text: what a sealed save writes before its digest key."""
    return traced_write("json", source, canonical_pieces(source, uri, name),
                        "".join)


class JsonReader(ModelBuilder):
    def read(self, text: str) -> Model:
        return self.read_document(json.loads(text))

    def read_document(self, document: Dict[str, Any]) -> Model:
        """Build the model of an already parsed JSON document."""
        return self.build(document.get("uri", "urn:model"),
                          document.get("name"), document.get("roots", []),
                          self._build)

    def _build(self, data: Dict[str, Any]) -> Element:
        element = self.element(data["type"], data.get("id"))
        for name, value in data.get("attrs", {}).items():
            feature = self.attribute(element, name)
            if feature.many:
                self.extend(element, feature, value)
            else:
                self.set_value(element, feature, value)
        for name, child_dicts in data.get("children", {}).items():
            feature = self.containment(element, name)
            for child_dict in child_dicts:
                self.adopt(element, feature, self._build(child_dict))
        for name, target_ids in data.get("refs", {}).items():
            self.defer(element, name, target_ids)
        for stereotype_dict in data.get("stereotypes", []):
            stereotype = self.stereotype(
                f"{stereotype_dict.get('profile', '')}:"
                f"{stereotype_dict.get('name', '')}")
            stereotype.apply(element, **stereotype_dict.get("values", {}))
        return element


def read_json(text: str, packages: Iterable[MetaPackage], *,
              profiles: Iterable = (),
              repository: Optional[Repository] = None) -> Model:
    """Parse JSON text into a fresh :class:`Model` (see :func:`read_xml`
    for the *profiles* parameter)."""
    return traced_read("json", JsonReader(packages, profiles).read, text,
                       len(text), repository)
