"""JSON serialization of models — same information as the XML dialect, in
a shape convenient for web tooling and diffing.

:class:`JsonReader` is the JSON format adapter over
:class:`~repro.xmi.builder.ModelBuilder`, the construction path it shares
with the XML reader (the builder's docstring says what a load does and
does not notify).  :meth:`JsonReader.read_document` builds from a
document already parsed, so a sealed file whose digest check parsed it
is not parsed twice.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from ..mof.kernel import Attribute, Element, MetaPackage
from ..mof.repository import Model, Repository
from ..obs import trace as _trace
from .builder import ModelBuilder, traced_read
from .ids import assign_ids
from .writer import _observe_io, _should_serialize, _type_label


def to_dict(element: Element, ids: Dict[int, str]) -> Dict[str, Any]:
    """One element (and its containment subtree) as plain dicts."""
    out: Dict[str, Any] = {
        "type": _type_label(element),
        "id": ids[id(element)],
    }
    attrs: Dict[str, Any] = {}
    children: Dict[str, List[Dict[str, Any]]] = {}
    refs: Dict[str, List[str]] = {}
    for feature in element.meta.all_features().values():
        if not _should_serialize(feature):
            continue
        if isinstance(feature, Attribute):
            if feature.many:
                values = list(element.eget(feature.name))
                if values:
                    attrs[feature.name] = values
            elif element.eis_set(feature.name):
                value = element.eget(feature.name)
                if value is not None:
                    attrs[feature.name] = value
        elif feature.containment:
            value = element.eget(feature.name)
            kids = list(value) if feature.many else (
                [value] if value is not None else [])
            if kids:
                children[feature.name] = [to_dict(kid, ids) for kid in kids]
        else:
            value = element.eget(feature.name)
            targets = list(value) if feature.many else (
                [value] if value is not None else [])
            target_ids = [ids[id(t)] for t in targets if id(t) in ids]
            if target_ids:
                refs[feature.name] = target_ids
    if attrs:
        out["attrs"] = attrs
    if children:
        out["children"] = children
    if refs:
        out["refs"] = refs
    stereotypes = _stereotype_dicts(element)
    if stereotypes:
        out["stereotypes"] = stereotypes
    return out


def _stereotype_dicts(element: Element) -> List[Dict[str, Any]]:
    from ..profiles.base import applications_of
    out: List[Dict[str, Any]] = []
    for application in applications_of(element):
        stereotype = application.stereotype
        out.append({
            "profile": stereotype.profile.name if stereotype.profile
            else "",
            "name": stereotype.name,
            "values": dict(application.values),
        })
    return out


def encode_json(source: Union[Model, Element],
                encode: Callable[[Dict[str, Any]], str], *,
                uri: str = "urn:model", name: str = "model") -> str:
    """Build *source*'s JSON document once and return
    ``encode(document)``, inside an ``xmi.write`` span while tracing is
    on.  :func:`write_json` and the sealed saves of
    :mod:`repro.xmi.persist` differ only in *encode*."""
    if isinstance(source, Model):
        roots, uri, name = list(source.roots), source.uri, source.name
    else:
        roots = [source]
    def _build() -> str:
        ids = assign_ids(roots)
        document = {
            "uri": uri,
            "name": name,
            "version": "1.0",
            "roots": [to_dict(root, ids) for root in roots],
        }
        return encode(document)

    if _trace.ON:
        with _trace.span("xmi.write", format="json") as sp:
            text = _build()
        _observe_io(sp, "xmi.write", "json", roots, len(text))
        return text
    return _build()


def write_json(source: Union[Model, Element], *, indent: int = 2,
               uri: str = "urn:model", name: str = "model") -> str:
    """Serialize a model or a single root element to JSON text."""
    return encode_json(
        source, lambda document: json.dumps(document, indent=indent),
        uri=uri, name=name)


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
