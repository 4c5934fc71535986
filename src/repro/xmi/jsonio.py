"""JSON serialization of models — same information as the XML dialect, in
a shape convenient for web tooling and diffing.

An element's content is defined once, by :class:`ElementContent`: its own
fields (``type``, ``id``, ``attrs``, ``refs``, ``stereotypes``) and its
containment children, read through a per-metaclass plan of the
serialized features.  Two compositions of it exist:

* :meth:`ElementContent.to_dict` nests it into plain dicts, for
  :func:`write_json`;
* :func:`canonical_pieces` streams the canonical text (sorted keys, no
  whitespace, ASCII escapes) element by element, for the sealed saves of
  :mod:`repro.xmi.persist`.  Its pieces join to exactly
  ``json.dumps(document, sort_keys=True, separators=(",", ":"))`` of the
  document :func:`write_json` builds, without building it.

:class:`JsonReader` is the JSON format adapter over
:class:`~repro.xmi.builder.ModelBuilder`, the construction path it shares
with the XML reader (the builder's docstring says what a load does and
does not notify).  :meth:`JsonReader.read_document` builds from a
document already parsed, so a sealed file whose digest check parsed it
is not parsed twice.
"""

from __future__ import annotations

import json
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Tuple,
                    Union)

from ..mof.kernel import (Attribute, Element, Feature, MetaClass,
                          MetaPackage, _get_value)
from ..mof.repository import Model, Repository
from ..obs import trace as _trace
from .builder import ModelBuilder, traced_read
from .ids import assign_ids
from .writer import _observe_io, _should_serialize, _type_label

#: the canonical JSON text of a value: sorted keys, no whitespace, ASCII
#: escapes.  Sealed saves write it and the loader verifies against it.
canonical_dump = json.JSONEncoder(sort_keys=True,
                                  separators=(",", ":")).encode

# how a plan reads a serialized feature
_ATTR, _ATTRS, _CHILD, _CHILDREN, _REF, _REFS = range(6)

#: a metaclass's type label and its (feature, kind) pairs
_Plan = Tuple[str, Tuple[Tuple[Feature, int], ...]]


def _plan(element: Element) -> _Plan:
    """The type label of *element*'s metaclass and its serialized
    features, in declaration order, each with the kind that says how to
    read it."""
    features = []
    for feature in element.meta.all_features().values():
        if not _should_serialize(feature):
            continue
        if isinstance(feature, Attribute):
            kind = _ATTRS if feature.many else _ATTR
        elif feature.containment:
            kind = _CHILDREN if feature.many else _CHILD
        else:
            kind = _REFS if feature.many else _REF
        features.append((feature, kind))
    return _type_label(element), tuple(features)


class ElementContent:
    """What one save writes of each element, read with the ids of
    :func:`~repro.xmi.ids.assign_ids` and one plan per metaclass."""

    def __init__(self, ids: Dict[int, str]):
        from ..profiles.base import applications_of
        self._ids = ids
        self._applications = applications_of
        self._plans: Dict[MetaClass, _Plan] = {}

    def content(self, element: Element) -> Dict[str, Any]:
        """*element*'s ``type`` and ``id``, then whichever of ``attrs``,
        ``children`` (feature name -> child elements), ``refs`` and
        ``stereotypes`` it has.  Unset and ``None`` attributes, empty
        lists and references to elements without an id are left out."""
        meta = element.meta
        plan = self._plans.get(meta)
        if plan is None:
            plan = self._plans[meta] = _plan(element)
        label, features = plan
        out: Dict[str, Any] = {"type": label, "id": self._ids[id(element)]}
        attrs: Dict[str, Any] = {}
        children: Dict[str, List[Element]] = {}
        refs: Dict[str, List[str]] = {}
        slots = element._slots
        for feature, kind in features:
            value = _get_value(element, feature)
            if kind == _ATTR:
                # an absent slot reads the default, which is not written
                if value is not None and feature.name in slots:
                    attrs[feature.name] = value
            elif kind == _ATTRS:
                if value:
                    attrs[feature.name] = list(value)
            elif kind == _CHILDREN:
                if value:
                    children[feature.name] = list(value)
            elif kind == _CHILD:
                if value is not None:
                    children[feature.name] = [value]
            else:
                targets = value if kind == _REFS else (
                    () if value is None else (value,))
                target_ids = [self._ids[id(t)] for t in targets
                              if id(t) in self._ids]
                if target_ids:
                    refs[feature.name] = target_ids
        if attrs:
            out["attrs"] = attrs
        if children:
            out["children"] = children
        if refs:
            out["refs"] = refs
        stereotypes = [{
            "profile": app.stereotype.profile.name
            if app.stereotype.profile else "",
            "name": app.stereotype.name,
            "values": dict(app.values),
        } for app in self._applications(element)]
        if stereotypes:
            out["stereotypes"] = stereotypes
        return out

    def to_dict(self, element: Element) -> Dict[str, Any]:
        """*element* and its containment subtree as nested plain dicts."""
        out = self.content(element)
        children = out.get("children")
        if children:
            out["children"] = {name: [self.to_dict(kid) for kid in kids]
                               for name, kids in children.items()}
        return out

    def canonical(self, element: Element, lead: str = "") -> Iterator[str]:
        """*lead*, then *element* and its subtree as canonical JSON text,
        in pieces: ``{"attrs":…,"children":{<sorted feature>:[…]},`` and
        then the remaining own fields (``id``, ``refs``,
        ``stereotypes``, ``type``, all of which sort after
        ``children``) as one dump.  An element without children is one
        dump."""
        own = self.content(element)
        children = own.pop("children", None)
        if children is None:
            yield lead + canonical_dump(own)
            return
        attrs = own.pop("attrs", None)
        yield (f'{lead}{{"children":{{' if attrs is None else
               f'{lead}{{"attrs":{canonical_dump(attrs)},"children":{{')
        for index, name in enumerate(sorted(children)):
            kids = children[name]
            yield from self.canonical(
                kids[0], f'{"]," if index else ""}{canonical_dump(name)}:[')
            for kid in kids[1:]:
                yield from self.canonical(kid, ",")
        yield "]}," + canonical_dump(own)[1:]


def _document_source(source: Union[Model, Element],
                     uri: str = "urn:model", name: str = "model"
                     ) -> Tuple[List[Element], str, str]:
    """The roots, uri and name of *source*'s document."""
    if isinstance(source, Model):
        return list(source.roots), source.uri, source.name
    return [source], uri, name


def canonical_pieces(source: Union[Model, Element]) -> Iterator[str]:
    """*source*'s JSON document as canonical text, streamed element by
    element: ``{"name":…,"roots":[…],"uri":…,"version":"1.0"}``.  The
    document is never built; the pieces join to its canonical dump."""
    roots, uri, name = _document_source(source)
    content = ElementContent(assign_ids(roots))
    yield canonical_dump({"name": name})[:-1] + ',"roots":['
    for index, root in enumerate(roots):
        yield from content.canonical(root, "," if index else "")
    yield "]," + canonical_dump({"uri": uri, "version": "1.0"})[1:]


def write_json(source: Union[Model, Element], *, indent: int = 2,
               uri: str = "urn:model", name: str = "model") -> str:
    """Serialize a model or a single root element to JSON text."""
    roots, uri, name = _document_source(source, uri, name)

    def _write() -> str:
        content = ElementContent(assign_ids(roots))
        return json.dumps({
            "uri": uri,
            "name": name,
            "version": "1.0",
            "roots": [content.to_dict(root) for root in roots],
        }, indent=indent)

    if _trace.ON:
        with _trace.span("xmi.write", format="json") as sp:
            text = _write()
        _observe_io(sp, "xmi.write", "json", roots, len(text))
        return text
    return _write()


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
