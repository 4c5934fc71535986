"""The document-path JSON writer: the reference for the streamed saves.

This is how sealed JSON was written before the saves streamed it:
build the whole document as nested dicts, one element at a time through
``eis_set``/``eget`` and ``_should_serialize``, dump it canonically with
the C encoder, hash that text and put the ``"sha256"`` key in place of
its closing brace.  ``tests/test_persist_stream.py`` asserts that
``save_model`` and ``serialize_model`` produce exactly these bytes.
Test-only: nothing in ``src/`` uses it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Union

from repro.mof.kernel import Attribute, Element
from repro.mof.repository import Model
from repro.profiles.base import applications_of
from repro.xmi.ids import assign_ids
from repro.xmi.writer import _should_serialize, _type_label


def reference_to_dict(element: Element, ids: Dict[int, str]) -> Dict[str, Any]:
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
                children[feature.name] = [reference_to_dict(kid, ids)
                                          for kid in kids]
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
    stereotypes = []
    for application in applications_of(element):
        stereotype = application.stereotype
        stereotypes.append({
            "profile": stereotype.profile.name if stereotype.profile
            else "",
            "name": stereotype.name,
            "values": dict(application.values),
        })
    if stereotypes:
        out["stereotypes"] = stereotypes
    return out


def reference_document(source: Union[Model, Element]) -> Dict[str, Any]:
    """The whole JSON document of *source*, as the saves used to build it."""
    if isinstance(source, Model):
        roots, uri, name = list(source.roots), source.uri, source.name
    else:
        roots, uri, name = [source], "urn:model", "model"
    ids = assign_ids(roots)
    return {
        "uri": uri,
        "name": name,
        "version": "1.0",
        "roots": [reference_to_dict(root, ids) for root in roots],
    }


def reference_sealed_json(source: Union[Model, Element]) -> str:
    """The sealed JSON text: the canonical dump of the document, with
    the digest of that exact text in place of its closing brace."""
    payload = json.dumps(reference_document(source), sort_keys=True,
                         separators=(",", ":"))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return f'{payload[:-1]},"sha256":"{digest}"}}'
