"""Identifier management for model interchange.

Serialization needs every element to carry a document-unique id.  Elements
already have a lazy per-process ``eid``; :func:`assign_ids` walks a tree and
returns a stable element→id mapping (reusing ``eid`` so ids survive
round-trips within a process).  The walk reads the containment slots
directly (:func:`repro.mof.index.walk`), so it fires no read hook and
makes no empty list.
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..mof.index import walk
from ..mof.kernel import Element


def assign_ids(roots: Iterable[Element]) -> Dict[int, str]:
    """Map ``id(element)`` → document id for every element in the trees."""
    mapping: Dict[int, str] = {}
    seen_ids: set = set()
    for root in roots:
        for element in walk(root):
            doc_id = element.eid
            if doc_id in seen_ids:
                # eid collision across separately built trees; disambiguate
                suffix = 1
                while f"{doc_id}.{suffix}" in seen_ids:
                    suffix += 1
                doc_id = f"{doc_id}.{suffix}"
                element.set_eid(doc_id)
            seen_ids.add(doc_id)
            mapping[id(element)] = doc_id
    return mapping
