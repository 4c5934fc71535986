"""``repro.xmi`` — model interchange: XMI-style XML and JSON.

* :func:`write_xml` / :func:`read_xml`
* :func:`write_json` / :func:`read_json` (the canonical JSON text)
* :class:`TypeRegistry` for label → metaclass resolution
* crash-safe files: :func:`save_model` / :func:`load_model`
  (atomic rename, ``.bak`` retention, digest-verified loads raising
  :class:`CorruptModelError`)
"""

from .builder import TypeRegistry
from .ids import assign_ids
from .jsonio import read_json, write_json
from .persist import (
    CorruptModelError,
    PersistenceError,
    atomic_write_text,
    backup_path,
    load_model,
    save_model,
    serialize_model,
)
from .reader import XmiReader, read_xml
from .writer import write_xml

__all__ = [
    "CorruptModelError", "PersistenceError", "TypeRegistry", "XmiReader",
    "assign_ids", "atomic_write_text", "backup_path", "load_model",
    "read_json", "read_xml", "save_model", "serialize_model", "write_json",
    "write_xml",
]
