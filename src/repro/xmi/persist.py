"""Crash-safe model persistence: atomic saves, backups, corruption checks.

The serializers in this package produce text; this module owns getting
that text onto disk so that *no sequence of crashes leaves the model
file unreadable without a recovery path*:

* **atomic save** — serialize, write to a temporary sibling, flush +
  ``fsync``, then ``os.replace`` onto the real path (atomic on POSIX and
  Windows).  A crash mid-write tears only the temp file; the previous
  save stays intact.
* **backup retention** — before the swap, the current file is preserved
  as ``<path>.bak`` (hard link when the filesystem allows, copy
  otherwise), so even a logic error that commits garbage atomically
  still leaves the previous generation recoverable.
* **corruption detection** — every save embeds a SHA-256 digest of the
  payload (an XML trailer comment / a top-level JSON key, both invisible
  to the normal readers); :func:`load_model` verifies it and raises the
  typed, recoverable :class:`CorruptModelError` — carrying the backup
  path if one exists — instead of returning a silently wrong model on
  truncated or garbled input.

Sealed JSON is the document's canonical form (sorted keys, no
whitespace, ASCII escapes) with the ``"sha256"`` key of that exact text
in place of its closing brace.  It is streamed: the canonical text is
produced element by element (:func:`repro.xmi.jsonio.canonical_pieces`),
joined into ~64 KiB chunks, hashed by a running SHA-256 and written as
it goes, so a save holds neither the document nor its whole text.  The
loader parses the file, drops the key and re-dumps it canonically, so
any key order or indentation verifies — files sealed pretty-printed
(``indent=2``) by earlier releases still load.  The model is built from
that one parse.  An XML seal is looked for only in the text's last
characters, since only whitespace may follow it.

Fault-injection probes (``io.write``, ``io.write.partial``,
``io.replace``) cover the three crash windows; the chaos suite drives
them to show interrupted saves always leave a loadable state behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
from typing import Iterable, Iterator, List, Optional, Union

from .. import faults as _faults
from ..mof.errors import MofError
from ..mof.kernel import Element, MetaPackage
from ..mof.repository import Model, Repository
from .builder import traced_read
from .jsonio import JsonReader, canonical_dump, canonical_pieces
from .reader import read_xml
from .writer import traced_write, write_xml

_XML_DIGEST_RE = re.compile(
    r"\n?<!--repro:sha256:([0-9a-f]{64})-->\s*$")

#: The most characters a match of :data:`_XML_DIGEST_RE` spans before
#: its trailing whitespace: the newline, then the 84-character comment.
_XML_SEAL_CHARS = 85

_DIGEST_KEY = "sha256"

#: characters a sealed JSON stream joins before it hashes and writes them
_CHUNK_CHARS = 1 << 16


class PersistenceError(MofError):
    """Base class for model file persistence failures."""


class CorruptModelError(PersistenceError):
    """A model file failed to parse or failed its digest check.

    Recoverable by construction: ``backup_path`` points at the retained
    previous generation when one exists (load it, or pass
    ``fallback_to_backup=True`` to :func:`load_model`).
    """

    def __init__(self, path: str, reason: str,
                 backup_path: Optional[str] = None):
        self.path = path
        self.reason = reason
        self.backup_path = backup_path
        hint = (f"; previous generation retained at '{backup_path}'"
                if backup_path else "; no backup present")
        super().__init__(f"model file '{path}' is corrupt: {reason}{hint}")


def backup_path(path: Union[str, os.PathLike]) -> str:
    return os.fspath(path) + ".bak"


def _detect_format(path: str, format: Optional[str]) -> str:
    if format in ("xml", "json"):
        return format
    if format is not None:
        raise PersistenceError(f"unknown model format {format!r}")
    return "json" if path.endswith(".json") else "xml"


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Digest embedding / verification
# ---------------------------------------------------------------------------

def _seal_xml(payload: str) -> str:
    # a trailing comment is valid XML 'Misc' content after the document
    # element; ElementTree skips it on parse, so plain read_xml still works
    return f"{payload}\n<!--repro:sha256:{_digest(payload)}-->\n"


def _check_xml(text: str, path: str,
               backup: Optional[str]) -> str:
    # only whitespace may follow the seal, so a match starts within
    # the last _XML_SEAL_CHARS characters before the trailing
    # whitespace; searching from there finds what a search from the
    # first character finds
    end = len(text)
    while end and text[end - 1].isspace():
        end -= 1
    match = _XML_DIGEST_RE.search(text, max(0, end - _XML_SEAL_CHARS))
    if match is None:
        return text                      # unsealed file (foreign tool): parse as-is
    payload = text[:match.start()]
    if _digest(payload) != match.group(1):
        raise CorruptModelError(
            path, "embedded SHA-256 digest does not match content "
                  "(truncated or modified after save)", backup)
    return payload


def _canonical_json(document: dict) -> str:
    return canonical_dump({k: v for k, v in document.items()
                           if k != _DIGEST_KEY})


def _chunks(pieces: Iterable[str]) -> Iterator[str]:
    """*pieces* joined into strings of about :data:`_CHUNK_CHARS`."""
    buffer: List[str] = []
    size = 0
    for piece in pieces:
        buffer.append(piece)
        size += len(piece)
        if size >= _CHUNK_CHARS:
            yield "".join(buffer)
            buffer.clear()
            size = 0
    if buffer:
        yield "".join(buffer)


def _sealed_json(source: Union[Model, Element]) -> Iterator[str]:
    """*source*'s sealed JSON text in chunks.  The canonical text is
    hashed as it streams; its closing brace is held back and the digest
    key goes in its place, so the loader's canonical re-dump (without
    the key) reproduces exactly the hashed text."""
    digest = hashlib.sha256()
    held = ""
    for chunk in _chunks(canonical_pieces(source)):
        digest.update(chunk.encode("utf-8"))
        if held:
            yield held
        held = chunk
    yield f'{held[:-1]},"{_DIGEST_KEY}":"{digest.hexdigest()}"}}'


def _check_json(text: str, path: str,
                backup: Optional[str]) -> dict:
    """The parsed document of *text*, its digest verified when present."""
    try:
        document = json.loads(text)
    except ValueError as exc:
        raise CorruptModelError(path, f"invalid JSON: {exc}", backup) \
            from exc
    if not isinstance(document, dict):
        raise CorruptModelError(
            path, "top level is not a JSON object", backup)
    stored = document.get(_DIGEST_KEY)
    if stored is not None \
            and stored != _digest(_canonical_json(document)):
        raise CorruptModelError(
            path, "embedded SHA-256 digest does not match content "
                  "(truncated or modified after save)", backup)
    return document                      # JsonReader ignores the digest key


# ---------------------------------------------------------------------------
# Atomic write
# ---------------------------------------------------------------------------

def atomic_write_text(path: Union[str, os.PathLike],
                      pieces: Iterable[str], *,
                      keep_backup: bool = True) -> None:
    """Write the concatenation of *pieces* to *path* with
    write-to-temp + fsync + atomic rename.

    Each piece is written as the iteration reaches it, so a streamed
    text is never held whole; pass ``[text]`` for one text.  When
    *keep_backup* is true and *path* already exists, the current
    content survives as ``<path>.bak``.  A crash (or injected fault) at
    any point leaves either the old generation, or the old generation
    plus a torn ``.tmp``/complete ``.bak`` — never a torn *path*.
    """
    path = os.fspath(path)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    if _faults.ACTIVE is not None:
        _faults.probe("io.write")
    pieces = iter(pieces)
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            first = next(pieces, "")
            half = len(first) // 2
            handle.write(first[:half])
            if _faults.ACTIVE is not None:
                # the torn-file crash: half the first piece is on disk
                handle.flush()
                _faults.probe("io.write.partial")
            handle.write(first[half:])
            for piece in pieces:
                handle.write(piece)
            handle.flush()
            os.fsync(handle.fileno())
        if keep_backup and os.path.exists(path):
            bak = backup_path(path)
            try:
                if os.path.exists(bak):
                    os.remove(bak)
                os.link(path, bak)       # zero-copy where supported
            except OSError:
                shutil.copy2(path, bak)
        if _faults.ACTIVE is not None:
            _faults.probe("io.replace")
        os.replace(tmp_path, path)
    except BaseException:
        # best effort: do not leave temp droppings behind on failure
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
    # persist the rename itself (directory entry) where the OS allows
    try:
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    except OSError:                      # pragma: no cover - exotic fs
        return
    try:
        os.fsync(dir_fd)
    except OSError:                      # pragma: no cover
        pass
    finally:
        os.close(dir_fd)


# ---------------------------------------------------------------------------
# Model-level API
# ---------------------------------------------------------------------------

def serialize_model(source: Union[Model, Element], *,
                    format: str = "xmi") -> str:
    """The digest-sealed serialized text :func:`save_model` would write.

    For callers that stream to stdout or a transport instead of a file;
    the output round-trips through :func:`load_model` either way.
    """
    if format == "json":
        return traced_write("json", source, _sealed_json(source), "".join)
    if format in ("xmi", "xml"):
        return _seal_xml(write_xml(source))
    raise ValueError(f"unknown serialization format {format!r}; "
                     f"expected 'xmi' or 'json'")


def save_model(source: Union[Model, Element], path: Union[str, os.PathLike],
               *, format: Optional[str] = None,
               keep_backup: bool = True) -> str:
    """Serialize *source* and save it crash-safely; return the format used."""
    path = os.fspath(path)
    fmt = _detect_format(path, format)
    if fmt == "json":
        traced_write("json", source, _sealed_json(source),
                     lambda chunks: atomic_write_text(
                         path, chunks, keep_backup=keep_backup))
    else:
        atomic_write_text(path, [serialize_model(source, format=fmt)],
                          keep_backup=keep_backup)
    return fmt


def load_model(path: Union[str, os.PathLike],
               packages: Iterable[MetaPackage], *,
               profiles: Iterable = (),
               format: Optional[str] = None,
               repository: Optional[Repository] = None,
               fallback_to_backup: bool = False) -> Model:
    """Load a model file saved by :func:`save_model` (or any plain
    XMI/JSON document), verifying the embedded digest when present.

    Truncated, garbled or digest-mismatching input raises
    :class:`CorruptModelError`; with *fallback_to_backup* the retained
    ``.bak`` generation is loaded instead when one exists.
    """
    path = os.fspath(path)
    fmt = _detect_format(path, format)
    try:
        model = _load_checked(path, packages, profiles, fmt)
    except CorruptModelError as exc:
        if not (fallback_to_backup and exc.backup_path):
            raise
        # the backup keeps the primary's format (its name just adds .bak)
        model = _load_checked(exc.backup_path, packages, profiles, fmt)
    if repository is not None:
        repository.add_model(model)
    return model


def _load_checked(path: str, packages: Iterable[MetaPackage],
                  profiles: Iterable, fmt: str) -> Model:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    bak = backup_path(path)
    backup = bak if os.path.exists(bak) else None
    if not text.strip():
        raise CorruptModelError(path, "file is empty", backup)
    if fmt == "json":
        document = _check_json(text, path, backup)
        try:
            # the digest check parsed the text: build from that document
            return traced_read(
                "json", JsonReader(packages, profiles).read_document,
                document, len(text), None)
        except CorruptModelError:
            raise
        except Exception as exc:  # noqa: BLE001 - typed re-raise
            raise CorruptModelError(
                path, f"JSON model rejected: {exc}", backup) from exc
    payload = _check_xml(text, path, backup)
    try:
        return read_xml(payload, packages, profiles=profiles)
    except Exception as exc:  # noqa: BLE001 - typed re-raise
        raise CorruptModelError(
            path, f"XML model rejected: {exc}", backup) from exc
