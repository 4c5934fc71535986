"""Write-ahead durability for the model server.

A :class:`ModelServer` started with ``wal_dir=`` keeps one write-ahead
log per hosted repository.  The contract:

* **No acknowledged edit is ever lost.**  Every committed ``edit-txn``
  is serialized as one checksummed JSON record and appended to
  ``<wal_dir>/<repo>.wal`` — written, flushed and ``fsync``\\ ed —
  *inside* the kernel transaction, before the epoch bump is
  acknowledged to the client.  A ``kill -9`` at any later point finds
  the record on disk and replays it on the next start.
* **No unacknowledged edit is ever half-applied.**  If the append
  itself fails (disk error, injected ``wal.append`` fault), the open
  transaction rolls the in-memory model back, the log is truncated to
  its pre-append length, and the client receives a replayable
  ``txn-failed`` — memory and disk agree that the edit never happened.
  A crash *during* the append leaves a torn tail record whose checksum
  cannot verify; replay truncates it.  Either way the recovered state
  is exactly the acknowledged prefix.
* **Replay is deterministic.**  The log's first record names a
  digest-sealed snapshot written at attach time (and rewritten by
  compaction) through :func:`repro.xmi.persist.save_model`'s
  tmp+fsync+atomic-rename discipline.  Snapshots preserve element ids,
  and ``create`` ops are annotated at commit time with the eid the
  server assigned, which replay pins back with ``set_eid`` — so ops
  recorded against live state resolve identically against recovered
  state, and a shadow session applying the same acknowledged prefix
  produces a byte-identical check document.

Record format: one JSON object per line; the ``crc`` key holds the
SHA-256 (truncated) of the record's canonical serialization without
it.  A line that does not parse, lacks the checksum, or fails it is a
*torn tail* when it is the final line (truncated silently) and
corruption when it is not (typed :class:`WalCorruptError`).

Compaction rides :func:`save_model`: after ``compact_every`` appended
transactions the current model is snapshotted to
``<repo>.snapshot.<epoch>.<fmt>``, the log is atomically rewritten to a
single origin record naming it, and older snapshot generations are
removed only afterwards — a crash between the two steps leaves the old
log still pointing at the old, still-present snapshot.  Snapshots are
sealed JSON (:mod:`repro.xmi.persist`): the canonical compact dump of
the model document plus a spliced digest, so a compaction encodes the
model once.  Compaction runs after the triggering edit-txn's record is
durable, so a failed compaction (disk full, EIO, an injected ``io.*``
fault) does not fail that edit: it is acknowledged and watchers are
notified, the failure is counted (``server.wal.compact_failures``,
:meth:`WriteAheadLog.stats`), and the next edit-txn retries.

Fault sites: ``wal.append`` (fires before the bytes are written) and
``wal.replay`` (fires before each recovered transaction re-applies).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Tuple

from .. import faults as _faults
from ..obs import metrics as _metrics
from ..xmi.persist import atomic_write_text, save_model

#: file suffixes owned by this module inside a WAL directory
WAL_SUFFIX = ".wal"
SNAPSHOT_MARKER = ".snapshot."

#: compact after this many appended transaction records (per repo)
DEFAULT_COMPACT_EVERY = 256


class WalError(Exception):
    """A write-ahead log operation failed."""


class WalCorruptError(WalError):
    """A non-final log record failed to parse or verify.

    A torn *final* record is the expected crash artifact and is
    truncated silently; garbage in the middle of the log means the file
    was damaged after the fact and recovery must not guess past it.
    """

    def __init__(self, path: str, line_no: int, reason: str):
        self.path = path
        self.line_no = line_no
        super().__init__(
            f"write-ahead log '{path}' is corrupt at record "
            f"{line_no}: {reason}")


# ---------------------------------------------------------------------------
# Record encoding
# ---------------------------------------------------------------------------

def _checksum(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def encode_record(record: Dict[str, Any]) -> bytes:
    """One log line: the record plus a ``crc`` over its canonical form."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    sealed = dict(record)
    sealed["crc"] = _checksum(payload)
    return (json.dumps(sealed, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def decode_record(line: bytes) -> Optional[Dict[str, Any]]:
    """The verified record for *line*, or ``None`` when torn/garbled."""
    try:
        sealed = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(sealed, dict) or "crc" not in sealed:
        return None
    crc = sealed.pop("crc")
    payload = json.dumps(sealed, sort_keys=True, separators=(",", ":"))
    if crc != _checksum(payload):
        return None
    return sealed


def read_records(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Parse the log at *path*.

    Returns ``(records, valid_bytes)`` where ``valid_bytes`` is the
    file offset up to which the log verified — a torn final record (or
    trailing partial line with no newline) lies beyond it and should be
    truncated away before appending resumes.  Raises
    :class:`WalCorruptError` when a *non*-final record fails.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    records: List[Dict[str, Any]] = []
    offset = 0
    line_no = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline == -1:
            break                         # partial line: torn tail
        line = data[offset:newline]
        line_no += 1
        record = decode_record(line)
        if record is None:
            if newline + 1 < len(data):
                raise WalCorruptError(
                    path, line_no,
                    "record fails its checksum but is not the final "
                    "record")
            break                         # torn final record
        records.append(record)
        offset = newline + 1
    return records, offset


# ---------------------------------------------------------------------------
# The per-repository log
# ---------------------------------------------------------------------------

class WriteAheadLog:
    """Append-only durable log for one hosted repository.

    Not thread-safe by itself: the server always calls it with the
    repository lock held (appends serialize with edits by design).
    """

    def __init__(self, directory: str, repo: str,
                 compact_every: int = DEFAULT_COMPACT_EVERY):
        self.directory = directory
        self.repo = repo
        self.path = os.path.join(directory, repo + WAL_SUFFIX)
        self.compact_every = compact_every
        self.records_since_snapshot = 0
        self.appended = 0
        self.compactions = 0
        self.compact_failures = 0
        self.compact_error: Optional[str] = None
        self.broken: Optional[str] = None
        self._handle = None

    # -- lifecycle ---------------------------------------------------------

    def _snapshot_name(self, epoch: int, fmt: str = "json") -> str:
        return f"{self.repo}{SNAPSHOT_MARKER}{epoch}.{fmt}"

    def snapshot_path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def create(self, model: Any, epoch: int = 0) -> None:
        """Start a fresh log: snapshot *model*, write the origin record."""
        snapshot = self._snapshot_name(epoch)
        save_model(model, self.snapshot_path(snapshot),
                   keep_backup=False)
        origin = {"type": "origin", "repo": self.repo, "epoch": epoch,
                  "snapshot": snapshot}
        atomic_write_text(self.path,
                          encode_record(origin).decode("utf-8"),
                          keep_backup=False)
        self.records_since_snapshot = 0
        self._open_append()

    def resume(self, valid_bytes: int,
               records_since_snapshot: int) -> None:
        """Reopen an existing (recovered) log for appending, dropping
        any torn tail past *valid_bytes*."""
        if os.path.getsize(self.path) != valid_bytes:
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        self.records_since_snapshot = records_since_snapshot
        self._open_append()

    def _open_append(self) -> None:
        self.close()
        self._handle = open(self.path, "ab")

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def flush(self) -> None:
        """fsync the log (drain path; appends already fsync per record)."""
        if self._handle is not None:
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except (OSError, ValueError):
                pass

    # -- appending ---------------------------------------------------------

    def append_txn(self, epoch: int, ops: List[Any]) -> None:
        """Durably append one committed transaction record.

        Raises on any failure *after truncating the log back to its
        pre-append length*, so a failed (or fault-injected) append
        leaves no partial record behind — the caller rolls the
        in-memory transaction back and memory and disk agree.
        """
        if self.broken:
            raise WalError(
                f"write-ahead log for {self.repo!r} is broken "
                f"({self.broken}); refusing further edits")
        if self._handle is None:
            self._open_append()
        line = encode_record({"type": "txn", "epoch": epoch, "ops": ops})
        offset = self._handle.tell()
        try:
            if _faults.ACTIVE is not None:
                _faults.probe("wal.append")
            self._handle.write(line)
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except BaseException as exc:
            try:
                self._handle.truncate(offset)
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except OSError:
                # the log is in an unknown state: poison it rather than
                # risk acknowledging edits that may not be on disk
                self.broken = f"truncate after failed append: {exc}"
                self.close()
            raise
        self.appended += 1
        self.records_since_snapshot += 1
        _metrics.REGISTRY.counter(
            "server.wal.appends",
            help="edit-txn records durably appended, by repo",
            repo=self.repo).inc()
        _metrics.REGISTRY.counter(
            "server.wal.bytes",
            help="bytes appended to write-ahead logs").inc(len(line))

    def maybe_compact(self, model: Any, epoch: int) -> bool:
        """Snapshot + truncate once the log accumulates enough records.

        Runs after the edit-txn's record is durable, so a failed
        compaction must not fail the edit: it is counted and recorded,
        ``records_since_snapshot`` stays put, and the next edit-txn
        retries.  Every failure window leaves the old log pointing at
        its old, still-present snapshot (see :meth:`compact`).
        """
        if self.records_since_snapshot < self.compact_every:
            return False
        try:
            self.compact(model, epoch)
        except Exception as exc:  # noqa: BLE001 - the edit is committed
            self.compact_failures += 1
            self.compact_error = f"{type(exc).__name__}: {exc}"
            _metrics.REGISTRY.counter(
                "server.wal.compact_failures",
                help="compactions that failed after a committed edit-txn, "
                     "by repo",
                repo=self.repo).inc()
            return False
        return True

    def compact(self, model: Any, epoch: int) -> None:
        """Rewrite the log as a single origin record at *epoch*.

        Ordered so every crash window recovers: the new snapshot lands
        (atomically) under a new name first, then the log is atomically
        rewritten to point at it, and only then are older snapshot
        generations deleted.
        """
        keep = set()
        snapshot = self._snapshot_name(epoch)
        keep.add(snapshot)
        save_model(model, self.snapshot_path(snapshot),
                   keep_backup=False)
        origin = {"type": "origin", "repo": self.repo, "epoch": epoch,
                  "snapshot": snapshot}
        self.close()
        atomic_write_text(self.path,
                          encode_record(origin).decode("utf-8"),
                          keep_backup=False)
        self._open_append()
        self.records_since_snapshot = 0
        self.compactions += 1
        _metrics.REGISTRY.counter(
            "server.wal.compactions",
            help="snapshot+truncate compactions, by repo",
            repo=self.repo).inc()
        prefix = self.repo + SNAPSHOT_MARKER
        for name in os.listdir(self.directory):
            if name.startswith(prefix) and name not in keep:
                try:
                    os.remove(os.path.join(self.directory, name))
                except OSError:
                    pass

    def stats(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "appended": self.appended,
            "since_snapshot": self.records_since_snapshot,
            "compactions": self.compactions,
            "compact_failures": self.compact_failures,
            "compact_error": self.compact_error,
            "broken": self.broken,
        }


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------

def annotate_created(ops: List[Any],
                     created: Dict[int, Any]) -> List[Any]:
    """The ops list as recorded in the log: ``create`` ops gain the eid
    the server assigned, so replay pins identical ids."""
    out: List[Any] = []
    for index, op in enumerate(ops):
        element = created.get(index)
        if element is not None:
            op = dict(op)
            op["eid"] = element.eid
        out.append(op)
    return out


def pending_logs(directory: str) -> List[str]:
    """Repo names with a log present in *directory*, sorted."""
    out = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(WAL_SUFFIX):
            out.append(name[:-len(WAL_SUFFIX)])
    return out


def recover_repo(server: Any, repo: str, directory: str,
                 compact_every: int = DEFAULT_COMPACT_EVERY) -> Any:
    """Rebuild one repository from its log and attach it to *server*.

    Loads the origin snapshot, replays every committed transaction
    record through the same op applier the live ``edit-txn`` verb uses
    (pinning recorded create eids), truncates any torn tail, and
    attaches the repository at its recovered epoch with the log open
    for further appends.  Returns the attached
    :class:`~repro.server.dispatch.RepoState`.
    """
    from ..cli import load_model
    from ..mof.txn import transaction
    from ..session import Session
    from .dispatch import apply_edit_ops

    wal = WriteAheadLog(directory, repo, compact_every)
    records, valid_bytes = read_records(wal.path)
    if not records or records[0].get("type") != "origin":
        raise WalCorruptError(wal.path, 1,
                              "log does not start with an origin record")
    origin = records[0]
    snapshot = wal.snapshot_path(origin["snapshot"])
    model = load_model(snapshot)
    epoch = int(origin["epoch"])
    replayed = 0
    for record in records[1:]:
        if record.get("type") != "txn":
            raise WalCorruptError(
                wal.path, replayed + 2,
                f"unexpected record type {record.get('type')!r}")
        if int(record["epoch"]) != epoch + 1:
            raise WalCorruptError(
                wal.path, replayed + 2,
                f"transaction record jumps from epoch {epoch} to "
                f"{record['epoch']}")
        if _faults.ACTIVE is not None:
            _faults.probe("wal.replay")
        with transaction(model):
            apply_edit_ops(server.resolve_metaclass, model,
                           record["ops"], pin_eids=True)
        epoch += 1
        replayed += 1
    wal.resume(valid_bytes, replayed)
    state = server.attach(repo, Session(model), epoch=epoch, wal=wal)
    state.edits_applied = replayed
    _metrics.REGISTRY.counter(
        "server.wal.recovered_txns",
        help="transactions replayed from write-ahead logs",
        repo=repo).inc(replayed)
    return state
