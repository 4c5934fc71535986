"""The multi-tenant model server: repositories, verbs, epochs, isolation.

A :class:`ModelServer` hosts many named repositories (tenants), each a
:class:`~repro.session.Session` over one live model, and many
connections, each an independent client.  The verb set mirrors the
Session facade one-to-one (``load``/``generate``/``check``/``stats``)
plus the server-only concurrency verbs (``edit-txn``/``watch``/
``close``) — see the verb↔Session mapping table in DESIGN.md.

Concurrency model
-----------------

* **Optimistic at the protocol level.**  Every repository carries an
  *edit epoch*, bumped once per committed ``edit-txn``.  A transaction
  submitted against a stale ``base_epoch`` is rejected with a
  ``conflict`` error that carries the current epoch and echoes the ops,
  so the client replays the identical batch against fresh state —
  no conflicting edit is ever silently dropped.
* **Pessimistic at the kernel level.**  The MOF kernel and the
  transaction journal are deliberately single-writer (the journal taps
  process-wide hooks), so the server applies edit transactions under one
  global edit lock, and serializes checks against edits per repository
  with a per-repo lock.  Readers of different repositories never contend
  with each other.
* **Connection-scoped incremental engines.**  Each connection gets its
  own :class:`~repro.incremental.IncrementalEngine` per repository,
  created on first ``check`` and kept warm.  Another client's *checks*
  never touch it, and edits to a *different* repository never invalidate
  it — only committed edits to the same repository mark the precisely
  affected units dirty (that is correctness, not interference).

Backpressure and failure isolation surface through ``repro.obs``:
``server.requests`` (by verb/outcome), ``server.conflicts``,
``server.latency`` histograms, and the ``stats`` verb, which also
reports each engine's checker quarantine.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..mof.kernel import Element, MetaClass, MetaPackage
from ..mof.repository import Model
from ..mof.txn import transaction
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..session import Session
from . import durability as _durability
from .protocol import (
    ProtocolError,
    ServerError,
    decode_frame,
    error_frame,
    event_frame,
    response_frame,
)

#: Wire protocol revision, reported by ``stats`` and the serve banner.
PROTOCOL_VERSION = 1

#: Per-verb wall-clock budgets (seconds).  A request past its budget is
#: shed before it runs, and the long verbs re-check cooperatively at
#: safe points (per edit op, before a cache-missing check) so a blown
#: deadline aborts with everything rolled back.
DEFAULT_DEADLINES: Dict[str, float] = {
    "ping": 5.0,
    "close": 5.0,
    "stats": 10.0,
    "watch": 30.0,
    "check": 30.0,
    "edit-txn": 15.0,
    "load": 60.0,
    "generate": 120.0,
}

#: Budget for verbs not named in the deadline table.
DEFAULT_DEADLINE = 30.0

_repo_counter = itertools.count(1)


# ---------------------------------------------------------------------------
# Edit-op application (shared by the edit-txn verb and WAL replay)
# ---------------------------------------------------------------------------

def apply_edit_ops(resolve_metaclass: Callable[[str], MetaClass],
                   model: Model, ops: List[Any], *,
                   pin_eids: bool = False,
                   created: Optional[Dict[int, Element]] = None,
                   deadline_check: Optional[Callable[[], None]] = None
                   ) -> None:
    """Apply one ``edit-txn`` op batch against *model*.

    The caller owns transactional scope (the live verb wraps this in a
    kernel transaction and rolls back on any raise; WAL replay wraps
    each recovered record the same way).  With ``pin_eids`` a
    ``create`` op carrying an ``eid`` key re-assigns the recorded id,
    so replayed state resolves identically to the live run that logged
    it; *created* (op index -> element) collects new elements so the
    live run can annotate the log record.
    """
    aliases: Dict[str, Element] = {}
    for index, op in enumerate(ops):
        if deadline_check is not None:
            deadline_check()
        if not isinstance(op, dict):
            raise ServerError("bad-params",
                              f"op #{index} must be an object")
        _apply_edit_op(resolve_metaclass, model, op, aliases, index,
                       pin_eids, created)


def _apply_edit_op(resolve_metaclass: Callable[[str], MetaClass],
                   model: Model, op: Dict[str, Any],
                   aliases: Dict[str, Element], index: int,
                   pin_eids: bool,
                   created: Optional[Dict[int, Element]]) -> None:
    kind = op.get("op")
    resolve = lambda ref: _resolve_edit_ref(model, ref, aliases, index)
    if kind == "create":
        metaclass = resolve_metaclass(_require_param(op, "metaclass", str))
        element = metaclass.instantiate(**(op.get("attrs") or {}))
        if pin_eids and "eid" in op:
            element.set_eid(op["eid"])
        if created is not None:
            created[index] = element
        if "parent" in op:
            parent = resolve(op["parent"])
            feature = _require_param(op, "feature", str)
            slot = parent.eget(feature)
            if hasattr(slot, "append"):
                slot.append(element)
            else:
                parent.eset(feature, element)
        else:
            model.add_root(element)
        if "as" in op:
            aliases[str(op["as"])] = element
        return
    if kind == "delete":
        element = resolve(_require_param(op, "element", str))
        if element in model.roots:
            model.remove_root(element)
        element.delete()
        return
    element = resolve(_require_param(op, "element", str))
    feature = _require_param(op, "feature", str)
    if "ref" in op:
        value = _resolve_edit_ref(model, op["ref"], aliases, index)
    else:
        value = op.get("value")
    if kind == "set":
        element.eset(feature, value)
    elif kind == "unset":
        element.eunset(feature)
    elif kind == "add":
        element.eget(feature).append(value)
    elif kind == "remove":
        element.eget(feature).remove(value)
    else:
        raise ServerError(
            "bad-params",
            f"op #{index}: unknown op kind {kind!r} (expected "
            f"create/delete/set/unset/add/remove)")


def _resolve_edit_ref(model: Model, ref: Any,
                      aliases: Dict[str, Element], index: int) -> Element:
    if not isinstance(ref, str):
        raise ServerError("bad-params",
                          f"op #{index}: element ref must be a string")
    if ref.startswith("$"):
        element = aliases.get(ref[1:])
        if element is None:
            raise ServerError(
                "bad-params",
                f"op #{index}: alias {ref!r} is not defined by an "
                f"earlier create op")
        return element
    element = model.index().resolve_eid(ref)
    if element is None:
        raise ServerError(
            "bad-params", f"op #{index}: no element {ref!r}")
    return element


def _require_param(params: Dict[str, Any], key: str, kind: type) -> Any:
    value = params.get(key)
    if not isinstance(value, kind) or (kind is int
                                       and isinstance(value, bool)):
        raise ServerError(
            "bad-params",
            f"param {key!r} must be a {kind.__name__}, "
            f"got {type(value).__name__}")
    return value


class RepoState:
    """One hosted repository: a session, its edit epoch, and watchers."""

    def __init__(self, name: str, session: Session):
        self.name = name
        self.session = session
        self.model: Model = session.model
        self.epoch = 0
        self.lock = threading.RLock()    # serializes checks vs. edits
        self.watchers: Dict[int, "ServerConnection"] = {}
        self.edits_applied = 0
        self.edits_rejected = 0
        # write-ahead log (None unless the server runs with a wal_dir);
        # appended inside the edit transaction, before the epoch bump
        # is acknowledged.
        self.wal: Optional[_durability.WriteAheadLog] = None
        # cross-connection check-result cache: (families, severity,
        # columnar) -> the check document computed at the current
        # epoch.  Check results are pure functions of (model state,
        # parameters), and model state only changes through committed
        # edit-txns — so the cache is cleared exactly on epoch bump and
        # any connection may reuse any other's document.
        self.check_cache: Dict[Tuple[Any, ...], Dict[str, Any]] = {}

    def summary(self) -> Dict[str, Any]:
        document = {
            "repo": self.name,
            "uri": self.model.uri,
            "roots": len(self.model.roots),
            "elements": self.model.size(),
            "epoch": self.epoch,
            "edits_applied": self.edits_applied,
            "edits_rejected": self.edits_rejected,
            "watchers": len(self.watchers),
        }
        if self.wal is not None:
            document["wal"] = self.wal.stats()
        return document


class ModelServer:
    """Verb dispatch and repository registry shared by every transport."""

    def __init__(self, *, max_frame: Optional[int] = None,
                 packages: Optional[List[MetaPackage]] = None,
                 wal_dir: Optional[str] = None,
                 wal_compact_every: Optional[int] = None,
                 deadlines: Optional[Dict[str, float]] = None):
        from .protocol import MAX_FRAME_BYTES
        self.max_frame = max_frame or MAX_FRAME_BYTES
        self.repos: Dict[str, RepoState] = {}
        self._lock = threading.RLock()          # repo map + connection set
        self._edit_lock = threading.Lock()      # kernel/journal single-writer
        self._connections: Dict[int, "ServerConnection"] = {}
        self._conn_counter = itertools.count(1)
        self._packages = packages
        self.started = time.time()
        self.deadlines = dict(DEFAULT_DEADLINES)
        self.deadlines.update(deadlines or {})
        self.wal_dir = os.fspath(wal_dir) if wal_dir is not None else None
        self.wal_compact_every = (wal_compact_every
                                  or _durability.DEFAULT_COMPACT_EVERY)
        self.recovered: List[str] = []
        if self.wal_dir is not None:
            os.makedirs(self.wal_dir, exist_ok=True)
            self.recovered = self._recover()

    def _recover(self) -> List[str]:
        """Replay every pending WAL in ``wal_dir`` (server start)."""
        names = []
        for repo in _durability.pending_logs(self.wal_dir):
            with _trace.span("server.wal.recover", repo=repo):
                state = _durability.recover_repo(
                    self, repo, self.wal_dir,
                    compact_every=self.wal_compact_every)
            names.append(state.name)
        return names

    # -- repositories ------------------------------------------------------

    def attach(self, name: str, session: Session, *, epoch: int = 0,
               wal: Optional[_durability.WriteAheadLog] = None
               ) -> RepoState:
        """Host an existing session as repository *name*.

        With a ``wal_dir`` configured the repository gets a fresh
        write-ahead log seeded with a snapshot of its current state
        (unless recovery already built one and passes it in as *wal*).
        """
        if not name or any(sep in name for sep in ("/", "\\", "\0")) \
                or name.startswith("."):
            raise ServerError("bad-params",
                              f"invalid repository name {name!r}")
        with self._lock:
            if name in self.repos:
                raise ServerError("bad-params",
                                  f"repository {name!r} already loaded")
            state = RepoState(name, session)
            state.epoch = epoch
            if wal is not None:
                state.wal = wal
            elif self.wal_dir is not None:
                state.wal = _durability.WriteAheadLog(
                    self.wal_dir, name,
                    compact_every=self.wal_compact_every)
                state.wal.create(session.model, epoch=epoch)
            self.repos[name] = state
            return state

    def repo(self, name: str) -> RepoState:
        with self._lock:
            state = self.repos.get(name)
        if state is None:
            raise ServerError(
                "no-such-repo", f"no repository {name!r}",
                {"repos": sorted(self.repos)})
        return state

    def _known_packages(self) -> List[MetaPackage]:
        if self._packages is None:
            from ..generate import demo_package
            from ..uml import UML
            self._packages = [UML, demo_package()]
        return self._packages

    def resolve_metaclass(self, name: str) -> MetaClass:
        def walk(package: MetaPackage):
            yield from package.classifiers.values()
            for sub in package.subpackages.values():
                yield from walk(sub)
        for package in self._known_packages():
            for classifier in walk(package):
                if isinstance(classifier, MetaClass) \
                        and classifier.name == name:
                    return classifier
        raise ServerError("bad-params", f"unknown metaclass {name!r}")

    # -- connections -------------------------------------------------------

    def connect(self, send: Callable[[Dict[str, Any]], None]
                ) -> "ServerConnection":
        """Open a connection whose outbound frames go through *send*."""
        conn = ServerConnection(self, next(self._conn_counter), send)
        with self._lock:
            self._connections[conn.id] = conn
        _metrics.REGISTRY.gauge(
            "server.connections",
            help="currently open server connections").inc()
        return conn

    def _disconnect(self, conn: "ServerConnection") -> None:
        with self._lock:
            self._connections.pop(conn.id, None)
            for state in self.repos.values():
                state.watchers.pop(conn.id, None)
        _metrics.REGISTRY.gauge(
            "server.connections",
            help="currently open server connections").dec()

    def flush_wals(self) -> None:
        """fsync every repository's write-ahead log (drain path)."""
        with self._lock:
            states = list(self.repos.values())
        for state in states:
            if state.wal is not None:
                with state.lock:
                    state.wal.flush()

    def shutdown(self) -> None:
        """Close every connection (detaching their engines) and every
        write-ahead log."""
        with self._lock:
            connections = list(self._connections.values())
            states = list(self.repos.values())
        for conn in connections:
            conn.cleanup()
        for state in states:
            if state.wal is not None:
                with state.lock:
                    state.wal.close()

    # -- aggregate stats ---------------------------------------------------

    def stats_document(self) -> Dict[str, Any]:
        from ..session import runtime_stats
        with self._lock:
            repos = {name: state.summary()
                     for name, state in sorted(self.repos.items())}
            connections = len(self._connections)
        document = runtime_stats()
        document["server"] = {
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": round(time.time() - self.started, 3),
            "connections": connections,
            "repos": repos,
        }
        if self.wal_dir is not None:
            document["server"]["wal_dir"] = self.wal_dir
            document["server"]["recovered"] = list(self.recovered)
        return document


class ServerConnection:
    """One client: per-repo incremental engines, watches, FIFO dispatch."""

    def __init__(self, server: ModelServer, conn_id: int,
                 send: Callable[[Dict[str, Any]], None]):
        self.server = server
        self.id = conn_id
        self._send = send
        self._send_lock = threading.Lock()
        self.engines: Dict[str, Any] = {}        # repo name -> engine
        self.watching: Dict[str, Dict[str, Any]] = {}
        self.closed = False
        self._deadline: Optional[float] = None   # monotonic, per request
        self._deadline_verb = ""

    # -- outbound ----------------------------------------------------------

    def send(self, frame: Dict[str, Any]) -> None:
        with self._send_lock:
            self._send(frame)

    def push_event(self, frame: Dict[str, Any]) -> bool:
        """Best-effort event delivery; a dead transport drops the watch."""
        try:
            self.send(frame)
            return True
        except Exception:
            self.cleanup()
            return False

    # -- inbound -----------------------------------------------------------

    def handle_line(self, line: bytes,
                    arrival: Optional[float] = None) -> None:
        """Decode one wire line and dispatch it (transport entry point).

        *arrival* is the ``time.monotonic()`` the transport first saw
        the frame — deadline budgets count queue time, so a request that
        sat behind a backlog past its budget is shed without running.
        """
        try:
            frame = decode_frame(line, max_frame=self.server.max_frame)
        except ProtocolError as exc:
            self._count("?", "protocol-error")
            self.send(error_frame(None, exc.code, str(exc),
                                  exc.data or None))
            return
        self.handle_frame(frame, arrival=arrival)

    def handle_frame(self, frame: Dict[str, Any],
                     arrival: Optional[float] = None) -> None:
        request_id = frame.get("id")
        verb = frame.get("verb")
        if request_id is None or not isinstance(verb, str):
            self._count("?", "bad-request")
            self.send(error_frame(
                request_id, "bad-request",
                "request frames need an 'id' and a string 'verb'"))
            return
        params = frame.get("params") or {}
        if not isinstance(params, dict):
            self._count(verb, "bad-request")
            self.send(error_frame(request_id, "bad-params",
                                  "'params' must be a JSON object"))
            return
        handler = getattr(self, "_verb_" + verb.replace("-", "_"), None)
        if handler is None or not verb.islower():
            self._count(verb, "unknown-verb")
            self.send(error_frame(
                request_id, "unknown-verb", f"unknown verb {verb!r}",
                {"verbs": sorted(VERBS)}))
            return
        if self.closed:
            self.send(error_frame(request_id, "closed",
                                  "connection is closed"))
            return
        budget = self.server.deadlines.get(verb, DEFAULT_DEADLINE)
        base = arrival if arrival is not None else time.monotonic()
        self._deadline = base + budget
        self._deadline_verb = verb
        started = time.perf_counter()
        try:
            self.check_deadline()          # shed before doing any work
            result = handler(params)
        except ServerError as exc:
            self._count(verb, exc.code)
            self._observe(verb, started)
            self.send(error_frame(request_id, exc.code, str(exc),
                                  exc.data or None))
            return
        except Exception as exc:  # noqa: BLE001 - a verb must never kill
            self._count(verb, "internal")                 # the connection
            self._observe(verb, started)
            self.send(error_frame(request_id, "internal",
                                  f"{type(exc).__name__}: {exc}"))
            return
        finally:
            self._deadline = None
        self._count(verb, "ok")
        self._observe(verb, started)
        self.send(response_frame(request_id, result))

    def check_deadline(self) -> None:
        """Raise ``deadline-exceeded`` if the active request blew its
        budget.  Called at cooperative safe points (per edit op, before
        a cache-missing check) — any partial work is rolled back by the
        enclosing transaction."""
        deadline = self._deadline
        if deadline is None or time.monotonic() <= deadline:
            return
        verb = self._deadline_verb
        _metrics.REGISTRY.counter(
            "server.deadlines",
            help="requests shed or aborted on a blown verb budget",
            verb=verb).inc()
        raise ServerError(
            "deadline-exceeded",
            f"{verb!r} request blew its "
            f"{self.server.deadlines.get(verb, DEFAULT_DEADLINE)}s "
            f"budget",
            {"verb": verb, "replayable": True})

    def cleanup(self) -> None:
        """Detach engines and watches; idempotent (EOF and close verb)."""
        if self.closed:
            return
        self.closed = True
        for engine in self.engines.values():
            engine.detach()
        self.engines.clear()
        self.watching.clear()
        self.server._disconnect(self)

    # -- metrics -----------------------------------------------------------

    @staticmethod
    def _count(verb: str, outcome: str) -> None:
        _metrics.REGISTRY.counter(
            "server.requests", help="requests dispatched, by verb/outcome",
            verb=verb, outcome=outcome).inc()

    @staticmethod
    def _observe(verb: str, started: float) -> None:
        _metrics.REGISTRY.histogram(
            "server.latency", help="request handling latency (seconds)",
            verb=verb).observe(time.perf_counter() - started)

    # -- param helpers -----------------------------------------------------

    @staticmethod
    def _require(params: Dict[str, Any], key: str, kind: type) -> Any:
        value = params.get(key)
        if not isinstance(value, kind) or (kind is int
                                           and isinstance(value, bool)):
            raise ServerError(
                "bad-params",
                f"param {key!r} must be a {kind.__name__}, "
                f"got {type(value).__name__}")
        return value

    def _repo_param(self, params: Dict[str, Any]) -> RepoState:
        return self.server.repo(self._require(params, "repo", str))

    # -- verbs -------------------------------------------------------------

    def _verb_load(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Host a serialized model file as a new repository."""
        from ..cli import load_model
        name = self._require(params, "repo", str)
        path = self._require(params, "path", str)
        try:
            session = Session(load_model(path))
        except FileNotFoundError as exc:
            raise ServerError("bad-params", f"cannot load {path}: {exc}")
        state = self.server.attach(name, session)
        return state.summary()

    def _verb_generate(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Host a freshly generated seeded corpus as a new repository."""
        name = params.get("repo") or f"gen{next(_repo_counter)}"
        session = Session.generate(
            params.get("package", "demo"),
            size=int(params.get("size", 1000)),
            seed=int(params.get("seed", 0)),
            repair=bool(params.get("repair", True)))
        state = self.server.attach(name, session)
        summary = state.summary()
        if session.generation is not None \
                and session.generation.repair is not None:
            summary["repair_converged"] = \
                session.generation.repair.converged
        return summary

    def _verb_check(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Family-filtered checking over this connection's warm engine."""
        state = self._repo_param(params)
        families = params.get("families")
        if families is not None and not isinstance(families, list):
            raise ServerError("bad-params",
                              "'families' must be a list of family names")
        severity = params.get("severity")
        incremental = bool(params.get("incremental", True))
        columnar = bool(params.get("columnar", False))
        key = (tuple(families) if families is not None else None,
               severity, columnar)
        with state.lock:
            cached = state.check_cache.get(key)
            _metrics.REGISTRY.counter(
                "server.check_cache",
                help="cross-connection check-result cache lookups",
                result="hit" if cached is not None else "miss").inc()
            if cached is not None:
                document = dict(cached)
            else:
                self.check_deadline()   # a full check is the costly path
                if columnar:
                    state.model.enable_columns()
                try:
                    if incremental:
                        engine = self._engine(state, families)
                        engine.revalidate()
                        result = engine.check_result()
                    else:
                        result = state.session.check(families=families)
                except ValueError as exc:
                    raise ServerError("bad-params", str(exc))
                if severity is not None:
                    try:
                        result = result.filtered(severity)
                    except ValueError as exc:
                        raise ServerError("bad-params", str(exc))
                document = result.to_json()
                state.check_cache[key] = dict(document)
        document["repo"] = state.name
        document["epoch"] = state.epoch
        return document

    def _engine(self, state: RepoState, families: Optional[List[str]]):
        """This connection's engine for *state*, created on first use.

        The family selection is fixed at creation (same contract as
        ``Session.watch``); a later ``check`` with different families
        rebuilds the engine.
        """
        key = state.name
        engine = self.engines.get(key)
        selection = tuple(families) if families is not None else None
        if engine is not None \
                and getattr(engine, "_server_families", None) != selection:
            engine.detach()
            engine = None
        if engine is None:
            engine = state.session.watch(families=families)
            engine._server_families = selection
            self.engines[key] = engine
        return engine

    def _verb_edit_txn(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """One atomic, epoch-guarded batch of edits."""
        state = self._repo_param(params)
        base_epoch = self._require(params, "base_epoch", int)
        ops = self._require(params, "ops", list)
        with state.lock:
            if base_epoch != state.epoch:
                state.edits_rejected += 1
                _metrics.REGISTRY.counter(
                    "server.conflicts",
                    help="edit-txns rejected on a stale epoch",
                    repo=state.name).inc()
                raise ServerError(
                    "conflict",
                    f"base_epoch {base_epoch} is stale "
                    f"(repository is at epoch {state.epoch})",
                    {"repo": state.name, "base_epoch": base_epoch,
                     "current_epoch": state.epoch, "replayable": True,
                     "ops": ops})
            with self.server._edit_lock:
                applied, touched = self._apply_ops(state, ops)
            state.epoch += 1
            state.edits_applied += 1
            state.check_cache.clear()     # documents were per-epoch
            epoch = state.epoch
            if state.wal is not None:
                state.wal.maybe_compact(state.model, epoch)
            self._notify_watchers(state, touched)
        return {"repo": state.name, "epoch": epoch, "applied": applied,
                "touched": touched}

    def _apply_ops(self, state: RepoState,
                   ops: List[Any]) -> Tuple[int, List[str]]:
        """Apply *ops* inside one kernel transaction; roll back on any
        failure and convert it into a replay-safe ``txn-failed`` error.

        Durability ordering: the WAL append runs *inside* the
        transaction, after every op succeeded but before commit — an
        append failure rolls memory back and the log is already
        truncated to its pre-append length, so disk and memory always
        agree, and a record only becomes durable if the edit is about
        to be acknowledged.
        """
        created: Dict[int, Element] = {}
        try:
            with transaction(state.model) as txn:
                apply_edit_ops(self.server.resolve_metaclass, state.model,
                               ops, created=created,
                               deadline_check=self.check_deadline)
                touched = [element.eid
                           for element in txn.touched_elements()]
                applied = len(ops)
                if state.wal is not None:
                    state.wal.append_txn(
                        state.epoch + 1,
                        _durability.annotate_created(ops, created))
        except ServerError:
            raise
        except Exception as exc:
            raise ServerError(
                "txn-failed",
                f"edit-txn rolled back: {type(exc).__name__}: {exc}",
                {"repo": state.name, "rolled_back": True,
                 "replayable": True, "ops": ops})
        return applied, touched

    def _notify_watchers(self, state: RepoState,
                         touched: List[str]) -> None:
        """Push a diagnostics event to every watcher of *state*.

        Runs with the repo lock held (we are still inside the committing
        request), so each watcher's engine revalidates against exactly
        the committed epoch.
        """
        for conn in list(state.watchers.values()):
            spec = conn.watching.get(state.name)
            if spec is None:
                continue
            engine = conn._engine(state, spec.get("families"))
            engine.revalidate()
            result = engine.check_result()
            if spec.get("severity") is not None:
                result = result.filtered(spec["severity"])
            document = result.to_json() if spec.get("full") else {
                "ok": result.ok,
                "errors": len(result.errors),
                "warnings": len(result.warnings),
                "infos": len(result.infos),
            }
            conn.push_event(event_frame(
                "diagnostics", repo=state.name, epoch=state.epoch,
                touched=touched, data=document))

    def _verb_watch(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Subscribe to server-push diagnostics for one repository."""
        state = self._repo_param(params)
        if params.get("stop"):
            self.watching.pop(state.name, None)
            state.watchers.pop(self.id, None)
            return {"repo": state.name, "watching": False}
        families = params.get("families")
        if families is not None and not isinstance(families, list):
            raise ServerError("bad-params",
                              "'families' must be a list of family names")
        spec = {"families": families,
                "severity": params.get("severity"),
                "full": bool(params.get("full", False))}
        with state.lock:
            engine = self._engine(state, families)   # prime the warm state
            engine.revalidate()
            self.watching[state.name] = spec
            state.watchers[self.id] = self
            result = engine.check_result()
        return {"repo": state.name, "watching": True, "epoch": state.epoch,
                "errors": len(result.errors),
                "warnings": len(result.warnings)}

    def _verb_stats(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Server-wide stats; with ``repo``, that session's stats dict
        (a passthrough of :meth:`repro.session.Session.stats`) plus this
        connection's engine/quarantine state."""
        if "repo" in params:
            state = self._repo_param(params)
            with state.lock:
                document = state.session.stats()
            document["server"] = state.summary()
            engine = self.engines.get(state.name)
            if engine is not None:
                document["engine"] = {
                    "units": engine.unit_count(),
                    "stats": engine.stats.summary(),
                    "quarantined": engine.quarantine_report(),
                }
            return document
        return self.server.stats_document()

    def _verb_close(self, params: Dict[str, Any]) -> Dict[str, Any]:
        self.cleanup()
        return {"closed": True}

    def _verb_ping(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "protocol": PROTOCOL_VERSION}


#: The protocol's verb vocabulary (``unknown-verb`` errors report it).
VERBS = tuple(sorted(
    name[len("_verb_"):].replace("_", "-")
    for name in vars(ServerConnection) if name.startswith("_verb_")))
