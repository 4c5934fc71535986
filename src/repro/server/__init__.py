"""``repro.server`` — the multi-tenant model server.

The paper's workflow is many engineers concurrently editing and
re-checking one shared, living model repository.  This package promotes
:class:`repro.session.Session` from a library facade to that server: a
long-lived process hosting many named repositories, speaking a JSON-RPC
style line protocol whose verbs mirror the Session facade —

========== =====================================================
verb       Session equivalent
========== =====================================================
load       ``Session.load(path)`` hosted under a repo name
generate   ``Session.generate(...)`` hosted under a repo name
edit-txn   an atomic batch through ``repro.mof.txn.transaction``
check      ``Session.check`` riding the repository's shared
           :class:`~repro.incremental.IncrementalEngine` view
watch      ``Session.watch`` + server-push diagnostics events
stats      ``Session.stats()`` passthrough (+ server counters)
close      watch teardown for one connection
========== =====================================================

Isolation is optimistic: every repository carries an *edit epoch*, a
stale ``edit-txn`` is rejected with a replayable ``conflict`` error,
and every connection of a repository reads its one shared, warm
incremental view, whatever families it selects.  See
:mod:`repro.server.dispatch` for the concurrency model and
:mod:`repro.server.protocol` for the wire contract.

Durability and liveness (:mod:`repro.server.durability`,
:mod:`repro.server.transport`): a server started with ``wal_dir=``
write-ahead logs every committed ``edit-txn`` (fsync before ack) and
replays pending logs on start, so a ``kill -9`` never loses an
acknowledged edit; per-verb deadlines, TCP flow control (each
connection's one thread reads its next frame only after answering the
last) and slowloris eviction bound every request, and
:class:`RetryPolicy` gives clients jittered, budget-capped replay of
``conflict`` and transient failures.
"""

from .dispatch import (
    DEFAULT_DEADLINES,
    PROTOCOL_VERSION,
    VERBS,
    ModelServer,
    RepoState,
    apply_edit_ops,
)
from .durability import (
    WalCorruptError,
    WalError,
    WriteAheadLog,
    pending_logs,
    recover_repo,
)
from .protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    TRANSIENT_CODES,
    ProtocolError,
    ServerError,
    decode_frame,
    encode_frame,
)
from .transport import (
    InProcessClient,
    RemoteError,
    RetryPolicy,
    TcpClient,
    TcpServer,
    TransportError,
    serve_tcp,
)

__all__ = [
    "DEFAULT_DEADLINES",
    "ERROR_CODES",
    "InProcessClient",
    "MAX_FRAME_BYTES",
    "ModelServer",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteError",
    "RepoState",
    "RetryPolicy",
    "ServerError",
    "TRANSIENT_CODES",
    "TcpClient",
    "TcpServer",
    "TransportError",
    "VERBS",
    "WalCorruptError",
    "WalError",
    "WriteAheadLog",
    "apply_edit_ops",
    "decode_frame",
    "encode_frame",
    "pending_logs",
    "recover_repo",
    "serve_tcp",
]
