"""Transports for the model server: TCP sockets and in-process.

The dispatch layer only needs two things from a transport: a way to
deliver inbound lines to :meth:`ServerConnection.handle_line`, and a
``send(frame)`` callable for outbound frames.  Both transports share
one dispatch model: a connection's frames are handled one at a time,
in arrival order, on the thread that delivers them, and each is
answered before the next is read.  Two implementations:

* :class:`TcpServer` / :class:`TcpClient` — the real thing: a listener
  thread accepting connections, one thread per connection that reads a
  frame and dispatches it, newline-delimited JSON frames over a stream
  socket;
* :func:`ModelServer.connect` driven directly by
  :class:`InProcessClient` — the same frame round-trip (encode → decode
  both ways, so only JSON-serializable payloads pass) without a socket,
  used by tests and benchmarks to measure dispatch cost without kernel
  networking noise.

Liveness is bounded on every axis:

* **Backpressure** — TCP flow control.  While a connection's request
  runs, nothing more is read from it, so a client that pipelines is
  held back by its own socket buffers; the server holds at most the
  reader's buffer per connection, below about one ``max_frame`` plus
  one 64 KiB ``recv``.
* **Slowloris eviction** — a connection that holds a *partial* frame
  open past ``partial_frame_timeout`` seconds is dropped.  Idle
  connections (no buffered bytes — e.g. a quiet ``watch`` client) are
  never evicted.
* **Slow readers** — outbound writes run against ``send_timeout``; a
  peer that stops reading until the kernel buffer fills gets its
  connection dropped instead of wedging a server thread.
* **Graceful drain** — :meth:`TcpServer.drain` stops accepting,
  answers every frame read from then on with ``draining``, lets the
  request running on each connection finish against its deadline,
  flushes every repository's write-ahead log, then closes.

Oversized-line handling on the TCP read side never buffers more than
``max_frame`` bytes: the reader rejects the frame as soon as the limit
is crossed, then discards until the next newline and keeps serving.

:class:`RetryPolicy` is the client half of the story: exponential
backoff with full jitter over a bounded attempt/sleep budget, replaying
``conflict`` responses (with ``base_epoch`` refreshed from the error's
``current_epoch``), transient protocol errors (``deadline-exceeded``,
``draining``), and :class:`TransportError`\\ s — reconnecting the
socket for the latter.

Fault sites: ``net.read`` and ``net.write`` fire on the server side of
every socket receive/send; an injected fault kills that connection (the
server itself keeps serving).
"""

from __future__ import annotations

import json
import random
import select
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .. import faults as _faults
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .dispatch import ModelServer
from .protocol import (
    TRANSIENT_CODES,
    decode_frame,
    encode_frame,
    error_frame,
    is_event,
    request_frame,
)


class RemoteError(Exception):
    """A request came back as an error response."""

    def __init__(self, code: str, message: str, data: Dict[str, Any]):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.data = data


class TransportError(Exception):
    """The transport itself failed (socket error, EOF, timeout).

    ``transient`` distinguishes failures worth a reconnect-and-retry
    (peer reset, timeout, connection refused during a restart) from
    ones that are not; :class:`RetryPolicy` only replays the former.
    """

    def __init__(self, message: str, *, transient: bool = True):
        super().__init__(message)
        self.transient = transient


# ---------------------------------------------------------------------------
# Client retry policy
# ---------------------------------------------------------------------------

class RetryPolicy:
    """Exponential backoff with full jitter, capped by attempts and a
    total sleep budget.

    The delay before retry *n* (0-based) is drawn uniformly from
    ``[0, min(max_delay, base_delay * 2**n)]`` — full jitter, so a herd
    of conflicting editors decorrelates instead of replaying in
    lockstep.  ``run`` replays three failure classes:

    * transient :class:`TransportError` — invokes *on_reconnect* (if
      given) before retrying;
    * :class:`RemoteError` with a code in
      :data:`~repro.server.protocol.TRANSIENT_CODES`;
    * replayable ``conflict`` errors — invokes *on_conflict(error)* so
      the caller can refresh its ``base_epoch`` from
      ``error.data["current_epoch"]`` before the replay.

    Everything else propagates immediately.  *rng* and *sleep* are
    injectable for deterministic tests.
    """

    def __init__(self, attempts: int = 6, base_delay: float = 0.05,
                 max_delay: float = 2.0, budget: float = 30.0,
                 rng: Optional[random.Random] = None,
                 sleep: Optional[Callable[[float], None]] = None):
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.budget = budget
        self._rng = rng or random.Random()
        self._sleep = sleep or time.sleep
        self.retried = 0          # lifetime retries through this policy

    def backoff(self, attempt: int) -> float:
        """The jittered delay before retry *attempt* (0-based)."""
        cap = min(self.max_delay, self.base_delay * (2 ** attempt))
        return self._rng.uniform(0.0, cap)

    def _classify(self, exc: Exception,
                  can_replay_conflict: bool) -> Optional[str]:
        if isinstance(exc, TransportError):
            return "network" if exc.transient else None
        if isinstance(exc, RemoteError):
            if exc.code == "conflict" and can_replay_conflict \
                    and exc.data.get("replayable"):
                return "conflict"
            if exc.code in TRANSIENT_CODES:
                return exc.code
        return None

    def run(self, attempt_fn: Callable[[], Any], *,
            on_conflict: Optional[Callable[[RemoteError], None]] = None,
            on_reconnect: Optional[Callable[[], None]] = None) -> Any:
        attempt = 0
        slept = 0.0
        while True:
            try:
                return attempt_fn()
            except (TransportError, RemoteError) as exc:
                reason = self._classify(exc, on_conflict is not None)
                if reason is None or attempt + 1 >= self.attempts:
                    raise
                delay = self.backoff(attempt)
                if slept + delay > self.budget:
                    raise
                attempt += 1
                slept += delay
                self.retried += 1
                _metrics.REGISTRY.counter(
                    "client.retries",
                    help="requests replayed by a RetryPolicy, by reason",
                    reason=reason).inc()
                self._sleep(delay)
                if reason == "conflict":
                    on_conflict(exc)          # refresh base_epoch
                elif reason == "network" and on_reconnect is not None:
                    on_reconnect()


# ---------------------------------------------------------------------------
# In-process transport
# ---------------------------------------------------------------------------

class InProcessClient:
    """A client whose frames go straight through the dispatcher.

    Every frame still passes through ``encode_frame``/``decode_frame``
    in both directions, so anything that works here works byte-for-byte
    over TCP.  Events received while waiting for a response accumulate
    in :attr:`events`.
    """

    def __init__(self, server: ModelServer):
        self._server = server
        self._inbox: List[Dict[str, Any]] = []
        self._ids = iter(range(1, 1 << 62))
        self.events: List[Dict[str, Any]] = []
        self._conn = server.connect(self._receive)

    def _receive(self, frame: Dict[str, Any]) -> None:
        # the wire round-trip: reject anything not JSON-serializable
        self._inbox.append(json.loads(encode_frame(frame)))

    def request(self, verb: str, **params: Any) -> Dict[str, Any]:
        """Send one request; return its result or raise RemoteError."""
        request_id = next(self._ids)
        self._conn.handle_line(
            encode_frame(request_frame(request_id, verb, params)))
        return self._collect(request_id)

    def send_raw(self, line: bytes) -> List[Dict[str, Any]]:
        """Push raw bytes at the dispatcher (protocol robustness tests);
        returns every frame the server answered with."""
        before = len(self._inbox)
        self._conn.handle_line(line)
        out, self._inbox[before:] = self._inbox[before:], []
        return out

    def drain_events(self) -> List[Dict[str, Any]]:
        """Move every event received so far (including ones pushed while
        this client was idle) out of the inbox and return them."""
        self.events.extend(f for f in self._inbox if is_event(f))
        self._inbox = [f for f in self._inbox if not is_event(f)]
        out, self.events = self.events, []
        return out

    def _collect(self, request_id: int) -> Dict[str, Any]:
        while self._inbox:
            frame = self._inbox.pop(0)
            if is_event(frame):
                self.events.append(frame)
                continue
            if frame.get("id") != request_id:
                continue             # response to a superseded request
            if frame.get("ok"):
                return frame["result"]
            error = frame.get("error") or {}
            raise RemoteError(error.get("code", "internal"),
                              error.get("message", "?"),
                              error.get("data") or {})
        raise RemoteError("internal", "server sent no response", {})

    def close(self) -> None:
        if not self._conn.closed:
            try:
                self.request("close")
            except RemoteError:
                pass

    def __enter__(self) -> "InProcessClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# TCP transport
# ---------------------------------------------------------------------------

def _peek_request_id(line: bytes) -> Any:
    """Best-effort request id from an undispatched frame, for shedding."""
    try:
        frame = json.loads(line.decode("utf-8"))
    except Exception:
        return None
    return frame.get("id") if isinstance(frame, dict) else None


class TcpServer:
    """Threaded TCP front end over one :class:`ModelServer`.

    ``port=0`` binds an ephemeral port (tests); :attr:`address` reports
    the bound endpoint.  One daemon thread accepts; each connection gets
    one thread that reads a frame, dispatches it and answers it before
    it reads the next, so TCP flow control holds back a client that
    pipelines.  Every outbound frame leaves through
    :meth:`ServerConnection.send`, whose lock interleaves watch events
    and responses.
    """

    def __init__(self, server: ModelServer, host: str = "127.0.0.1",
                 port: int = 0, *, partial_frame_timeout: float = 30.0,
                 send_timeout: float = 30.0):
        self.server = server
        self.partial_frame_timeout = partial_frame_timeout
        self.send_timeout = send_timeout
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._threads: List[threading.Thread] = []
        self._running = False
        self._accept_thread: Optional[threading.Thread] = None
        # guarded by _lock: the open connection sockets, the drain flag,
        # how many connections are inside a handler, and how many frames
        # were answered ``draining``
        self._lock = threading.Lock()
        self._socks: Set[socket.socket] = set()
        self._draining = False
        self._busy = 0
        self._cancelled = 0

    def start(self) -> "TcpServer":
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-server-accept",
            daemon=True)
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Run the accept loop on the calling thread (CLI ``serve``)."""
        self._running = True
        self._accept_loop()

    def _accept_loop(self) -> None:
        while self._running:
            try:
                sock, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break                     # listener closed mid-accept
            thread = threading.Thread(
                target=self._serve_connection, args=(sock,),
                name="repro-server-conn", daemon=True)
            thread.start()
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)

    def _serve_connection(self, sock: socket.socket) -> None:
        sock.settimeout(self.send_timeout)   # bounds sendall on a slow
                                             # reader; recv is select-paced

        def send(frame: Dict[str, Any]) -> None:
            if _faults.ACTIVE is not None:
                try:
                    _faults.probe("net.write")
                except _faults.InjectedFault as exc:
                    raise OSError(f"injected fault: {exc}") from exc
            sock.sendall(encode_frame(frame))

        conn = self.server.connect(send)
        with self._lock:
            self._socks.add(sock)
        try:
            for line, oversized in _read_lines(
                    sock, self.server.max_frame,
                    partial_timeout=self.partial_frame_timeout):
                if oversized:
                    conn.send(error_frame(
                        None, "oversized",
                        f"frame exceeds the "
                        f"{self.server.max_frame}-byte limit"))
                    continue
                with self._lock:
                    draining = self._draining
                    if draining:
                        self._cancelled += 1
                    else:
                        self._busy += 1
                if draining:
                    conn.send(error_frame(
                        _peek_request_id(line), "draining",
                        "server is draining for shutdown"))
                    continue
                try:
                    conn.handle_line(line, arrival=time.monotonic())
                finally:
                    with self._lock:
                        self._busy -= 1
                if conn.closed:
                    break
        except OSError:
            pass                      # the peer went away mid-response
        finally:
            conn.cleanup()
            with self._lock:
                self._socks.discard(sock)
            try:
                sock.close()
            except OSError:
                pass

    # -- lifecycle ---------------------------------------------------------

    def _close_listener(self) -> None:
        self._running = False
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None \
                and self._accept_thread is not threading.current_thread():
            self._accept_thread.join(timeout=2.0)

    def drain(self, timeout: float = 5.0) -> Dict[str, Any]:
        """Gracefully wind the server down.

        Stops accepting and answers every frame read from then on with
        ``draining`` (counted as ``cancelled``), waits up to *timeout*
        seconds for the requests executing on the connections to finish
        (each against its own deadline; those still running are
        ``interrupted``), flushes every write-ahead log, then closes
        everything.  Returns drain statistics.
        """
        with _trace.span("server.drain"):
            with self._lock:
                self._draining = True
            self._close_listener()
            deadline = time.monotonic() + timeout
            while self._busy and time.monotonic() < deadline:
                time.sleep(0.02)
            interrupted = self._busy
            self.server.flush_wals()
            self.shutdown()
            cancelled = self._cancelled
            _metrics.REGISTRY.counter(
                "server.drain.cancelled",
                help="requests abandoned during drain "
                     "(answered draining or still executing at timeout)"
            ).inc(cancelled + interrupted)
            return {"drained": True, "cancelled": cancelled,
                    "interrupted": interrupted}

    def shutdown(self) -> None:
        """Stop accepting, close the listener and every live connection
        socket (a hung client cannot stall the join), drop every
        connection."""
        self._close_listener()
        with self._lock:
            socks = list(self._socks)
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self.server.shutdown()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=2.0)


def _read_lines(sock: socket.socket, max_frame: int, *,
                partial_timeout: float = 30.0):
    """Yield ``(line, oversized)`` pairs from a stream socket.

    Never buffers more than ``max_frame`` bytes for a single line; an
    over-limit line yields ``(b"", True)`` once and is discarded up to
    its terminating newline.  A peer that keeps a *partial* frame open
    longer than *partial_timeout* seconds is evicted (slowloris); a
    peer that is simply idle between frames is not.
    """
    buffer = bytearray()
    discarding = False
    partial_since: Optional[float] = None
    while True:
        try:
            ready, _, _ = select.select([sock], [], [], 0.2)
        except (OSError, ValueError):
            return
        if partial_since is not None \
                and time.monotonic() - partial_since > partial_timeout:
            # a trickling peer stays "ready", so check on every pass
            _metrics.REGISTRY.counter(
                "server.evictions",
                help="connections dropped by the transport",
                reason="slowloris").inc()
            return
        if not ready:
            continue
        try:
            if _faults.ACTIVE is not None:
                _faults.probe("net.read")
            chunk = sock.recv(65536)
        except (OSError, _faults.InjectedFault):
            return
        if not chunk:
            return
        buffer.extend(chunk)
        while True:
            newline = buffer.find(b"\n")
            if newline == -1:
                if discarding:
                    del buffer[:]
                elif len(buffer) > max_frame:
                    discarding = True
                    del buffer[:]
                    yield b"", True
                if buffer or discarding:
                    if partial_since is None:
                        partial_since = time.monotonic()
                else:
                    partial_since = None
                break
            if discarding:
                del buffer[:newline + 1]
                discarding = False
                continue
            line = bytes(buffer[:newline])
            del buffer[:newline + 1]
            partial_since = None
            if len(line) > max_frame:
                yield b"", True
            else:
                yield line, False


class TcpClient:
    """Blocking line-protocol client for one server connection.

    With a :class:`RetryPolicy` attached, :meth:`request` transparently
    replays replayable ``conflict`` responses (refreshing
    ``base_epoch`` from the error), transient protocol errors, and
    transient :class:`TransportError`\\ s — reconnecting for the
    latter.  Without one, every failure propagates (socket failures as
    typed :class:`TransportError`, never bare ``OSError``).
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 retry: Optional[RetryPolicy] = None):
        self._host = host
        self._port = port
        self._timeout = timeout
        self.retry = retry
        self._ids = iter(range(1, 1 << 62))
        self.events: List[Dict[str, Any]] = []
        self._connect()

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout)
        except OSError as exc:
            raise TransportError(
                f"cannot connect to {self._host}:{self._port}: {exc}",
                transient=True) from exc
        self._file = self._sock.makefile("rb")

    def _reconnect(self) -> None:
        try:
            self._file.close()
            self._sock.close()
        except OSError:
            pass
        self._connect()

    def request(self, verb: str, **params: Any) -> Dict[str, Any]:
        if self.retry is None:
            return self._request_once(verb, params)

        def on_conflict(exc: RemoteError) -> None:
            current = exc.data.get("current_epoch")
            if current is not None:
                params["base_epoch"] = current

        return self.retry.run(
            lambda: self._request_once(verb, params),
            on_conflict=on_conflict if "base_epoch" in params else None,
            on_reconnect=self._reconnect)

    def _request_once(self, verb: str,
                      params: Dict[str, Any]) -> Dict[str, Any]:
        request_id = next(self._ids)
        try:
            self._sock.sendall(
                encode_frame(request_frame(request_id, verb, params)))
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
        return self._read_response(request_id)

    def send_raw(self, data: bytes) -> Dict[str, Any]:
        """Send raw bytes and read one frame back (robustness tests)."""
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
        return self._read_frame()

    def _read_frame(self) -> Dict[str, Any]:
        try:
            line = self._file.readline()
        except (socket.timeout, TimeoutError) as exc:
            raise TransportError(f"read timed out: {exc}") from exc
        except OSError as exc:
            raise TransportError(f"read failed: {exc}") from exc
        if not line:
            raise TransportError("server closed the connection")
        return decode_frame(line.rstrip(b"\n"),
                            max_frame=1 << 30)   # trust the server side

    def _read_response(self, request_id: int) -> Dict[str, Any]:
        while True:
            frame = self._read_frame()
            if is_event(frame):
                self.events.append(frame)
                continue
            if frame.get("id") != request_id:
                continue
            if frame.get("ok"):
                return frame["result"]
            error = frame.get("error") or {}
            raise RemoteError(error.get("code", "internal"),
                              error.get("message", "?"),
                              error.get("data") or {})

    def drain_events(self, minimum: int = 0,
                     timeout: float = 2.0) -> List[Dict[str, Any]]:
        """Collect pushed events until at least *minimum* arrived (or
        the socket stays quiet past *timeout*)."""
        previous = self._sock.gettimeout()
        self._sock.settimeout(0.05)
        deadline = time.monotonic() + timeout
        try:
            while len(self.events) < minimum \
                    and time.monotonic() < deadline:
                try:
                    frame = self._read_frame()
                except TransportError:
                    # quiet socket (timeout) — or a dead one, which
                    # keeps raising until the deadline expires
                    continue
                if is_event(frame):
                    self.events.append(frame)
        finally:
            self._sock.settimeout(previous)
        out, self.events = self.events, []
        return out

    def close(self) -> None:
        try:
            self.request("close")
        except Exception:
            pass
        try:
            self._file.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "TcpClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def serve_tcp(server: ModelServer, host: str = "127.0.0.1",
              port: int = 0, **options: Any) -> TcpServer:
    """Bind and start a threaded TCP front end; returns it running."""
    return TcpServer(server, host, port, **options).start()
