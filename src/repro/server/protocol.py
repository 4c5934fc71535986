"""The model-server wire protocol: JSON frames, one per line.

Every frame is a single JSON object terminated by ``\\n`` (UTF-8, no
embedded newlines — ``json.dumps`` never emits raw ones).  Three frame
shapes flow over one connection:

* **request** (client → server)::

      {"id": 7, "verb": "check", "params": {"repo": "main"}}

* **response** (server → client, exactly one per request)::

      {"id": 7, "ok": true, "result": {...}}
      {"id": 7, "ok": false,
       "error": {"code": "conflict", "message": "...", "data": {...}}}

* **event** (server → client, unsolicited; no ``id``)::

      {"event": "diagnostics", "repo": "main", "data": {...}}

Requests on one connection are handled strictly in order, and their
responses come back in request order.  A client may pipeline: the
server reads a connection's next frame only once it has answered the
one before, so TCP flow control is the backpressure.  Every verb runs
against a per-verb wall-clock budget, counted from when the server
read the frame, and is shed (or aborted and rolled back) with
``deadline-exceeded`` when it blows it.  A frame longer than the
server's ``max_frame`` limit is rejected with an ``oversized`` error
without being parsed.

Error codes are stable strings (:data:`ERROR_CODES`); ``conflict``
responses additionally carry ``data.current_epoch`` and echo the
submitted ops so the client can replay the transaction verbatim against
the new epoch.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

#: Default frame ceiling: 8 MiB — a 10^5-element check document fits,
#: a runaway client does not.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: code -> meaning; the wire contract's error vocabulary.
ERROR_CODES: Dict[str, str] = {
    "parse-error": "frame was not a valid JSON object",
    "oversized": "frame exceeded the server's max_frame limit",
    "bad-request": "frame lacked a usable id/verb shape",
    "unknown-verb": "verb is not part of the protocol",
    "bad-params": "params missing or of the wrong type",
    "no-such-repo": "repository name is not loaded on this server",
    "conflict": "edit-txn base_epoch is stale; replay against "
                "data.current_epoch",
    "txn-failed": "edit-txn raised mid-batch; the journal rolled the "
                  "repository back",
    "deadline-exceeded": "request blew its verb's wall-clock budget; "
                         "partial work was rolled back",
    "draining": "server is draining for shutdown; no new requests",
    "closed": "connection is closed",
    "internal": "unexpected server-side failure",
}

#: Error codes a client may safely retry (with backoff).  ``conflict``
#: is also replayable but needs its ``base_epoch`` refreshed from
#: ``data.current_epoch`` first — :class:`repro.server.RetryPolicy`
#: does both.
TRANSIENT_CODES = ("deadline-exceeded", "draining")


class ProtocolError(Exception):
    """A frame violated the wire contract (framing/shape level)."""

    def __init__(self, code: str, message: str,
                 data: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.code = code
        self.data = data or {}


class ServerError(Exception):
    """A verb failed; carries the structured error for the response."""

    def __init__(self, code: str, message: str,
                 data: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        assert code in ERROR_CODES, code
        self.code = code
        self.data = data or {}


class Encoded:
    """A frame value already encoded as compact JSON text.

    :func:`encode_frame` splices it verbatim where it is a top-level
    frame value (a response's ``result``, an event's ``data``), so a
    check document spliced from memoized records is never rebuilt as a
    dict and dumped again.  The text must be what :func:`encode_frame`
    would write for the value itself."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


#: no whitespace, keys in build order, non-ASCII escaped
_compact = json.JSONEncoder(separators=(",", ":")).encode


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One wire frame: compact JSON plus the line terminator, with any
    top-level :class:`Encoded` value spliced in as it is."""
    if any(type(value) is Encoded for value in payload.values()):
        text = "{" + ",".join(
            _compact(key) + ":" + (value.text if type(value) is Encoded
                                   else _compact(value))
            for key, value in payload.items()) + "}"
    else:
        text = _compact(payload)
    return (text + "\n").encode("utf-8")


def decode_frame(line: bytes, *,
                 max_frame: int = MAX_FRAME_BYTES) -> Dict[str, Any]:
    """Parse one received line into a frame dict.

    Raises :class:`ProtocolError` with the matching stable code on
    oversized input, undecodable JSON, or a non-object payload.
    """
    if len(line) > max_frame:
        raise ProtocolError(
            "oversized",
            f"frame of {len(line)} bytes exceeds the "
            f"{max_frame}-byte limit",
            {"bytes": len(line), "max_frame": max_frame})
    try:
        payload = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("parse-error",
                            f"undecodable frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            "parse-error",
            f"frame must be a JSON object, got {type(payload).__name__}")
    return payload


def request_frame(request_id: int, verb: str,
                  params: Optional[Dict[str, Any]] = None
                  ) -> Dict[str, Any]:
    return {"id": request_id, "verb": verb, "params": params or {}}


def response_frame(request_id: Any, result: Any) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def error_frame(request_id: Any, code: str, message: str,
                data: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    error: Dict[str, Any] = {"code": code, "message": message}
    if data:
        error["data"] = data
    return {"id": request_id, "ok": False, "error": error}


def event_frame(event: str, **fields: Any) -> Dict[str, Any]:
    frame: Dict[str, Any] = {"event": event}
    frame.update(fields)
    return frame


def is_event(frame: Dict[str, Any]) -> bool:
    return "event" in frame and "id" not in frame
