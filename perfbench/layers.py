"""Outside-in layer timing for the traced run.

Wrappers go around the public entry points of each layer, installed
from the benchmark's own files; the program itself is not changed.
Each wrapper is installed at the binding its caller uses, because
``from module import name`` copies the name into the caller's module.

``repro.obs.enable()`` and ``--trace`` are never used: both install the
kernel read probe, which switches off the columnar and sharded fast
paths, so the traced run would measure a different program.

Self time: every wrapped call that runs inside a request pushes a frame
on a per-thread stack; its self time is its duration minus the time of
the wrapped calls nested in it.  A request's self times add up to the
request's own duration, so the layers of one verb cover all the time the
request spent in the process.
"""

import contextlib
import functools
import importlib
import json
import threading
import time

#: (module path, attribute path, layer) for every server-side wrapper.
#: ``attribute path`` may name a class attribute ("Class.method").
SERVER_LAYERS = (
    ("repro.server.dispatch", "decode_frame", "protocol.decode"),
    ("repro.server.transport", "encode_frame", "protocol.encode"),
    ("repro.server.dispatch", "ServerConnection.send", "transport.write"),
    ("repro.server.dispatch", "apply_edit_ops", "txn.apply"),
    ("repro.server.durability", "WriteAheadLog.append_txn", "wal.append"),
    ("repro.server.durability", "WriteAheadLog.compact", "wal.compact"),
    ("repro.incremental.engine", "IncrementalEngine.revalidate",
     "incremental.revalidate"),
    ("repro.incremental.engine", "IncrementalEngine._sync_structure",
     "incremental.sync"),
    ("repro.incremental.engine", "IncrementalEngine.check_result",
     "incremental.report"),
    ("repro.session", "CheckResult.to_json", "session.to_json"),
)

#: wrappers inside the full-check worker
CHECK_LAYERS = (
    ("repro.xmi.persist", "load_model", "xmi.load"),
    ("repro.mof.columns", "ColumnStore.scan_structural", "columns.scan"),
    ("repro.mof.columns", "ExtentColumns.build", "columns.build"),
    ("repro.ocl.columns", "flag_registered_suspects", "ocl.columns.flag"),
    ("repro.session", "Session._check_structural", "check.structural"),
    ("repro.session", "Session._check_invariant", "check.invariant"),
    ("repro.session", "Session._check_wellformed", "check.wellformed"),
    ("repro.session", "Session._check_lint", "check.lint"),
    ("repro.session", "Session._check_consistency", "check.consistency"),
    ("repro.session", "CheckResult.to_json", "session.to_json"),
)


class _Request:
    __slots__ = ("verb", "layers", "calls")

    def __init__(self, verb):
        self.verb = verb
        self.layers = {}
        self.calls = {}


class LayerClock:
    """Per-verb self time of each wrapped layer, summed over requests."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.recording = True
        self.verbs = {}

    # -- requests ------------------------------------------------------------

    def begin(self, verb, root_layer):
        """Open a request on this thread; its own self time is booked
        to *root_layer*."""
        self._local.request = _Request(verb)
        self._local.stack = [[root_layer, time.perf_counter(), 0.0]]

    def set_verb(self, verb):
        request = getattr(self._local, "request", None)
        if request is not None:
            request.verb = verb

    def end(self):
        """Close this thread's request and fold it into the totals."""
        (layer, started, child), = self._local.stack
        request = self._local.request
        self._local.request = None
        elapsed = time.perf_counter() - started
        self._book(request, layer, elapsed - child)
        if not self.recording or request.verb in (None, "ping"):
            return
        with self._lock:
            entry = self.verbs.setdefault(
                request.verb, {"count": 0, "seconds": 0.0, "layers": {},
                               "calls": {}})
            entry["count"] += 1
            entry["seconds"] += elapsed
            for name, seconds in request.layers.items():
                entry["layers"][name] = entry["layers"].get(name, 0.0) \
                    + seconds
            for name, calls in request.calls.items():
                entry["calls"][name] = entry["calls"].get(name, 0) + calls

    @contextlib.contextmanager
    def request(self, verb, root_layer):
        """Context manager form of :meth:`begin`/:meth:`end`."""
        self.begin(verb, root_layer)
        try:
            yield
        finally:
            self.end()

    def reset(self):
        with self._lock:
            self.verbs = {}

    @staticmethod
    def _book(request, layer, seconds):
        request.layers[layer] = request.layers.get(layer, 0.0) + seconds
        request.calls[layer] = request.calls.get(layer, 0) + 1

    # -- wrappers ------------------------------------------------------------

    def timed(self, function, layer):
        clock = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            request = getattr(clock._local, "request", None)
            if request is None:
                return function(*args, **kwargs)
            stack = clock._local.stack
            frame = [layer, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = time.perf_counter() - frame[1]
                clock._book(request, layer, elapsed - frame[2])
                stack[-1][2] += elapsed
            return result

        return wrapper

    def install(self, table):
        """Wrap every (module, attribute, layer) entry of *table*.

        A name that no longer exists raises :class:`LookupError`, so the
        traced run fails instead of reporting an unmeasured layer as
        costing nothing.
        """
        for module_name, attribute, layer in table:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None) if owner else None
            if original is None:
                raise LookupError(f"layer {layer!r}: {module_name}."
                                  f"{attribute} no longer exists")
            setattr(owner, name, self.timed(original, layer))

    def to_json(self):
        with self._lock:
            return {"verbs": json.loads(json.dumps(self.verbs))}
