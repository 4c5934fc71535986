"""The server workload, ``edit-check``.

The server runs in its own process, started the way an operator starts
it (``python -m repro serve --port 0 --load main=<corpus> --wal-dir
<dir>``), with a fresh WAL directory every time: a reused one would make
the server recover the previous repository and ignore ``--load``.

The load generator is this process, one thread, one connection, in a
closed loop: every request waits for its reply before the next is
sent.  Latency is client-observed per verb, from the first byte sent
until the whole reply line has arrived; the reply is decoded and
checked after the clock stops.
"""

import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

from common import (
    ROOT,
    Run,
    child_env,
    diagnostic_records,
    documents_agree,
    drop_one_diagnostic,
    ordered_records,
    spread,
    vm_hwm_mb,
)


class WorkloadError(Exception):
    """The server or the wire misbehaved; the run cannot go on."""


class WireClient:
    """A raw newline-JSON client over one TCP connection.

    It speaks the documented wire protocol directly, so the reply is
    kept as bytes and client-side JSON decoding stays outside the timed
    interval.
    """

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()
        self._ids = iter(range(1, 1 << 62))

    def _read_line(self):
        start = 0
        while True:
            newline = self._buffer.find(b"\n", start)
            if newline >= 0:
                line = bytes(self._buffer[:newline])
                del self._buffer[:newline + 1]
                return line
            start = len(self._buffer)
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise WorkloadError("server closed the connection")
            self._buffer += chunk

    def call(self, verb, **params):
        """One request; returns ``(seconds, raw result bytes)`` or
        raises :class:`RemoteFailure` for an error response."""
        request_id = next(self._ids)
        frame = json.dumps({"id": request_id, "verb": verb,
                            "params": params},
                           separators=(",", ":")).encode() + b"\n"
        prefix = b'{"id":%d,"ok":true,"result":' % request_id
        started = time.perf_counter()
        self.sock.sendall(frame)
        line = self._read_line()
        elapsed = time.perf_counter() - started
        if line.startswith(prefix):
            return elapsed, line[len(prefix):-1]
        raise RemoteFailure(verb, line)

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


class RemoteFailure(Exception):
    def __init__(self, verb, line):
        super().__init__(f"{verb}: {line[:300]!r}")


class _Broken(Exception):
    """A transport error ended the timed loop."""


class ServerProcess:
    """One ``repro serve`` process with its own fresh WAL directory."""

    def __init__(self, corpus_path, workdir, trace_file=None):
        self.wal_dir = tempfile.mkdtemp(prefix="wal-", dir=workdir)
        serve = ["serve", "--port", "0", "--load", f"main={corpus_path}",
                 "--wal-dir", self.wal_dir]
        if trace_file is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            command = [sys.executable,
                       os.path.join(ROOT, "perfbench", "serve_traced.py"),
                       trace_file, *serve]
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, text=True)
        self.port = self._await_banner()

    def _await_banner(self):
        for line in self.process.stdout:
            if " listening on " in line:
                address = line.split(" listening on ")[1].split(";")[0]
                return int(address.rsplit(":", 1)[1])
        self.stop()
        raise WorkloadError("server exited before listening")

    def rss_mb(self):
        return vm_hwm_mb(self.process.pid)

    def stop(self):
        """SIGTERM (graceful drain), then wait for the exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        shutil.rmtree(self.wal_dir, ignore_errors=True)
        return self.process.returncode


# ---------------------------------------------------------------------------
# Seeded op scripts
# ---------------------------------------------------------------------------

class EditScript:
    """Deterministic edit batches over one corpus.

    Sets and references target a *stable* half of the books, which is
    never deleted; deletes draw from the other half without
    replacement.  So every op is valid, the element count stays flat,
    and some ops violate invariants (negative pages, a book that is its
    own sequel, shelves over capacity).
    """

    def __init__(self, model, seed):
        self.rng = random.Random(seed)
        self.seed = seed
        books, self.shelves = [], []
        for root in model.roots:
            for element in [root, *root.all_contents()]:
                if element.meta.name == "GBook":
                    books.append(element.eid)
                elif element.meta.name == "GShelf":
                    self.shelves.append(element.eid)
        self.rng.shuffle(books)
        half = len(books) // 2
        self.stable, self.deletable = books[:half], books[half:]

    def _stable(self):
        return self.rng.choice(self.stable)

    def round_ops(self, index):
        """The six ops of one ``edit-check`` round."""
        tag = f"{self.seed}-{index}"
        return [
            {"op": "set", "element": self._stable(), "feature": "pages",
             "value": self.rng.randint(-50, 400)},
            {"op": "set", "element": self._stable(), "feature": "name",
             "value": f"book-{tag}"},
            {"op": "set", "element": self._stable(), "feature": "sequel",
             "ref": self._stable()},
            {"op": "add", "element": self._stable(), "feature": "tags",
             "value": f"tag-{tag}"},
            {"op": "create", "metaclass": "GBook",
             "parent": self.rng.choice(self.shelves), "feature": "books",
             "attrs": {"name": f"new-{tag}",
                       "pages": self.rng.randint(-50, 400)}},
            {"op": "delete", "element": self.deletable.pop()},
        ]


def shadow_document(corpus_path, batches):
    """Replay *batches* on a model loaded from the corpus file, each
    inside a kernel transaction, and check it serially afresh."""
    from repro.cli import load_model
    from repro.mof.txn import transaction
    from repro.server import ModelServer, apply_edit_ops
    from repro.session import Session
    model = load_model(corpus_path)
    resolve = ModelServer().resolve_metaclass
    for ops in batches:
        with transaction(model):
            apply_edit_ops(resolve, model, ops)
    return Session(model).check().to_json()


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _setup(corpus, workdir, trace_file=None):
    """Start a server and bring the editor connection to its first
    answered ``check``; returns ``(seconds, server, client, first check
    document)``."""
    started = time.perf_counter()
    server = ServerProcess(corpus.path, workdir, trace_file)
    client = None
    try:
        client = WireClient(server.port)
        _, first = client.call("check", repo="main")
    except BaseException:
        if client is not None:
            client.close()
        server.stop()
        raise
    return time.perf_counter() - started, server, client, json.loads(first)


def _teardown(server, client, run):
    client.close()
    code = server.stop()
    if code not in (0, None):
        run.fail(1, f"server exited with status {code}")


def _extra_setup(run, corpus, workdir):
    """One more timed set-up of a fresh server, torn down at once."""
    try:
        seconds, server, client, _ = _setup(corpus, workdir)
    except (OSError, WorkloadError, RemoteFailure) as exc:
        run.fail(1, f"set-up failed: {exc}")
        raise _Broken() from exc
    run.setup_times.append(seconds)
    _teardown(server, client, run)


def _stats_counters(client):
    """Cheap counters from the ``stats`` verb (read outside timing)."""
    _, raw = client.call("stats", repo="main")
    document = json.loads(raw)
    metrics = document["metrics"]

    def series(name):
        return metrics.get(name, {}).get("series", [])

    wal = document["server"].get("wal", {})
    engine = {}
    for part in document.get("engine", {}).get("stats", "").split(", "):
        words = part.split()
        if part.startswith("lifetime runs "):
            engine["unit_runs"] = int(words[-1])
        elif len(words) == 2 and words[1].isdigit():
            engine[words[0]] = int(words[1])
    return {
        "server.latency": {
            entry["labels"].get("verb"): {"count": entry["count"],
                                          "sum_s": entry["sum"]}
            for entry in series("server.latency")},
        "server.check_cache": {entry["labels"].get("result"): entry["value"]
                               for entry in series("server.check_cache")},
        "wal.appended": wal.get("appended"),
        "wal.compactions": wal.get("compactions"),
        "server.wal.bytes": sum(entry["value"]
                                for entry in series("server.wal.bytes")),
        "engine": engine,
    }


def _timed(run, client, verb, **params):
    """One request of the timed loop; ``None`` when it failed."""
    run.attempted += 1
    try:
        seconds, raw = client.call(verb, **params)
    except RemoteFailure as exc:
        run.fail(1, str(exc))
        return None
    except (OSError, WorkloadError) as exc:
        run.fail(1, f"transport error on {verb}: {exc}")
        raise _Broken() from exc
    verb = "edit" if verb == "edit-txn" else verb
    run.latencies[verb].append(seconds)
    run.response_bytes[verb].append(len(raw))
    return raw


def edit_check(corpus, workdir, rounds, extra_setups=0, trace_file=None):
    """One editor connection: each round is one six-op ``edit-txn``
    then one ``check`` with the default families.

    *extra_setups* more set-ups of fresh servers run between rounds,
    spread evenly through the loop and outside its timing, so that
    ``setup_s`` samples the same stretch of the host as the rounds.
    """
    run = Run()
    script = EditScript(corpus.model, corpus.seed)
    seconds, server, editor, first = _setup(corpus, workdir, trace_file)
    run.setup_times.append(seconds)
    run.diagnostics = first["errors"] + first["warnings"] + first["infos"]
    setups_before = spread(rounds, extra_setups)
    batches, epoch, last = [], 0, None
    try:
        before = _stats_counters(editor)
        editor.call("ping")
        for index in range(rounds):
            for _ in range(setups_before[index]):
                _extra_setup(run, corpus, workdir)
            ops = script.round_ops(index)
            raw = _timed(run, editor, "edit-txn", repo="main",
                         base_epoch=epoch, ops=ops)
            if raw is None:
                continue
            epoch = json.loads(raw)["epoch"]
            batches.append(ops)
            last = _timed(run, editor, "check", repo="main") or last
        editor.call("ping")
        run.rss_mb = server.rss_mb()
        run.counters = {"before": before, "after": _stats_counters(editor)}
    except _Broken:
        return run
    finally:
        _teardown(server, editor, run)
    _gate_final(run, last, corpus.path, batches)
    return run


def _gate_final(run, last, corpus_path, batches):
    """The served final document against a fresh serial check of the
    shadow that replayed every acknowledged batch."""
    if last is None:
        run.fail(1, "no check document was served")
        return
    served = {key: value for key, value in json.loads(last).items()
              if key not in ("repo", "epoch")}
    reference = shadow_document(corpus_path, batches)
    agree = documents_agree(served, reference)
    if not agree:
        run.fail(1, "final document differs from the shadow's fresh "
                    "Session.check as a multiset")
    same_order = ordered_records(served) == ordered_records(reference)
    run.notes.append(
        f"final document vs shadow: multiset "
        f"{'equal' if agree else 'DIFFERENT'} "
        f"({sum(diagnostic_records(reference).values())} diagnostics), "
        f"byte order {'matches' if same_order else 'differs'}")
    if documents_agree(drop_one_diagnostic(served), reference):
        run.fail(1, "gate self-check: a document missing one diagnostic "
                    "passed the gate")
    else:
        run.notes.append("gate self-check: a document missing one "
                         "diagnostic is counted as failed")
