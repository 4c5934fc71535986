"""Durability and resilience: WAL, crash recovery, deadlines,
backpressure, drain, and the client retry policy.

The headline property (``TestCrashSchedules``) is the issue's
acceptance criterion: across 50 seeded crash schedules — the log cut
after any acknowledged prefix, with or without a torn partial record of
the next transaction — the recovered server is byte-identical (canonical
check document) to a shadow session that applied exactly that
acknowledged prefix.  fsync-before-ack means those are the only states
a real ``kill -9`` can leave behind.
"""

import hashlib
import json
import os
import random
import shutil
import socket
import sys
import threading
import time
import types

import pytest

from repro import faults
from repro.server import (
    InProcessClient,
    ModelServer,
    RemoteError,
    RetryPolicy,
    TcpClient,
    TcpServer,
    TransportError,
    WalCorruptError,
    WriteAheadLog,
    apply_edit_ops,
)
from repro.server import durability
from repro.server.dispatch import DEFAULT_DEADLINE
from repro.session import Session, canonical_check_document


def host_corpus(server, name="main", size=60, seed=3):
    session = Session.generate("demo", size=size, seed=seed, repair=True)
    server.attach(name, session)
    return server.repo(name)


def named_eids(state, limit=None):
    out = []
    for root in state.model.roots:
        for element in [root] + list(root.all_contents()):
            feature = element.meta.all_features().get("name")
            if feature is not None and not feature.many:
                out.append(element.eid)
    return out[:limit] if limit else out


def rename_op(eid, new_name):
    return {"op": "set", "element": eid, "feature": "name",
            "value": new_name}


def create_op(name, alias=None):
    op = {"op": "create", "metaclass": "Component",
          "attrs": {"name": name}}
    if alias:
        op["as"] = alias
    return op


# ---------------------------------------------------------------------------
# WAL record format
# ---------------------------------------------------------------------------

class TestWalRecords:
    def test_encode_decode_round_trip(self):
        record = {"type": "txn", "epoch": 7, "ops": [create_op("X")]}
        line = durability.encode_record(record)
        assert durability.decode_record(line.rstrip(b"\n")) == record

    def test_bit_flip_fails_the_checksum(self):
        line = durability.encode_record({"type": "txn", "epoch": 1,
                                         "ops": []}).rstrip(b"\n")
        flipped = line.replace(b'"epoch":1', b'"epoch":2')
        assert flipped != line
        assert durability.decode_record(flipped) is None

    def test_both_crc_positions_verify_and_any_flipped_byte_fails(self):
        """A line is the record's canonical dump with ``crc`` inserted
        before its closing brace.  Logs that wrote ``crc`` at its sorted
        position verify too, and flipping any one byte of either form
        fails it."""
        record = {"type": "txn", "epoch": 3,
                  "ops": [rename_op("e1", "Ärger"), create_op("X")]}
        payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
        crc = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
        line = durability.encode_record(record)
        assert line == f'{payload[:-1]},"crc":"{crc}"}}\n'.encode("utf-8")
        sorted_form = json.dumps(dict(record, crc=crc), sort_keys=True,
                                 separators=(",", ":")).encode("utf-8")
        assert len(sorted_form) == len(line) - 1 and \
            sorted_form != line.rstrip(b"\n")
        for form in (line.rstrip(b"\n"), sorted_form):
            assert durability.decode_record(form) == record
            for index in range(len(form)):
                flipped = bytearray(form)
                flipped[index] ^= 1
                assert durability.decode_record(bytes(flipped)) is None, \
                    (form, index)

    def test_garbage_is_not_a_record(self):
        assert durability.decode_record(b"not json at all") is None
        assert durability.decode_record(b'{"no": "crc"}') is None

    def test_torn_final_record_is_truncated(self, tmp_path):
        path = str(tmp_path / "x.wal")
        good = durability.encode_record({"type": "origin", "epoch": 0,
                                         "repo": "x", "snapshot": "s"})
        partial = durability.encode_record(
            {"type": "txn", "epoch": 1, "ops": []})[:10]
        with open(path, "wb") as handle:
            handle.write(good + partial)
        records, valid = durability.read_records(path)
        assert len(records) == 1
        assert valid == len(good)

    def test_torn_final_line_with_newline_is_truncated(self, tmp_path):
        path = str(tmp_path / "x.wal")
        good = durability.encode_record({"type": "origin", "epoch": 0,
                                         "repo": "x", "snapshot": "s"})
        with open(path, "wb") as handle:
            handle.write(good + b'{"half": tru\n')
        records, valid = durability.read_records(path)
        assert len(records) == 1
        assert valid == len(good)

    def test_mid_log_corruption_is_typed(self, tmp_path):
        path = str(tmp_path / "x.wal")
        a = durability.encode_record({"type": "origin", "epoch": 0,
                                      "repo": "x", "snapshot": "s"})
        b = durability.encode_record({"type": "txn", "epoch": 1,
                                      "ops": []})
        with open(path, "wb") as handle:
            handle.write(a + b"garbage line\n" + b)
        with pytest.raises(WalCorruptError):
            durability.read_records(path)


# ---------------------------------------------------------------------------
# Recovery basics
# ---------------------------------------------------------------------------

def seeded_server(wal_dir, *, txns=4):
    """A WAL-backed server with *txns* committed edits on repo main."""
    server = ModelServer(wal_dir=str(wal_dir))
    state = host_corpus(server)
    with InProcessClient(server) as client:
        eids = named_eids(state, limit=txns)
        for i, eid in enumerate(eids):
            client.request("edit-txn", repo="main", base_epoch=i,
                           ops=[rename_op(eid, f"Renamed{i}"),
                                create_op(f"Extra{i}", alias="x"),
                                {"op": "set", "element": "$x",
                                 "feature": "name",
                                 "value": f"ExtraRenamed{i}"}])
    return server, state


class TestRecovery:
    def test_kill_and_restart_is_byte_identical(self, tmp_path):
        server, state = seeded_server(tmp_path)
        live = canonical_check_document(state.session.check().to_json())
        # no clean shutdown: simply abandon the first server (kill -9)
        recovered = ModelServer(wal_dir=str(tmp_path))
        assert recovered.recovered == ["main"]
        st = recovered.repo("main")
        assert st.epoch == 4
        assert st.edits_applied == 4
        doc = canonical_check_document(st.session.check().to_json())
        assert doc == live

    def test_edits_continue_after_recovery(self, tmp_path):
        seeded_server(tmp_path)
        recovered = ModelServer(wal_dir=str(tmp_path))
        with InProcessClient(recovered) as client:
            result = client.request(
                "edit-txn", repo="main", base_epoch=4,
                ops=[create_op("PostRecovery")])
            assert result["epoch"] == 5
        # and a second recovery sees the post-recovery edit too
        third = ModelServer(wal_dir=str(tmp_path))
        assert third.repo("main").epoch == 5

    def test_recovery_is_idempotent(self, tmp_path):
        server, state = seeded_server(tmp_path)
        want = canonical_check_document(state.session.check().to_json())
        for _ in range(3):
            again = ModelServer(wal_dir=str(tmp_path))
            st = again.repo("main")
            got = canonical_check_document(st.session.check().to_json())
            assert got == want

    def test_compaction_preserves_state(self, tmp_path):
        server = ModelServer(wal_dir=str(tmp_path), wal_compact_every=3)
        state = host_corpus(server)
        with InProcessClient(server) as client:
            for i, eid in enumerate(named_eids(state, limit=7)):
                client.request("edit-txn", repo="main", base_epoch=i,
                               ops=[rename_op(eid, f"R{i}")])
        assert state.wal.compactions >= 2
        live = canonical_check_document(state.session.check().to_json())
        recovered = ModelServer(wal_dir=str(tmp_path))
        st = recovered.repo("main")
        assert st.epoch == 7
        doc = canonical_check_document(st.session.check().to_json())
        assert doc == live
        # compaction cleaned up superseded snapshot generations
        snapshots = [n for n in os.listdir(str(tmp_path))
                     if durability.SNAPSHOT_MARKER in n]
        assert len(snapshots) == 1

    def test_load_verb_is_wal_backed_too(self, tmp_path):
        from repro.cli import save_model

        model_path = str(tmp_path / "m.json")
        wal_dir = tmp_path / "wal"
        session = Session.generate("demo", size=40, seed=5, repair=True)
        save_model(session.model, model_path)
        server = ModelServer(wal_dir=str(wal_dir))
        with InProcessClient(server) as client:
            client.request("load", repo="disk", path=model_path)
            state = server.repo("disk")
            eid = named_eids(state, limit=1)[0]
            client.request("edit-txn", repo="disk", base_epoch=0,
                           ops=[rename_op(eid, "FromDisk")])
        recovered = ModelServer(wal_dir=str(wal_dir))
        assert recovered.recovered == ["disk"]
        assert recovered.repo("disk").epoch == 1

    def test_wal_stats_surface_in_summary(self, tmp_path):
        server, state = seeded_server(tmp_path)
        summary = state.summary()
        assert summary["wal"]["appended"] == 4
        assert summary["wal"]["compact_failures"] == 0
        assert summary["wal"]["broken"] is None

    def test_pretty_printed_snapshot_recovers(self, tmp_path):
        """A snapshot sealed in the pretty-printed form earlier releases
        wrote (``indent=2``, digest key last) still recovers."""
        from repro.cli import load_model
        from repro.xmi import write_json

        server, state = seeded_server(tmp_path)
        live = canonical_check_document(state.session.check().to_json())
        server.shutdown()
        origin = durability.read_records(state.wal.path)[0][0]
        snapshot = os.path.join(str(tmp_path), origin["snapshot"])
        document = json.loads(write_json(load_model(snapshot)))
        document["sha256"] = hashlib.sha256(json.dumps(
            document, sort_keys=True, separators=(",", ":"))
            .encode("utf-8")).hexdigest()
        with open(snapshot, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(document, indent=2))
        recovered = ModelServer(wal_dir=str(tmp_path)).repo("main")
        assert recovered.epoch == 4
        assert canonical_check_document(
            recovered.session.check().to_json()) == live

    def test_compaction_traced_peak_is_bounded(self, tmp_path):
        """The snapshot is streamed element by element: on a
        2,000-element repository compaction stays under 5 MiB of
        Python allocations."""
        import tracemalloc

        server = ModelServer(wal_dir=str(tmp_path))
        state = host_corpus(server, size=2_000, seed=0)
        tracemalloc.start()
        try:
            state.wal.compact(state.model, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.wal.compactions == 1
        assert peak <= 5 * 2 ** 20, f"compaction peaked at {peak:,} B"


# ---------------------------------------------------------------------------
# The 50-schedule crash property
# ---------------------------------------------------------------------------

TXNS = 8
SCHEDULES = 50


@pytest.fixture(scope="class")
def crash_fixture(tmp_path_factory):
    """One live run's WAL directory plus its parsed record offsets."""
    base = tmp_path_factory.mktemp("walbase")
    seeded_server(base, txns=TXNS)
    wal_path = os.path.join(str(base), "main.wal")
    with open(wal_path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    records = [durability.decode_record(line.rstrip(b"\n"))
               for line in lines]
    assert all(records), "live WAL must be fully valid"
    assert records[0]["type"] == "origin"
    return {"base": str(base), "lines": lines, "records": records}


class TestCrashSchedules:
    _shadow_cache = {}

    def _shadow_document(self, crash, acked):
        """Check document of a shadow session applying exactly the
        acknowledged prefix, through the same op applier."""
        from repro.cli import load_model
        from repro.mof.txn import transaction

        cached = self._shadow_cache.get(acked)
        if cached is not None:
            return cached
        origin = crash["records"][0]
        snapshot = os.path.join(crash["base"], origin["snapshot"])
        model = load_model(snapshot)
        resolver = ModelServer().resolve_metaclass
        for record in crash["records"][1:1 + acked]:
            with transaction(model):
                apply_edit_ops(resolver, model, record["ops"],
                               pin_eids=True)
        document = canonical_check_document(
            Session(model).check().to_json())
        self._shadow_cache[acked] = document
        return document

    def test_any_crash_point_recovers_the_acked_prefix(
            self, crash_fixture, tmp_path):
        crash = crash_fixture
        failures = []
        for schedule in range(SCHEDULES):
            rng = random.Random(9000 + schedule)
            acked = rng.randint(0, TXNS)
            # k acknowledged txns survive intact; the (k+1)-th may be
            # torn anywhere short of its newline (fsync-before-ack
            # makes these the only reachable crash states)
            tail = b""
            if acked < TXNS and rng.random() < 0.5:
                nxt = crash["lines"][1 + acked]
                tail = nxt[:rng.randrange(1, len(nxt))]
                if tail.endswith(b"\n"):
                    tail = tail[:-1]
            crashed = tmp_path / f"s{schedule}"
            shutil.copytree(crash["base"], str(crashed))
            with open(str(crashed / "main.wal"), "wb") as handle:
                handle.write(b"".join(crash["lines"][:1 + acked]) + tail)
            recovered = ModelServer(wal_dir=str(crashed))
            state = recovered.repo("main")
            doc = canonical_check_document(
                state.session.check().to_json())
            want = self._shadow_document(crash, acked)
            if doc != want or state.epoch != acked:
                failures.append((schedule, acked, len(tail)))
            shutil.rmtree(str(crashed))
        assert not failures, (
            f"{len(failures)} crash schedules diverged from the "
            f"acknowledged prefix: {failures}")


# ---------------------------------------------------------------------------
# WAL failure semantics
# ---------------------------------------------------------------------------

class TestWalFaults:
    def test_failed_append_rolls_back_and_stays_consistent(self,
                                                           tmp_path):
        server = ModelServer(wal_dir=str(tmp_path))
        state = host_corpus(server)
        eid = named_eids(state, limit=1)[0]
        before = state.model.index().resolve_eid(eid).eget("name")
        size_before = state.model.size()
        wal_size = os.path.getsize(state.wal.path)
        with InProcessClient(server) as client:
            plan = faults.FaultPlan(seed=0, rate=1.0,
                                    sites=["wal.append"],
                                    max_faults=1)
            with faults.injected(plan):
                with pytest.raises(RemoteError) as info:
                    client.request("edit-txn", repo="main", base_epoch=0,
                                   ops=[rename_op(eid, "Lost"),
                                        create_op("AlsoLost")])
            assert info.value.code == "txn-failed"
            assert info.value.data["replayable"] is True
            # memory rolled back ...
            assert state.epoch == 0
            assert state.model.size() == size_before
            element = state.model.index().resolve_eid(eid)
            assert element.eget("name") == before
            # ... and disk agrees (no partial record)
            assert os.path.getsize(state.wal.path) == wal_size
            # the replay then succeeds and is durable
            result = client.request("edit-txn", repo="main",
                                    base_epoch=0,
                                    ops=[rename_op(eid, "Kept")])
            assert result["epoch"] == 1
        recovered = ModelServer(wal_dir=str(tmp_path))
        st = recovered.repo("main")
        assert st.epoch == 1
        assert st.model.index().resolve_eid(eid).eget("name") == "Kept"

    def test_failed_compaction_still_acknowledges_the_edit(self,
                                                           tmp_path):
        """Compaction runs after the record is durable: its failure is
        counted, the edit is acknowledged and watched, and the next
        edit-txn compacts."""
        wal_dir = tmp_path / "wal"
        server = ModelServer(wal_dir=str(wal_dir), wal_compact_every=2)
        state = host_corpus(server)
        eids = named_eids(state, limit=3)
        with InProcessClient(server) as editor, \
                InProcessClient(server) as watcher:
            watcher.request("watch", repo="main")
            editor.request("edit-txn", repo="main", base_epoch=0,
                           ops=[rename_op(eids[0], "Compact0")])
            watcher.drain_events()
            plan = faults.FaultPlan(seed=0, at={"io.write": [1]})
            with faults.injected(plan):
                result = editor.request(
                    "edit-txn", repo="main", base_epoch=1,
                    ops=[rename_op(eids[1], "Compact1")])
            assert plan.fault_count == 1
            assert result["epoch"] == 2 and state.epoch == 2
            events = watcher.drain_events()
            assert [event["epoch"] for event in events] == [2]
            stats = state.wal.stats()
            assert stats["compactions"] == 0
            assert stats["compact_failures"] == 1
            assert stats["compact_error"].startswith("InjectedFault")
            assert stats["since_snapshot"] == 2
            live = canonical_check_document(
                state.session.check().to_json())
            copy = tmp_path / "copy"
            shutil.copytree(str(wal_dir), str(copy))
            recovered = ModelServer(wal_dir=str(copy))
            again = recovered.repo("main")
            assert again.epoch == 2
            assert canonical_check_document(
                again.session.check().to_json()) == live
            recovered.shutdown()
            # the next edit-txn retries the compaction
            editor.request("edit-txn", repo="main", base_epoch=2,
                           ops=[rename_op(eids[2], "Compact2")])
            assert state.wal.compactions == 1
            assert state.wal.records_since_snapshot == 0

    def test_failed_replay_is_retryable(self, tmp_path):
        seeded_server(tmp_path)
        plan = faults.FaultPlan(seed=0, at={"wal.replay": [2]})
        with faults.injected(plan):
            with pytest.raises(faults.InjectedFault):
                ModelServer(wal_dir=str(tmp_path))
        # nothing was consumed or damaged: the retry fully recovers
        recovered = ModelServer(wal_dir=str(tmp_path))
        assert recovered.repo("main").epoch == 4

    def test_log_without_origin_is_corrupt(self, tmp_path):
        with open(str(tmp_path / "bad.wal"), "wb") as handle:
            handle.write(durability.encode_record(
                {"type": "txn", "epoch": 1, "ops": []}))
        with pytest.raises(WalCorruptError):
            ModelServer(wal_dir=str(tmp_path))


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------

class TestDeadlines:
    def test_expired_budget_sheds_before_running(self):
        server = ModelServer(deadlines={"ping": -1.0})
        with InProcessClient(server) as client:
            with pytest.raises(RemoteError) as info:
                client.request("ping")
            assert info.value.code == "deadline-exceeded"
            assert info.value.data["replayable"] is True

    def test_unknown_verbs_use_the_default_budget(self):
        server = ModelServer()
        assert server.deadlines.get("nonexistent") is None
        assert DEFAULT_DEADLINE > 0

    def test_mid_batch_expiry_rolls_back(self, monkeypatch, tmp_path):
        from repro.server import dispatch

        server = ModelServer(wal_dir=str(tmp_path),
                             deadlines={"edit-txn": 0.05})
        state = host_corpus(server)
        eids = named_eids(state, limit=6)
        names = [state.model.index().resolve_eid(e).eget("name")
                 for e in eids]
        wal_size = os.path.getsize(state.wal.path)

        clock = {"now": 1000.0}

        def fake_monotonic():
            clock["now"] += 0.02       # every look at the clock ticks
            return clock["now"]

        monkeypatch.setattr(dispatch.time, "monotonic", fake_monotonic)
        with InProcessClient(server) as client:
            with pytest.raises(RemoteError) as info:
                client.request("edit-txn", repo="main", base_epoch=0,
                               ops=[rename_op(e, f"Doomed{i}")
                                    for i, e in enumerate(eids)])
        assert info.value.code == "deadline-exceeded"
        # the partially applied batch was rolled back, nothing logged
        assert state.epoch == 0
        got = [state.model.index().resolve_eid(e).eget("name")
               for e in eids]
        assert got == names
        assert os.path.getsize(state.wal.path) == wal_size


# ---------------------------------------------------------------------------
# Backpressure, eviction, drain (TCP level)
# ---------------------------------------------------------------------------

@pytest.fixture
def slow_check(monkeypatch):
    """Make every check verb sleep ``slow_check.delay`` seconds (0.25
    unless a test sets it), so frames arrive while a handler runs."""
    original = Session.check
    knob = types.SimpleNamespace(delay=0.25)

    def slow(self, *args, **kwargs):
        time.sleep(knob.delay)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Session, "check", slow)
    return knob


def _wait_for(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def _raw_frames(sock, count, verb="check", repo="main"):
    payload = b"".join(
        (json.dumps({"id": i + 1, "verb": verb,
                     "params": {"repo": repo, "incremental": False}})
         + "\n").encode()
        for i in range(count))
    sock.sendall(payload)


class TestTcpResilience:
    def test_pipelined_frames_are_answered_in_order(self, slow_check):
        slow_check.delay = 0.01
        server = ModelServer()
        host_corpus(server, size=30)
        tcp = TcpServer(server).start()
        try:
            with socket.create_connection(tcp.address, timeout=30) as sock:
                _raw_frames(sock, 100)          # one write, 100 checks
                reader = sock.makefile("rb")
                frames = [json.loads(reader.readline())
                          for _ in range(100)]
            assert [frame.get("ok") for frame in frames] == [True] * 100
            assert [frame["id"] for frame in frames] == \
                list(range(1, 101))
        finally:
            tcp.shutdown()

    def test_finished_connection_threads_are_dropped(self):
        server = ModelServer()
        tcp = TcpServer(server).start()
        try:
            for _ in range(50):
                with TcpClient(*tcp.address) as client:
                    assert client.request("ping")["pong"] is True
            assert len(tcp._threads) <= 5
        finally:
            tcp.shutdown()

    def test_slowloris_eviction(self):
        server = ModelServer()
        tcp = TcpServer(server, partial_frame_timeout=0.3).start()
        try:
            sock = socket.create_connection(tcp.address, timeout=10)
            sock.sendall(b'{"id": 1, "verb": "ping"')   # never finishes
            sock.settimeout(5.0)
            assert sock.recv(1024) == b""     # server hung up on us
            sock.close()
            # the server still serves new, honest connections
            with TcpClient(*tcp.address) as client:
                assert client.request("ping")["pong"] is True
        finally:
            tcp.shutdown()

    def test_idle_watcher_is_not_evicted(self):
        server = ModelServer()
        host_corpus(server, size=30)
        tcp = TcpServer(server, partial_frame_timeout=0.3).start()
        try:
            with TcpClient(*tcp.address) as client:
                client.request("watch", repo="main")
                time.sleep(1.0)               # idle well past the limit
                assert client.request("ping")["pong"] is True
        finally:
            tcp.shutdown()

    def test_drain_rejects_new_work_and_flushes(self, tmp_path):
        server = ModelServer(wal_dir=str(tmp_path))
        state = host_corpus(server)
        tcp = TcpServer(server).start()
        client = TcpClient(*tcp.address)
        eid = named_eids(state, limit=1)[0]
        client.request("edit-txn", repo="main", base_epoch=0,
                       ops=[rename_op(eid, "BeforeDrain")])
        stats = tcp.drain(timeout=2.0)
        assert stats["drained"] is True
        # listener is gone
        with pytest.raises((TransportError, OSError)):
            TcpClient(*tcp.address, timeout=0.5).request("ping")
        # the acknowledged edit survived the drain
        recovered = ModelServer(wal_dir=str(tmp_path))
        st = recovered.repo("main")
        assert st.model.index().resolve_eid(eid).eget("name") \
            == "BeforeDrain"

    def test_drain_answers_each_later_frame_draining(self, slow_check):
        server = ModelServer()
        host_corpus(server, size=30)
        tcp = TcpServer(server).start()
        busy = socket.create_connection(tcp.address, timeout=10)
        late = socket.create_connection(tcp.address, timeout=10)
        try:
            _raw_frames(busy, 1)                # a 0.25 s check
            _wait_for(lambda: tcp._busy == 1)
            stats = {}
            drainer = threading.Thread(
                target=lambda: stats.update(tcp.drain(timeout=5.0)))
            drainer.start()
            _wait_for(lambda: tcp._draining)
            _raw_frames(late, 5)
            reader = late.makefile("rb")
            frames = [json.loads(reader.readline()) for _ in range(5)]
            assert [f["error"]["code"] for f in frames] == ["draining"] * 5
            assert [f["id"] for f in frames] == [1, 2, 3, 4, 5]
            assert reader.readline() == b""     # closed once drained
            assert json.loads(busy.makefile("rb").readline())["ok"] is True
            drainer.join(timeout=10)
            assert not drainer.is_alive()
            assert stats == {"drained": True, "cancelled": 5,
                             "interrupted": 0}
        finally:
            busy.close()
            late.close()
            tcp.shutdown()

    def test_drain_counts_a_request_past_its_timeout(self, slow_check):
        slow_check.delay = 0.5
        server = ModelServer()
        host_corpus(server, size=30)
        tcp = TcpServer(server).start()
        busy = socket.create_connection(tcp.address, timeout=10)
        try:
            _raw_frames(busy, 1)
            _wait_for(lambda: tcp._busy == 1)
            stats = tcp.drain(timeout=0.05)
            assert stats == {"drained": True, "cancelled": 0,
                             "interrupted": 1}
        finally:
            busy.close()
            tcp.shutdown()

    def test_concurrent_requests_leave_drain_nothing_to_wait_for(self):
        server = ModelServer()
        tcp = TcpServer(server).start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def pings():
                with TcpClient(*tcp.address) as client:
                    for _ in range(30):
                        client.request("ping")

            clients = [threading.Thread(target=pings) for _ in range(8)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in clients)
            # a lost update of the busy count would hold drain to its
            # timeout and report the connection interrupted
            assert tcp.drain(timeout=2.0) == {
                "drained": True, "cancelled": 0, "interrupted": 0}
        finally:
            sys.setswitchinterval(interval)
            tcp.shutdown()

    def test_a_failed_response_write_leaves_no_request_running(self):
        server = ModelServer()
        tcp = TcpServer(server).start()
        try:
            plan = faults.FaultPlan(at={"net.write": [1]})
            with faults.injected(plan):
                with socket.create_connection(tcp.address,
                                              timeout=10) as sock:
                    _raw_frames(sock, 1, verb="ping")
                    assert sock.recv(1024) == b""     # dropped, unanswered
            assert plan.fault_count == 1
            assert tcp.drain(timeout=1.0)["interrupted"] == 0
        finally:
            tcp.shutdown()

    def test_shutdown_with_hung_client_is_fast(self):
        server = ModelServer()
        tcp = TcpServer(server).start()
        sock = socket.create_connection(tcp.address, timeout=10)
        sock.sendall(b'{"id": 1, ')          # half a frame, then stall
        time.sleep(0.1)
        started = time.monotonic()
        tcp.shutdown()
        assert time.monotonic() - started < 3.0
        sock.close()


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_backoff_is_bounded_full_jitter(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0,
                             rng=random.Random(7))
        for attempt in range(10):
            cap = min(1.0, 0.1 * (2 ** attempt))
            for _ in range(50):
                delay = policy.backoff(attempt)
                assert 0.0 <= delay <= cap

    def test_transient_errors_are_replayed(self):
        sleeps = []
        policy = RetryPolicy(attempts=5, rng=random.Random(1),
                             sleep=sleeps.append)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RemoteError("draining", "busy", {})
            return "done"

        assert policy.run(flaky) == "done"
        assert calls["n"] == 3
        assert len(sleeps) == 2
        assert policy.retried == 2

    def test_fatal_errors_propagate_immediately(self):
        policy = RetryPolicy(attempts=5, sleep=lambda _s: None)
        calls = {"n": 0}

        def fatal():
            calls["n"] += 1
            raise RemoteError("bad-params", "nope", {})

        with pytest.raises(RemoteError):
            policy.run(fatal)
        assert calls["n"] == 1

    def test_attempt_cap(self):
        policy = RetryPolicy(attempts=3, rng=random.Random(1),
                             sleep=lambda _s: None)

        def always():
            raise TransportError("down")

        with pytest.raises(TransportError):
            policy.run(always)

    def test_conflict_refreshes_base_epoch(self):
        server = ModelServer()
        state = host_corpus(server)
        eid = named_eids(state, limit=1)[0]
        tcp = TcpServer(server).start()
        try:
            a = TcpClient(*tcp.address)
            b = TcpClient(*tcp.address,
                          retry=RetryPolicy(rng=random.Random(2),
                                            sleep=lambda _s: None))
            a.request("edit-txn", repo="main", base_epoch=0,
                      ops=[rename_op(eid, "ByA")])
            # b's base_epoch=0 is now stale: the policy replays it
            result = b.request("edit-txn", repo="main", base_epoch=0,
                               ops=[rename_op(eid, "ByB")])
            assert result["epoch"] == 2
            assert b.retry.retried == 1
            a.close()
            b.close()
        finally:
            tcp.shutdown()

    def test_reconnect_after_server_restart(self):
        server = ModelServer()
        tcp = TcpServer(server).start()
        client = TcpClient(*tcp.address,
                           retry=RetryPolicy(attempts=8,
                                             base_delay=0.01,
                                             rng=random.Random(3)))
        assert client.request("ping")["pong"] is True
        host, port = tcp.address
        tcp.shutdown()
        # restart on the same port; the client reconnects mid-retry
        server2 = ModelServer()
        tcp2 = TcpServer(server2, host=host, port=port).start()
        try:
            assert client.request("ping")["pong"] is True
            assert client.retry.retried >= 1
        finally:
            client.close()
            tcp2.shutdown()


class TestTransportErrors:
    def test_connect_failure_is_typed(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(TransportError):
            TcpClient("127.0.0.1", free_port, timeout=0.5)

    def test_request_on_dead_server_is_typed(self):
        server = ModelServer()
        tcp = TcpServer(server).start()
        client = TcpClient(*tcp.address)
        tcp.shutdown()
        with pytest.raises(TransportError) as info:
            client.request("ping")
        assert info.value.transient is True

    def test_drain_events_restores_socket_timeout(self):
        server = ModelServer()
        tcp = TcpServer(server).start()
        try:
            client = TcpClient(*tcp.address, timeout=17.0)
            assert client._sock.gettimeout() == 17.0
            client.drain_events(timeout=0.1)
            assert client._sock.gettimeout() == 17.0
            client.close()
        finally:
            tcp.shutdown()
