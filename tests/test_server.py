"""Tests for the multi-tenant model server (repro.server).

The in-process transport round-trips every frame through
``encode_frame``/``decode_frame``, so everything proved here holds
byte-for-byte over TCP; the TCP-specific tests cover framing recovery,
disconnects and true multi-client concurrency on real sockets.
"""

import json
import threading

import pytest

from repro.server import (
    InProcessClient,
    ModelServer,
    RemoteError,
    TcpClient,
    VERBS,
    serve_tcp,
)
from repro.session import Session


@pytest.fixture
def server():
    instance = ModelServer()
    yield instance
    instance.shutdown()


def host_corpus(server, name="main", size=80, seed=3):
    """Attach a generated, repaired demo corpus as repository *name*."""
    session = Session.generate("demo", size=size, seed=seed, repair=True)
    server.attach(name, session)
    return server.repo(name)


def named_eids(state, limit=None):
    """eids of elements with a scalar ``name`` feature (renamable)."""
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


# ---------------------------------------------------------------------------
# protocol robustness
# ---------------------------------------------------------------------------

class TestProtocolRobustness:
    def test_malformed_json_frame(self, server):
        with InProcessClient(server) as client:
            answers = client.send_raw(b"{nope")
            assert answers[0]["ok"] is False
            assert answers[0]["error"]["code"] == "parse-error"
            assert answers[0]["id"] is None

    def test_non_object_frame(self, server):
        with InProcessClient(server) as client:
            answers = client.send_raw(b"[1, 2, 3]")
            assert answers[0]["error"]["code"] == "parse-error"

    def test_frame_without_id_or_verb(self, server):
        with InProcessClient(server) as client:
            answers = client.send_raw(b'{"verb": "ping"}')
            assert answers[0]["error"]["code"] == "bad-request"
            answers = client.send_raw(b'{"id": 9}')
            assert answers[0]["error"]["code"] == "bad-request"
            assert answers[0]["id"] == 9

    def test_params_must_be_object(self, server):
        with InProcessClient(server) as client:
            answers = client.send_raw(
                b'{"id": 1, "verb": "ping", "params": [1]}')
            assert answers[0]["error"]["code"] == "bad-params"

    def test_unknown_verb_lists_vocabulary(self, server):
        with InProcessClient(server) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.request("frobnicate")
            assert excinfo.value.code == "unknown-verb"
            assert excinfo.value.data["verbs"] == sorted(VERBS)
            assert "check" in excinfo.value.data["verbs"]

    def test_oversized_payload_rejected(self):
        server = ModelServer(max_frame=512)
        try:
            with InProcessClient(server) as client:
                big = json.dumps({"id": 1, "verb": "ping",
                                  "params": {"pad": "x" * 4096}})
                answers = client.send_raw(big.encode())
                assert answers[0]["error"]["code"] == "oversized"
                # the connection survives an oversized frame
                assert client.request("ping")["pong"] is True
        finally:
            server.shutdown()

    def test_requests_after_close_are_rejected(self, server):
        client = InProcessClient(server)
        assert client.request("close") == {"closed": True}
        answers = client.send_raw(b'{"id": 5, "verb": "ping"}')
        assert answers[0]["error"]["code"] == "closed"


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

class TestVerbs:
    def test_ping_reports_protocol(self, server):
        with InProcessClient(server) as client:
            result = client.request("ping")
            assert result["pong"] is True and result["protocol"] >= 1

    def test_generate_hosts_a_repo(self, server):
        with InProcessClient(server) as client:
            result = client.request("generate", repo="gen", size=60,
                                    seed=1)
            assert result["repo"] == "gen" and result["epoch"] == 0
            assert result["elements"] > 0
            assert result["repair_converged"] is True

    def test_load_hosts_a_file(self, server, tmp_path):
        from repro.cli import save_model
        session = Session.generate("demo", size=40, seed=2, repair=True)
        path = tmp_path / "corpus.xmi"
        save_model(session.model, str(path))
        with InProcessClient(server) as client:
            result = client.request("load", repo="disk", path=str(path))
            assert result["repo"] == "disk" and result["elements"] > 0
            with pytest.raises(RemoteError) as excinfo:
                client.request("load", repo="disk", path=str(path))
            assert excinfo.value.code == "bad-params"   # name taken

    def test_check_document_matches_session_render(self, server):
        state = host_corpus(server)
        with InProcessClient(server) as client:
            document = client.request("check", repo="main")
            assert document["ok"] in (True, False)
            assert document["repo"] == "main"
            assert document["epoch"] == 0
            # the wire document renders identically to a local check
            from repro.session import render_check_document
            local = state.session.check(
                families=list(document["families"])).render()
            del document["repo"], document["epoch"]
            assert render_check_document(document) == local

    def test_check_family_filter_and_severity(self, server):
        host_corpus(server)
        with InProcessClient(server) as client:
            doc = client.request("check", repo="main",
                                 families=["structural", "invariant"])
            assert set(doc["families"]) <= {"structural", "invariant"}
            errors_only = client.request("check", repo="main",
                                         severity="error")
            assert errors_only["warnings"] == 0
            with pytest.raises(RemoteError) as excinfo:
                client.request("check", repo="main", families=["nope"])
            assert excinfo.value.code == "bad-params"
            with pytest.raises(RemoteError) as excinfo:
                client.request("check", repo="main", severity="fatal")
            assert excinfo.value.code == "bad-params"

    def test_check_unknown_repo(self, server):
        with InProcessClient(server) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.request("check", repo="ghost")
            assert excinfo.value.code == "no-such-repo"


class TestCheckCache:
    """The per-repo check-result cache is shared across connections and
    keyed on (families, severity, columnar); an edit-txn epoch bump
    invalidates it wholesale."""

    @staticmethod
    def _cache_counts():
        from repro.obs.metrics import REGISTRY
        hit = REGISTRY.get("server.check_cache", result="hit")
        miss = REGISTRY.get("server.check_cache", result="miss")
        return ((hit.value if hit else 0), (miss.value if miss else 0))

    def test_identical_checks_hit_across_connections(self, server):
        host_corpus(server)
        with InProcessClient(server) as first, \
                InProcessClient(server) as second:
            hits0, misses0 = self._cache_counts()
            mine = first.request("check", repo="main")
            theirs = second.request("check", repo="main")
            assert theirs == mine
            hits1, misses1 = self._cache_counts()
            assert misses1 == misses0 + 1
            assert hits1 == hits0 + 1

    def test_different_parameters_miss(self, server):
        host_corpus(server)
        with InProcessClient(server) as client:
            _, misses0 = self._cache_counts()
            client.request("check", repo="main")
            client.request("check", repo="main", severity="error")
            client.request("check", repo="main",
                           families=["structural"])
            _, misses1 = self._cache_counts()
            assert misses1 == misses0 + 3

    def test_epoch_bump_invalidates(self, server):
        state = host_corpus(server)
        eid = named_eids(state, 1)[0]
        with InProcessClient(server) as client:
            stale = client.request("check", repo="main")
            assert stale["epoch"] == 0
            client.request("edit-txn", repo="main", base_epoch=0,
                           ops=[rename_op(eid, "CacheBuster")])
            assert state.check_cache == {}
            hits0, misses0 = self._cache_counts()
            fresh = client.request("check", repo="main")
            assert fresh["epoch"] == 1
            hits1, misses1 = self._cache_counts()
            assert (hits1, misses1) == (hits0, misses0 + 1)

    def test_cached_document_is_a_copy(self, server):
        host_corpus(server)
        with InProcessClient(server) as client:
            first = client.request("check", repo="main")
            first["families"] = "mutated by the caller"
            again = client.request("check", repo="main")
            assert again["families"] != "mutated by the caller"

    def test_workers_and_columnar_parity_over_the_wire(self, server):
        host_corpus(server)
        with InProcessClient(server) as client:
            serial = client.request("check", repo="main",
                                    incremental=False)
            columnar = client.request("check", repo="main",
                                      columnar=True, incremental=False)
            assert columnar == serial


class TestEditTxn:
    def test_edit_txn_applies_and_bumps_epoch(self, server):
        state = host_corpus(server)
        eid = named_eids(state, 1)[0]
        with InProcessClient(server) as client:
            result = client.request(
                "edit-txn", repo="main", base_epoch=0,
                ops=[rename_op(eid, "Renamed")])
            assert result["epoch"] == 1 and result["applied"] == 1
            assert eid in result["touched"]
            element = state.model.index().resolve_eid(eid)
            assert element.eget("name") == "Renamed"

    def test_edit_txn_create_alias_and_delete(self, server):
        state = host_corpus(server)
        before = state.model.size()
        with InProcessClient(server) as client:
            result = client.request(
                "edit-txn", repo="main", base_epoch=0,
                ops=[{"op": "create", "metaclass": "GLibrary",
                      "attrs": {"name": "fresh"}, "as": "lib"},
                     {"op": "set", "element": "$lib", "feature": "name",
                      "value": "fresher"}])
            assert result["applied"] == 2
            assert state.model.size() == before + 1

    def test_edit_txn_stale_epoch_is_replayable(self, server):
        state = host_corpus(server)
        eid = named_eids(state, 1)[0]
        first = InProcessClient(server)
        second = InProcessClient(server)
        try:
            first.request("edit-txn", repo="main", base_epoch=0,
                          ops=[rename_op(eid, "FromFirst")])
            ops = [rename_op(eid, "FromSecond")]
            with pytest.raises(RemoteError) as excinfo:
                second.request("edit-txn", repo="main", base_epoch=0,
                               ops=ops)
            error = excinfo.value
            assert error.code == "conflict"
            assert error.data["replayable"] is True
            assert error.data["current_epoch"] == 1
            assert error.data["ops"] == ops     # replay verbatim
            replay = second.request(
                "edit-txn", repo="main",
                base_epoch=error.data["current_epoch"], ops=ops)
            assert replay["epoch"] == 2
            element = state.model.index().resolve_eid(eid)
            assert element.eget("name") == "FromSecond"
            assert state.edits_applied == 2
            assert state.edits_rejected == 1
        finally:
            first.close()
            second.close()

    def test_edit_txn_rolls_back_whole_batch(self, server):
        state = host_corpus(server)
        eid = named_eids(state, 1)[0]
        element = state.model.index().resolve_eid(eid)
        original = element.eget("name")
        with InProcessClient(server) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.request(
                    "edit-txn", repo="main", base_epoch=0,
                    ops=[rename_op(eid, "Halfway"),
                         {"op": "set", "element": "missing-eid",
                          "feature": "name", "value": "x"}])
            assert excinfo.value.code == "bad-params"
            # the journal rolled the first op back too
            assert element.eget("name") == original
            assert state.epoch == 0
            assert state.edits_applied == 0

    def test_edit_txn_kernel_failure_is_txn_failed(self, server):
        state = host_corpus(server)
        eid = named_eids(state, 1)[0]
        element = state.model.index().resolve_eid(eid)
        original = element.eget("name")
        with InProcessClient(server) as client:
            ops = [rename_op(eid, "Halfway"),
                   # 'add' on a scalar feature blows up inside the kernel
                   {"op": "add", "element": eid, "feature": "name",
                    "value": "x"}]
            with pytest.raises(RemoteError) as excinfo:
                client.request("edit-txn", repo="main", base_epoch=0,
                               ops=ops)
            error = excinfo.value
            assert error.code == "txn-failed"
            assert error.data["rolled_back"] is True
            assert error.data["replayable"] is True
            assert error.data["ops"] == ops
            assert element.eget("name") == original
            assert state.epoch == 0

    def test_watch_pushes_diagnostics_events(self, server):
        state = host_corpus(server)
        eid = named_eids(state, 1)[0]
        watcher = InProcessClient(server)
        editor = InProcessClient(server)
        try:
            subscribed = watcher.request("watch", repo="main")
            assert subscribed["watching"] is True
            editor.request("edit-txn", repo="main", base_epoch=0,
                           ops=[rename_op(eid, "Watched")])
            events = watcher.drain_events()
            assert len(events) == 1
            event = events[0]
            assert event["event"] == "diagnostics"
            assert event["repo"] == "main" and event["epoch"] == 1
            assert eid in event["touched"]
            assert "errors" in event["data"]
            # stop watching: further edits push nothing
            watcher.request("watch", repo="main", stop=True)
            editor.request("edit-txn", repo="main", base_epoch=1,
                           ops=[rename_op(eid, "Unwatched")])
            assert watcher.drain_events() == []
        finally:
            watcher.close()
            editor.close()

    def test_stats_verb_is_session_passthrough(self, server):
        state = host_corpus(server)
        with InProcessClient(server) as client:
            client.request("check", repo="main")
            document = client.request("stats", repo="main")
            local = state.session.stats()
            assert document["model"] == local["model"]
            assert document["server"]["repo"] == "main"
            assert "units" in document["engine"]
            top = client.request("stats")
            assert top["server"]["protocol"] >= 1
            assert "main" in top["server"]["repos"]


# ---------------------------------------------------------------------------
# isolation
# ---------------------------------------------------------------------------

class TestIsolation:
    def test_other_repo_edits_never_invalidate_my_engine(self, server):
        host_corpus(server, "alpha", size=60, seed=4)
        beta = host_corpus(server, "beta", size=60, seed=5)
        reader = InProcessClient(server)
        editor = InProcessClient(server)
        try:
            reader.request("check", repo="alpha")
            engine = reader._conn.engines["alpha"]
            baseline = engine.stats.invalidations
            editor.request(
                "edit-txn", repo="beta", base_epoch=0,
                ops=[rename_op(named_eids(beta, 1)[0], "BetaEdit")])
            assert engine.stats.invalidations == baseline
            assert not engine._dirty
        finally:
            reader.close()
            editor.close()

    def test_other_clients_checks_never_touch_my_engine(self, server):
        host_corpus(server, "alpha", size=60, seed=4)
        first = InProcessClient(server)
        second = InProcessClient(server)
        try:
            first.request("check", repo="alpha")
            mine = first._conn.engines["alpha"]
            baseline = (mine.stats.revalidations, mine.stats.unit_runs)
            for _ in range(3):
                second.request("check", repo="alpha")
            # identical same-epoch checks are served from the repo's
            # check cache: the second client never even builds an
            # engine, let alone touches mine
            assert "alpha" not in second._conn.engines
            assert (mine.stats.revalidations,
                    mine.stats.unit_runs) == baseline
            # a differently-parameterized check does build its own
            second.request("check", repo="alpha", severity="error")
            theirs = second._conn.engines["alpha"]
            assert theirs is not mine
            assert (mine.stats.revalidations,
                    mine.stats.unit_runs) == baseline
        finally:
            first.close()
            second.close()

    def test_same_repo_edit_invalidates_precisely(self, server):
        state = host_corpus(server, "alpha", size=60, seed=4)
        reader = InProcessClient(server)
        editor = InProcessClient(server)
        try:
            reader.request("check", repo="alpha")
            engine = reader._conn.engines["alpha"]
            editor.request(
                "edit-txn", repo="alpha", base_epoch=0,
                ops=[rename_op(named_eids(state, 1)[0], "AlphaEdit")])
            # correctness: the committed edit marks affected units dirty
            assert engine.stats.invalidations > 0
            document = reader.request("check", repo="alpha")
            assert document["epoch"] == 1
        finally:
            reader.close()
            editor.close()


# ---------------------------------------------------------------------------
# concurrency properties (generated models, epoch retry)
# ---------------------------------------------------------------------------

class TestConcurrencyProperties:
    @pytest.mark.parametrize("seed", [11, 23])
    def test_two_clients_conflicting_edits_all_converge(self, server,
                                                        seed):
        state = host_corpus(server, size=100, seed=seed)
        eids = named_eids(state, 8)
        edits_per_client = 12
        barrier = threading.Barrier(2)
        outcomes = {}

        def editor(tag):
            applied = conflicts = 0
            epoch = 0
            with InProcessClient(server) as client:
                barrier.wait()
                for index in range(edits_per_client):
                    ops = [rename_op(eids[index % len(eids)],
                                     f"{tag}-{index}")]
                    while True:
                        try:
                            result = client.request(
                                "edit-txn", repo="main",
                                base_epoch=epoch, ops=ops)
                            epoch = result["epoch"]
                            applied += 1
                            break
                        except RemoteError as error:
                            assert error.code == "conflict"
                            assert error.data["replayable"] is True
                            assert error.data["ops"] == ops
                            conflicts += 1
                            epoch = error.data["current_epoch"]
            outcomes[tag] = (applied, conflicts)

        threads = [threading.Thread(target=editor, args=(tag,))
                   for tag in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        # 100% of conflicting edit-txns either applied or were rejected
        # with a replayable conflict that then applied: nothing lost.
        total_applied = sum(applied for applied, _ in outcomes.values())
        total_conflicts = sum(c for _, c in outcomes.values())
        assert total_applied == 2 * edits_per_client
        assert state.epoch == total_applied
        assert state.edits_applied == total_applied
        assert state.edits_rejected == total_conflicts
        # last writer's value actually stuck (model is consistent)
        for eid in eids:
            element = state.model.index().resolve_eid(eid)
            assert element.eget("name").split("-")[0] in ("a", "b")


# ---------------------------------------------------------------------------
# TCP transport
# ---------------------------------------------------------------------------

class TestTcpTransport:
    def test_round_trip_and_framing_recovery(self):
        server = ModelServer(max_frame=64 * 1024)
        tcp = serve_tcp(server, port=0)
        host, port = tcp.address
        try:
            with TcpClient(host, port) as client:
                assert client.request("ping")["pong"] is True
                # an oversized line is rejected without killing the
                # connection, and the reader resynchronizes on newline
                frame = client.send_raw(b"x" * (128 * 1024) + b"\n")
                assert frame["error"]["code"] == "oversized"
                assert client.request("ping")["pong"] is True
        finally:
            tcp.shutdown()

    def test_disconnect_mid_transaction_rolls_back(self):
        """A client that dies right after submitting a failing edit-txn
        leaves the repository untouched for everyone else."""
        import socket as socket_module

        from repro.server.protocol import encode_frame, request_frame

        server = ModelServer()
        state = host_corpus(server, size=60, seed=7)
        eid = named_eids(state, 1)[0]
        element = state.model.index().resolve_eid(eid)
        original = element.eget("name")
        tcp = serve_tcp(server, port=0)
        host, port = tcp.address
        try:
            doomed = socket_module.create_connection((host, port))
            doomed.sendall(encode_frame(request_frame(
                1, "edit-txn",
                {"repo": "main", "base_epoch": 0,
                 "ops": [rename_op(eid, "Halfway"),
                         {"op": "set", "element": "missing",
                          "feature": "name", "value": "x"}]})))
            doomed.close()                    # gone before the response
            with TcpClient(host, port) as client:
                document = client.request("check", repo="main")
                assert document["epoch"] == 0
            assert element.eget("name") == original
            assert state.epoch == 0
        finally:
            tcp.shutdown()

    def test_four_concurrent_tcp_clients(self):
        server = ModelServer()
        state = host_corpus(server, size=100, seed=9)
        eids = named_eids(state, 6)
        tcp = serve_tcp(server, port=0)
        host, port = tcp.address
        edits_per_client = 5
        barrier = threading.Barrier(4)
        failures = []

        def worker(tag):
            try:
                with TcpClient(host, port) as client:
                    assert client.request(
                        "check", repo="main")["repo"] == "main"
                    epoch = 0
                    barrier.wait()
                    for index in range(edits_per_client):
                        ops = [rename_op(eids[index % len(eids)],
                                         f"{tag}-{index}")]
                        while True:
                            try:
                                result = client.request(
                                    "edit-txn", repo="main",
                                    base_epoch=epoch, ops=ops)
                                epoch = result["epoch"]
                                break
                            except RemoteError as error:
                                assert error.code == "conflict"
                                epoch = error.data["current_epoch"]
                    assert client.request(
                        "check", repo="main")["ok"] in (True, False)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                failures.append((tag, exc))

        threads = [threading.Thread(target=worker, args=(f"t{n}",))
                   for n in range(4)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            assert state.epoch == 4 * edits_per_client
            assert state.edits_applied == 4 * edits_per_client
        finally:
            tcp.shutdown()
        # clean shutdown: no connections left behind
        assert server._connections == {}


class TestDisconnectsAndInterleaving:
    """Satellite coverage: mid-frame disconnects near the frame cap and
    watch events interleaving with conflict replays."""

    def test_mid_frame_disconnect_near_cap(self):
        import socket as socket_module

        server = ModelServer()
        host_corpus(server, size=40, seed=11)
        tcp = serve_tcp(server, port=0)
        host, port = tcp.address
        try:
            # ~7 MiB of a single frame, no terminating newline, then gone
            doomed = socket_module.create_connection((host, port))
            doomed.sendall(b'{"id": 1, "verb": "edit-txn", "params": {"x": "'
                           + b"a" * (7 * 1024 * 1024))
            doomed.close()
            # and the same past the cap (discard mode), also cut short
            doomed = socket_module.create_connection((host, port))
            doomed.sendall(b'{"id": 2, "verb": "check", "params": {"x": "'
                           + b"b" * (9 * 1024 * 1024))
            doomed.close()
            # the server survives both and still answers cleanly
            with TcpClient(host, port) as client:
                document = client.request("check", repo="main")
                assert document["repo"] == "main"
            assert server.repo("main").epoch == 0
        finally:
            tcp.shutdown()

    def test_watch_events_interleave_with_conflict_replays(self):
        server = ModelServer()
        state = host_corpus(server, size=60, seed=13)
        eids = named_eids(state, 2)
        tcp = serve_tcp(server, port=0)
        host, port = tcp.address
        try:
            watcher = TcpClient(host, port)
            watcher.request("watch", repo="main")
            editor = TcpClient(host, port)
            editor.request("edit-txn", repo="main", base_epoch=0,
                           ops=[rename_op(eids[0], "First")])
            # a stale replay: rejected once (no event), replayed fine
            with pytest.raises(RemoteError) as info:
                editor.request("edit-txn", repo="main", base_epoch=0,
                               ops=[rename_op(eids[1], "Second")])
            assert info.value.code == "conflict"
            replay_epoch = info.value.data["current_epoch"]
            editor.request("edit-txn", repo="main",
                           base_epoch=replay_epoch,
                           ops=info.value.data["ops"])
            events = watcher.drain_events(minimum=2, timeout=5.0)
            diagnostics = [e for e in events
                           if e["event"] == "diagnostics"]
            # exactly the two committed epochs, in order — nothing for
            # the rejected attempt
            assert [e["epoch"] for e in diagnostics] == [1, 2]
            editor.close()
            watcher.close()
        finally:
            tcp.shutdown()
