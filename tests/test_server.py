"""Tests for the multi-tenant model server (repro.server).

The in-process transport round-trips every frame through
``encode_frame``/``decode_frame``, so everything proved here holds
byte-for-byte over TCP; the TCP-specific tests cover framing recovery,
disconnects and true multi-client concurrency on real sockets.
"""

import itertools
import json
import random
import sys
import threading
from collections import Counter

import pytest

from repro.generate import EditFuzzer, demo_generator, uml_generator
from repro.mof.txn import transaction
from repro.server import (
    InProcessClient,
    ModelServer,
    RemoteError,
    TcpClient,
    VERBS,
    encode_frame,
    serve_tcp,
)
from repro.server.protocol import event_frame, request_frame, response_frame
from repro.session import FAMILIES, Session


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


def pages_op(eid, pages):
    return {"op": "set", "element": eid, "feature": "pages", "value": pages}


def book_eids(state, limit):
    return [element.eid for element in state.model.all_elements()
            if element.meta.name == "GBook"][:limit]


def diagnostic_multiset(document):
    """(family, record) pairs of a check document, as a multiset."""
    return Counter((family, json.dumps(record, sort_keys=True))
                   for family, records in document["families"].items()
                   for record in records)


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


class TestSharedView:
    """Every connection of a repository reads its one incremental view,
    over the session's default families and kept for the repository's
    lifetime; a family selection is a filter of that view."""

    #: both orderings of a pair, every single family, more pairs and
    #: the default
    SELECTIONS = ([["structural", "invariant"], ["invariant", "structural"]]
                  + [[family] for family in FAMILIES]
                  + [["wellformed", "lint"], ["lint", "consistency"],
                     ["invariant", "constraint"], None])

    def test_two_connections_share_one_view(self, server):
        state = host_corpus(server)
        with InProcessClient(server) as first, \
                InProcessClient(server) as second:
            mine = first.request("check", repo="main")
            view = state.engine
            theirs = second.request("check", repo="main")
            assert json.dumps(theirs) == json.dumps(mine)
            # severity filters the view's result; it is not a key
            second.request("check", repo="main", severity="error")
            assert state.engine is view
        # closing connections leaves the view attached and in place
        assert state.engine is view and view._attached
        server.shutdown()
        assert state.engine is None and not view._attached

    def test_selection_orderings_share_one_view(self, server):
        state = host_corpus(server)
        with InProcessClient(server) as client:
            client.request("check", repo="main",
                           families=["structural", "invariant"])
            view = state.engine
            runs = view.stats.unit_runs
            for families in (["invariant", "structural"],
                             ["structural", "invariant"]) * 2:
                client.request("check", repo="main", families=families)
            assert state.engine is view
            assert view.stats.unit_runs == runs

    @pytest.mark.parametrize("package", ["demo", "uml"])
    def test_every_selection_is_a_filter_of_one_view(self, server, package):
        """Checks of any selection and a watch of another leave one
        engine and one more index listener, rerun no unit once the view
        is built, and serve what a fresh ``Session.check`` of the
        selection reports."""
        from test_session import _corpus_constraint_set
        generator = (demo_generator if package == "demo"
                     else uml_generator)(seed=5)
        server.attach("main", Session(
            generator.generate(120),
            constraint_sets=[_corpus_constraint_set()]))
        state = server.repo("main")
        listeners = len(state.model.index().listeners)
        with InProcessClient(server) as client, \
                InProcessClient(server) as watcher:
            watcher.request("watch", repo="main",
                            families=["consistency", "structural"])
            view = state.engine
            runs = view.stats.unit_runs
            for families in self.SELECTIONS:
                served = client.request("check", repo="main",
                                        families=families)
                fresh = state.session.check(families).to_json()
                assert list(served["families"]) == list(fresh["families"])
                for key in ("ok", "errors", "warnings", "infos"):
                    assert served[key] == fresh[key], (families, key)
                assert diagnostic_multiset(served) == \
                    diagnostic_multiset(fresh), families
            summary = client.request("stats")["server"]["repos"]["main"]
        assert summary["views"] == 1
        assert state.engine is view
        assert view.stats.unit_runs == runs
        assert len(state.model.index().listeners) == listeners + 1

    def test_a_family_the_view_lacks_is_served_empty(self, server):
        state = host_corpus(server)
        with InProcessClient(server) as client:
            served = client.request("check", repo="main",
                                    families=["constraint", "invariant"])
        assert "constraint" not in state.engine.families
        assert served["families"]["constraint"] == []
        fresh = state.session.check(["constraint", "invariant"]).to_json()
        assert diagnostic_multiset(served) == diagnostic_multiset(fresh)

    def test_watcher_with_second_selection_never_rebuilds(self, server):
        state = host_corpus(server)
        eid = named_eids(state, 1)[0]
        with InProcessClient(server) as watcher, \
                InProcessClient(server) as editor:
            watcher.request("watch", repo="main")
            watcher.request("check", repo="main", families=["structural"])
            view = state.engine
            runs = view.stats.unit_runs
            for epoch in range(2):
                editor.request("edit-txn", repo="main", base_epoch=epoch,
                               ops=[rename_op(eid, f"Watched{epoch}")])
                watcher.request("check", repo="main",
                                families=["structural"])
            assert len(watcher.drain_events()) == 2
            assert state.engine is view and view._attached
            # revalidated, not rebuilt: far fewer runs than units
            assert view.stats.unit_runs - runs < view.unit_count()

    def test_rejected_selection_never_serves_a_stale_view(self, server):
        state = host_corpus(server, size=200)
        book = book_eids(state, 1)[0]
        with InProcessClient(server) as client:
            client.request("check", repo="main")
            with pytest.raises(RemoteError) as excinfo:
                client.request("check", repo="main", families=["nope"])
            assert excinfo.value.code == "bad-params"
            client.request("edit-txn", repo="main", base_epoch=0,
                           ops=[pages_op(book, -7)])
            served = client.request("check", repo="main")
        fresh = state.session.check().to_json()
        assert served["epoch"] == 1
        assert diagnostic_multiset(served) == diagnostic_multiset(fresh)
        assert served["errors"] == fresh["errors"] >= 1

    def test_incremental_matches_full_pass_across_edits(self, server):
        state = host_corpus(server)
        books = book_eids(state, 3)
        edits = [[pages_op(books[0], -1)],
                 [pages_op(books[1], -2), rename_op(books[2], "Edited")],
                 [pages_op(books[0], 12)]]
        with InProcessClient(server) as client:
            for epoch in range(len(edits) + 1):
                served = client.request("check", repo="main")
                full = client.request("check", repo="main",
                                      incremental=False)
                assert served["epoch"] == full["epoch"] == epoch
                assert list(served["families"]) == list(full["families"])
                assert diagnostic_multiset(served) == \
                    diagnostic_multiset(full)
                for key in ("ok", "errors", "warnings", "infos"):
                    assert served[key] == full[key]
                if epoch < len(edits):
                    client.request("edit-txn", repo="main",
                                   base_epoch=epoch, ops=edits[epoch])

    def test_racing_connections_build_one_view(self, server):
        """More connection threads than cores check both orderings of a
        selection while committing edits; a lost update on the view map
        would leave a second engine observing the model."""
        state = host_corpus(server, size=100, seed=9)
        eids = named_eids(state, 6)
        selections = (["structural", "invariant"],
                      ["invariant", "structural"])
        listeners = len(state.model.index().listeners)
        barrier = threading.Barrier(6)
        failures = []

        def worker(index):
            try:
                with InProcessClient(server) as client:
                    barrier.wait(timeout=30)
                    for round_ in range(4):
                        client.request("check", repo="main",
                                       families=selections[
                                           (index + round_) % 2])
                        while True:
                            try:
                                client.request(
                                    "edit-txn", repo="main",
                                    base_epoch=state.epoch,
                                    ops=[rename_op(eids[index],
                                                   f"w{index}-{round_}")])
                                break
                            except RemoteError as error:
                                assert error.code == "conflict"
            except Exception as exc:  # noqa: BLE001 - collected for assert
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(6)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert state.epoch == 24
        assert len(state.model.index().listeners) == listeners + 1
        with InProcessClient(server) as client:
            served = client.request("check", repo="main",
                                    families=selections[0])
        assert state.engine.verify() == []
        fresh = state.session.check(selections[0]).to_json()
        assert diagnostic_multiset(served) == diagnostic_multiset(fresh)

    def test_cached_document_is_a_copy(self, server):
        host_corpus(server)
        with InProcessClient(server) as client:
            first = client.request("check", repo="main")
            first["families"] = "mutated by the caller"
            again = client.request("check", repo="main")
            assert again["families"] != "mutated by the caller"


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

    def test_edit_txn_adding_a_root_is_txn_failed(self, server):
        # a model root cannot be contained: the kernel refuses the add,
        # and the root the same batch created is rolled back with it
        state = host_corpus(server)
        library = state.model.roots[0]
        roots, size = list(state.model.roots), state.model.size()
        shelves = list(library.eget("shelves"))
        with InProcessClient(server) as client:
            ops = [{"op": "create", "metaclass": "GShelf",
                    "attrs": {"name": "loose"}, "as": "loose"},
                   {"op": "add", "element": library.eid,
                    "feature": "shelves", "ref": "$loose"}]
            with pytest.raises(RemoteError) as excinfo:
                client.request("edit-txn", repo="main", base_epoch=0,
                               ops=ops)
            error = excinfo.value
            assert error.code == "txn-failed"
            assert error.data["rolled_back"] is True
            assert state.model.roots == roots
            assert state.model.size() == size
            assert list(library.eget("shelves")) == shelves
            assert state.model.index().verify() == []
            assert state.epoch == 0

    def test_fuzzed_edit_txns_leave_no_link_damage(self, server):
        """Edits through the kernel keep both ends of every link in step:
        after fuzzed edit-txns that move, detach, create and delete
        books, one of them failing and rolled back, the structural
        family reports no opposite or containment diagnostic."""
        state = host_corpus(server, size=120, seed=5)
        rng = random.Random(5)
        library = state.model.roots[0].eid

        def eids(metaclass):
            return [element.eid for element in state.model.all_elements()
                    if element.meta.name == metaclass]

        def fuzzed_ops():
            shelves = eids("GShelf")
            book = iter(rng.sample(eids("GBook"), 7))
            ops = [pages_op(next(book), rng.randint(-5, 50)),
                   {"op": "set", "element": next(book),
                    "feature": "sequel", "ref": next(book)},
                   {"op": "add", "element": rng.choice(shelves),
                    "feature": "books", "ref": next(book)},
                   {"op": "set", "element": next(book), "feature": "shelf",
                    "ref": rng.choice(shelves)},
                   {"op": "unset", "element": next(book),
                    "feature": "shelf"},
                   {"op": "create", "metaclass": "GBook",
                    "attrs": {"name": "fresh"},
                    "parent": rng.choice(shelves), "feature": "books"},
                   {"op": "delete", "element": next(book)}]
            rng.shuffle(ops)
            return ops

        def structural(client, incremental=False):
            document = client.request("check", repo="main",
                                      families=["structural"],
                                      incremental=incremental)
            assert not {record["code"] for record
                        in document["families"]["structural"]} \
                & {"opposite", "containment"}
            return document

        with InProcessClient(server) as client:
            structural(client, True)        # the view sees every edit
            for epoch in range(8):
                ops = fuzzed_ops()
                if epoch == 4:
                    # 'add' on a scalar feature fails inside the kernel
                    failing = {"op": "add", "element": library,
                               "feature": "name", "value": "x"}
                    with pytest.raises(RemoteError) as excinfo:
                        client.request("edit-txn", repo="main",
                                       base_epoch=epoch,
                                       ops=ops + [failing])
                    assert excinfo.value.data["rolled_back"] is True
                    assert structural(client)["epoch"] == epoch
                client.request("edit-txn", repo="main", base_epoch=epoch,
                               ops=ops)
                structural(client)
            assert diagnostic_multiset(structural(client, True)) == \
                diagnostic_multiset(structural(client))

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

    def test_watch_reply_counts_with_its_own_severity_filter(self, server):
        server.attach("main", Session.generate("uml", size=150, seed=4,
                                               repair=False))
        with InProcessClient(server) as client:
            assert client.request("check", repo="main")["warnings"] > 0
            errors = client.request("check", repo="main", severity="error")
            reply = client.request("watch", repo="main", severity="error")
            assert (reply["errors"], reply["warnings"]) == \
                (errors["errors"], 0)

    @pytest.mark.parametrize("bad", [{"severity": "fatal"},
                                     {"families": ["nope"]}],
                             ids=["severity", "families"])
    def test_watch_rejects_bad_params_before_subscribing(self, server, bad):
        state = host_corpus(server)
        eid = named_eids(state, 1)[0]
        watcher = InProcessClient(server)
        editor = InProcessClient(server)
        try:
            with pytest.raises(RemoteError) as excinfo:
                watcher.request("watch", repo="main", **bad)
            assert excinfo.value.code == "bad-params"
            assert state.watchers == {} and state.engine is None
            # editors keep committing cleanly
            result = editor.request("edit-txn", repo="main", base_epoch=0,
                                    ops=[rename_op(eid, "Unwatched")])
            assert result["epoch"] == 1
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

    def test_stats_reports_the_dependency_index_size(self, server):
        state = host_corpus(server)
        with InProcessClient(server) as client:
            client.request("check", repo="main")
            view = state.engine

            def counted():
                # counted afresh from every unit's reads
                reads = [view._deps.reads(key) for key in view._units]
                return {"units": sum(1 for found in reads if found),
                        "keys": len(set().union(*reads)),
                        "edges": sum(map(len, reads))}

            index = client.request("stats", repo="main")["engine"]["index"]
            assert index == counted() and index["edges"] > 0
            book = book_eids(state, 1)[0]
            client.request("edit-txn", repo="main", base_epoch=0, ops=[
                pages_op(book, -5),
                {"op": "delete", "element": book_eids(state, 2)[1]}])
            client.request("check", repo="main")
            moved = client.request("stats", repo="main")["engine"]["index"]
            assert moved == counted() and moved != index


# ---------------------------------------------------------------------------
# spliced frames
# ---------------------------------------------------------------------------

class RawClient:
    """A connection that keeps each frame as the bytes it writes."""

    def __init__(self, server):
        self.frames = []
        self._ids = itertools.count(1)
        self._conn = server.connect(
            lambda frame: self.frames.append(encode_frame(frame)))

    def request(self, verb, **params):
        """(request id, response line) of one request."""
        request_id = next(self._ids)
        self._conn.handle_line(
            encode_frame(request_frame(request_id, verb, params)))
        line = self.frames.pop()
        assert json.loads(line)["ok"], line
        return request_id, line


#: the check requests made after every edit
SPLICED_CHECKS = ({}, {"families": ["invariant", "wellformed", "lint"]},
                  {"severity": "error"}, {"severity": "warning"},
                  {"incremental": False})


def dict_check_frame(state, request_id, params):
    """The response as the dict path encoded it: ``to_json()`` plus
    ``repo`` and ``epoch``."""
    selection = state.selection(params.get("families"))
    if params.get("incremental", True):
        result = state.result(selection)
    else:
        result = state.session.check(selection)
    document = result.filtered(params.get("severity")).to_json()
    document["repo"] = state.name
    document["epoch"] = state.epoch
    return encode_frame(response_frame(request_id, document))


class TestSplicedFrames:
    """``check`` responses and full ``watch`` events are spliced from the
    records each diagnostic's unit rendered; every frame must be the
    bytes the dict path writes, with every record rendered afresh."""

    @staticmethod
    def edit(state, editor, watcher, ops):
        """Commit *ops*, then compare every check variant and the watch
        event the commit pushed; return the default check document."""
        _, line = editor.request("edit-txn", repo=state.name,
                                 base_epoch=state.epoch, ops=ops)
        touched = json.loads(line)["result"]["touched"]
        (event,) = watcher.frames
        watcher.frames.clear()
        served = {}
        for params in SPLICED_CHECKS:
            request_id, line = editor.request("check", repo=state.name,
                                              **params)
            assert line == dict_check_frame(state, request_id, params), \
                params
            served[json.dumps(params)] = json.loads(line)["result"]
        document = served["{}"]
        view = state.engine
        assert event == encode_frame(event_frame(
            "diagnostics", repo=state.name, epoch=state.epoch,
            touched=touched, data=view.check_result().to_json()))
        assert json.loads(event)["data"] == {
            key: value for key, value in document.items()
            if key not in ("repo", "epoch")}
        assert view.verify() == []
        return document

    @staticmethod
    def open(server, name, session):
        server.attach(name, session)
        state = server.repo(name)
        editor, watcher = RawClient(server), RawClient(server)
        watcher.request("watch", repo=name, full=True)
        return state, editor, watcher

    @pytest.mark.parametrize("package", ["demo", "uml"])
    def test_fuzzed_edits(self, server, package):
        generator = (demo_generator if package == "demo"
                     else uml_generator)(seed=7)
        root = generator.generate(150)
        state, editor, watcher = self.open(server, "main", Session(root))
        fuzzer = EditFuzzer(root, seed=17, generator=generator)
        for _ in range(8):
            # the fuzzer's kernel edits land as an edit-txn's do, under
            # both locks and in one transaction; an empty edit-txn then
            # commits the epoch and pushes the event
            with state.lock, server._edit_lock, transaction(state.model):
                fuzzer.apply_random_edits(3)
            self.edit(state, editor, watcher, [])

    def test_renames_along_a_diagnostic_path(self, server):
        state, editor, watcher = self.open(
            server, "main", Session.generate("demo", size=120, seed=3,
                                             repair=True))
        book = state.model.index().resolve_eid(book_eids(state, 1)[0])
        shelf = book.container
        library = shelf.container
        foreign = "B\u00fcch\u00df\u65e5"     # escaped on the wire
        self.edit(state, editor, watcher, [pages_op(book.eid, -3)])
        for element, name in ((book, "Renamed"), (shelf, "Shelved"),
                              (library, "Lib"), (book, foreign)):
            document = self.edit(state, editor, watcher,
                                 [rename_op(element.eid, name)])
        (record,) = [record for record in document["families"]["invariant"]
                     if record["element"].startswith("<dyn:GBook")
                     and "positive-pages" in record["message"]]
        assert record["path"] == f"Lib/Shelved/{foreign}"
        assert record["element"] == f"<dyn:GBook '{foreign}'>"

    def test_rename_of_a_related_class(self, server):
        from test_analysis_consistency import bank_model
        factory, _ = bank_model(defects=("unresolved",))
        state, editor, watcher = self.open(server, "bank",
                                           Session(factory.model))
        (finding,) = [diagnostic for diagnostic
                      in state.session.check(["consistency"]).diagnostics
                      if diagnostic.code == "XD001"]
        document = self.edit(state, editor, watcher,
                             [rename_op(finding.related.eid, "Konto")])
        (record,) = [record for record in document["families"]["consistency"]
                     if record["code"] == "XD001"]
        assert "Konto" in record["related"]
        assert record["related_path"].endswith("/Konto")


# ---------------------------------------------------------------------------
# isolation
# ---------------------------------------------------------------------------

class TestIsolation:
    """Asserted on the repository's shared view."""

    def test_other_repo_edits_never_invalidate_my_engine(self, server):
        alpha = host_corpus(server, "alpha", size=60, seed=4)
        beta = host_corpus(server, "beta", size=60, seed=5)
        reader = InProcessClient(server)
        editor = InProcessClient(server)
        try:
            reader.request("check", repo="alpha")
            view = alpha.engine
            baseline = view.stats.invalidations
            editor.request(
                "edit-txn", repo="beta", base_epoch=0,
                ops=[rename_op(named_eids(beta, 1)[0], "BetaEdit")])
            assert view.stats.invalidations == baseline
            assert not view._dirty
        finally:
            reader.close()
            editor.close()

    def test_same_repo_edit_invalidates_precisely(self, server):
        state = host_corpus(server, "alpha", size=60, seed=4)
        reader = InProcessClient(server)
        editor = InProcessClient(server)
        try:
            reader.request("check", repo="alpha")
            view = state.engine
            baseline = view.stats.invalidations
            editor.request(
                "edit-txn", repo="alpha", base_epoch=0,
                ops=[rename_op(named_eids(state, 1)[0], "AlphaEdit")])
            # correctness: the committed edit marks the affected units
            # dirty, and only those
            assert 0 < len(view._dirty) < view.unit_count()
            assert view.stats.invalidations - baseline == len(view._dirty)
            document = reader.request("check", repo="alpha")
            assert document["epoch"] == 1
            assert not view._dirty
        finally:
            reader.close()
            editor.close()

    def test_concurrent_checks_of_two_repositories(self, server):
        """Two connections edit and check two repositories at once.  The
        kernel's read hook is process-wide, so a check that overlapped
        the other repository's work would record its elements as
        external reads, or lose its own hook."""
        states = [host_corpus(server, name, size=600, seed=seed)
                  for name, seed in (("left", 5), ("right", 6))]
        rounds = 40
        barrier = threading.Barrier(len(states))
        errors = []

        def worker(state):
            books = book_eids(state, rounds)
            shelf = next(element.eid for element in state.model.all_elements()
                         if element.meta.name == "GShelf")
            try:
                with InProcessClient(server) as client:
                    barrier.wait(timeout=30)
                    for round_ in range(rounds):
                        client.request(
                            "edit-txn", repo=state.name, base_epoch=round_,
                            ops=[pages_op(books[round_ % len(books)],
                                          round_ - 5),
                                 {"op": "create", "metaclass": "GBook",
                                  "parent": shelf, "feature": "books",
                                  "attrs": {"name": f"b{round_}"}}])
                        client.request("check", repo=state.name)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(state,))
                   for state in states]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for state, other in (states, reversed(states)):
            view = state.engine
            others = {id(element) for element in other.model.all_elements()}
            assert not others & set(view._external)
            with InProcessClient(server) as client:
                served = client.request("check", repo=state.name)
            assert served["epoch"] == rounds
            fresh = state.session.check().to_json()
            assert diagnostic_multiset(served) == diagnostic_multiset(fresh)


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
