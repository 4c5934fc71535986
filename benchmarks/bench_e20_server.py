"""E20 — the multi-tenant model server must keep concurrent editors
fast, isolated, and lossless.

The paper's workflow is a team concurrently editing and re-checking one
shared model repository.  The server's promises to measure:

* **throughput/tail** — mixed edit-txn + check traffic from 1/4/8
  concurrent editors over a 10^5-element generated repository: checks
  ride the repository's one shared incremental view, so check
  throughput and p99 latency must stay interactive while writers
  commit;
* **lossless conflicts** — with every editor racing on the same epoch,
  100% of edit-txns are either applied or rejected with a replayable
  ``conflict`` carrying ``current_epoch`` — the retry accounting must
  balance exactly (nothing silently dropped);
* **isolation** — edits to a different repository never invalidate a
  repository's view, and every connection checking it shares that one
  view instead of building its own.

Set ``REPRO_BENCH_QUICK=1`` (CI smoke) to run a reduced corpus and
editor band.
"""

import threading
import time

from repro.server import InProcessClient, ModelServer, RemoteError
from repro.session import Session
from workloads import QUICK

CORPUS_SIZE = 2_000 if QUICK else 100_000
EDITOR_COUNTS = [1, 2] if QUICK else [1, 4, 8]
EDITS_PER_EDITOR = 8 if QUICK else 25

_corpus_cache = {}


def _corpus_session(size=CORPUS_SIZE, seed=0):
    """One generated + repaired corpus per size, reused across scenarios."""
    if size not in _corpus_cache:
        started = time.perf_counter()
        session = Session.generate("demo", size=size, seed=seed,
                                   repair=True)
        elapsed = time.perf_counter() - started
        print(f"\n  [corpus: {session.model.size():,} elements "
              f"generated+repaired in {elapsed:.1f}s]")
        _corpus_cache[size] = session
    return _corpus_cache[size]


def _named_eids(session, limit):
    out = []
    for root in session.model.roots:
        for element in [root] + list(root.all_contents()):
            feature = element.meta.all_features().get("name")
            if feature is not None and not feature.many:
                out.append(element.eid)
            if len(out) >= limit:
                return out
    return out


def _editor_worker(server, repo, eids, tag, rounds, barrier, results):
    applied = conflicts = 0
    check_latencies = []
    with InProcessClient(server) as client:
        epoch = client.request("check", repo=repo)["epoch"]  # warm view
        barrier.wait()
        for index in range(rounds):
            ops = [{"op": "set",
                    "element": eids[(hash(tag) + index) % len(eids)],
                    "feature": "name", "value": f"{tag}-{index}"}]
            while True:
                try:
                    outcome = client.request("edit-txn", repo=repo,
                                             base_epoch=epoch, ops=ops)
                    epoch = outcome["epoch"]
                    applied += 1
                    break
                except RemoteError as error:
                    assert error.code == "conflict", error.code
                    assert error.data["replayable"] is True
                    assert error.data["ops"] == ops
                    conflicts += 1
                    epoch = error.data["current_epoch"]
            started = time.perf_counter()
            document = client.request("check", repo=repo)
            check_latencies.append(time.perf_counter() - started)
            assert document["epoch"] >= epoch
    results[tag] = (applied, conflicts, check_latencies)


def _percentile(values, q):
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(q * (len(ranked) - 1) + 0.5))]


def test_e20_concurrent_editors_throughput_and_tail():
    session = _corpus_session()
    eids = _named_eids(session, 32)
    print("\nE20: mixed edit-txn + check traffic, shared repository "
          f"({session.model.size():,} elements, "
          f"{EDITS_PER_EDITOR} edits/editor)")
    print(f"{'editors':>8} {'applied':>8} {'conflicts':>10} "
          f"{'checks/s':>9} {'p50 ms':>8} {'p99 ms':>8} {'wall s':>7}")
    for editors in EDITOR_COUNTS:
        server = ModelServer()
        server.attach("main", session)
        state = server.repo("main")
        results = {}
        barrier = threading.Barrier(editors)
        threads = [threading.Thread(
            target=_editor_worker,
            args=(server, "main", eids, f"e{editors}w{n}",
                  EDITS_PER_EDITOR, barrier, results))
            for n in range(editors)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        server.shutdown()

        applied = sum(a for a, _, _ in results.values())
        conflicts = sum(c for _, c, _ in results.values())
        latencies = [lat for _, _, ls in results.values() for lat in ls]
        checks = len(latencies)
        print(f"{editors:>8} {applied:>8} {conflicts:>10} "
              f"{checks / wall:>9,.1f} "
              f"{_percentile(latencies, 0.50) * 1e3:>8.2f} "
              f"{_percentile(latencies, 0.99) * 1e3:>8.2f} "
              f"{wall:>7.2f}")

        # lossless conflicts: every edit-txn applied, every rejection
        # was a replayable conflict that then applied on retry
        assert applied == editors * EDITS_PER_EDITOR
        assert state.edits_applied == applied
        assert state.edits_rejected == conflicts
        assert state.epoch == applied


def test_e20_shared_view_and_cross_repo_isolation():
    print("\nE20: one shared view per repository, cross-repo isolation")
    quiet = Session.generate("demo", size=500 if QUICK else 5_000,
                             seed=1, repair=True)
    busy = Session.generate("demo", size=500 if QUICK else 5_000,
                            seed=2, repair=True)
    server = ModelServer()
    server.attach("quiet", quiet)
    server.attach("busy", busy)
    eids = _named_eids(busy, 8)
    reader = InProcessClient(server)
    editors = [InProcessClient(server) for _ in range(3)]
    try:
        reader.request("check", repo="quiet")
        view = server.repo("quiet").engine
        baseline = (view.stats.invalidations, view.stats.unit_runs)
        epoch = 0
        for index, client in enumerate(editors * 4):
            while True:
                try:
                    epoch = client.request(
                        "edit-txn", repo="busy", base_epoch=epoch,
                        ops=[{"op": "set", "element": eids[index % 8],
                              "feature": "name",
                              "value": f"busy-{index}"}])["epoch"]
                    break
                except RemoteError as error:
                    epoch = error.data["current_epoch"]
            client.request("check", repo="busy")
        # cross-repo: the busy repo's edits and checks never touched the
        # quiet repo's view
        after = (view.stats.invalidations, view.stats.unit_runs)
        print(f"  quiet repo view: invalidations/runs "
              f"{baseline} -> {after} across "
              f"{server.repo('busy').edits_applied} busy-repo edits")
        assert after == baseline
        assert not view._dirty
        # shared: every editor's checks rode the busy repo's one view
        views = server.repo("busy").summary()["views"]
        assert views == 1
        print(f"  {len(editors)} editor connections -> "
              f"{views} shared view")
    finally:
        reader.close()
        for client in editors:
            client.close()
        server.shutdown()
