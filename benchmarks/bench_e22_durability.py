"""E22 — durability must be near-free, recovery fast, retries bounded.

The durable server (``repro.server.durability``) fsyncs every committed
edit-txn to a per-repo write-ahead log before acknowledging the epoch
bump.  The promises to measure:

* **WAL overhead** — the E20 editor workload (edit-txn + warm
  incremental check per round) with the WAL on vs. off: the fsync must
  amortize against real checking work to <=10% wall overhead on the
  full-size corpus (quick mode uses a corpus small enough that the
  fsync is a visible fraction of a ~3 ms round, so it only sanity-bounds
  the ratio);
* **recovery time vs. log length** — replaying K logged txns at server
  start must scale linearly in K and stay interactive at
  hundreds of records, ending byte-identical to the pre-crash state;
* **retry tail latency** — a ``RetryPolicy`` client facing 5% injected
  transient network faults must converge on every request with a
  bounded p99 (backoff sleeps, not timeouts, dominate the tail);
* **compaction cost** (printed, not gated) — one snapshot + log rewrite
  at each corpus size: median wall time, traced Python allocation peak
  and snapshot bytes.

Set ``REPRO_BENCH_QUICK=1`` (CI smoke) to run reduced corpora and
round counts.
"""

import os
import shutil
import statistics
import tempfile
import time
import tracemalloc

from repro import faults
from repro.server import (InProcessClient, ModelServer, RemoteError,
                          RetryPolicy, TcpClient, TransportError, serve_tcp)
from repro.server.durability import read_records
from repro.session import Session, canonical_check_document

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
CORPUS_SIZE = 2_000 if QUICK else 20_000
WORKLOAD_ROUNDS = 40 if QUICK else 120
LOG_LENGTHS = [20, 80] if QUICK else [50, 200, 800]
RETRY_REQUESTS = 40 if QUICK else 200
COMPACT_SIZES = [2_000] if QUICK else [10_000, 20_000]
# quick corpora are small enough that a ~0.2 ms fsync is a visible
# fraction of each round; the 10% acceptance target is for full size
OVERHEAD_CEILING = 0.50 if QUICK else 0.10


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


def _percentile(values, q):
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(q * (len(ranked) - 1) + 0.5))]


def _editor_rounds(server, rounds):
    """E20's editor loop: edit-txn + warm incremental check per round."""
    eids = _named_eids(server.repo("main").session, 32)
    latencies = []
    with InProcessClient(server) as client:
        client.request("check", repo="main")  # warm the engine
        for index in range(rounds):
            ops = [{"op": "set", "element": eids[index % len(eids)],
                    "feature": "name", "value": f"bench-{index}"}]
            started = time.perf_counter()
            client.request("edit-txn", repo="main", base_epoch=index,
                           ops=ops)
            client.request("check", repo="main")
            latencies.append(time.perf_counter() - started)
    return latencies


def test_e22_wal_overhead_on_editor_workload():
    print(f"\nE22: WAL on/off, E20 editor workload "
          f"({CORPUS_SIZE:,} elements, {WORKLOAD_ROUNDS} rounds)")
    print(f"{'wal':>6} {'rounds/s':>9} {'p50 ms':>8} {'p99 ms':>8} "
          f"{'wall s':>7}")
    walls = {}
    for wal in (False, True):
        wal_dir = tempfile.mkdtemp(prefix="repro-bench-wal-") if wal \
            else None
        server = ModelServer(wal_dir=wal_dir)
        session = Session.generate("demo", size=CORPUS_SIZE, seed=3,
                                   repair=True)
        server.attach("main", session)
        latencies = _editor_rounds(server, WORKLOAD_ROUNDS)
        state = server.repo("main")
        # lossless: every acknowledged txn bumped the epoch, and with
        # the WAL on every one of them was logged before the ack
        assert state.epoch == WORKLOAD_ROUNDS
        if wal:
            stats = state.wal.stats()
            assert stats["appended"] == WORKLOAD_ROUNDS
        server.shutdown()
        if wal_dir:
            shutil.rmtree(wal_dir, ignore_errors=True)
        walls[wal] = sum(latencies)
        print(f"{'on' if wal else 'off':>6} "
              f"{len(latencies) / walls[wal]:>9,.1f} "
              f"{_percentile(latencies, 0.50) * 1e3:>8.2f} "
              f"{_percentile(latencies, 0.99) * 1e3:>8.2f} "
              f"{walls[wal]:>7.2f}")
    overhead = walls[True] / walls[False] - 1.0
    print(f"  WAL overhead: {overhead:+.1%} "
          f"(ceiling {OVERHEAD_CEILING:.0%}{' quick' if QUICK else ''})")
    assert overhead <= OVERHEAD_CEILING


def test_e22_recovery_time_vs_log_length():
    size = 1_000 if QUICK else 5_000
    print(f"\nE22: recovery time vs. WAL length ({size:,} elements)")
    print(f"{'txns':>6} {'recover ms':>11} {'ms/txn':>8} {'identical':>10}")
    for txns in LOG_LENGTHS:
        wal_dir = tempfile.mkdtemp(prefix="repro-bench-recover-")
        # compaction off: the whole history stays in the log, so the
        # restart below replays exactly `txns` records
        server = ModelServer(wal_dir=wal_dir, wal_compact_every=10 ** 6)
        session = Session.generate("demo", size=size, seed=5, repair=True)
        server.attach("main", session)
        eids = _named_eids(session, 32)
        with InProcessClient(server) as client:
            for index in range(txns):
                client.request("edit-txn", repo="main", base_epoch=index,
                               ops=[{"op": "set",
                                     "element": eids[index % len(eids)],
                                     "feature": "name",
                                     "value": f"r-{index}"}])
        before = canonical_check_document(
            server.repo("main").session.check().to_json())
        server.shutdown()

        started = time.perf_counter()
        recovered = ModelServer(wal_dir=wal_dir)
        elapsed = time.perf_counter() - started
        state = recovered.repo("main")
        after = canonical_check_document(state.session.check().to_json())
        identical = after == before and state.epoch == txns
        print(f"{txns:>6} {elapsed * 1e3:>11.1f} "
              f"{elapsed / txns * 1e3:>8.3f} {str(identical):>10}")
        assert identical
        assert recovered.recovered == ["main"]
        recovered.shutdown()
        shutil.rmtree(wal_dir, ignore_errors=True)


def test_e22_retry_tail_latency_under_faults():
    rate = 0.05
    session = Session.generate("demo", size=1_000 if QUICK else 5_000,
                               seed=9, repair=True)
    server = ModelServer()
    server.attach("main", session)
    eids = _named_eids(session, 32)
    tcp = serve_tcp(server, "127.0.0.1", 0)
    print(f"\nE22: retry tail latency, {rate:.0%} injected net faults "
          f"({RETRY_REQUESTS} edit-txns)")
    try:
        policy = RetryPolicy(attempts=10, base_delay=0.01, max_delay=0.1)
        latencies = []
        plan = faults.FaultPlan(seed=1234, rate=rate,
                                sites=["net.read", "net.write"])
        with faults.injected(plan), \
                TcpClient("127.0.0.1", tcp.address[1], timeout=5.0,
                          retry=policy) as client:
            epoch = 0
            for index in range(RETRY_REQUESTS):
                ops = [{"op": "set", "element": eids[index % len(eids)],
                        "feature": "name", "value": f"retry-{index}"}]
                started = time.perf_counter()
                try:
                    epoch = client.request("edit-txn", repo="main",
                                           base_epoch=epoch,
                                           ops=ops)["epoch"]
                except RemoteError as error:
                    # a lost ack means the replayed txn conflicts; the
                    # policy refreshed base_epoch, so this is the rare
                    # duplicate-apply landing: resync and carry on
                    assert error.code == "conflict"
                    epoch = error.data["current_epoch"]
                latencies.append(time.perf_counter() - started)
        state = server.repo("main")
        print(f"  {len(latencies)} requests, {policy.retried} retries, "
              f"{plan.fault_count} faults fired")
        print(f"  p50 {_percentile(latencies, 0.50) * 1e3:.2f} ms   "
              f"p99 {_percentile(latencies, 0.99) * 1e3:.2f} ms   "
              f"max {max(latencies) * 1e3:.2f} ms")
        # every request converged (no TransportError escaped the
        # policy), and the books balance on the server
        assert len(latencies) == RETRY_REQUESTS
        assert state.epoch == state.edits_applied
        assert state.epoch >= RETRY_REQUESTS - policy.retried
    except TransportError as error:  # pragma: no cover - diagnostics
        raise AssertionError(
            f"retry policy failed to converge: {error}") from error
    finally:
        tcp.shutdown()


def test_e22_compaction_cost():
    """Print only: one WAL compaction (snapshot written and sealed, log
    rewritten to its origin record) over the unrepaired demo corpus."""
    print("\nE22: compaction cost (median of 3 compactions, traced peak "
          "of a 4th)")
    print(f"{'elements':>9} {'compact ms':>11} {'peak MiB':>9} "
          f"{'snapshot B':>11}")
    for size in COMPACT_SIZES:
        wal_dir = tempfile.mkdtemp(prefix="repro-bench-compact-")
        server = ModelServer(wal_dir=wal_dir)
        session = Session.generate("demo", size=size, seed=0, repair=False)
        server.attach("main", session)
        wal = server.repo("main").wal
        walls = []
        for epoch in range(1, 4):
            started = time.perf_counter()
            wal.compact(session.model, epoch)
            walls.append(time.perf_counter() - started)
        tracemalloc.start()
        try:
            wal.compact(session.model, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        snapshot = wal.snapshot_path(read_records(wal.path)[0][0]["snapshot"])
        print(f"{size:>9,} {statistics.median(walls) * 1e3:>11.1f} "
              f"{peak / 2 ** 20:>9.1f} {os.path.getsize(snapshot):>11,}")
        server.shutdown()
        shutil.rmtree(wal_dir, ignore_errors=True)
