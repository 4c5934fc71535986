"""Chaos suite: seeded fault injection across every protected layer.

Each test arms a deterministic :class:`repro.faults.FaultPlan` against
one layer's probe site and asserts the layer's robustness contract:

* ``kernel.write``  — an aborted transaction restores the exact
  pre-transaction model (``repro.mof.compare``);
* ``transform.rule`` — the failure policy skips/retries with per-rule
  rollback and the run survives;
* ``checker.run``   — the watch loop quarantines crashing checkers and
  keeps revalidating instead of dying;
* ``io.*``          — an interrupted save never corrupts the previous
  generation on disk;
* ``wal.append``    — a failed write-ahead append rolls the edit back
  in memory *and* on disk, and the replay commits durably;
* ``wal.replay``    — interrupted crash recovery is retryable and
  idempotent;
* ``net.*``         — socket faults kill single connections, never the
  server, and a RetryPolicy client converges anyway.

Every fault injected anywhere in the module is tallied; the final test
enforces the chaos budget (>= 500 injected faults per run), topping up
with extra kernel-transaction rounds if the parametrised cases came in
under — so the budget holds for any seed drift, and every top-up round
is itself a verified abort/restore cycle.
"""

from __future__ import annotations

import collections
import os
import shutil

import pytest

from repro.generate import EditFuzzer, demo_generator, demo_package, \
    uml_generator
from repro import faults
from repro.mof import compare, transaction
from repro.mof.repository import Model
from repro.xmi import load_model, read_json, save_model, write_json

#: module-wide tally of injected faults, by probe site
TALLY = collections.Counter()
CHAOS_BUDGET = 500

#: CI's chaos matrix sets this (0/1/2) so each leg replays a different
#: deterministic fault schedule against the same workloads
SEED_OFFSET = int(os.environ.get("REPRO_CHAOS_SEED_OFFSET", "0")) * 1000


def _plan_seed(n: int) -> int:
    return n + SEED_OFFSET


def _tally(plan):
    for site, _ordinal in plan.injected:
        TALLY[site] += 1
    return plan.fault_count


def _snapshot_lens(root, packages):
    """Clone *root* through the JSON round trip — the equality lens that
    is insensitive to serializer-invisible state (dangling refs etc.)."""
    model = Model("urn:test:chaos")
    model.add_root(root)
    try:
        return read_json(write_json(model), packages).roots[0]
    finally:
        model.remove_root(root)


def _chaos_round(root, generator, packages, plan, edits=40, seed=0):
    """One transaction of fuzzed edits under *plan*.

    Returns True when a fault aborted the transaction; in that case the
    model has been verified compare-identical to its pre-round state.
    """
    before = _snapshot_lens(root, packages)
    fuzzer = EditFuzzer(root, seed=seed, generator=generator)
    try:
        with faults.injected(plan):
            with transaction():
                fuzzer.apply_random_edits(edits)
    except faults.InjectedFault:
        after = _snapshot_lens(root, packages)
        result = compare(before, after)
        assert result.identical, (
            f"aborted transaction did not restore the model "
            f"(plan {plan!r}):\n{result}")
        return True
    return False


# ---------------------------------------------------------------------------
# Kernel: aborted transactions restore the model
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(25))
def test_kernel_write_chaos(seed):
    generator = demo_generator(seed)
    packages = [demo_package()]
    root = generator.generate(15 + seed % 10)
    aborted = 0
    for round_no in range(3):
        plan = faults.FaultPlan(seed=_plan_seed(seed * 101 + round_no),
                                rate=0.12,
                                sites=["kernel.write"])
        if _chaos_round(root, generator, packages, plan,
                        seed=seed * 7 + round_no):
            aborted += 1
        _tally(plan)
    # rate 0.12 over ~40 edits: each round all but certainly aborts
    assert aborted >= 1


def test_kernel_fault_leaves_single_operation_unapplied():
    """Per-operation atomicity: the probe fires before the mutation, so
    even without a transaction a faulted op changes nothing."""
    from kernel_fixture import TBook, TLibrary
    library = TLibrary(name="lib")
    book = TBook(name="b")
    library.books.append(book)
    plan = faults.FaultPlan(seed=0, rate=1.0, sites=["kernel.write"])
    with faults.injected(plan):
        with pytest.raises(faults.InjectedFault):
            book.pages = 5
        with pytest.raises(faults.InjectedFault):
            library.books.remove(book)
    _tally(plan)
    assert book.pages == 100
    assert list(library.books) == [book]


# ---------------------------------------------------------------------------
# Transform: failure policies over faulting rules
# ---------------------------------------------------------------------------

def _copy_transformation():
    from repro.transform import Transformation, rule
    from repro.uml import Clazz

    @rule(Clazz, name="copy-class")
    def copy_class(source, ctx):
        return Clazz(name=(source.name or "anon") + "_psm")

    return Transformation("chaos-copy", [copy_class])


@pytest.mark.parametrize("seed", range(5))
def test_transform_skip_policy_survives_faults(seed):
    from repro.transform import SKIP
    generator = uml_generator(seed)
    root = generator.generate(40)
    transformation = _copy_transformation()
    clean = transformation.run(root)
    plan = faults.FaultPlan(seed=_plan_seed(seed), rate=0.35,
                            sites=["transform.rule"])
    with faults.injected(plan):
        result = transformation.run(root, failure_policy=SKIP)
    count = _tally(plan)
    # every fault became one skip diagnostic, nothing else was lost
    assert len(result.failures) == count
    assert all(d.code == "rule-failed" for d in result.failures)
    assert len(result.trace) == len(clean.trace) - count
    if count:
        assert not result.ok


def test_transform_fail_fast_reraises_and_rolls_back():
    generator = uml_generator(99)
    root = generator.generate(30)
    transformation = _copy_transformation()
    plan = faults.FaultPlan(seed=0, at={"transform.rule": [2]})
    with faults.injected(plan):
        with pytest.raises(faults.InjectedFault):
            transformation.run(root)
    _tally(plan)


def test_transform_retry_policy_defeats_transient_fault():
    from repro.transform import FailurePolicy
    generator = uml_generator(7)
    root = generator.generate(30)
    transformation = _copy_transformation()
    clean = transformation.run(root)
    # fault only the first firing: a single retry must recover fully
    plan = faults.FaultPlan(seed=0, at={"transform.rule": [1]})
    with faults.injected(plan):
        result = transformation.run(
            root, failure_policy=FailurePolicy(mode="retry", retries=1))
    _tally(plan)
    assert result.ok
    assert len(result.trace) == len(clean.trace)


def test_transform_retry_exhaustion_falls_through_to_skip():
    from repro.transform import FailurePolicy
    generator = uml_generator(7)
    root = generator.generate(30)
    transformation = _copy_transformation()
    # three consecutive firings fault: retries=1 exhausts on ordinal 1+2
    plan = faults.FaultPlan(seed=0, at={"transform.rule": [1, 2]})
    with faults.injected(plan):
        result = transformation.run(
            root, failure_policy=FailurePolicy(mode="retry", retries=1,
                                               then="skip"))
    _tally(plan)
    assert len(result.failures) == 1
    assert "rule-failed" == result.failures[0].code


# ---------------------------------------------------------------------------
# Checkers: the watch loop quarantines instead of dying
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_checker_chaos_quarantines_and_recovers(seed):
    from repro.incremental import IncrementalEngine, report_signature
    from repro.mof.validate import validate_tree
    generator = demo_generator(seed)
    root = generator.generate(35)
    engine = IncrementalEngine(root, wellformed=False, lint=False)
    fuzzer = EditFuzzer(root, seed=seed, generator=generator)
    plan = faults.FaultPlan(seed=_plan_seed(seed), rate=0.25,
                            sites=["checker.run"])
    with faults.injected(plan):
        for _ in range(4):
            engine.revalidate()          # must never raise
            fuzzer.apply_random_edits(3)
    count = _tally(plan)
    assert count > 0
    assert engine.stats.checker_failures == count
    assert engine.quarantined()
    assert engine.quarantine_report()
    # disarmed, the quarantined units come back as their backoff expires
    # and the diagnostics reconverge on the from-scratch oracle
    for _ in range(80):
        if not engine.quarantined():
            break
        engine.revalidate()
    assert not engine.quarantined()
    assert report_signature(engine.revalidate()) \
        == report_signature(validate_tree(root))
    engine.detach()


def test_session_watch_reports_quarantine():
    from repro.session import Session
    generator = demo_generator(11)
    root = generator.generate(25)
    plan = faults.FaultPlan(seed=_plan_seed(3), rate=0.4,
                            sites=["checker.run"])
    with faults.injected(plan):
        # watch() primes the engine: crashes hit during the first pass
        engine = Session(root).watch(families=("structural", "invariant"))
    _tally(plan)
    report = engine.quarantine_report()
    assert report
    assert all("InjectedFault" in line and "retry at pass" in line
               for line in report)
    engine.detach()


# ---------------------------------------------------------------------------
# IO: interrupted saves never corrupt the previous generation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_io_chaos_interrupted_saves(seed, tmp_path):
    packages = [demo_package()]
    generator = demo_generator(seed)
    root = generator.generate(12)
    model = Model("urn:test:iochaos")
    model.add_root(root)
    path = tmp_path / "chaos.json"
    save_model(model, path)
    committed = _snapshot_lens(root, packages)
    fuzzer = EditFuzzer(root, seed=seed, generator=generator)
    plan = faults.FaultPlan(seed=_plan_seed(seed * 13), rate=0.35,
                            sites=["io"])
    interrupted = 0
    for _ in range(12):
        fuzzer.apply_random_edits(4)
        try:
            with faults.injected(plan):
                save_model(model, path)
        except faults.InjectedFault:
            interrupted += 1
            # disk still holds the last successful generation
            loaded = load_model(path, [demo_package()])
            result = compare(committed, loaded.roots[0])
            assert result.identical, str(result)
        else:
            committed = _snapshot_lens(root, packages)
    _tally(plan)
    assert interrupted > 0
    # and the file never went corrupt or lost its seal
    final = load_model(path, [demo_package()])
    assert compare(committed, final.roots[0]).identical


# ---------------------------------------------------------------------------
# Server durability: WAL appends/replay and the TCP transport
# ---------------------------------------------------------------------------

def _server_corpus(server, seed, size=50):
    from repro.session import Session
    session = Session.generate("demo", size=size, seed=seed, repair=True)
    server.attach("main", session)
    state = server.repo("main")
    eids = []
    for root in state.model.roots:
        for element in [root] + list(root.all_contents()):
            feature = element.meta.all_features().get("name")
            if feature is not None and not feature.many:
                eids.append(element.eid)
    return state, eids


@pytest.mark.parametrize("seed", range(4))
def test_wal_append_chaos(seed, tmp_path):
    """A faulted WAL append rolls the edit back on disk *and* in memory;
    the replay then commits, and recovery yields exactly the
    acknowledged transactions — byte-identical check documents."""
    from repro.server import InProcessClient, ModelServer, RemoteError
    from repro.session import canonical_check_document

    server = ModelServer(wal_dir=str(tmp_path))
    state, eids = _server_corpus(server, seed)
    plan = faults.FaultPlan(seed=_plan_seed(seed * 23), rate=0.3,
                            sites=["wal.append"],
                            at={"wal.append": [2, 5]})
    epoch = 0
    with InProcessClient(server) as client:
        with faults.injected(plan):
            for i in range(12):
                ops = [{"op": "set", "element": eids[i % len(eids)],
                        "feature": "name", "value": f"chaos{seed}-{i}"}]
                while True:
                    try:
                        result = client.request(
                            "edit-txn", repo="main",
                            base_epoch=epoch, ops=ops)
                        epoch = result["epoch"]
                        break
                    except RemoteError as error:
                        assert error.code == "txn-failed"
                        assert error.data["replayable"] is True
                        assert state.epoch == epoch   # rolled back
    count = _tally(plan)
    assert count >= 2
    assert epoch == 12                    # every edit eventually landed
    live = canonical_check_document(state.session.check().to_json())
    recovered = ModelServer(wal_dir=str(tmp_path))
    again = recovered.repo("main")
    assert again.epoch == 12
    assert canonical_check_document(
        again.session.check().to_json()) == live


@pytest.mark.parametrize("seed", range(2))
def test_wal_compaction_chaos(seed, tmp_path):
    """``io.*`` faults inside compaction never fail a committed edit-txn:
    every one is acknowledged, a copy of the WAL directory taken after
    each failed compaction recovers the live document at that epoch, and
    a final clean compaction leaves one snapshot generation and no temp
    file."""
    from repro.server import InProcessClient, ModelServer
    from repro.server.durability import SNAPSHOT_MARKER
    from repro.session import canonical_check_document

    wal_dir = tmp_path / "wal"
    server = ModelServer(wal_dir=str(wal_dir), wal_compact_every=2)
    state, eids = _server_corpus(server, seed, size=40)
    plan = faults.FaultPlan(seed=_plan_seed(seed * 29), rate=0.2,
                            sites=["io.write", "io.write.partial",
                                   "io.replace"])
    failures = 0
    with InProcessClient(server) as client:
        def edit(i):
            result = client.request(
                "edit-txn", repo="main", base_epoch=i,
                ops=[{"op": "set", "element": eids[i % len(eids)],
                      "feature": "name", "value": f"compact{seed}-{i}"}])
            assert result["epoch"] == i + 1

        for i in range(20):
            with faults.injected(plan):
                edit(i)
            if state.wal.compact_failures == failures:
                continue
            failures = state.wal.compact_failures
            live = canonical_check_document(
                state.session.check().to_json())
            copy = tmp_path / f"after{i}"
            shutil.copytree(str(wal_dir), str(copy))
            recovered = ModelServer(wal_dir=str(copy))
            again = recovered.repo("main")
            assert again.epoch == i + 1
            assert canonical_check_document(
                again.session.check().to_json()) == live
            recovered.shutdown()
        compactions = state.wal.compactions
        epoch = 20
        while state.wal.compactions == compactions:
            edit(epoch)
            epoch += 1
    count = _tally(plan)
    assert count >= 1 and failures >= 1
    names = os.listdir(str(wal_dir))
    assert len([n for n in names if SNAPSHOT_MARKER in n]) == 1
    assert not [n for n in names if ".tmp." in n]


def test_wal_replay_chaos(tmp_path):
    """Recovery interrupted by injected faults is retryable and
    idempotent: once a retry gets through, the result is identical to a
    never-faulted recovery."""
    from repro.server import InProcessClient, ModelServer
    from repro.session import canonical_check_document

    server = ModelServer(wal_dir=str(tmp_path))
    state, eids = _server_corpus(server, seed=2)
    with InProcessClient(server) as client:
        for i in range(5):
            client.request("edit-txn", repo="main", base_epoch=i,
                           ops=[{"op": "set", "element": eids[i],
                                 "feature": "name", "value": f"r{i}"}])
    want = canonical_check_document(state.session.check().to_json())
    # firings accumulate across attempts: attempt 1 dies at its 2nd
    # replayed txn, attempt 2 (firings 6-10) at its 2nd as well
    plan = faults.FaultPlan(seed=0, at={"wal.replay": [2, 7]})
    attempts = 0
    with faults.injected(plan):
        while True:
            attempts += 1
            try:
                recovered = ModelServer(wal_dir=str(tmp_path))
                break
            except faults.InjectedFault:
                assert attempts < 10
    assert _tally(plan) == 2
    assert attempts == 3
    got = recovered.repo("main")
    assert got.epoch == 5
    assert canonical_check_document(
        got.session.check().to_json()) == want


@pytest.mark.parametrize("seed", range(3))
def test_net_chaos_retrying_client_converges(seed):
    """``net.read``/``net.write`` faults kill individual connections,
    never the server; a RetryPolicy client reconnects and every edit it
    saw acknowledged is present afterwards."""
    import random as random_module

    from repro.server import (ModelServer, RemoteError, RetryPolicy,
                              TcpClient, TcpServer, TransportError)

    server = ModelServer()
    state, eids = _server_corpus(server, seed, size=40)
    tcp = TcpServer(server).start()
    host, port = tcp.address
    plan = faults.FaultPlan(seed=_plan_seed(seed * 31), rate=0.10,
                            sites=["net.read", "net.write"],
                            at={"net.read": [3]})
    acked = {}
    gave_up = 0
    try:
        with faults.injected(plan):
            client = TcpClient(
                host, port, timeout=5.0,
                retry=RetryPolicy(attempts=10, base_delay=0.01,
                                  max_delay=0.05,
                                  rng=random_module.Random(seed)))
            epoch = state.epoch
            for i in range(15):
                eid = eids[i]
                value = f"net{seed}-{i}"
                try:
                    result = client.request(
                        "edit-txn", repo="main", base_epoch=epoch,
                        ops=[{"op": "set", "element": eid,
                              "feature": "name", "value": value}])
                    epoch = result["epoch"]
                    acked[eid] = value
                except (TransportError, RemoteError):
                    gave_up += 1          # never acknowledged: no claim
                    epoch = state.epoch   # resync for the next edit
            try:
                client.close()
            except Exception:
                pass
        count = _tally(plan)
        assert count >= 1
        # the server survived the chaos: a clean client still works,
        # and every acknowledged edit is in the model
        with TcpClient(host, port) as probe:
            document = probe.request("check", repo="main")
            assert document["repo"] == "main"
        for eid, value in acked.items():
            element = state.model.index().resolve_eid(eid)
            assert element.eget("name") == value, (
                f"acknowledged edit lost (seed {seed}, eid {eid})")
        assert len(acked) + gave_up == 15
        assert state.epoch == state.edits_applied
    finally:
        tcp.shutdown()


# ---------------------------------------------------------------------------
# The chaos budget
# ---------------------------------------------------------------------------

def test_chaos_budget_met():
    """>= 500 faults injected per run, topping up with extra verified
    kernel abort/restore rounds if the fixed cases fell short."""
    packages = [demo_package()]
    extra_seed = 50_000
    while sum(TALLY.values()) < CHAOS_BUDGET and extra_seed < 51_000:
        generator = demo_generator(extra_seed)
        root = generator.generate(15)
        plan = faults.FaultPlan(seed=_plan_seed(extra_seed), rate=0.2,
                                sites=["kernel.write"])
        _chaos_round(root, generator, packages, plan, edits=25,
                     seed=extra_seed)
        _tally(plan)
        extra_seed += 1
    total = sum(TALLY.values())
    assert total >= CHAOS_BUDGET, dict(TALLY)
    # the tally spans every protected layer, not just one
    assert {"kernel.write", "transform.rule", "checker.run",
            "wal.append", "wal.replay"} <= set(TALLY)
    assert any(site.startswith("io.") for site in TALLY)
    assert any(site.startswith("net.") for site in TALLY)
