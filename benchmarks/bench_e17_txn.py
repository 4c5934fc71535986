"""E17 — transactional editing must be cheap, rollback must be total.

Claim: model edits in a real toolchain arrive as bursts (a rule
application, a user gesture, a refactoring step) that must either land
completely or not at all.  The journal-of-inverses design
(:mod:`repro.mof.txn`) taps the notification stream the kernel already
emits, so the promise to measure is twofold: journaling inside a
transaction costs almost nothing on top of raw edits (<= 10% throughput
overhead), and an aborted transaction restores the model *every* time,
at a cost proportional to the work being undone — including under
injected kernel faults.

Measured: median wall-clock of fuzzed edit bursts raw vs inside a
committed transaction (identical seeded edit sequences, interleaved
arms to cancel drift); rollback latency against journal size; and the
recovery rate over a seeded chaos run (must be 100%).

Set ``REPRO_BENCH_QUICK=1`` (CI smoke) to run a reduced round count.
"""

import time

from repro.generate import EditFuzzer, demo_generator, demo_package
from repro import faults
from repro.mof import compare, transaction
from repro.mof.repository import Model
from repro.xmi import read_json, write_json
from workloads import QUICK

ROUNDS = 5 if QUICK else 15              # interleaved raw/txn pairs
EDITS_PER_ROUND = 60 if QUICK else 200
MAX_OVERHEAD = 0.35 if QUICK else 0.10   # quick mode: tiny, noisy samples
CHAOS_SEEDS = 20 if QUICK else 80
ROLLBACK_SIZES = [50, 200] if QUICK else [50, 200, 1000]


def _fresh(seed, size=40):
    generator = demo_generator(seed)
    return generator, generator.generate(size)


def _timed_burst(seed, use_txn):
    """Apply one seeded edit burst; return elapsed seconds.

    The model and fuzzer are rebuilt per call from the same seed, so the
    raw and transactional arms execute identical kernel operations."""
    generator, root = _fresh(seed)
    fuzzer = EditFuzzer(root, seed=seed + 1, generator=generator)
    started = time.perf_counter()
    if use_txn:
        with transaction():
            fuzzer.apply_random_edits(EDITS_PER_ROUND)
    else:
        fuzzer.apply_random_edits(EDITS_PER_ROUND)
    return time.perf_counter() - started


def test_e17_commit_overhead():
    # warm both paths once (imports, code objects, allocator)
    _timed_burst(999, False), _timed_burst(999, True)
    raw, txn = [], []
    for round_no in range(ROUNDS):
        raw.append(_timed_burst(round_no, False))
        txn.append(_timed_burst(round_no, True))
    # the *minimum* is the noise-robust estimator here: scheduler and
    # allocator jitter only ever add time, and both arms replay the same
    # seeded edit sequences, so best-vs-best isolates the journal cost
    raw_ms = min(raw) * 1e3
    txn_ms = min(txn) * 1e3
    overhead = txn_ms / raw_ms - 1.0
    print(f"\nE17: journaling overhead on {EDITS_PER_ROUND}-edit bursts "
          f"({ROUNDS} rounds)")
    print(f"  raw edits          : {raw_ms:8.2f} ms/burst")
    print(f"  inside transaction : {txn_ms:8.2f} ms/burst")
    print(f"  overhead           : {overhead * 100:+7.1f}%  "
          f"(budget {MAX_OVERHEAD * 100:.0f}%)")
    assert overhead <= MAX_OVERHEAD, (
        f"transactional editing costs {overhead * 100:.1f}% over raw "
        f"edits; budget is {MAX_OVERHEAD * 100:.0f}%")


def test_e17_rollback_cost_tracks_journal_size():
    print("\nE17: rollback latency vs journal size")
    print(f"{'ops':>7} {'journal':>8} {'forward ms':>11} "
          f"{'rollback ms':>12} {'ratio':>7}")
    rows = []
    for n_edits in ROLLBACK_SIZES:
        generator, root = _fresh(1000 + n_edits, size=60)
        fuzzer = EditFuzzer(root, seed=7, generator=generator)
        with transaction() as txn:
            started = time.perf_counter()
            fuzzer.apply_random_edits(n_edits)
            forward = time.perf_counter() - started
            journal = txn.op_count
            started = time.perf_counter()
            txn.rollback()
            back = time.perf_counter() - started
        rows.append((n_edits, journal, forward, back))
        print(f"{n_edits:>7} {journal:>8} {forward * 1e3:>11.2f} "
              f"{back * 1e3:>12.2f} {back / forward:>6.1f}x")
    # undoing a burst must stay in the same complexity class as doing it
    for n_edits, journal, forward, back in rows:
        assert back <= forward * 10 + 0.05, (n_edits, forward, back)
    # and scale with the journal, not worse than linearly with margin
    if len(rows) > 1:
        small, large = rows[0], rows[-1]
        ops_ratio = max(large[1] / max(small[1], 1), 1.0)
        time_ratio = large[3] / max(small[3], 1e-9)
        assert time_ratio <= ops_ratio * 8 + 8, rows


def test_e17_recovery_rate_under_chaos():
    """Every fault-aborted transaction must restore the model: the
    recovery rate over a seeded chaos sweep is 100%, with no third
    outcome (a burst either commits intact or aborts restored)."""
    packages = [demo_package()]
    aborted = committed = 0
    failures = []
    for seed in range(CHAOS_SEEDS):
        generator, root = _fresh(seed, size=25)
        model = Model(f"urn:bench:e17:{seed}")
        model.add_root(root)
        before = read_json(write_json(model), packages).roots[0]
        fuzzer = EditFuzzer(root, seed=seed, generator=generator)
        plan = faults.FaultPlan(seed=seed, rate=0.015,
                                sites=["kernel.write"])
        try:
            with faults.injected(plan):
                with transaction():
                    fuzzer.apply_random_edits(40)
            committed += 1
        except faults.InjectedFault:
            aborted += 1
            after = read_json(write_json(model), packages).roots[0]
            if not compare(before, after).identical:
                failures.append(seed)
    rate = 100.0 * (aborted - len(failures)) / max(aborted, 1)
    print(f"\nE17: chaos recovery over {CHAOS_SEEDS} seeded bursts")
    print(f"  committed intact : {committed}")
    print(f"  aborted+restored : {aborted - len(failures)}")
    print(f"  recovery rate    : {rate:.1f}% (required 100%)")
    assert aborted > 0, "chaos sweep never injected a fault"
    assert not failures, f"rollback failed to restore seeds {failures}"
