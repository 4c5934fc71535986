"""E18 — cross-diagram consistency checking at interactive cost.

Claim: the paper's central deliverable is a *set* of views — class
models, state machines, interactions — "maintained as the 'system
models' are developed".  Views drift; a consistency family (XD001—XD007)
only earns a place inside the edit loop if whole-repository analysis
stays near-linear in model size and a single edit re-checks a sliver of
the model, not all of it.

Measured: batch consistency-lint throughput across model sizes spanning
~10^3 to ~10^5 elements (interactions + class models + state machines),
and the incremental engine's per-edit cost/speedup with the consistency
family enabled, including the flat-rerun property across sizes.

Set ``REPRO_BENCH_QUICK=1`` (CI smoke) to run reduced sizes/edit counts.
"""

import random
import statistics
import time

from repro.analysis import ModelLinter
from repro.incremental import IncrementalEngine, report_signature
from repro.session import DEFAULT_FAMILIES, Session
from workloads import QUICK, make_interacting_pim

SIZES = [60] if QUICK else [100, 1000, 8000]  # n_classes; ~11 elems each
N_EDITS = 6 if QUICK else 20
N_BASELINE = 2 if QUICK else 3
REQUIRED_SPEEDUP = 2.0 if QUICK else 10.0     # enforced at largest size


def consistency_linter():
    return ModelLinter(families=("consistency",))


def test_e18_throughput_and_shape():
    print("\nE18: consistency-family throughput across model sizes")
    print(f"{'classes':>8} {'elements':>9} {'ms':>9} {'us/elem':>9}")
    per_element = []
    counts = []
    for size in SIZES:
        model = make_interacting_pim(size).model
        linter = consistency_linter()
        started = time.perf_counter()
        report = linter.lint(model)
        elapsed = time.perf_counter() - started
        assert report.ok, report.render()     # workload is clean
        n_elements = 1 + sum(1 for _ in model.all_contents())
        counts.append(n_elements)
        micros = elapsed * 1e6 / n_elements
        per_element.append(micros)
        print(f"{size:>8} {n_elements:>9} {elapsed * 1e3:>9.2f} "
              f"{micros:>9.2f}")
    if not QUICK:
        assert counts[0] >= 1_000, counts
        assert counts[-1] >= 80_000, counts
    # near-linear: per-element cost must not blow up with model size
    assert max(per_element) < 5 * min(per_element) + 100


def _editable_elements(root, rng, count):
    pool = []
    for element in [root] + list(root.all_contents()):
        feature = element.meta.find_feature("name")
        if feature is not None and not feature.many \
                and isinstance(element.eget("name"), str):
            pool.append(element)
    rng.shuffle(pool)
    return pool[:count]


def test_e18_incremental_speedup():
    print("\nE18: incremental consistency vs from-scratch re-analysis")
    print(f"{'classes':>8} {'elements':>9} {'units':>7} {'scratch ms':>11} "
          f"{'incr ms':>9} {'speedup':>8}")
    speedups = []
    sizes = SIZES[:-1] if len(SIZES) > 2 else SIZES   # cap scratch cost
    for size in sizes:
        model = make_interacting_pim(size).model
        engine = IncrementalEngine(Session(model), DEFAULT_FAMILIES)
        engine.revalidate()
        n_elements = 1 + sum(1 for _ in model.all_contents())

        scratch_times = []
        for _ in range(N_BASELINE):
            started = time.perf_counter()
            engine.recompute_from_scratch()
            scratch_times.append(time.perf_counter() - started)
        scratch_ms = statistics.median(scratch_times) * 1e3

        rng = random.Random(size)
        edit_times = []
        for element in _editable_elements(model, rng, N_EDITS // 2):
            original = element.eget("name")
            for value in (original + "~", original):
                element.eset("name", value)
                started = time.perf_counter()
                engine.revalidate()
                engine.report()
                edit_times.append(time.perf_counter() - started)
        incr_ms = statistics.median(edit_times) * 1e3

        speedup = scratch_ms / incr_ms if incr_ms else float("inf")
        speedups.append((size, n_elements, speedup))
        print(f"{size:>8} {n_elements:>9} {engine.unit_count():>7} "
              f"{scratch_ms:>11.2f} {incr_ms:>9.3f} {speedup:>7.1f}x")

        # cache-correctness spot check at every size
        engine.revalidate()
        assert report_signature(engine.report()) == \
            report_signature(engine.recompute_from_scratch())
        engine.detach()

    largest = speedups[-1]
    assert largest[2] >= REQUIRED_SPEEDUP, (
        f"median speedup {largest[2]:.1f}x at {largest[1]} elements, "
        f"required >= {REQUIRED_SPEEDUP}x")


def test_e18_edit_cost_flat_in_model_size():
    """Per-edit rerun counts with consistency enabled track the edited
    element's fan-in, not the repository size."""
    reruns = []
    for size in SIZES if QUICK else SIZES[:-1]:
        model = make_interacting_pim(size).model
        engine = IncrementalEngine(Session(model), DEFAULT_FAMILIES)
        engine.revalidate()
        rng = random.Random(42)
        worst = 0
        for element in _editable_elements(model, rng, 4):
            element.eset("name", element.eget("name") + "!")
            engine.revalidate()
            worst = max(worst, engine.stats.last_rerun)
        reruns.append((size, worst, engine.unit_count()))
        engine.detach()
    print("\nE18: worst-case units re-run after a rename "
          "(consistency on)")
    for size, worst, total in reruns:
        print(f"  {size:>5} classes: {worst:>4} of {total} units")
    if len(reruns) > 1:
        small, large = reruns[0][1], reruns[-1][1]
        assert large <= max(small * 3, small + 20), reruns
    for size, worst, total in reruns:
        assert worst < total * 0.05 + 10, (size, worst, total)
