"""E14 — incremental revalidation must make model tests continuous.

Claim: the paper demands "a well defined set of tests ... maintained as
the 'system models' are developed" — tests run at every edit, not at
phase gates.  Batch checking re-walks the whole model per keystroke and
stops scaling around 10^4 elements; the incremental engine re-runs only
the (check, element) pairs whose recorded read set the edit touched.

Measured: median wall-clock of a full from-scratch check versus an
incrementally revalidated single-element edit (renames and guard
tweaks), across model sizes up to ~10^4 elements, plus the cache-
correctness spot check that both paths report identical diagnostics.

Also printed, without a gate: the traced memory (tracemalloc) of the
model and of the warm engine at each size, and the engine's and its
dependency index's bytes per recorded (unit, read key) edge; the
median revalidate time and units rerun after adding, and after
deleting, one ``Property``: a structural edit, which reruns every unit
whose instance query the property joins or leaves; and a default
view's build next to a serial ``Session.check`` of the same freshly
loaded demo corpus, at 10^4 and 4*10^4 elements, with the cyclic
collector's passes during the build.

Set ``REPRO_BENCH_QUICK=1`` (CI smoke) to run a reduced size/edit count.
"""

import gc
import os
import random
import statistics
import tempfile
import time
import tracemalloc

from repro.cli import load_model
from repro.generate import generate_model
from repro.incremental import IncrementalEngine, report_signature, tracking
from repro.session import Session
from repro.xmi import serialize_model
from repro.uml.classifiers import Clazz
from repro.uml.features import Property
from workloads import QUICK, VIEW_FAMILIES, make_sized_pim

SIZES = [50] if QUICK else [100, 1000]      # n_classes; ~10 elements each
N_EDITS = 8 if QUICK else 24
N_BASELINE = 2 if QUICK else 3
REQUIRED_SPEEDUP = 2.0 if QUICK else 10.0   # enforced at the largest size
#: demo corpus sizes (elements) and rounds of the build/serial table
BUILD_SIZES = [2_000] if QUICK else [10_000, 40_000]
BUILD_ROUNDS = 3 if QUICK else 6


def _editable_elements(root, rng, count):
    """A deterministic spread of elements with a writable name slot."""
    pool = []
    for element in [root] + list(root.all_contents()):
        feature = element.meta.find_feature("name")
        if feature is not None and not feature.many \
                and isinstance(element.eget("name"), str):
            pool.append(element)
    rng.shuffle(pool)
    return pool[:count]


def test_e14_incremental_speedup():
    print("\nE14: incremental revalidation vs from-scratch checking")
    print(f"{'classes':>8} {'elements':>9} {'units':>7} {'scratch ms':>11} "
          f"{'incr ms':>9} {'speedup':>8}")
    speedups = []
    for size in SIZES:
        model = make_sized_pim(size).model
        engine = IncrementalEngine(Session(model), VIEW_FAMILIES)
        engine.revalidate()                       # prime every cache
        n_elements = 1 + sum(1 for _ in model.all_contents())

        scratch_times = []
        for _ in range(N_BASELINE):
            started = time.perf_counter()
            scratch = engine.recompute_from_scratch()
            scratch_times.append(time.perf_counter() - started)
        scratch_ms = statistics.median(scratch_times) * 1e3

        rng = random.Random(size)
        edit_times = []
        for element in _editable_elements(model, rng, N_EDITS // 2):
            # one perturbing edit and one restoring edit, both timed
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
    if not QUICK:
        assert largest[1] >= 10_000, \
            f"largest workload too small: {largest[1]} elements"
    assert largest[2] >= REQUIRED_SPEEDUP, (
        f"median speedup {largest[2]:.1f}x at {largest[1]} elements, "
        f"required >= {REQUIRED_SPEEDUP}x")


def test_e14_edit_cost_does_not_scale_with_model():
    """The point of dependency tracking: the cost of revalidating one
    rename tracks the touched element's unit fan-in, not model size —
    so the per-edit rerun count stays flat across sizes."""
    reruns = []
    for size in SIZES:
        model = make_sized_pim(size).model
        engine = IncrementalEngine(Session(model), VIEW_FAMILIES)
        engine.revalidate()
        rng = random.Random(42)
        worst = 0
        for element in _editable_elements(model, rng, 4):
            element.eset("name", element.eget("name") + "!")
            engine.revalidate()
            worst = max(worst, engine.stats.last_rerun)
        reruns.append((size, worst, engine.unit_count()))
        engine.detach()
    print("\nE14: worst-case units re-run after a rename")
    for size, worst, total in reruns:
        print(f"  {size:>5} classes: {worst:>4} of {total} units")
    # re-run counts must not grow with the model (allow small jitter)
    if len(reruns) > 1:
        small, large = reruns[0][1], reruns[-1][1]
        assert large <= max(small * 3, small + 20), reruns
    # and must always be a sliver of the whole
    for size, worst, total in reruns:
        assert worst < total * 0.05 + 10, (size, worst, total)


def test_e14_structural_edit_cost():
    """Revalidate after adding and after deleting one Property (printed
    only)."""
    print("\nE14: revalidate after adding / deleting one Property")
    print(f"{'classes':>8} {'elements':>9} {'add ms':>9} {'add units':>10} "
          f"{'delete ms':>10} {'delete units':>13}")
    for size in SIZES:
        model = make_sized_pim(size).model
        engine = IncrementalEngine(Session(model), VIEW_FAMILIES)
        engine.revalidate()
        n_elements = 1 + sum(1 for _ in model.all_contents())
        classes = [element for element in model.all_contents()
                   if type(element) is Clazz]
        rng = random.Random(size)
        samples = {"add": ([], []), "delete": ([], [])}

        def timed(kind):
            started = time.perf_counter()
            engine.revalidate()
            times, units = samples[kind]
            times.append(time.perf_counter() - started)
            units.append(engine.stats.last_rerun)

        for index in range(N_EDITS):
            owner = rng.choice(classes)
            extra = Property(name=f"extra{index}",
                             type=owner.owned_attributes[0].type)
            owner.owned_attributes.append(extra)
            timed("add")
            extra.delete()
            timed("delete")
        add_times, add_units = samples["add"]
        delete_times, delete_units = samples["delete"]
        print(f"{size:>8} {n_elements:>9} "
              f"{statistics.median(add_times) * 1e3:>9.2f} "
              f"{statistics.median(add_units):>10g} "
              f"{statistics.median(delete_times) * 1e3:>10.2f} "
              f"{statistics.median(delete_units):>13g}")
        engine.detach()


def test_e14_engine_memory():
    """What a warm engine holds next to the model it checks (printed
    only; tracemalloc slows the build, so nothing here is timed)."""
    print("\nE14: traced memory of the model and of a warm engine")
    print(f"{'classes':>8} {'elements':>9} {'model MiB':>10} "
          f"{'engine MiB':>11} {'index MiB':>10} {'edges':>8} "
          f"{'engine B/edge':>14} {'index B/edge':>13}")
    for size in SIZES:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = make_sized_pim(size).model
            built = tracemalloc.get_traced_memory()[0]
            engine = IncrementalEngine(Session(model), VIEW_FAMILIES)
            engine.revalidate()
            warm = tracemalloc.get_traced_memory()[0]
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        index = sum(stat.size for stat in snapshot.filter_traces(
            [tracemalloc.Filter(True, tracking.__file__)]).statistics(
                "filename"))
        edges = engine.index_size()["edges"]
        n_elements = 1 + sum(1 for _ in model.all_contents())
        print(f"{size:>8} {n_elements:>9} {(built - before) / 2**20:>10.2f} "
              f"{(warm - built) / 2**20:>11.2f} {index / 2**20:>10.2f} "
              f"{edges:>8} {(warm - built) / edges:>14.0f} "
              f"{index / edges:>13.0f}")
        engine.detach()


def _quartiles(values):
    """Median [Q1, Q3] of *values*, as text."""
    q1, median, q3 = statistics.quantiles(sorted(values), n=4,
                                          method="inclusive")
    return f"{median:.3f} [{q1:.3f}, {q3:.3f}]"


def _collector_passes(action):
    """Run *action*; return its seconds and the cyclic collector's
    passes per generation meanwhile (observed, never steered)."""
    passes = [0, 0, 0]

    def count(phase, info):
        if phase == "stop":
            passes[info["generation"]] += 1

    gc.callbacks.append(count)
    try:
        started = time.perf_counter()
        result = action()
        seconds = time.perf_counter() - started
    finally:
        gc.callbacks.remove(count)
    return seconds, passes, result


def test_e14_build_next_to_a_serial_pass():
    """A default view's build (``Session(m).watch()``) against a serial
    ``Session(m).check()``, each on a fresh load of the same unrepaired
    demo corpus, alternated, which goes first swapping each round.
    Printed only: timings on this 2-core host are too noisy to gate."""
    print("\nE14: view build vs serial check (fresh loads, seconds)")
    print(f"{'elements':>9} {'serial check':>22} {'view build':>22} "
          f"{'ratio':>6}  build collector passes (gen 0/1/2)")
    with tempfile.TemporaryDirectory() as directory:
        for size in BUILD_SIZES:
            path = os.path.join(directory, f"demo-{size}.xmi")
            result = generate_model("demo", size=size, seed=0, repair=False)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(serialize_model(result.model))
            del result
            times = {"check": [], "build": []}
            passes = []
            for index in range(BUILD_ROUNDS):
                sides = ["check", "build"]
                if index % 2:
                    sides.reverse()
                for side in sides:
                    model = load_model(path)
                    gc.collect()
                    session = Session(model)
                    if side == "check":
                        seconds, _, _ = _collector_passes(session.check)
                    else:
                        seconds, counted, view = _collector_passes(
                            session.watch)
                        passes.append(counted)
                        view.detach()
                    times[side].append(seconds)
                    del model, session
            ratio = (statistics.median(times["build"])
                     / statistics.median(times["check"]))
            median_passes = "/".join(
                f"{statistics.median(p[g] for p in passes):g}"
                for g in range(3))
            print(f"{size:>9} {_quartiles(times['check']):>22} "
                  f"{_quartiles(times['build']):>22} {ratio:>5.2f}x  "
                  f"{median_passes}")
