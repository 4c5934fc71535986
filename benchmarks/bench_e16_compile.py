"""E16 — compiled constraints and indexed queries keep model tests hot.

Claim: the paper's method re-checks OCL constraints at every refinement
step, so constraint evaluation is the toolchain's hot path and must run
"as fast as the hardware allows" (ROADMAP north star).  Re-walking an
AST through a per-node dispatch interpreter and re-scanning the
containment forest for every ``allInstances``/``resolve`` both do work
that is invariant across evaluations.

Measured:

* median wall-clock of repeated :meth:`ConstraintSet.evaluate` over the
  same models with closure-compiled invariants (the only public path —
  parse+compile cached per process) versus the tree-walking interpreter
  kept as the differential oracle (``Invariant._holds_interpreted``,
  patched in for ``_holds_impl``).  Must show ≥5x.
* ``Model.instances_of`` latency for a fixed-size answer across growing
  models — near-flat with the extent index (O(answer)), versus the
  O(model) containment scan.

Set ``REPRO_BENCH_QUICK=1`` (CI smoke) to run reduced sizes with a
relaxed speedup floor (CI machines are noisy).
"""

import contextlib
import os
import statistics
import time

from repro.incremental import report_signature
from repro.mof import (
    M_0N,
    MInteger,
    Model,
    Model as MofModel,
    add_attribute,
    add_reference,
    define_class,
    define_package,
)
from repro.ocl import ConstraintSet, Invariant
from repro.uml import Clazz
from workloads import make_sized_pim

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
PIM_SIZE = 30 if QUICK else 100             # n_classes; ~10 elements each
N_ROUNDS = 3 if QUICK else 5
REQUIRED_SPEEDUP = 3.0 if QUICK else 5.0
INDEX_SIZES = [100, 400] if QUICK else [100, 400, 1600, 6400]
N_QUERIES = 100 if QUICK else 300


def make_constraints():
    constraints = ConstraintSet("pim-rules")
    constraints.add(Clazz, "named", "name <> ''")
    constraints.add(Clazz, "attrs-typed",
                    "owned_attributes->forAll(p | p.type <> null)")
    constraints.add(Clazz, "attrs-named",
                    "owned_attributes->forAll(p | p.name.size() > 0)")
    constraints.add(Clazz, "ops-bounded",
                    "owned_operations->size() < 20")
    return constraints


@contextlib.contextmanager
def interpreted():
    """Route ``Invariant.holds`` through the tree-walking interpreter."""
    compiled = Invariant._holds_impl
    Invariant._holds_impl = Invariant._holds_interpreted
    try:
        yield
    finally:
        Invariant._holds_impl = compiled


def _median(run, rounds):
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        run()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def test_e16_invariant_evaluation_speedup():
    """Headline: repeated invariant evaluation, compiled vs interpreted.

    The kernel alone — metaclass dispatch and scope listing are measured
    separately below — because this is what the closure compiler claims
    to speed up: `holds` on an already-selected conforming element.
    """
    constraints = make_constraints()
    pim = make_sized_pim(PIM_SIZE).model
    elements = [pim] + list(pim.all_contents())
    work = [(inv, element) for inv in constraints.invariants
            for element in elements
            if element.meta.conforms_to(inv.context)]
    assert work

    def go():
        for inv, element in work:
            inv.holds(element)
    go()                                    # warm-up: caches filled
    with interpreted():
        go()

    compiled_s = _median(go, N_ROUNDS)
    with interpreted():
        interpreted_s = _median(go, N_ROUNDS)
    speedup = interpreted_s / compiled_s
    n = len(work)
    print(f"\nE16: repeated invariant evaluation, {PIM_SIZE}-class PIM, "
          f"{n} evaluations/round")
    print(f"{'mode':>12} {'ms/round':>9} {'us/eval':>9}")
    for label, seconds in (("interpreted", interpreted_s),
                           ("compiled", compiled_s)):
        print(f"{label:>12} {seconds * 1e3:>9.2f} "
              f"{seconds * 1e6 / n:>9.2f}")
    print(f"speedup: {speedup:.1f}x (floor {REQUIRED_SPEEDUP}x)")
    assert speedup >= REQUIRED_SPEEDUP


def test_e16_constraint_pass_speedup():
    """End-to-end: a full ConstraintSet pass over an indexed Model.

    Includes extent-index dispatch and report building, so the ratio is
    smaller than the kernel's; reports must be identical between modes.
    """
    constraints = make_constraints()
    scope = MofModel("urn:bench:e16pim")
    scope.add_root(make_sized_pim(PIM_SIZE).model)

    def run():
        return constraints.evaluate(scope)
    expected = report_signature(run())
    with interpreted():
        assert report_signature(run()) == expected
    compiled_s = _median(run, N_ROUNDS)
    with interpreted():
        interpreted_s = _median(run, N_ROUNDS)
    speedup = interpreted_s / compiled_s
    floor = 2.0 if QUICK else 3.0
    print(f"\nE16: full constraint pass over indexed Model: "
          f"compiled {compiled_s * 1e3:.2f} ms, "
          f"interpreted {interpreted_s * 1e3:.2f} ms, "
          f"{speedup:.1f}x (floor {floor}x)")
    assert speedup >= floor


def _rare_population(n_items):
    pkg = _rare_population.pkg
    if pkg is None:
        pkg = define_package("e16extent", "urn:bench:e16extent")
        box = define_class(pkg, "Box")
        item = define_class(pkg, "Item")
        rare = define_class(pkg, "Rare", superclasses=[item])
        add_attribute(item, "n", MInteger, 0)
        add_reference(box, "items", item, containment=True,
                      multiplicity=M_0N)
        _rare_population.pkg = pkg
        _rare_population.classes = (box, item, rare)
    box, item, rare = _rare_population.classes
    root = box.instantiate()
    model = Model(f"urn:bench:e16:{n_items}")
    model.add_root(root)
    items = root.eget("items")
    for index in range(n_items):
        items.append(item.instantiate())
    rares = [rare.instantiate() for _ in range(5)]
    for element in rares:
        items.append(element)
    return model, rare, rares


_rare_population.pkg = None


def _median_query_seconds(query, rounds=5):
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(N_QUERIES):
            query()
        times.append(time.perf_counter() - started)
    return statistics.median(times) / N_QUERIES


def test_e16_indexed_all_instances_is_o_answer():
    print(f"\nE16: Model.instances_of, fixed 5-element answer, "
          f"{N_QUERIES} queries/round")
    print(f"{'elements':>9} {'index us':>9} {'scan us':>9} {'ratio':>7}")
    indexed_times = []
    scan_ratio_at_largest = None
    for size in INDEX_SIZES:
        model, rare, rares = _rare_population(size)
        answer = model.instances_of(rare)       # builds + warms the index
        assert sorted(map(id, answer)) == sorted(map(id, rares))

        indexed_s = _median_query_seconds(lambda: model.instances_of(rare))
        scan_s = _median_query_seconds(
            lambda: [e for e in model.all_elements()
                     if e.meta.conforms_to(rare)],
            rounds=3)
        indexed_times.append(indexed_s)
        scan_ratio_at_largest = scan_s / indexed_s
        print(f"{size + 6:>9} {indexed_s * 1e6:>9.2f} "
              f"{scan_s * 1e6:>9.2f} {scan_ratio_at_largest:>7.1f}")

    # O(answer): indexed latency must stay near-flat while the model
    # grows by 64x (4x in quick mode); generous bound for timer noise.
    flatness = max(indexed_times) / min(indexed_times)
    print(f"indexed flatness across sizes: {flatness:.2f}x")
    assert flatness < 5.0
    # and at the largest size the scan pays the O(model) cost
    assert scan_ratio_at_largest >= (3.0 if QUICK else 10.0)


def test_e16_resolve_is_indexed():
    from repro.mof import Repository
    repo = Repository()
    model, rare, rares = _rare_population(INDEX_SIZES[-1])
    repo.add_model(model)
    eid = rares[0].eid
    reference = f"{model.uri}#{eid}"
    assert repo.resolve(reference) is rares[0]  # warms the eid entry

    resolve_s = _median_query_seconds(lambda: repo.resolve(reference),
                                      rounds=3)

    def scan_resolve():
        for element in model.all_elements():
            if element._eid == eid:
                return element
    assert scan_resolve() is rares[0]
    scan_s = _median_query_seconds(scan_resolve, rounds=3)
    print(f"\nE16: resolve over {INDEX_SIZES[-1] + 6} elements: "
          f"indexed {resolve_s * 1e6:.2f}us vs scan {scan_s * 1e6:.2f}us "
          f"({scan_s / resolve_s:.1f}x)")
    assert scan_s / resolve_s >= (2.0 if QUICK else 5.0)
