"""The dependency index behind incremental revalidation.

:class:`DependencyGraph` interns read keys as integer slots and keeps
a key's readers bare, in a list or in a set by count.  These tests hold
it to a plain dict-of-sets reference over a seeded random sequence of
updates, check that a dropped unit releases the objects it read, that
the engine's ``verify()`` audits the index and ``verify(rerun=True)``
sees what only a rerun shows, that a build keeps its unit, key and edge
counts, that ``untracked`` mutes only the innermost collector, and that
the index stays compact.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
import weakref

import pytest

from repro.generate import demo_package
from repro.incremental import DependencyGraph, IncrementalEngine, tracking
from repro.mof import kernel
from repro.session import Session
from repro.uml import ModelFactory


class _Thing:
    """A read target compared by identity, as elements are."""


class _Reference:
    """The index as two dicts of sets: the representation the compact
    graph replaced, kept here as its oracle."""

    def __init__(self):
        self.reads = {}
        self.readers = {}

    def set_reads(self, unit, keys):
        old = self.reads.pop(unit, set())
        for key in old - keys:
            self.readers[key].discard(unit)
            if not self.readers[key]:
                del self.readers[key]
        for key in keys - old:
            self.readers.setdefault(key, set()).add(unit)
        if keys:
            self.reads[unit] = set(keys)


def _fresh(keys):
    # the read hook builds a new tuple per read: never hand the graph the
    # objects it interned
    return {(thing, name) for thing, name in keys}


def test_graph_matches_a_dict_of_sets_reference():
    rng = random.Random(17)
    things = [_Thing() for _ in range(50)]
    keys = [(things[i % 50], f"feature{i // 50}") for i in range(200)]
    hot = keys[0]
    units = [("unit", i) for i in range(50)]
    graph, reference = DependencyGraph(), _Reference()
    most_hot_readers, hot_fell_back = 0, False
    ever_free, reused = set(), False
    for step in range(1500):
        # the hot key is read by most units in the first and third
        # phases and by none in the second, so its readers cross the
        # small-reader size both ways
        phase_hot = (step // 500) != 1
        unit = rng.choice(units)
        if rng.random() < 0.15:
            graph.drop(unit)
            reference.set_reads(unit, set())
        else:
            chosen = set(rng.sample(keys[1:], rng.randint(0, 12)))
            if phase_hot and rng.random() < 0.8:
                chosen.add(hot)
            graph.set_reads(unit, _fresh(chosen))
            reference.set_reads(unit, chosen)

        for key in keys:
            assert set(graph.readers(key)) == reference.readers.get(
                key, set()), (step, key)
        for each in units:
            assert graph.reads(each) == frozenset(
                reference.reads.get(each, ())), (step, each)
        assert len(graph) == len(reference.reads)
        assert graph.key_count() == len(reference.readers)
        assert graph.edge_count() == sum(map(len, reference.reads.values()))
        assert graph.verify(units) == [], step

        hot_readers = len(reference.readers.get(hot, ()))
        most_hot_readers = max(most_hot_readers, hot_readers)
        if most_hot_readers > tracking._SMALL_READERS \
                and hot_readers <= tracking._SMALL_READERS:
            hot_fell_back = True
        live = {slot for by_object in graph._slots.values()
                for slot in by_object.values()}
        reused = reused or bool(ever_free & live)
        ever_free.update(graph._free)

    assert most_hot_readers > tracking._SMALL_READERS
    assert hot_fell_back
    assert reused


def test_drop_releases_the_key_object():
    book = demo_package().classifier("GBook")(name="read-once", pages=1)
    shared = _Thing()
    graph = DependencyGraph()
    graph.set_reads("reader", _fresh({(book, "pages"), (shared, "x")}))
    graph.set_reads("other", _fresh({(shared, "x")}))
    released = weakref.ref(book)
    del book
    gc.collect()
    assert released() is not None      # the index pins what it indexes
    graph.drop("reader")
    gc.collect()
    assert released() is None
    assert graph.key_count() == 1 and graph.verify({"other"}) == []


def test_untracked_mutes_only_the_innermost_collector():
    book = demo_package().classifier("GBook")(name="read", pages=1)
    counted = []
    depth = kernel._TRACKING
    previous = kernel.set_read_hook(lambda obj, name: counted.append(name))
    try:
        outer, inner = set(), set()
        with tracking.collect_reads(outer):
            with tracking.collect_reads(inner):
                with tracking.untracked():
                    assert kernel._TRACKING == depth + 2
                    book.pages
                book.name
            with tracking.untracked():
                book.pages
    finally:
        kernel.set_read_hook(previous)
    assert inner == {(book, "name")}
    assert outer == {(book, "pages"), (book, "name")}
    assert counted == ["pages", "name", "pages"]


def test_a_collector_nests_in_itself():
    """An engine reuses one collector for every unit; a block of it
    opened inside another still leaves the kernel as it found it."""
    book = demo_package().classifier("GBook")(name="read", pages=1)
    depth, hook = kernel._TRACKING, kernel._READ_HOOK
    reads = set()
    collector = tracking.collect_reads(reads)
    with collector:
        book.pages
        with collector:
            assert kernel._TRACKING == depth + 2
            book.name
        book.tags
    assert (kernel._TRACKING, kernel._READ_HOOK) == (depth, hook)
    assert reads == {(book, "pages"), (book, "name"), (book, "tags")}


def _warm_engine():
    session = Session.generate("demo", size=60, seed=2, repair=False)
    engine = IncrementalEngine(session, ["structural", "invariant"])
    engine.revalidate()
    assert engine.verify() == []
    return engine


#: a default view's size after its build, per (package, seed) of an
#: unrepaired 800-element corpus: units, then the index's units, keys
#: and edges.  The build's bookkeeping may change; these may not.
BUILT_SIZES = {
    ("demo", 0): (2348, 1538, 2459, 3515),
    ("demo", 1): (2343, 1533, 2466, 3532),
    ("demo", 2): (2356, 1546, 2468, 3526),
    ("uml", 0): (1057, 193, 766, 2372),
    ("uml", 1): (1034, 172, 690, 2199),
    ("uml", 2): (1003, 137, 679, 1848),
}


@pytest.mark.parametrize("package, seed", sorted(BUILT_SIZES))
def test_a_built_view_survives_a_rerun_of_every_unit(package, seed):
    """After a build, rerunning every unit reproduces each cached
    result, record and read set, and the view keeps every unit, key and
    edge it had before the build's bookkeeping was made cheap."""
    view = Session.generate(package, size=800, seed=seed,
                            repair=False).watch()
    assert view.verify(rerun=True) == []
    index = view.index_size()
    assert (view.unit_count(), index["units"], index["keys"],
            index["edges"]) == BUILT_SIZES[package, seed]
    view.detach()


def test_a_rerun_sees_a_unit_that_missed_its_rerun():
    """``verify()`` compares reports with the cached results, so it
    cannot see a unit that should have rerun; ``verify(rerun=True)``
    does."""
    engine = _warm_engine()
    book = next(element for element in engine.model.all_elements()
                if element.meta.name == "GBook"
                and (element.pages or 0) >= 0)
    book.pages = -5                     # breaks positive-pages
    engine._dirty.clear()               # ...but no unit reruns
    engine.revalidate()
    assert engine.verify() == []
    problems = engine.verify(rerun=True)
    assert any("stale result" in p for p in problems), problems
    assert engine.stats.last_rerun == 0     # the rerun left stats alone
    engine.detach()


def test_a_structural_unit_reruns_when_its_element_is_written():
    """A structural unit that reports nothing records no read: only the
    engine's own dirtying on a write to its element reruns it.  Taking
    an end out of an association breaks ``member_ends``' [2]."""
    factory = ModelFactory("ends")
    ends = factory.associate(factory.clazz("A"), factory.clazz("B"),
                             name="ab")
    view = Session(factory.model).watch()
    assert view.verify(rerun=True) == []
    ends.member_ends.remove(ends.member_ends[0])
    view.revalidate()
    assert view.verify(rerun=True) == []
    assert [d.code for d in view.check_result().by_family["structural"]] \
        == ["multiplicity"]
    view.detach()


def test_a_rerun_sees_a_read_the_index_lost():
    engine = _warm_engine()
    deps = engine._deps
    unit = next(key for key in engine._units if key[0] == "inv")
    slots = deps._reads[unit]
    # drop the unit's first read key everywhere, so the index agrees
    # with itself and only a rerun can tell
    deps._remove_reader(slots[0], unit)
    deps._reads[unit] = slots[1:]
    deps._edges -= 1
    assert engine.verify() == []
    problems = engine.verify(rerun=True)
    assert any("stale reads" in p for p in problems), problems
    engine.detach()


def test_verify_reports_a_reader_removed_by_hand():
    engine = _warm_engine()
    deps = engine._deps
    # any slot with a reader will do: the dropped unit still records the
    # read, whether or not it was the slot's only reader
    slot = next((slot for slot, readers in enumerate(deps._readers)
                 if readers is not None), None)
    assert slot is not None, "the warm engine's index records no reader"
    # the slot's readers but the first, in the shape the index keeps
    rest = list(deps._readers_at(slot))[1:]
    deps._readers[slot] = (None if not rest else rest[0] if len(rest) == 1
                           else rest)
    problems = engine.verify()
    assert any("is not among its readers" in p for p in problems), problems
    engine.detach()


def test_verify_reports_reads_kept_for_a_dropped_unit():
    engine = _warm_engine()
    unit = next(iter(engine._deps._reads))
    del engine._units[unit]
    problems = engine.verify()
    assert any("reads kept for a dropped unit" in p for p in problems)
    engine.detach()


def test_index_costs_at_most_5_edges_and_1000_bytes_per_element():
    """The default view's index, measured per model element: the edge
    count says which reads are recorded (a structural unit records none
    of its element, an invariant one for its root), the traced bytes
    what keeping them costs.  Bytes per edge would not do: leaving out
    cheap edges on shared keys raises that ratio while the index
    shrinks."""
    session = Session.generate("demo", size=2200, seed=0, repair=False)
    elements = session.model.size()
    tracemalloc.start()
    try:
        view = session.watch()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    index = snapshot.filter_traces(
        [tracemalloc.Filter(True, tracking.__file__)])
    size = sum(stat.size for stat in index.statistics("filename"))
    edges = view.index_size()["edges"]
    assert edges <= 5 * elements, (edges, elements)
    assert size <= 1000 * elements, (size, elements)
    view.detach()
