"""Membership and report edge cases of the incremental engine.

The engine takes element membership from the model index's enter/leave
transitions and assembles reports from its non-empty results only.
Each case below drives one path through that protocol and then asserts
both oracles: :meth:`IncrementalEngine.verify` (membership against a
full containment walk, reports against a scan of every unit, memoized
wire records against a fresh render) and the multiset equality with the
batch checkers the property suite uses.
"""

from __future__ import annotations

import json

import pytest

from repro import faults
from repro.analysis.registry import RuleRegistry, lint_rule
from repro.generate import demo_generator, demo_package
from repro.incremental import IncrementalEngine, report_signature
from repro.mof import M_0N, Model, instances_of
from repro.mof.dynamic import add_reference, define_class, define_package
from repro.mof.txn import transaction
from repro.mof.validate import (Diagnostic, Severity, ValidationReport,
                                validate_tree)
from repro.ocl.invariants import ConstraintSet, Invariant
from repro.session import Session
from repro.uml.classifiers import Clazz
from repro.uml.factory import ModelFactory


def classifier(name):
    return demo_package().classifier(name)


def oracle(model, constraint_sets=()):
    signature = report_signature(validate_tree(model.roots[0]))
    for root in model.roots[1:]:
        signature += report_signature(validate_tree(root))
    for constraint_set in constraint_sets:
        signature += report_signature(constraint_set.evaluate(model))
    return signature


def assert_consistent(engine):
    engine.revalidate()
    actual = report_signature(engine.report())
    assert engine.verify() == []
    assert actual == oracle(engine.model, engine.constraint_sets)


@pytest.fixture
def library():
    root = demo_generator(seed=5).generate(40)
    model = Model("urn:membership")
    model.add_root(root)
    engine = IncrementalEngine(Session(model), ["structural", "invariant"])
    assert_consistent(engine)
    yield model, root, engine
    engine.detach()


def shelves_with_books(root, count=2):
    shelves = [shelf for shelf in root.shelves if len(shelf.books) >= 1]
    assert len(shelves) >= count
    return shelves


def test_move_book_to_another_shelf_keeps_its_units(library):
    model, root, engine = library
    source, target = shelves_with_books(root)[:2]
    book = source.books[0]
    unit = engine._units[("struct", book)]
    target.books.append(book)
    assert_consistent(engine)
    # a move is not a membership change: the book's units survive
    assert engine._units[("struct", book)] is unit


def test_detach_mutate_reattach_before_revalidating(library):
    model, root, engine = library
    shelf = shelves_with_books(root)[0]
    shelf.capacity = len(shelf.books)
    assert_consistent(engine)
    root.shelves.remove(shelf)
    # while detached the shelf's notifications do not reach the model
    gone = shelf.books[0]
    shelf.books.remove(gone)
    added = [classifier("GBook")(name=f"late-{i}", pages=-i)
             for i in range(3)]
    for book in added:
        shelf.books.append(book)
    shelf.books[0].pages = -7
    root.shelves.append(shelf)
    assert_consistent(engine)
    assert all(("struct", book) in engine._units for book in added)
    assert ("struct", gone) not in engine._units


def test_create_and_delete_in_one_rolled_back_transaction(library):
    model, root, engine = library
    shelf = shelves_with_books(root)[0]
    victim = shelf.books[-1]
    before = report_signature(engine.report())
    with pytest.raises(RuntimeError):
        with transaction(model):
            created = classifier("GBook")(name="transient", pages=-1)
            shelf.books.append(created)
            victim.delete()
            assert_consistent(engine)
            assert ("struct", created) in engine._units
            raise RuntimeError("abort")
    assert victim in shelf.books
    assert_consistent(engine)
    assert ("struct", created) not in engine._units
    assert ("struct", victim) in engine._units
    assert report_signature(engine.report()) == before


def test_add_root_then_edit_inside_a_removed_root(library):
    model, root, engine = library
    second = demo_generator(seed=6).generate(20)
    model.add_root(second)
    assert_consistent(engine)
    book = next(element for element in second.all_contents()
                if element.meta is classifier("GBook"))
    assert ("struct", book) in engine._units
    model.remove_root(second)
    book.pages = -3                     # the removed subtree is not watched
    second.shelves[0].capacity = -1
    assert_consistent(engine)
    assert ("struct", book) not in engine._units


def test_externally_observed_element_enters_scope(library):
    model, root, _ = library
    constraints = ConstraintSet("sequels")
    constraints.add(classifier("GBook"), "sequel-has-pages",
                    "self.sequel.oclIsUndefined() or self.sequel.pages >= 0")
    engine = IncrementalEngine(
        Session(model, constraint_sets=[constraints]),
        ["structural", "invariant", "constraint"])
    assert_consistent(engine)
    outsider = classifier("GBook")(name="outsider", pages=-2)
    reader = shelves_with_books(root)[0].books[0]
    reader.sequel = outsider
    assert_consistent(engine)
    # a unit read the outsider while it was outside the model, so the
    # engine watches it directly
    assert id(outsider) in engine._external
    outsider.pages = 3
    assert_consistent(engine)
    shelves_with_books(root)[1].books.append(outsider)
    assert_consistent(engine)
    assert id(outsider) not in engine._external
    assert ("struct", outsider) in engine._units
    outsider.pages = -4
    assert_consistent(engine)
    engine.detach()


def test_quarantined_unit_keeps_its_position(library):
    model, root, engine = library
    # dirty a few units early in unit order whose results were empty
    books = [book for shelf in root.shelves for book in shelf.books]
    for book in books[:3]:
        book.pages = 50
    assert_consistent(engine)
    for book in books[:3]:
        book.pages = 60
    plan = faults.FaultPlan(seed=0, rate=1.0, sites=["checker.run"])
    with faults.injected(plan):
        engine.revalidate()
    report = engine.report()
    crashed = [d for d in report.diagnostics if d.code == "checker-crashed"]
    assert crashed and engine.quarantined()
    assert engine.verify() == []
    # each crash report sits where its unit does, not after the others
    assert report.diagnostics[-1].code != "checker-crashed"
    # a crash report is built outside any tracked run, so its record is
    # rendered when the document is: a rename during the backoff shows
    crashed[0].element.name = "renamed-in-backoff"

    def crash_records(document):
        return [record for records in document["families"].values()
                for record in records if record["code"] == "checker-crashed"]

    encoded = crash_records(json.loads(engine.check_result().encode()))
    assert encoded == crash_records(engine.check_result().to_json())
    assert any("renamed-in-backoff" in record["element"]
               for record in encoded)
    for _ in range(10):
        if not engine.quarantined():
            break
        engine.revalidate()
    assert not engine.quarantined()
    assert_consistent(engine)


def test_raw_rename_leaves_a_stale_record_until_a_kernel_rename(library):
    """Each diagnostic's wire record is rendered in its unit's tracked
    run.  A raw write notifies no one, so verify() finds the record
    stale; a rename through the kernel reruns the unit."""
    model, root, engine = library
    book = shelves_with_books(root)[0].books[0]
    book.name = "before"
    book.pages = -1
    assert_consistent(engine)
    book._slots["name"] = "raw"
    problems = engine.verify()
    assert problems
    assert all(problem.startswith("stale record") for problem in problems)
    assert any("<dyn:GBook 'before'>" in problem for problem in problems)
    book.name = "after"
    assert_consistent(engine)
    records = [d._record for d in engine.report().diagnostics
               if d.element is book]
    assert records
    assert all("<dyn:GBook 'after'>" in record for record in records)


def test_record_reads_join_the_unit_reads():
    """A rule whose diagnostic has no path reads no name, but its record
    shows the element's repr: rendered inside the tracked run, that read
    is recorded, so a rename reruns the unit and refreshes the record."""
    registry = RuleRegistry()

    @lint_rule("T002", "every-class", "model", registry=registry)
    def every_class(root, ctx):
        for clazz in instances_of(root, Clazz):
            yield Diagnostic(Severity.WARNING, clazz, "a class", code="T002")

    factory = ModelFactory("named")
    clazz = factory.clazz("A")
    model = Model("urn:named")
    model.add_root(factory.model)
    engine = IncrementalEngine(Session(model, registry=registry), ["lint"])
    engine.revalidate()
    clazz.name = "Renamed"
    engine.revalidate()
    (diagnostic,) = engine.report().diagnostics
    assert "'Renamed'" in diagnostic._record
    assert engine.verify() == []
    engine.detach()


def test_family_without_diagnostics_is_listed_empty():
    library_meta = classifier("GLibrary")
    root = library_meta(name="tidy")
    shelf = classifier("GShelf")(name="s", capacity=2)
    root.shelves.append(shelf)
    shelf.books.append(classifier("GBook")(name="b", pages=10))
    session = Session(root)
    engine = session.watch(families=("structural", "invariant"))
    document = engine.check_result().to_json()
    assert document["families"] == {"structural": [], "invariant": []}
    assert document == session.check(
        families=("structural", "invariant")).to_json()
    assert engine.verify() == []
    engine.detach()


def test_idle_view_keeps_no_element_created_and_deleted_since():
    session = Session.generate("demo", size=2000, seed=0, repair=False)
    default = session.watch()
    idle = session.watch(["structural"])
    shelf = next(element for element in session.model.all_elements()
                 if element.meta is classifier("GShelf"))
    for round_ in range(800):
        book = classifier("GBook")(name=f"transient-{round_}", pages=1)
        shelf.books.append(book)
        book.delete()
        if round_ % 50 == 49:
            default.revalidate()
    # the idle view never had those books: nothing pins them until its
    # next revalidation
    assert idle._transitions == {}
    idle.revalidate()
    actual = report_signature(idle.report())
    assert idle.verify() == []
    assert actual == report_signature(ValidationReport(
        session.check(["structural"]).diagnostics))
    default.detach()
    idle.detach()


def test_instance_order_follows_a_containment_move():
    """A move changes no membership but does change instance order: a
    rule that reports the first class must see the new first class."""
    registry = RuleRegistry()

    @lint_rule("T001", "first-class", "model", registry=registry)
    def first_class(root, ctx):
        classes = instances_of(root, Clazz)
        if classes:
            yield ctx.diag(classes[0], f"first class {classes[0].name}")

    factory = ModelFactory("ordered")
    factory.clazz("A")
    b = factory.clazz("B")
    model = Model("urn:ordered")
    model.add_root(factory.model)
    engine = IncrementalEngine(Session(model, registry=registry), ["lint"])

    def messages():
        engine.revalidate()
        return [d.message for d in engine.report().diagnostics]

    assert messages() == ["first class A"]
    factory.model.packaged_elements.move(0, b)
    assert messages() == ["first class B"]
    assert engine.verify() == []
    engine.detach()


def test_all_instances_invariant_reruns_on_its_own_extent(library,
                                                          monkeypatch):
    """An invariant over ``GAuthor.allInstances()`` reads the GAuthor
    extent, not the tree: creating a book leaves it cached, creating an
    author reruns it, and the report equals the full pass each time."""
    model, root, engine = library
    engine.detach()
    constraints = ConstraintSet("staffing")
    staffing = constraints.add(
        classifier("GLibrary"), "small-staff",
        f"GAuthor.allInstances()->size() <= {len(root.staff)}")
    runs = []
    holds = staffing.holds

    def counting(element):
        runs.append(element)
        return holds(element)

    monkeypatch.setattr(staffing, "holds", counting)
    engine = IncrementalEngine(
        Session(model, constraint_sets=[constraints]),
        ["structural", "invariant", "constraint"])

    def reruns():
        # the engine's calls only; the oracle evaluates it once more
        runs.clear()
        engine.revalidate()
        found = list(runs)
        assert_consistent(engine)
        return found

    assert reruns() == [root]
    shelf = shelves_with_books(root, 1)[0]
    shelf.books.append(classifier("GBook")(name="unrelated", pages=3))
    assert reruns() == []
    root.staff.append(classifier("GAuthor")(name="hired"))
    assert reruns() == [root]
    assert any("small-staff" in d.message
               for d in engine.report().diagnostics)
    engine.detach()


@pytest.mark.parametrize("comes_back", [False, True],
                         ids=["stays-out", "comes-back"])
def test_write_to_a_book_that_left_reaches_its_readers(comes_back):
    """A unit read book b while b was in the model; b then leaves.  A
    write to b while it is out must still rerun that unit, whether the
    engine syncs while b is out or b is back on its shelf first."""
    root = demo_generator(seed=3).generate(60)
    model = Model("urn:left")
    model.add_root(root)
    constraints = ConstraintSet("sequels")
    constraints.add(classifier("GBook"), "sequel-pages",
                    "self.sequel.oclIsUndefined() or self.sequel.pages >= 0")
    engine = IncrementalEngine(
        Session(model, constraint_sets=[constraints]),
        ["structural", "invariant", "constraint"])
    assert_consistent(engine)
    books = instances_of(root, classifier("GBook"))
    for book in books:
        book.pages = 10
    assert_consistent(engine)
    first, sequel = books[:2]
    first.sequel = sequel
    assert_consistent(engine)
    shelf = sequel.shelf
    shelf.books.remove(sequel)
    if not comes_back:
        assert_consistent(engine)
    sequel.pages = -5                   # reaches no model
    if comes_back:
        shelf.books.append(sequel)
    assert_consistent(engine)
    assert [d.element for d in engine.report().diagnostics
            if "sequel-pages" in d.message] == [first]
    engine.detach()


def test_association_that_left_and_came_back_rechecks_its_ends():
    """An association's package leaves, one of its ends (owned by a
    class that stayed) drops it, and the package comes back: the
    association's unit reruns and reports the missing end."""
    factory = ModelFactory("assoc")
    owner, target = factory.clazz("Owner"), factory.clazz("Target")
    package = factory.package("P")
    association = factory.associate(owner, target, navigable_b_to_a=True,
                                    package=package)
    end = association.member_ends[0]
    model = Model("urn:assoc")
    model.add_root(factory.model)
    engine = IncrementalEngine(Session(model), ["structural", "invariant"])
    assert_consistent(engine)
    factory.model.packaged_elements.remove(package)
    end.association = None              # unlinks the detached end too
    factory.model.packaged_elements.append(package)
    assert_consistent(engine)
    assert any(d.code == "multiplicity" and d.element is association
               for d in engine.report().diagnostics)
    engine.detach()


def _break_back_reference(root, shelf, other, book):
    book._slots["shelf"] = None


def _break_container(root, shelf, other, book):
    book._container = other


def _remove_from_list(root, shelf, other, book):
    shelf.books.remove(book)


def _set_back_reference(root, shelf, other, book):
    book.shelf = shelf


def _move_to_other_shelf(root, shelf, other, book):
    other.books.append(book)


def _delete(root, shelf, other, book):
    book.delete()


def _rename_library(root, shelf, other, book):
    root.name = "Renamed"


@pytest.mark.parametrize("repair", [
    _remove_from_list, _set_back_reference, _move_to_other_shelf, _delete,
    _rename_library])
@pytest.mark.parametrize("damage,code", [
    (_break_back_reference, "opposite"), (_break_container, "containment")])
def test_kernel_repair_after_raw_damage(damage, code, repair):
    """Raw damage made before a build is reported by the build, and a
    kernel edit afterwards refreshes the report: the damaged audit's
    reads, the ancestor names its path renders among them, were
    recorded."""
    root = demo_generator(seed=5).generate(40)
    model = Model("urn:damage")
    model.add_root(root)
    shelf, other = shelves_with_books(root)[:2]
    book = shelf.books[0]
    damage(root, shelf, other, book)    # no notification: not a kernel edit
    engine = IncrementalEngine(Session(model), ["structural", "invariant"])
    engine.revalidate()
    assert code in {d.code for d in engine.report().diagnostics}
    assert_consistent(engine)
    repair(root, shelf, other, book)
    assert_consistent(engine)
    engine.detach()


def test_move_under_a_root_of_another_metapackage_reruns_the_invariant():
    """An invariant resolves type names in its element's root's
    metapackage too.  A thing moved from a ``BHolder`` root (package pb)
    under an ``ARoot`` root (package pa) can no longer name ``BHolder``,
    though none of the thing's slots changed: the one root read the
    invariant records, the thing's own container, reruns it, and the
    view equals a fresh check."""
    pa = define_package("pa", "urn:test:pa")
    pb = define_package("pb", "urn:test:pb")
    thing = define_class(pa, "AThing")
    a_root = define_class(pa, "ARoot")
    holder = define_class(pb, "BHolder")
    add_reference(a_root, "things", thing, containment=True,
                  multiplicity=M_0N)
    add_reference(holder, "things", thing, containment=True,
                  multiplicity=M_0N)
    Invariant(thing, "holder-exists",
              "BHolder.allInstances()->notEmpty()").register()
    here, there = a_root.instantiate(), holder.instantiate()
    model = Model("urn:two-packages")
    model.add_root(here)
    model.add_root(there)
    item = thing.instantiate()
    there.things.append(item)
    session = Session(model)
    view = session.watch(["structural", "invariant"])

    def served_codes():
        view.revalidate()
        assert view.verify() == []
        served = view.check_result()
        fresh = session.check(["structural", "invariant"])
        assert report_signature(served.as_validation_report()) == \
            report_signature(fresh.as_validation_report())
        return [d.code for d in served.diagnostics]

    try:
        assert served_codes() == []
        here.things.append(item)
        assert served_codes() == ["invariant-error"]
    finally:
        view.detach()
