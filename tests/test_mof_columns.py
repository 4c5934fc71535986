"""Tests for the columnar extent store (repro.mof.columns).

The store is an opt-in struct-of-arrays mirror of each exact-metaclass
extent, maintained off the same notification protocol as the
ModelIndex.  Everything here pivots on two properties:

* **freshness** — after any edit sequence, a rebuilt block agrees with
  per-object reads cell by cell (``ColumnStore.verify`` is the oracle);
* **output invariance** — a columnar :meth:`Session.check` produces a
  byte-identical diagnostic document to the object-backed run, because
  the bulk scans only ever *narrow* which elements get the exact
  per-object checker, never change what it reports.
"""

import gc
import json
import weakref

import pytest

from repro.generate import EditFuzzer, demo_generator, demo_package
from repro.mof import (
    M_0N,
    M_11,
    M_1N,
    Model,
    add_reference,
    define_class,
    define_package,
    set_read_hook,
    transaction,
)
from repro.incremental.tracking import collect_reads
from repro.mof.validate import validate_element
from repro.ocl.invariants import ConstraintSet
from repro.session import Session


def _instances(model, name):
    return model.instances_of(demo_package().classifier(name), exact=True)


def _books_of_a_full_shelf(model):
    return next(shelf.eget("books") for shelf in _instances(model, "GShelf")
                if len(shelf.eget("books")) >= 2)


def _feature_another_book(model):
    library = model.roots[0]
    library.eset("featured", next(
        book for book in _instances(model, "GBook")
        if book is not library.eget("featured")))


def _remove_a_book(model):
    books = _books_of_a_full_shelf(model)
    books.remove(books[0])


def _move_a_book(model):
    books = _books_of_a_full_shelf(model)
    books.move(0, books[-1])


def _abandon_a_write(model):
    with pytest.raises(RuntimeError):
        with transaction():
            _instances(model, "GBook")[0].eset("pages", 7)
            raise RuntimeError("abandon the edit")


#: one of each kind of change a model sees, on the ``library_model``
CHANGES = {
    "attribute-write":
        lambda model: _instances(model, "GBook")[0].eset("pages", 7),
    "cross-reference-link": _feature_another_book,
    "containment-add": lambda model: _instances(model, "GShelf")[0].eget(
        "books").append(demo_package().classifier("GBook").instantiate()),
    "containment-remove": _remove_a_book,
    "containment-move": _move_a_book,
    "add-root": lambda model: model.add_root(demo_generator(2).generate(10)),
    "remove-root": lambda model: model.remove_root(model.roots[0]),
    "aborted-transaction": _abandon_a_write,
}


@pytest.fixture
def library_model():
    root = demo_generator(5).generate(40)
    model = Model("urn:columns")
    model.add_root(root)
    return model


class TestColumnGate:
    def test_tracking_hides_the_column_store(self, library_model):
        store = library_model.enable_columns()
        assert library_model.column_store() is store
        with collect_reads(set()):
            # dependency tracking must see per-element reads; a bulk
            # scan would hide them, so the model offers no store
            assert library_model.column_store() is None
        assert library_model.column_store() is store
        # a counting probe is not dependency tracking: the store stays
        reads = []
        previous = set_read_hook(lambda element, key: reads.append(key))
        try:
            assert library_model.column_store() is store
            library_model.roots[0].eget("name")
        finally:
            set_read_hook(previous)
        assert reads


class TestColumnStoreMaintenance:
    def test_write_invalidates_and_rebuild_reflects_it(self, library_model):
        store = library_model.enable_columns()
        book = demo_package().classifier("GBook")
        some_book = library_model.instances_of(book, exact=True)[0]
        before = list(store.block(book).columns["pages"])
        rebuilds = store.rebuilds
        some_book.eset("pages", 123456)
        after = store.block(book).columns["pages"]
        assert store.rebuilds > rebuilds
        assert 123456 in after
        assert before != after

    def test_the_store_subscribes_to_nothing(self, library_model):
        index = library_model.index()
        observers = list(library_model._observers)
        listeners = list(index.listeners)
        library_model.enable_columns()
        assert library_model._observers == observers
        assert index.listeners == listeners

    def test_an_unchanged_model_rebuilds_no_block(self, library_model):
        session = Session(library_model, columnar=True)
        first = session.check().to_json()
        store = library_model.column_store()
        rebuilds = store.rebuilds
        assert rebuilds > 0
        assert session.check().to_json() == first
        assert store.rebuilds == rebuilds

    @pytest.mark.parametrize("change", list(CHANGES))
    def test_every_change_rebuilds_on_the_next_read(self, library_model,
                                                    change):
        store = library_model.enable_columns()
        metaclasses = [demo_package().classifier(name) for name in
                       ("GLibrary", "GShelf", "GBook", "GAuthor")]
        for meta in metaclasses:
            store.block(meta)
        assert store.stats()["built"] == len(metaclasses)
        CHANGES[change](library_model)
        # any change leaves no block current...
        assert store.stats()["built"] == 0
        rebuilds = store.rebuilds
        for meta in metaclasses:
            store.block(meta)
        # ...and the next read rebuilds each one from the model
        assert store.rebuilds == rebuilds + len(metaclasses)
        assert store.verify() == []

    def test_stale_blocks_do_not_keep_deleted_elements_alive(self):
        """Deleting a shelf's books after a columnar pass and reading
        one block leaves alive only the books a column-free session
        keeps too (one-way references hold some of them)."""
        def alive_after_deletes(columnar):
            model = Model(f"urn:pins-{columnar}")
            model.add_root(demo_generator(1).generate(2000))
            Session(model, columnar=columnar).check(
                ["structural", "invariant"])
            shelf = max(_instances(model, "GShelf"),
                        key=lambda shelf: len(shelf.books))
            books = [weakref.ref(book) for book in shelf.books]
            for book in books:
                book().delete()
            if columnar:
                model.column_store().block(
                    demo_package().classifier("GBook"))
            gc.collect()
            return [book() is not None for book in books]

        plain = alive_after_deletes(False)
        assert len(plain) > sum(plain)
        assert alive_after_deletes(True) == plain

    def test_verify_reports_injected_divergence(self, library_model):
        store = library_model.enable_columns()
        book = demo_package().classifier("GBook")
        block = store.block(book)
        assert store.verify() == []
        # simulate a missed notification by corrupting one cell
        block.columns["color"][0] = "not-a-color"
        assert any("color[0]" in problem for problem in store.verify())

    def test_stats_shape(self, library_model):
        store = library_model.enable_columns()
        book = demo_package().classifier("GBook")
        store.block(book)
        stats = store.stats()
        assert stats["enabled"] is True
        assert stats["rebuilds"] >= 1
        assert stats["bytes"] > 0
        assert stats["per_extent"]["GBook"]["rows"] == len(
            library_model.instances_of(book, exact=True))


class TestStructuralScan:
    def _strict_package(self):
        pkg = define_package("colstruct", "urn:test:colstruct")
        box = define_class(pkg, "CBox")
        item = define_class(pkg, "CItem")
        add_reference(box, "items", item, containment=True,
                      multiplicity=M_1N)
        add_reference(box, "lid", item, multiplicity=M_11)
        add_reference(box, "subboxes", box, containment=True,
                      multiplicity=M_0N)
        return pkg, box, item

    def test_scan_flags_every_structural_violator(self):
        _pkg, box_class, item_class = self._strict_package()
        root = box_class.instantiate()
        model = Model("urn:strict")
        model.add_root(root)
        good = item_class.instantiate()
        root.eget("items").append(good)
        root.eset("lid", good)                   # root is clean
        bad = box_class.instantiate()            # items empty under 1..*,
        root.eget("subboxes").append(bad)        # lid unset under 1..1

        store = model.enable_columns()
        suspects = store.scan_structural()
        violators = {
            id(e) for e in model.all_elements()
            if validate_element(e, check_invariants=False).diagnostics}
        # completeness: the bulk scan may over-approximate but must
        # never miss an element the per-object validator would flag
        assert id(bad) in violators
        assert violators <= set(suspects)
        # ...and after a repair, a rebuilt scan clears the suspect
        bad.eget("items").append(item_class.instantiate())
        bad.eset("lid", bad.eget("items")[0])
        assert id(bad) not in store.scan_structural()

    def test_clean_model_scan_bounds_revalidation(self, library_model):
        store = library_model.enable_columns()
        suspects = store.scan_structural()
        model_elements = {id(e) for e in library_model.all_elements()}
        # over-approximation is allowed, but suspects must still be
        # elements of this model
        assert set(suspects) <= model_elements


class TestColumnarSessionParity:
    """Columnar on/off must not change a single output byte."""

    @pytest.mark.parametrize("seed", range(50))
    def test_check_documents_byte_identical(self, seed):
        plain = Session(self._fresh_root(seed))
        columnar = Session(self._fresh_root(seed), columnar=True)
        assert self._doc(plain) == self._doc(columnar)
        # ...and still after an identically seeded fuzz of both models
        EditFuzzer(plain.roots[0], seed=seed).apply_random_edits(20)
        EditFuzzer(columnar.roots[0], seed=seed).apply_random_edits(20)
        assert self._doc(plain) == self._doc(columnar)

    @pytest.mark.parametrize("expression", [
        "GBook.allInstances()->forAll(b | b.pages >= 0)",
        "GBook.allInstances()->exists(b | b.pages < 0)",
    ])
    def test_quantifier_after_a_move(self, expression):
        """The column is in extent order and ``allInstances`` iterates in
        preorder: after a move reorders two books whose values decide
        the answer differently (one raises, one does not), both paths
        must still give one answer."""
        sessions = []
        for columnar in (False, True):
            model = Model("urn:moved")
            model.add_root(demo_generator(3).generate(60))
            constraints = ConstraintSet("moved")
            constraints.add(demo_package().classifier("GLibrary"),
                            "books", expression)
            sessions.append(Session(model, constraint_sets=[constraints],
                                    columnar=columnar))
        for session in sessions:
            books = next(shelf.eget("books")
                         for shelf in session.model.all_elements()
                         if shelf.meta.name == "GShelf"
                         and len(shelf.eget("books")) >= 2)
            first, second = books[0], books[1]
            first.eset("pages", None)
            second.eset("pages", -1)
            books.move(0, second)
        plain, columnar = sessions
        assert self._doc(plain) == self._doc(columnar)

    @staticmethod
    def _fresh_root(seed):
        root = demo_generator(seed).generate(25)
        model = Model(f"urn:parity{seed}")
        model.add_root(root)
        return model

    @staticmethod
    def _doc(session):
        return json.dumps(session.check().to_json(), sort_keys=True)

    def test_session_stats_reports_columns(self, library_model):
        plain = Session(library_model)
        assert plain.stats()["model"]["columns"] == {"enabled": False}
        columnar = Session(library_model, columnar=True)
        columnar.check(["structural", "invariant"])
        stats = columnar.stats()["model"]["columns"]
        assert stats["enabled"] is True
        assert stats["extents"] > 0
