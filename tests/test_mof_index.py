"""Tests for the incrementally maintained model indexes.

The :class:`~repro.mof.index.ModelIndex` must agree with the containment
scans it replaces after *any* sequence of model edits (the EditFuzzer
drives set/unset/add/remove/move/reparent/create/delete through the
notification protocol), and ``Repository.resolve`` must stay correct
across element moves and removals — the regression that motivated the
eid index cross-check.
"""

import pytest

from repro.generate import EditFuzzer, demo_generator, demo_package
from repro.mof import (
    EXTENT_KEY,
    M_0N,
    MInteger,
    MetaClass,
    Model,
    Repository,
    RepositoryError,
    add_attribute,
    add_reference,
    define_class,
    define_package,
    instances_of,
    set_read_hook,
    transaction,
)
from repro.incremental.tracking import collect_reads


def scan_instances(model, metaclass, exact=False):
    if exact:
        return [e for e in model.all_elements() if e.meta is metaclass]
    return [e for e in model.all_elements()
            if e.meta.conforms_to(metaclass)]


def assert_index_matches_scans(model):
    index = model.index()
    problems = index.verify()
    assert problems == []
    metaclasses = {e.meta for e in model.all_elements()}
    for metaclass in metaclasses:
        for exact in (False, True):
            indexed = model.instances_of(metaclass, exact=exact)
            scanned = scan_instances(model, metaclass, exact=exact)
            assert sorted(map(id, indexed)) == sorted(map(id, scanned)), (
                metaclass.name, exact)


def assert_columns_match_objects(model):
    """Build every extent block, then oracle-check each column cell
    against a per-object read (the ColumnStore property-test oracle)."""
    store = model.column_store()
    assert store is not None
    for metaclass in store.extent_metaclasses():
        store.block(metaclass)
    assert store.verify() == []


class TestIndexMaintenance:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_extents_survive_fuzzed_edits(self, seed):
        root = demo_generator(seed).generate(40)
        model = Model(f"urn:fuzz{seed}")
        model.add_root(root)
        model.index()                       # build before the edits
        fuzzer = EditFuzzer(root, seed=seed)
        for _round in range(12):
            fuzzer.apply_random_edits(15)
            assert_index_matches_scans(model)

    def test_lazy_build_after_edits(self):
        root = demo_generator(9).generate(30)
        model = Model("urn:lazybuild")
        model.add_root(root)
        EditFuzzer(root, seed=9).apply_random_edits(50)
        assert_index_matches_scans(model)   # first index build happens here

    def test_root_add_and_remove(self):
        pkg = demo_package()
        library = pkg.classifier("GLibrary")
        first = demo_generator(1).generate(15)
        second = demo_generator(2).generate(15)
        model = Model("urn:roots")
        model.add_root(first)
        index = model.index()
        before = len(model.instances_of(library))
        in_second = sum(
            1 for e in [second] + list(second.all_contents())
            if e.meta.conforms_to(library))
        model.add_root(second)
        assert len(model.instances_of(library)) == before + in_second
        assert index.verify() == []
        model.remove_root(second)
        assert len(model.instances_of(library)) == before
        assert index.verify() == []

    def test_read_hook_gates_to_scan(self):
        root = demo_generator(4).generate(25)
        model = Model("urn:gated")
        model.add_root(root)
        book = demo_package().classifier("GBook")
        indexed = model.instances_of(book)
        reads = set()
        with collect_reads(reads):
            scanned = model.instances_of(book)
        # same answer either way, but the tracked path performed the
        # per-element reads dependency tracking relies on
        assert sorted(map(id, scanned)) == sorted(map(id, indexed))
        assert reads
        # a counting probe alone keeps the O(answer) index path
        counted = []
        previous = set_read_hook(lambda element, key: counted.append(key))
        try:
            probed = model.instances_of(book)
        finally:
            set_read_hook(previous)
        assert sorted(map(id, probed)) == sorted(map(id, indexed))
        assert counted == []

    def test_read_hook_gates_to_scan_under_index_verify(self, monkeypatch):
        # the oracle's own scan must not reach the installed hook either
        monkeypatch.setenv("REPRO_INDEX_VERIFY", "1")
        self.test_read_hook_gates_to_scan()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_columns_survive_fuzzed_edits(self, seed):
        # same drive as the index fuzz, but with the columnar store
        # attached: every round rebuilds the stale blocks lazily and the
        # verify() oracle cross-checks each cell against object reads
        root = demo_generator(seed).generate(40)
        model = Model(f"urn:colfuzz{seed}")
        model.add_root(root)
        model.enable_columns()
        assert_columns_match_objects(model)     # warm before the edits
        fuzzer = EditFuzzer(root, seed=seed)
        for _round in range(12):
            fuzzer.apply_random_edits(15)
            assert_index_matches_scans(model)
            assert_columns_match_objects(model)

    def test_columns_root_add_and_remove(self):
        pkg = demo_package()
        book = pkg.classifier("GBook")
        model = Model("urn:colroots")
        model.add_root(demo_generator(1).generate(15))
        store = model.enable_columns()
        assert_columns_match_objects(model)
        second = demo_generator(2).generate(15)
        model.add_root(second)
        assert_columns_match_objects(model)
        values = store.block(book).columns["pages"]
        assert len(values) == len(model.instances_of(book, exact=True))
        model.remove_root(second)
        assert_columns_match_objects(model)
        values = store.block(book).columns["pages"]
        assert len(values) == len(model.instances_of(book, exact=True))

    def test_columns_fresh_after_aborted_transaction(self):
        from repro.mof import transaction
        root = demo_generator(7).generate(30)
        model = Model("urn:coltxn")
        model.add_root(root)
        model.enable_columns()
        assert_columns_match_objects(model)
        fuzzer = EditFuzzer(root, seed=7, profile="destructive")

        class Abort(RuntimeError):
            pass

        for _round in range(3):
            with pytest.raises(Abort):
                with transaction():
                    fuzzer.apply_random_edits(10)
                    assert_columns_match_objects(model)   # mid-txn reads
                    raise Abort
            # rollback replays inverses through the same notifications,
            # so the rebuilt columns must match the restored objects
            assert_columns_match_objects(model)

    def test_verify_reports_divergence(self):
        root = demo_generator(6).generate(10)
        model = Model("urn:broken")
        model.add_root(root)
        index = model.index()
        victim = next(iter(root.all_contents()))
        index._remove_one(victim)           # simulate a missed notification
        assert any("missing from index" in p for p in index.verify())
        index.rebuild()
        assert index.verify() == []


def walked_instances(root, metaclass, include_self=True):
    """The reference: the containment walk ``instances_of`` made before
    it read the index's preorder."""
    elements = [root] if include_self else []
    elements += root.all_contents()
    return [e for e in elements if e.meta.conforms_to(metaclass)]


def assert_instances_match_walk(model, root):
    walked = [root] + list(root.all_contents())
    assert list(map(id, model.index().preorder(root))) == \
        list(map(id, walked))
    metaclasses = [c for c in demo_package().classifiers.values()
                   if isinstance(c, MetaClass)]
    for metaclass in metaclasses:
        for include_self in (True, False):
            answer = instances_of(root, metaclass, include_self)
            expected = walked_instances(root, metaclass, include_self)
            assert list(map(id, answer)) == list(map(id, expected)), (
                metaclass.name, include_self)
    assert model.index().verify() == []


class TestPreorderInstances:
    """``instances_of`` on a model root filters the index's cached
    preorder and records one extent read; it must give the walk's
    answer, order included, after any structural edit."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_structural_edits_keep_walk_order(self, seed):
        generator = demo_generator(seed)
        root = generator.generate(40)
        model = Model(f"urn:preorder{seed}")
        model.add_root(root)
        fuzzer = EditFuzzer(root, seed=seed, generator=generator)
        assert_instances_match_walk(model, root)
        for step in range(48):
            op = ("move", "reparent", "create", "delete")[step % 4]
            getattr(fuzzer, f"_op_{op}")()
            assert_instances_match_walk(model, root)

    def test_aborted_transaction_restores_walk_order(self):
        generator = demo_generator(8)
        root = generator.generate(40)
        model = Model("urn:preorder-abort")
        model.add_root(root)
        fuzzer = EditFuzzer(root, seed=8, generator=generator,
                            profile="destructive")

        class Abort(RuntimeError):
            pass

        for _round in range(4):
            with pytest.raises(Abort):
                with transaction():
                    for _edit in range(10):
                        fuzzer.random_edit()
                        assert_instances_match_walk(model, root)
                    raise Abort
            assert_instances_match_walk(model, root)

    def test_model_root_records_one_extent_read(self):
        root = demo_generator(4).generate(25)
        model = Model("urn:extent-read")
        model.add_root(root)
        book = demo_package().classifier("GBook")
        reads = set()
        with collect_reads(reads):
            found = instances_of(root, book)
        assert found == walked_instances(root, book)
        assert reads == {(book, EXTENT_KEY)}

    def test_detached_root_records_its_walk(self):
        root = demo_generator(4).generate(25)
        book = demo_package().classifier("GBook")
        reads = set()
        with collect_reads(reads):
            found = instances_of(root, book)
        assert found == walked_instances(root, book)
        assert (root, "shelves") in reads
        assert not any(name == EXTENT_KEY for _obj, name in reads)


class TestRepositoryResolve:
    def _repo_with_book(self):
        repo = Repository()
        source = repo.create_model("urn:a")
        target = repo.create_model("urn:b")
        source.add_root(demo_generator(3).generate(20))
        target.add_root(demo_generator(8).generate(5))
        book = next(e for e in source.all_elements()
                    if e.meta.name == "GBook")
        return repo, source, target, book

    def test_resolve_uses_eid_index(self):
        repo, source, _target, book = self._repo_with_book()
        eid = book.eid
        assert repo.resolve(f"urn:a#{eid}") is book
        hits_before = source.index().hits
        assert repo.resolve(f"urn:a#{eid}") is book
        assert source.index().hits > hits_before

    def test_resolve_after_move_between_models(self):
        repo, _source, target, book = self._repo_with_book()
        eid = book.eid
        assert repo.resolve(f"urn:a#{eid}") is book
        book._detach()
        shelf = next((e for e in target.all_elements()
                      if e.meta.name == "GShelf"), None)
        if shelf is None:
            shelf = demo_package().classifier("GShelf").instantiate()
            target.roots[0].eget("shelves").append(shelf)
        shelf.eget("books").append(book)
        assert repo.resolve(f"urn:b#{eid}") is book
        with pytest.raises(RepositoryError):
            repo.resolve(f"urn:a#{eid}")

    def test_resolve_after_delete(self):
        repo, _source, _target, book = self._repo_with_book()
        eid = book.eid
        assert repo.resolve(f"urn:a#{eid}") is book
        book.delete()
        with pytest.raises(RepositoryError):
            repo.resolve(f"urn:a#{eid}")

    def test_resolve_lazily_assigned_eid(self):
        # eids are assigned on first access without any notification; the
        # index must repair itself through the scan fallback.
        repo = Repository()
        model = repo.create_model("urn:lazy")
        model.add_root(demo_generator(12).generate(12))
        model.index()                       # built before any eid exists
        element = next(iter(model.all_elements()))
        eid = element.eid                   # assigned now, silently
        assert repo.resolve(f"urn:lazy#{eid}") is element
        scans = model.index().eid_scans
        assert repo.resolve(f"urn:lazy#{eid}") is element
        assert model.index().eid_scans == scans     # second hit is indexed

    def test_resolve_after_set_eid_rebind(self):
        repo, _source, _target, book = self._repo_with_book()
        eid = book.eid
        assert repo.resolve(f"urn:a#{eid}") is book
        book.set_eid("rebound-1")
        assert repo.resolve("urn:a#rebound-1") is book
        with pytest.raises(RepositoryError):
            repo.resolve(f"urn:a#{eid}")


class TestRepositoryAllInstances:
    def test_all_instances_matches_scans(self):
        repo = Repository()
        for seed in (1, 2):
            model = repo.create_model(f"urn:m{seed}")
            model.add_root(demo_generator(seed).generate(20))
        pkg = demo_package()
        for name in ("GBook", "GShelf", "GNamed", "GLibrary"):
            metaclass = pkg.classifier(name)
            for exact in (False, True):
                indexed = repo.all_instances(metaclass, exact=exact)
                scanned = [e for e in repo.all_elements()
                           if (e.meta is metaclass if exact
                               else e.meta.conforms_to(metaclass))]
                assert sorted(map(id, indexed)) == sorted(map(id, scanned))

    def test_subclass_instances_found_via_superclass(self):
        pkg = define_package("extent", "urn:test:extent")
        base = define_class(pkg, "EBase")
        add_attribute(base, "n", MInteger, 0)
        sub = define_class(pkg, "ESub", superclasses=[base])
        container = define_class(pkg, "EBox")
        add_reference(container, "items", base, containment=True,
                      multiplicity=M_0N)
        box = container.instantiate()
        model = Model("urn:extent")
        model.add_root(box)
        model.index()
        items = box.eget("items")
        items.append(base.instantiate())
        items.append(sub.instantiate())
        items.append(sub.instantiate())
        assert len(model.instances_of(base)) == 3
        assert len(model.instances_of(base, exact=True)) == 1
        assert len(model.instances_of(sub)) == 2


class TestIndexAfterRollback:
    """Rollback replays inverses through the same kernel operations the
    forward edits used, so the notification-maintained structures — the
    ModelIndex extents and the Repository eid index — must come out of
    an aborted transaction exactly as fresh as they went in.  Run under
    REPRO_INDEX_VERIFY so every indexed answer is oracle-checked."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_extents_fresh_after_aborted_fuzz(self, seed, monkeypatch):
        from repro.mof import transaction
        monkeypatch.setenv("REPRO_INDEX_VERIFY", "1")
        generator = demo_generator(seed)
        root = generator.generate(30)
        model = Model(f"urn:rollback{seed}")
        model.add_root(root)
        model.index()                       # maintained from here on
        fuzzer = EditFuzzer(root, seed=seed, generator=generator,
                            profile="destructive")

        class Abort(RuntimeError):
            pass

        for round_no in range(4):
            with pytest.raises(Abort):
                with transaction():
                    fuzzer.apply_random_edits(12)
                    assert_index_matches_scans(model)   # mid-txn queries
                    raise Abort
            assert_index_matches_scans(model)           # post-abort
        # and committed work is still tracked afterwards
        fuzzer.apply_random_edits(12)
        assert_index_matches_scans(model)

    def test_resolve_fresh_after_aborted_delete(self):
        from repro.mof import transaction
        repo = Repository()
        model = repo.create_model("urn:txnresolve")
        model.add_root(demo_generator(3).generate(20))
        book = next(e for e in model.all_elements()
                    if e.meta.name == "GBook")
        eid = book.eid
        assert repo.resolve(f"urn:txnresolve#{eid}") is book

        class Abort(RuntimeError):
            pass

        with pytest.raises(Abort):
            with transaction():
                book.delete()
                with pytest.raises(RepositoryError):
                    repo.resolve(f"urn:txnresolve#{eid}")
                raise Abort
        # the aborted delete must not leave the eid unresolvable
        assert repo.resolve(f"urn:txnresolve#{eid}") is book

    def test_resolve_does_not_leak_rolled_back_elements(self):
        from repro.mof import transaction
        pkg = demo_package()
        repo = Repository()
        model = repo.create_model("urn:txnleak")
        model.add_root(demo_generator(4).generate(10))
        library = model.roots[0]

        class Abort(RuntimeError):
            pass

        with pytest.raises(Abort):
            with transaction():
                shelf = pkg.classifier("GShelf").instantiate()
                library.eget("shelves").append(shelf)
                eid = shelf.eid             # assigned while attached
                assert repo.resolve(f"urn:txnleak#{eid}") is shelf
                raise Abort
        with pytest.raises(RepositoryError):
            repo.resolve(f"urn:txnleak#{eid}")
