"""Kernel tests: features, opposites, containment, reflection,
notifications, freezing, deletion, dynamic metamodels."""

import os
import subprocess
import sys

import pytest

from repro.mof import (
    Attribute,
    ChangeKind,
    ChangeRecorder,
    CompositionError,
    DynamicElement,
    Element,
    FrozenElementError,
    M_0N,
    M_11,
    MetamodelError,
    MetaPackage,
    MInteger,
    MString,
    Multiplicity,
    MultiplicityError,
    PackageBuilder,
    Reference,
    TypeConformanceError,
    UnknownFeatureError,
)
from kernel_fixture import TEST_PKG, TBook, TChapter, TLibrary, TNamed


class TestMetaclassHarvesting:
    def test_static_class_gets_metaclass(self):
        assert TBook._meta.name == "TBook"
        assert TBook._meta.package is TEST_PKG

    def test_features_collected_in_order(self):
        names = list(TBook._meta.own_features)
        assert names == ["library", "pages", "tags", "sequel", "prequel",
                         "chapters"]

    def test_inherited_features_visible(self):
        assert "name" in TBook._meta.all_features()
        assert TBook._meta.feature("name").owner is TNamed._meta

    def test_abstract_metaclass_not_instantiable(self):
        with pytest.raises(MetamodelError):
            TNamed()

    def test_conformance(self):
        assert TBook._meta.conforms_to(TNamed._meta)
        assert not TNamed._meta.conforms_to(TBook._meta)
        assert TBook._meta.conforms_to(TBook._meta)

    def test_subclasses_tracked(self):
        assert TBook._meta in TNamed._meta.subclasses

    def test_unknown_feature_raises(self):
        book = TBook()
        with pytest.raises(UnknownFeatureError):
            book.eget("nonexistent")

    def test_constructor_rejects_unknown_kwargs(self):
        with pytest.raises(UnknownFeatureError):
            TBook(nope=1)

    def test_shadowing_inherited_feature_rejected(self):
        with pytest.raises(MetamodelError):
            class Bad(TNamed):
                name = Attribute(MString)  # shadows TNamed.name


class TestAttributes:
    def test_default_value(self):
        assert TBook().pages == 100

    def test_set_and_get(self):
        book = TBook(pages=5)
        assert book.pages == 5
        book.pages = 7
        assert book.pages == 7

    def test_type_checked(self):
        book = TBook()
        with pytest.raises(TypeConformanceError):
            book.pages = "many"

    def test_bool_is_not_integer(self):
        book = TBook()
        with pytest.raises(TypeConformanceError):
            book.pages = True

    def test_many_valued_attribute(self):
        book = TBook()
        book.tags.append("scifi")
        book.tags.extend(["fantasy", "classic"])
        assert list(book.tags) == ["scifi", "fantasy", "classic"]

    def test_many_attribute_assignment_replaces(self):
        book = TBook()
        book.tags = ["a", "b"]
        book.tags = ["c"]
        assert list(book.tags) == ["c"]

    def test_eis_set(self):
        book = TBook()
        assert not book.eis_set("name")
        book.name = "x"
        assert book.eis_set("name")
        book.eunset("name")
        assert not book.eis_set("name")


class TestOppositesAndContainment:
    def test_containment_sets_container(self, library):
        lib, b1, b2 = library
        assert b1.container is lib
        assert b1.library is lib        # opposite maintained

    def test_opposite_single_single(self):
        a = TBook(name="a")
        b = TBook(name="b")
        a.sequel = b
        assert b.prequel is a
        c = TBook(name="c")
        a.sequel = c
        assert c.prequel is a
        assert b.prequel is None        # displaced

    def test_one_to_one_steals_partner(self):
        a, b, c = TBook(), TBook(), TBook()
        a.sequel = b
        c.sequel = b                    # b can only have one prequel
        assert b.prequel is c
        assert a.sequel is None

    def test_moving_between_containers(self, library):
        lib, b1, _ = library
        lib2 = TLibrary(name="lib2")
        lib2.books.append(b1)
        assert b1.container is lib2
        assert b1 not in lib.books
        assert b1.library is lib2

    def test_remove_clears_opposite(self, library):
        lib, b1, _ = library
        lib.books.remove(b1)
        assert b1.library is None
        assert b1.container is None

    def test_set_single_ref_to_none_unlinks(self, library):
        lib, b1, _ = library
        b1.library = None
        assert b1 not in lib.books

    def test_setting_inverse_adds_to_collection(self):
        lib = TLibrary()
        book = TBook()
        book.library = lib
        assert book in lib.books
        assert book.container is lib

    def test_self_containment_rejected(self):
        # build a dynamic class that contains itself
        pkg = (PackageBuilder("cyc")
               .clazz("Node").ref("children", "Node", containment=True,
                                  multiplicity=M_0N)
               .build())
        Node = pkg.classifier("Node")
        n = Node()
        with pytest.raises(CompositionError):
            n.children.append(n)

    def test_ancestor_containment_rejected(self):
        pkg = (PackageBuilder("cyc2")
               .clazz("Node2").ref("children", "Node2", containment=True,
                                   multiplicity=M_0N)
               .build())
        Node = pkg.classifier("Node2")
        a, b = Node(), Node()
        a.children.append(b)
        with pytest.raises(CompositionError):
            b.children.append(a)

    def test_model_root_is_never_contained(self):
        """Containing a model root, from the containment end or from the
        container-side opposite, is refused before anything is written:
        the model index announces no transition for a root that gains a
        container, so a view would lose it once it left that container."""
        from repro.generate import demo_package
        from repro.incremental import report_signature
        from repro.session import Session
        session = Session.generate("demo", size=60, seed=3, repair=False)
        model = session.model
        (library,) = model.roots
        shelves = list(library.shelves)
        pkg = demo_package()
        loose = pkg.classifier("GShelf")(name="loose")
        loose.books.append(pkg.classifier("GBook")(name="torn", pages=-1))
        model.add_root(loose)
        view = session.watch()
        try:
            with pytest.raises(CompositionError):
                library.shelves.append(loose)
            with pytest.raises(CompositionError):
                loose.library = library
            assert list(library.shelves) == shelves
            assert loose.container is None and loose.library is None
            assert model.roots == [library, loose]
            view.revalidate()
            assert model.index().verify() == []
            assert view.verify() == []
            fresh = session.check().as_validation_report()
            served = view.check_result().as_validation_report()
            assert len(fresh.diagnostics) == 8
            assert report_signature(served) == report_signature(fresh)
        finally:
            view.detach()

    def test_contents_and_all_contents(self, library):
        lib, b1, b2 = library
        ch = TChapter(name="c1")
        b1.chapters.append(ch)
        assert lib.contents() == [b1, b2]
        assert list(lib.all_contents()) == [b1, ch, b2]
        assert ch.root() is lib


    def test_one_sided_reference_pairs_whichever_end_is_read_first(self):
        # GBook.shelf is declared without opposite=; GShelf.books names
        # it.  In a fresh process the first write through the one-sided
        # end must pair both ends, as it does once GShelf.books was read.
        script = (
            "from repro.generate import demo_package\n"
            "pkg = demo_package()\n"
            "shelf = pkg.classifier('GShelf').instantiate()\n"
            "book = pkg.classifier('GBook').instantiate()\n"
            "book.eset('shelf', shelf)\n"
            "print(list(shelf.eget('books')) == [book],"
            " book.container is shelf)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True"]

    def test_late_partner_pairs_a_reference_already_read(self):
        from repro.mof import add_reference, define_class
        pkg = MetaPackage("late")
        item = define_class(pkg, "Item")
        bag = define_class(pkg, "Bag")
        owner = add_reference(item, "bag", bag)
        assert owner.opposite is None
        items = add_reference(bag, "items", item, containment=True,
                              multiplicity=M_0N, opposite="bag")
        assert owner.opposite is items
        thing, sack = item(), bag()
        thing.bag = sack
        assert list(sack.items) == [thing] and thing.container is sack


class TestCollectionSemantics:
    def test_uniqueness_on_append(self, library):
        lib, b1, _ = library
        before = len(lib.books)
        lib.books.append(b1)            # no-op: already present
        assert len(lib.books) == before

    def test_insert_position(self):
        lib = TLibrary()
        b1, b2, b3 = TBook(name="1"), TBook(name="2"), TBook(name="3")
        lib.books.extend([b1, b3])
        lib.books.insert(1, b2)
        assert [b.name for b in lib.books] == ["1", "2", "3"]

    def test_move(self, library):
        lib, b1, b2 = library
        lib.books.move(0, b2)
        assert list(lib.books) == [b2, b1]

    def test_pop_and_discard(self, library):
        lib, b1, b2 = library
        popped = lib.books.pop()
        assert popped is b2 and popped.library is None
        lib.books.discard(popped)       # absent: no error
        lib.books.remove(b1)
        with pytest.raises(ValueError):
            lib.books.remove(b1)

    def test_clear(self, library):
        lib, b1, b2 = library
        lib.books.clear()
        assert len(lib.books) == 0
        assert b1.container is None and b2.container is None

    def test_upper_bound_enforced(self):
        pkg = (PackageBuilder("bnd")
               .clazz("Pair").ref("items", "Pair",
                                  multiplicity=Multiplicity(0, 2))
               .build())
        Pair = pkg.classifier("Pair")
        p = Pair()
        p.items.extend([Pair(), Pair()])
        with pytest.raises(MultiplicityError):
            p.items.append(Pair())

    def test_typecheck_on_append(self, library):
        lib, _, _ = library
        with pytest.raises(TypeConformanceError):
            lib.books.append(TLibrary())


class TestNotifications:
    def test_attribute_set_notifies(self):
        book = TBook()
        recorder = ChangeRecorder()
        book.observe(recorder)
        book.pages = 42
        assert len(recorder) == 1
        note = recorder.notifications[0]
        assert note.kind is ChangeKind.SET and note.new == 42

    def test_reference_add_notifies_both_sides(self):
        lib, book = TLibrary(), TBook()
        rec_lib, rec_book = ChangeRecorder(), ChangeRecorder()
        lib.observe(rec_lib)
        book.observe(rec_book)
        lib.books.append(book)
        kinds = {n.kind for n in rec_lib.notifications}
        assert ChangeKind.ADD in kinds
        assert any(n.kind is ChangeKind.SET for n in rec_book.notifications)

    def test_unobserve(self):
        book = TBook()
        recorder = ChangeRecorder()
        book.observe(recorder)
        book.unobserve(recorder)
        book.pages = 1
        assert len(recorder) == 0

    def test_no_notification_for_noop_set(self):
        book = TBook(pages=3)
        recorder = ChangeRecorder()
        book.observe(recorder)
        book.pages = 3
        assert len(recorder) == 0


class TestFreezeAndDelete:
    def test_frozen_blocks_mutation(self, library):
        lib, b1, _ = library
        lib.freeze()
        with pytest.raises(FrozenElementError):
            lib.name = "other"
        with pytest.raises(FrozenElementError):
            b1.pages = 1                # recursive freeze
        lib.unfreeze()
        lib.name = "ok"

    def test_delete_detaches_everything(self, library):
        lib, b1, b2 = library
        b1.sequel = b2
        b1.delete()
        assert b1 not in lib.books
        assert b2.prequel is None

    def test_delete_of_referenced_element(self, library):
        lib, b1, _ = library
        lib.featured = b1
        b1.delete()
        # featured is a plain ref without opposite: deletion cannot see it,
        # but removing b1 from books must have worked
        assert b1 not in lib.books


class TestDynamicMetamodels:
    def test_builder_roundtrip(self):
        pkg = (PackageBuilder("dyn")
               .enum("Color", ["red", "green"])
               .clazz("Shape", abstract=True).attr("name", MString)
               .clazz("Circle", superclasses=["Shape"])
               .attr("radius", MInteger, 1)
               .ref("next", "Circle")
               .build())
        Circle = pkg.classifier("Circle")
        c = Circle(name="c", radius=5)
        assert isinstance(c, DynamicElement)
        assert c.radius == 5
        assert c.meta.conforms_to(pkg.classifier("Shape"))

    def test_dynamic_enum_attribute(self):
        builder = PackageBuilder("dyn2")
        builder.enum("Mode", ["fast", "slow"])
        mode = builder.package.classifier("Mode")
        builder.clazz("Engine").attr("mode", mode, "fast")
        pkg = builder.build()
        engine = pkg.classifier("Engine")()
        assert engine.mode == "fast"
        engine.mode = "slow"
        with pytest.raises(TypeConformanceError):
            engine.mode = "warp"

    def test_dynamic_unknown_feature(self):
        pkg = PackageBuilder("dyn3").clazz("Empty").build()
        empty = pkg.classifier("Empty")()
        with pytest.raises(UnknownFeatureError):
            empty.bogus = 1
        with pytest.raises(AttributeError):
            _ = empty.bogus

    def test_dynamic_static_mixed_inheritance(self):
        pkg = MetaPackage("dynmix")
        from repro.mof import define_class, add_attribute
        meta = define_class(pkg, "SpecialBook", superclasses=[TBook])
        add_attribute(meta, "isbn", MString)
        special = meta()
        special.name = "s"
        special.isbn = "123"
        assert special.meta.conforms_to(TBook._meta)
        lib = TLibrary()
        lib.books.append(special)       # conforms to TBook
        assert special.library is lib

    def test_abstract_dynamic_not_instantiable(self):
        pkg = PackageBuilder("dyn4").clazz("Base", abstract=True).build()
        with pytest.raises(MetamodelError):
            pkg.classifier("Base")()

    def test_containment_added_to_superclass_after_instances(self):
        from repro.mof import add_reference, define_class
        pkg = MetaPackage("dyn5")
        base = define_class(pkg, "Box")
        add_reference(base, "items", base, containment=True,
                      multiplicity=M_0N)
        crate = define_class(pkg, "Crate", superclasses=[base])
        outer, inner, extra, nested = crate(), crate(), crate(), base()
        outer.items.append(inner)
        # the subclass's containment features are cached by now
        assert outer.contents() == [inner]
        assert crate.containment_features() == (base.feature("items"),)
        lids = add_reference(base, "lids", base, containment=True,
                             multiplicity=M_0N)
        assert crate.containment_features() == (base.feature("items"),
                                                lids)
        outer.lids.append(extra)
        extra.lids.append(nested)
        assert outer.contents() == [inner, extra]
        assert list(outer.all_contents()) == [inner, extra, nested]
        assert nested.root() is outer


class TestRepr:
    def test_named_repr(self):
        assert "b" in repr(TBook(name="b"))

    def test_dynamic_repr(self):
        pkg = (PackageBuilder("dynr").clazz("Thing").attr("name", MString)
               .build())
        thing = pkg.classifier("Thing")(name="t")
        assert "Thing" in repr(thing) and "t" in repr(thing)
