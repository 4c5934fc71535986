"""Tests for XMI-style XML and JSON interchange."""

import pytest

from repro.mof import (M_0N, MReal, Model, PackageBuilder, Repository,
                       RepositoryError, TypeConformanceError, validate_tree)
from repro.uml import UML, Interaction, ModelFactory, StateMachine, UseCase
from repro.xmi import read_json, read_xml, write_json, write_xml
from kernel_fixture import TEST_PKG, TBook, TLibrary


@pytest.fixture
def uml_model(cruise_model):
    model = Model("urn:cruise", "cruise")
    model.add_root(cruise_model.model)
    return model


def find(model, name):
    for element in model.all_elements():
        if getattr(element, "name", None) == name:
            return element
    raise AssertionError(f"no element named {name}")


class TestXmlRoundtrip:
    def test_structure_preserved(self, uml_model):
        text = write_xml(uml_model)
        loaded = read_xml(text, [UML])
        assert loaded.uri == "urn:cruise"
        original_count = sum(1 for _ in uml_model.all_elements())
        loaded_count = sum(1 for _ in loaded.all_elements())
        assert loaded_count == original_count

    def test_cross_references_resolved(self, uml_model):
        loaded = read_xml(write_xml(uml_model), [UML])
        controller = find(loaded, "CruiseController")
        prop = controller.attribute("actuator")
        assert prop is not None
        assert prop.type.name == "ThrottleActuator"
        assert prop.association is not None

    def test_state_machine_preserved(self, uml_model):
        loaded = read_xml(write_xml(uml_model), [UML])
        controller = find(loaded, "CruiseController")
        machine = controller.state_machine()
        assert machine is not None
        assert machine.events() == ["disengage", "engage", "tick"]
        transition = [t for t in machine.all_transitions()
                      if t.trigger == "tick"][0]
        assert transition.guard == "enabled = true"

    def test_generalizations_preserved(self, factory):
        base = factory.clazz("Base")
        derived = factory.clazz("Derived", supers=[base])
        model = Model("urn:g")
        model.add_root(factory.model)
        loaded = read_xml(write_xml(model), [UML])
        derived2 = find(loaded, "Derived")
        assert [s.name for s in derived2.supers()] == ["Base"]

    def test_roundtrip_is_stable(self, uml_model):
        once = write_xml(uml_model)
        twice = write_xml(read_xml(once, [UML]))
        assert once == twice

    def test_loaded_model_validates(self, uml_model):
        loaded = read_xml(write_xml(uml_model), [UML])
        for root in loaded.roots:
            assert validate_tree(root).ok

    def test_many_valued_attributes(self):
        book = TBook(name="b")
        book.tags.extend(["a", "b c", "d"])
        text = write_xml(book, uri="urn:b")
        loaded = read_xml(text, [TEST_PKG])
        assert list(loaded.roots[0].tags) == ["a", "b c", "d"]

    def test_booleans_and_numbers_coerced(self, factory):
        cls = factory.clazz("C", is_abstract=True, is_active=True)
        sub = factory.clazz("S", supers=[cls])
        model = Model("urn:t")
        model.add_root(factory.model)
        loaded = read_xml(write_xml(model), [UML])
        assert find(loaded, "C").is_abstract is True

    def test_unknown_type_label_rejected(self):
        bad = '<xmi uri="u" name="n"><root type="uml:Nope" id="x"/></xmi>'
        with pytest.raises(RepositoryError):
            read_xml(bad, [UML])

    def test_dangling_reference_rejected(self):
        bad = ('<xmi uri="u" name="n">'
               '<root type="uml:Clazz" id="a" ref.classifier_behavior="zz"/>'
               '</xmi>')
        with pytest.raises(RepositoryError):
            read_xml(bad, [UML])

    @pytest.mark.parametrize("shelf, book, item", [
        ('capcity="14"', "", ""),                       # misspelled
        ("", 'pagez="3"', ""),                          # misspelled
        ("", 'sequel="g2"', ""),                        # no ref. prefix
        ("", "", '<item feature="tagz">x</item>'),       # unknown item
    ], ids=["attribute", "attribute-on-book", "unprefixed-reference",
            "item"])
    def test_names_of_no_attribute_rejected(self, tmp_path, shelf, book,
                                            item):
        from repro.generate import demo_package
        from repro.xmi import CorruptModelError, load_model
        text = ('<xmi uri="urn:typo" name="typo">'
                '<root type="genlib:GLibrary" id="g0" name="lib">'
                f'<shelves type="genlib:GShelf" id="g1" name="s" {shelf}>'
                '<books type="genlib:GBook" id="g2" name="b"/>'
                f'<books type="genlib:GBook" id="g3" name="c" {book}>'
                f'{item}</books></shelves></root></xmi>')
        with pytest.raises(RepositoryError, match="has no attribute"):
            read_xml(text, [demo_package()])
        path = tmp_path / "typo.xmi"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorruptModelError, match="has no attribute"):
            load_model(path, [demo_package()])

    def test_not_xmi_document(self):
        with pytest.raises(RepositoryError):
            read_xml("<other/>", [UML])

    def test_register_in_repository(self, uml_model):
        repo = Repository()
        loaded = read_xml(write_xml(uml_model), [UML], repository=repo)
        assert repo.model("urn:cruise") is loaded


class TestJsonRoundtrip:
    def test_roundtrip_stable(self, uml_model):
        once = write_json(uml_model)
        loaded = read_json(once, [UML])
        assert write_json(loaded) == once

    def test_cross_references(self, uml_model):
        loaded = read_json(write_json(uml_model), [UML])
        controller = find(loaded, "CruiseController")
        assert controller.attribute("actuator").type.name == \
            "ThrottleActuator"

    def test_single_root_convenience(self):
        lib = TLibrary(name="solo")
        text = write_json(lib, uri="urn:solo")
        loaded = read_json(text, [TEST_PKG])
        assert loaded.roots[0].name == "solo"

    def test_attrs_skipped_when_default(self):
        import json
        book = TBook(name="b")      # pages stays at default 100 (unset)
        document = json.loads(write_json(book))
        assert "pages" not in document["roots"][0].get("attrs", {})

    @pytest.mark.parametrize("attrs", [
        {"capcity": 14}, {"books": ["g2"]}, {"tagz": ["x"]}])
    def test_names_of_no_attribute_rejected(self, attrs):
        import json
        from repro.generate import demo_package
        text = json.dumps({"uri": "urn:typo", "roots": [
            {"type": "genlib:GShelf", "id": "g1", "attrs": attrs}]})
        with pytest.raises(RepositoryError, match="has no attribute"):
            read_json(text, [demo_package()])

    def test_xml_json_equivalent_content(self, uml_model):
        via_xml = read_xml(write_xml(uml_model), [UML])
        via_json = read_json(write_json(uml_model), [UML])
        assert (sum(1 for _ in via_xml.all_elements())
                == sum(1 for _ in via_json.all_elements()))


class TestStereotypeSerialization:
    @pytest.fixture
    def annotated_model(self, factory):
        from repro.profiles import SA_SCHEDULABLE
        task = factory.clazz("Pump", is_active=True)
        SA_SCHEDULABLE.apply(task, sa_period_ms=50.0, sa_wcet_ms=5.0)
        model = Model("urn:annotated")
        model.add_root(factory.model)
        return model

    def test_xml_roundtrips_stereotypes(self, annotated_model):
        from repro.profiles import SA_SCHEDULABLE, SPT
        text = write_xml(annotated_model)
        assert "SASchedulable" in text
        loaded = read_xml(text, [UML], profiles=[SPT])
        pump = find(loaded, "Pump")
        assert SA_SCHEDULABLE.is_applied_to(pump)
        assert SA_SCHEDULABLE.value_on(pump, "sa_period_ms") == 50.0
        # stable fixed point still holds
        assert write_xml(loaded) == text

    def test_xml_unknown_stereotype_rejected(self, annotated_model):
        text = write_xml(annotated_model)
        with pytest.raises(RepositoryError):
            read_xml(text, [UML])          # profile not passed

    def test_json_roundtrips_stereotypes(self, annotated_model):
        from repro.profiles import SA_SCHEDULABLE, SPT
        text = write_json(annotated_model)
        loaded = read_json(text, [UML], profiles=[SPT])
        pump = find(loaded, "Pump")
        assert SA_SCHEDULABLE.value_on(pump, "sa_wcet_ms") == 5.0
        assert write_json(loaded) == text

    def test_analysis_works_after_reload(self, annotated_model):
        from repro.profiles import SPT, analyze_model
        loaded = read_xml(write_xml(annotated_model), [UML],
                          profiles=[SPT])
        report = analyze_model(loaded.roots[0])
        assert report.schedulable


class TestRealAttributesHoldFloats:
    """A Real attribute stores a float for an int, so both formats
    reload what was written, and one round trip is a fixed point."""

    @pytest.fixture
    def gauges(self):
        return (PackageBuilder("gauges", uri="urn:gauges")
                .clazz("Gauge").attr("level", MReal)
                .attr("readings", MReal, multiplicity=M_0N)
                .build())

    @pytest.mark.parametrize("write,read", [(write_xml, read_xml),
                                            (write_json, read_json)],
                             ids=["xmi", "json"])
    def test_a_round_trip_is_a_fixed_point(self, gauges, write, read):
        gauge = gauges.classifier("Gauge")(level=20)
        gauge.readings.extend([1, 2.5])
        model = Model("urn:gauges:m")
        model.add_root(gauge)
        text = write(model)
        loaded = read(text, [gauges])
        (again,) = loaded.roots
        assert again.level == 20.0
        assert [type(v) for v in [again.level, *again.readings]] == \
            [float, float, float]
        assert write(loaded) == text

    def test_an_int_in_a_json_file_loads_as_a_float(self, gauges):
        (gauge,) = read_json(
            '{"name":"g","roots":[{"attrs":{"level":20,"readings":[1]},'
            '"id":"e1","type":"gauges:Gauge"}],"uri":"urn:g",'
            '"version":"1.0"}', [gauges]).roots
        assert [type(v) for v in [gauge.level, *gauge.readings]] == \
            [float, float]

    def test_a_bool_is_refused(self, gauges):
        with pytest.raises(TypeConformanceError):
            gauges.classifier("Gauge")(level=True)
        gauge = gauges.classifier("Gauge")()
        with pytest.raises(TypeConformanceError):
            gauge.readings.append(False)


class TestTagValuesMeanTheSameInBothFormats:
    """A tag given ``None`` is absent, and a Real tag holds a float, so
    every format saves and reloads the same tag values."""

    @pytest.fixture
    def pump(self, factory):
        return factory.clazz("Pump", is_active=True)

    @staticmethod
    def values_of(element):
        from repro.profiles import applications_of
        (application,) = applications_of(element)
        return application.values

    @staticmethod
    def model_of(pump):
        # a root belongs to one model: the first call makes it
        root = pump.container
        if root._model is None:
            Model("urn:tags").add_root(root)
        return root._model

    def reload(self, pump, tmp_path, suffix):
        from repro.profiles import SPT
        from repro.xmi import load_model, save_model
        save_model(self.model_of(pump), tmp_path / f"tags{suffix}")
        return find(load_model(tmp_path / f"tags{suffix}", [UML],
                               profiles=[SPT]), "Pump")

    def test_none_for_a_required_tag_is_refused(self, pump):
        from repro.profiles import SA_SCHEDULABLE, ProfileError
        with pytest.raises(ProfileError, match="requires tag 'sa_wcet_ms'"):
            SA_SCHEDULABLE.apply(pump, sa_period_ms=20.0, sa_wcet_ms=None)
        application = SA_SCHEDULABLE.apply(pump, sa_period_ms=20.0,
                                           sa_wcet_ms=1.0)
        with pytest.raises(ProfileError, match="requires tag"):
            application.set("sa_wcet_ms", None)
        assert application["sa_wcet_ms"] == 1.0

    @pytest.mark.parametrize("suffix,old,new", [
        (".xmi", ' sa_wcet_ms="1.0"', ""),
        (".json", '"sa_wcet_ms":1.0', '"sa_wcet_ms":null')])
    def test_a_file_without_a_required_tag_is_refused(
            self, pump, tmp_path, suffix, old, new):
        from repro.profiles import SA_SCHEDULABLE, SPT
        from repro.xmi import CorruptModelError, load_model
        SA_SCHEDULABLE.apply(pump, sa_period_ms=20.0, sa_wcet_ms=1.0)
        write = write_xml if suffix == ".xmi" else write_json
        text = write(self.model_of(pump))
        assert old in text
        (tmp_path / f"tags{suffix}").write_text(text.replace(old, new))
        with pytest.raises(CorruptModelError,
                           match="requires tag 'sa_wcet_ms'"):
            load_model(tmp_path / f"tags{suffix}", [UML], profiles=[SPT])

    @pytest.mark.parametrize("suffix", [".xmi", ".json"])
    def test_a_defaulted_tag_given_none_holds_its_default(
            self, pump, tmp_path, suffix):
        from repro.profiles import SA_SCHEDULABLE
        application = SA_SCHEDULABLE.apply(
            pump, sa_period_ms=20.0, sa_wcet_ms=1.0, sa_blocking_ms=None,
            sa_deadline_ms=None)
        application.set("sa_priority", 3)
        application.set("sa_priority", None)
        assert application.values == {"sa_period_ms": 20.0,
                                      "sa_wcet_ms": 1.0,
                                      "sa_blocking_ms": 0.0}
        loaded = self.reload(pump, tmp_path, suffix)
        assert SA_SCHEDULABLE.value_on(loaded, "sa_blocking_ms") == 0.0
        assert self.values_of(loaded) == application.values

    @pytest.mark.parametrize("suffix", [".xmi", ".json"])
    def test_an_int_in_a_real_tag_is_a_float(self, pump, tmp_path, suffix):
        from repro.profiles import SA_SCHEDULABLE, SPT
        application = SA_SCHEDULABLE.apply(pump, sa_period_ms=20,
                                           sa_wcet_ms=1, sa_priority=2)
        application.set("sa_blocking_ms", 3)
        assert [type(application[tag]) for tag in (
            "sa_period_ms", "sa_wcet_ms", "sa_blocking_ms",
            "sa_priority")] == [float, float, float, int]
        loaded = self.reload(pump, tmp_path, suffix)
        assert self.values_of(loaded) == application.values
        assert type(SA_SCHEDULABLE.value_on(loaded, "sa_period_ms")) is float
        # the format's fixed point
        write, read = ((write_xml, read_xml) if suffix == ".xmi"
                       else (write_json, read_json))
        text = write(self.model_of(pump))
        assert write(read(text, [UML], profiles=[SPT])) == text
