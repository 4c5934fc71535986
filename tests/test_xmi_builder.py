"""The builder oracle: both readers build the model the edit protocol builds.

``repro.xmi``'s readers write slots through the kernel's construction
primitives and make no notification.  Every model they build is compared,
element by element in preorder, with the one the kernel-path reference
readers in ``reference_reader.py`` build from the same text: metaclass
and eid, slot keys in order, every value and list order (references by
eid), container and containing feature, and stereotype applications.
Malformed documents must give the same model or the same error class.
"""

import json
import xml.etree.ElementTree as ET

import pytest

from reference_reader import ReferenceJsonReader, ReferenceXmiReader
from repro import obs
from repro.cli import ALL_PROFILES
from repro.faults import FaultPlan, InjectedFault, injected
from repro.generate import demo_package, generate_model
from repro.mof import (
    M_0N,
    MInteger,
    Model,
    MString,
    Multiplicity,
    add_attribute,
    add_reference,
    define_class,
    define_package,
    set_notify_hook,
)
from repro.mof.kernel import Element, FeatureList
from repro.mof.txn import RootChange, transaction
from repro.profiles import SA_SCHEDULABLE, applications_of
from repro.uml import UML, ModelFactory
from repro.xmi import (
    load_model,
    read_json,
    read_xml,
    save_model,
    write_json,
    write_xml,
)
from repro.xmi.jsonio import JsonReader
from repro.xmi.reader import XmiReader

PACKAGES = [UML, demo_package()]
SEEDS = range(10)
SIZE = 150


def describe(model):
    """Everything the oracle compares, element by element in preorder."""
    order = []
    for root in model.roots:
        order.append(root)
        order.extend(root.all_contents())
    position = {id(element): index for index, element in enumerate(order)}

    def ref(element):
        # an element the kernel path displaced out of the tree has no
        # position; its eid still names it
        return element._eid, position.get(id(element))

    def value(slot):
        if isinstance(slot, Element):
            return "element", ref(slot)
        if isinstance(slot, FeatureList):
            return "list", [value(item) for item in slot._items]
        return type(slot).__name__, slot

    return (model.uri, model.name, [
        (element.meta.qualified_name, element._eid,
         [(key, value(slot)) for key, slot in element._slots.items()],
         ref(element._container) if element._container is not None
         else None,
         element._containing_feature.name
         if element._containing_feature is not None else None,
         [(application.stereotype.name, sorted(application.values.items()))
          for application in applications_of(element)])
        for element in order])


def outcome(read, text):
    """What reading *text* gives, and how often it probed
    ``kernel.write`` (a plan at rate 0 only counts)."""
    plan = FaultPlan(sites=["kernel.write"])
    with injected(plan):
        try:
            result = "model", describe(read(text))
        except Exception as exc:  # noqa: BLE001 - the class is the outcome
            result = "error", type(exc)
    return result + (plan.firings,)


def assert_same(text, fmt, packages=PACKAGES, profiles=ALL_PROFILES):
    if fmt == "xml":
        shipped = XmiReader(packages, profiles).read
        reference = ReferenceXmiReader(packages, profiles).read
    else:
        shipped = JsonReader(packages, profiles).read
        reference = ReferenceJsonReader(packages, profiles).read
    got, want = outcome(shipped, text), outcome(reference, text)
    assert got == want
    return got[:2]


# ---------------------------------------------------------------------------
# Generated corpora, through load_model
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("repair", [False, True],
                         ids=["unrepaired", "repaired"])
@pytest.mark.parametrize("package", ["demo", "uml"])
def test_loads_equal_the_kernel_path(tmp_path, package, repair):
    for seed in SEEDS:
        model = generate_model(package, size=SIZE, seed=seed,
                               repair=repair).model
        for suffix, reference in (("xmi", ReferenceXmiReader),
                                  ("json", ReferenceJsonReader)):
            path = tmp_path / f"{package}-{seed}.{suffix}"
            save_model(model, path)          # sealed
            loaded = load_model(path, PACKAGES, profiles=ALL_PROFILES)
            text = path.read_text(encoding="utf-8")
            expected = reference(PACKAGES, ALL_PROFILES).read(text)
            assert describe(loaded) == describe(expected), (seed, suffix)


@pytest.mark.parametrize("fmt", ["xml", "json"])
def test_seeded_write_faults_strike_the_same_write(fmt):
    model = generate_model("uml", size=SIZE, seed=5).model
    text = write_xml(model) if fmt == "xml" else write_json(model)
    assert assert_same(text, fmt)[0] == "model"     # probe counts equal
    readers = ((XmiReader, ReferenceXmiReader) if fmt == "xml"
               else (JsonReader, ReferenceJsonReader))
    for seed in range(5):
        struck = []
        for reader in readers:
            plan = FaultPlan(seed, rate=0.02, sites=["kernel.write"],
                             max_faults=1)
            with injected(plan), pytest.raises(InjectedFault):
                reader(PACKAGES, ALL_PROFILES).read(text)
            struck.append(plan.injected)
        assert struck[0] == struck[1]


def test_stereotyped_models_equal_the_kernel_path():
    factory = ModelFactory("annotated")
    for index in range(4):
        task = factory.clazz(f"Task{index}", is_active=True)
        SA_SCHEDULABLE.apply(task, sa_period_ms=10.0 * (index + 1),
                             sa_wcet_ms=1.0)
    model = Model("urn:annotated")
    model.add_root(factory.model)
    for text, fmt in ((write_xml(model), "xml"), (write_json(model), "json")):
        kind, _ = assert_same(text, fmt)
        assert kind == "model"


# ---------------------------------------------------------------------------
# Malformed documents
# ---------------------------------------------------------------------------

XB = define_package("xbuild", "urn:test:xbuild")
_node = define_class(XB, "XNode", abstract=True)
add_attribute(_node, "name", MString)
_box = define_class(XB, "XBox", superclasses=[_node])
_item = define_class(XB, "XItem", superclasses=[_node])
_other = define_class(XB, "XOther", superclasses=[_node])
add_reference(_box, "content", _item, containment=True, opposite="box")
add_reference(_item, "box", _box)
add_reference(_box, "items", _item, containment=True, multiplicity=M_0N,
              opposite="owner")
add_reference(_item, "owner", _box)
add_reference(_box, "pair", _item, containment=True,
              multiplicity=Multiplicity(0, 2))
add_reference(_box, "others", _other, containment=True, multiplicity=M_0N)
add_attribute(_box, "tags", MString, multiplicity=Multiplicity(0, 2))
add_attribute(_box, "size", MInteger)
add_reference(_item, "partner", _item, opposite="partner")
add_reference(_item, "friends", _item, multiplicity=M_0N, opposite="friends")
add_reference(_item, "links", _item, multiplicity=Multiplicity(0, 2))


def item(doc_id, **refs):
    data = {"type": "xbuild:XItem", "id": doc_id, "attrs": {"name": doc_id}}
    if refs:
        data["refs"] = refs
    return data


def box(doc_id, children=None, attrs=None, refs=None):
    data = {"type": "xbuild:XBox", "id": doc_id,
            "attrs": dict(attrs or {}, name=doc_id)}
    if children:
        data["children"] = children
    if refs:
        data["refs"] = refs
    return data


def to_xml(document):
    """The XML dialect's text of a JSON-shaped document."""
    def node(tag, data):
        element = ET.Element(tag, {"type": data["type"]})
        if "id" in data:
            element.set("id", data["id"])
        for name, value in data.get("attrs", {}).items():
            if isinstance(value, list):
                for entry in value:
                    ET.SubElement(element, "item",
                                  {"feature": name}).text = str(entry)
            else:
                element.set(name, str(value))
        for name, ids in data.get("refs", {}).items():
            element.set(f"ref.{name}", " ".join(ids))
        for name, kids in data.get("children", {}).items():
            for kid in kids:
                element.append(node(name, kid))
        return element

    doc = ET.Element("xmi", {"uri": "urn:malformed", "name": "malformed"})
    for root in document["roots"]:
        doc.append(node("root", root))
    return ET.tostring(doc, encoding="unicode")


MALFORMED = {
    "abstract-type": [{"type": "xbuild:XNode", "id": "n"}],
    "wrong-child-type": [box("b", {"items": [
        {"type": "xbuild:XOther", "id": "o"}]})],
    "too-many-children": [box("b", {"pair": [
        item("i1"), item("i2"), item("i3")]})],
    "too-many-items": [box("b", attrs={"tags": ["a", "b", "c"]})],
    "too-many-targets": [box("b", {"items": [
        item("i1", links=["i2", "i3", "i1"]), item("i2"), item("i3")]})],
    "duplicate-items": [box("b", attrs={"tags": ["a", "a"]})],
    "duplicate-targets": [box("b", {"items": [
        item("i1", friends=["i2", "i2"]), item("i2")]})],
    "duplicate-targets-after-an-opposite": [box("b", {"items": [
        item("i1", friends=["i2"]), item("i2", friends=["i3", "i3"]),
        item("i3")]})],
    "single-containment-given-twice": [box("b", {"content": [
        item("i1"), item("i2")]})],
    "displaced-single-opposite": [box("b", {"items": [
        item("i1", partner=["i3"]), item("i2", partner=["i3"]),
        item("i3")]})],
    "opposite-preset-by-another": [box("b", {"items": [
        item("i1", partner=["i2"]), item("i2", partner=["i3"]),
        item("i3")]})],
    "ref-names-a-containment": [box("b1", {"items": [item("i1")]}),
                                box("b2", refs={"items": ["i1"]})],
    "ref-names-a-containment-without-opposite": [
        box("b1", {"pair": [item("i1")]}), box("b2", refs={"pair": ["i1"]})],
    "ref-names-a-container": [box("b1", {"items": [item("i1")]}),
                              box("b2", {"items": [
                                  item("i2", owner=["b1"])]})],
    "unordered-opposites": [box("b", {"items": [
        item("i1", friends=["i3", "i2"]), item("i2", friends=["i1"]),
        item("i3", friends=["i2", "i1"])]})],
    "wrong-target-type": [box("b1", {"items": [item("i1", links=["b1"])]})],
    "dangling-id": [box("b", {"items": [item("i1", links=["nope"])]})],
    "unknown-label": [{"type": "xbuild:XNope", "id": "n"}],
    "unknown-reference": [box("b", refs={"nope": ["b"]})],
    "bad-integer": [box("b", attrs={"size": "many"})],
    "self-links": [box("b", {"items": [
        item("i1", friends=["i1", "i2"], partner=["i1"]), item("i2")]})],
}


@pytest.mark.parametrize("fmt", ["xml", "json"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_documents_match_the_kernel_path(case, fmt):
    document = {"uri": "urn:malformed", "name": "malformed",
                "roots": MALFORMED[case]}
    text = to_xml(document) if fmt == "xml" else json.dumps(document)
    assert_same(text, fmt, packages=[XB], profiles=())


def test_malformed_cases_exercise_both_outcomes():
    outcomes = {}
    for case, roots in MALFORMED.items():
        text = json.dumps({"uri": "u", "name": "n", "roots": roots})
        outcomes[case] = assert_same(text, "json", [XB], ())[0]
    assert outcomes["abstract-type"] == "error"
    assert outcomes["single-containment-given-twice"] == "model"
    assert outcomes["displaced-single-opposite"] == "model"
    assert outcomes["duplicate-items"] == "model"


# ---------------------------------------------------------------------------
# What a load no longer does
# ---------------------------------------------------------------------------

@pytest.fixture
def corpus_text():
    return write_xml(generate_model("demo", size=SIZE, seed=3).model)


def test_a_load_makes_no_notification(corpus_text):
    seen = []
    previous = set_notify_hook(seen.append)
    try:
        model = read_xml(corpus_text, PACKAGES)
        read_json(json.dumps({"uri": "u", "roots": [
            box("b", {"items": [item("i1", partner=["i2"]), item("i2")]},
                attrs={"tags": ["a"]})]}), [XB])
    finally:
        set_notify_hook(previous)
    assert seen == []
    assert sum(1 for _ in model.all_elements()) == SIZE


def test_a_load_in_a_transaction_journals_only_its_roots(corpus_text):
    with transaction() as txn:
        model = read_xml(corpus_text, PACKAGES)
        assert txn.op_count == 1
        assert txn.journal[-1] == RootChange(model, model.roots[0], True)


def test_obs_counts_elements_read_but_no_mutation(corpus_text):
    obs.REGISTRY.reset()
    obs.enable()
    try:
        model = read_xml(corpus_text, PACKAGES)
        loaded = obs.REGISTRY.to_json()
        model.roots[0].eset("name", "renamed")     # the counters are live
        edited = obs.REGISTRY.to_json()
    finally:
        obs.disable()
        obs.REGISTRY.reset()

    def total(snapshot, name):
        return sum(series["value"]
                   for series in snapshot.get(name, {}).get("series", []))
    assert total(loaded, "xmi.read.elements") == SIZE
    assert total(loaded, "mof.mutations") == 0
    assert total(loaded, "mof.notifications") == 0
    assert total(edited, "mof.mutations") == 1
    assert total(edited, "mof.notifications") == 1
