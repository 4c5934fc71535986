"""Both writers read each element through one content reader.

:class:`repro.xmi.writer.ElementContent` decides what a save writes of
an element; the XML writer and the canonical JSON text compose it.  The
bytes of ``write_xml``, ``write_json`` and both sealed forms are pinned
by sha256 over generated, fuzzed-edited, stereotyped and several-root
models: any change to them is a change of the interchange format.  A
save reads the slots directly, so it leaves no empty list behind.
"""

import hashlib
import json

import pytest

from repro.generate import EditFuzzer, demo_package, generate_model
from repro.generate.corpus import assign_stable_ids, make_generator
from repro.mof import Model
from repro.mof.index import walk
from repro.mof.kernel import FeatureList
from repro.profiles import (FT_REPLICATED, QOS_OFFERED, QOS_REQUIRED,
                            SA_RESOURCE, SA_SCHEDULABLE, SA_SCHEDULER)
from repro.uml import UML
from repro.xmi import (load_model, save_model, serialize_model, write_json,
                       write_xml)


def _generated(package, size):
    return lambda: generate_model(package, size=size, seed=0,
                                  repair=False).model


def _fuzzed(package):
    def build():
        generator = make_generator(package, seed=1)
        root = generator.generate(150)
        EditFuzzer(root, seed=1, generator=generator).apply_random_edits(60)
        # the fuzzer's new elements take ids from the process-wide counter
        assign_stable_ids(root, "f")
        model = Model(f"urn:fuzzed:{package}")
        model.add_root(root)
        return model
    return build


def _stereotyped():
    model = generate_model("uml", size=300, seed=2, repair=False).model
    classes = [element for element in walk(model.roots[0])
               if element.meta.name == "Clazz"]
    for index, clazz in enumerate(classes[:12]):
        kind = index % 4
        if kind == 0:
            SA_SCHEDULABLE.apply(clazz, sa_period_ms=10.0 * (index + 1),
                                 sa_wcet_ms=0.25, sa_priority=index,
                                 sa_deadline_ms=7.5)
            QOS_OFFERED.apply(clazz, latency_ms=1e-7, reliability=0.999)
        elif kind == 1:
            SA_SCHEDULER.apply(clazz, sa_policy="edf", sa_preemptive=False)
            FT_REPLICATED.apply(clazz, replicas=3)
        elif kind == 2:
            SA_RESOURCE.apply(clazz, sa_ceiling=index, sa_access_ms=2.5)
            QOS_REQUIRED.apply(clazz, throughput_ops=1200.0,
                               availability=0.9)
        else:
            SA_SCHEDULABLE.apply(clazz, sa_period_ms=100.0, sa_wcet_ms=12.5,
                                 sa_blocking_ms=1.5)
    return model


def _colliding_roots():
    # generate_model gives each tree the same position-derived ids
    model = Model("urn:colliding", "colliding")
    for seed in (0, 1):
        source = generate_model("demo", size=120, seed=seed,
                                repair=False).model
        root = source.roots[0]
        source.remove_root(root)            # a root belongs to one model
        model.add_root(root)
    return model


MODELS = {
    "demo": _generated("demo", 2_000),
    "uml": _generated("uml", 1_000),
    "fuzzed-demo": _fuzzed("demo"),
    "fuzzed-uml": _fuzzed("uml"),
    "stereotyped-uml": _stereotyped,
    "colliding-roots": _colliding_roots,
}

#: model -> sha256 of write_xml, sealed XMI, sealed JSON and the
#: canonical dump of write_json's document, as written before XML and
#: JSON shared one content reader
PINNED = {
    "colliding-roots": (
        "5097fd37766e121b5925c29dbd381073045caef85f57d51f5c9ecf4897997ead",
        "ccd165f0043dce1a80048a44b4bfdb10fb6be59dea27dbd24447573f3b72d157",
        "d437e85a377fe6682b7779c443ff1c4bfc01b9a6c9157a5a618e9d840960d55f",
        "199535fd9995b06660672b6ebe0948b9e2d29ec26317dcfffbd39acfc26ce3ad",
    ),
    "demo": (
        "a61282899363633e36f09f94a39ae7847758962f0fa9f7ed61f5ae3ed83de8f9",
        "f9322ae5cf2a8ebae2be2bff2fc1b826c30435e0218817848e0878242385268f",
        "7d23aa65263630a72b72652034d1f8a666e0de19897c631b1e6f92250b3d4c21",
        "ab2a1bbe8f5c69d847b65bf54e6d5b162454c868c16a497bf9e50bfd5f61dee7",
    ),
    "fuzzed-demo": (
        "9196c55815009e0077e528a39aa1ecd6a70674ccb769a3211119c97d63944727",
        "26c6d3afecc61a45e53da226e9b5bd4efbdd1064e0df807bb2311779998a186c",
        "deb605dd5dc72b378c05cccdcc3e378710782a399e764677b01e361e3bec0588",
        "4fbbf07e846054709d6652e1aef6f070a0507f7d3bd627e239be813a2fbb7ddb",
    ),
    "fuzzed-uml": (
        "e145633b06ffdd3a3b36d6bb4f99d4aa0d425af26e1840d5f434a50ff8d1a72d",
        "6938fe0a768c36ca3f5d4a5432dff5b327f869d26751f4107fbd0d832f74caf9",
        "48cde7a45c2dbf6c0328667d4b527b52df9a050ecf1ca3a269c90a55f0ebdaf1",
        "7bfb8a1fcb3cf407be5a0c56a0afb302b42244c407d649a05ed66732b92d06a2",
    ),
    "stereotyped-uml": (
        "d0ec0b445646cd6dec8dae47e9d48ced2563de8d40b18bba183204f2500f62e0",
        "d448d6b5737a08f4e9825f94e39bb3eb7d8d57f0273fd9158e45c75ab825f0d1",
        "8c70c1d64fc53813943ac920781342040f77422264be99b474eddc86b69edf78",
        "12115217f723e0c228bf35c77ff31220918f7f7093836500b723c003f663f710",
    ),
    "uml": (
        "bba7100508b5437a44248e9bed20bf2a5cba22c2bd77cb57ee61ad3a915ea252",
        "c079ba69c60dcd4b3db7b64f4f1b56fd0cf66f883d69355effdf2b1c6fe890ed",
        "1712de3d5d834c9c40a40653f68fca073ea8c9881d2c859ee10578d3b29520b1",
        "ec51346eec8b44bf60c0f7588701658d2b9795454848c5b4834e2ff24c6a0f9b",
    ),
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(document):
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_bytes_are_pinned(name):
    model = MODELS[name]()
    texts = (write_xml(model), serialize_model(model, format="xmi"),
             serialize_model(model, format="json"),
             _canonical(json.loads(write_json(model))))
    assert tuple(map(_sha256, texts)) == PINNED[name]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_write_json_is_the_sealed_text_without_its_digest(name):
    model = MODELS[name]()
    sealed = serialize_model(model, format="json")
    document = json.loads(sealed)
    del document["sha256"]
    assert write_json(model) == _canonical(document)
    assert sealed.startswith(write_json(model)[:-1] + ',"sha256":"')


def _empty_lists(model):
    return sum(1 for root in model.roots for element in walk(root)
               for value in element._slots.values()
               if isinstance(value, FeatureList) and not len(value))


@pytest.mark.parametrize("package", ["demo", "uml"])
def test_saves_leave_no_empty_list_behind(package, tmp_path):
    save_model(generate_model(package, size=2_000, seed=0,
                              repair=False).model, tmp_path / "seed.xmi")
    model = load_model(tmp_path / "seed.xmi", [demo_package(), UML])
    before = _empty_lists(model)
    save_model(model, tmp_path / "saved.json")
    save_model(model, tmp_path / "saved.xmi")
    write_xml(model)
    write_json(model)
    assert _empty_lists(model) == before
