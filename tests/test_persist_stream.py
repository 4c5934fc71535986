"""The streamed sealed-JSON writer against the document path.

``save_model(..., format="json")`` and ``serialize_model(format="json")``
stream the canonical text element by element under a running digest.
Their bytes must equal the reference in ``reference_writer.py``, which
builds the whole document, dumps it canonically and seals that text, on
every corpus here: generated demo and UML models, fuzzed-edited models
of both metamodels, stereotype applications, several roots, eids that
collide across separately built trees and non-ASCII strings.  Every
file must load with its digest verified, and the stream must hold a
fraction of what the document path holds.
"""

import json
import tracemalloc

import pytest

from reference_writer import reference_sealed_json
from repro.cli import ALL_PROFILES
from repro.generate import EditFuzzer, demo_package, generate_model
from repro.generate.corpus import make_generator
from repro.mof import Model
from repro.profiles import SA_SCHEDULABLE
from repro.uml import UML, ModelFactory
from repro.xmi import (atomic_write_text, load_model, save_model,
                       serialize_model)

PACKAGES = [UML, demo_package()]


def assert_same_text(got, want):
    # names the first difference; a diff of two long texts takes minutes
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        pytest.fail(f"texts differ at offset {at} (lengths {len(got)} and "
                    f"{len(want)}): {got[at - 60:at + 60]!r} != "
                    f"{want[at - 60:at + 60]!r}")


def assert_streams_the_reference(build, tmp_path):
    """Each writer writes the model *build* returns: the same model, or
    one built afresh with the same ids where what ``assign_ids`` does to
    colliding eids is under test (it renames them in place)."""
    expected = reference_sealed_json(build())
    assert_same_text(serialize_model(build(), format="json"), expected)
    path = tmp_path / "streamed.json"
    assert save_model(build(), path) == "json"
    assert_same_text(path.read_bytes().decode("utf-8"), expected)
    load_model(path, PACKAGES, profiles=ALL_PROFILES)   # digest verified
    return expected


@pytest.mark.parametrize("package,size", [("demo", 2_000), ("uml", 1_000)])
@pytest.mark.parametrize("seed", range(2))
def test_generated_corpora(package, size, seed, tmp_path):
    model = generate_model(package, size=size, seed=seed,
                           repair=False).model
    text = assert_streams_the_reference(lambda: model, tmp_path)
    # larger than one write buffer, so the stream wrote several chunks
    assert len(text) > 2 ** 16


@pytest.mark.parametrize("package", ["demo", "uml"])
@pytest.mark.parametrize("seed", range(4))
def test_fuzz_edited_models(package, seed, tmp_path):
    generator = make_generator(package, seed=seed)
    root = generator.generate(150)
    model = Model(f"urn:fuzzed:{package}:{seed}")
    model.add_root(root)
    EditFuzzer(root, seed=seed, generator=generator).apply_random_edits(60)
    assert_streams_the_reference(lambda: model, tmp_path)


def test_stereotype_applications(tmp_path):
    factory = ModelFactory("annotated")
    for index in range(4):
        task = factory.clazz(f"Task{index}", is_active=True)
        SA_SCHEDULABLE.apply(task, sa_period_ms=10.0 * (index + 1),
                             sa_wcet_ms=1.0)
    model = Model("urn:annotated")
    model.add_root(factory.model)
    text = assert_streams_the_reference(lambda: model, tmp_path)
    assert text.count('"stereotypes":[') == 4


def test_several_roots_and_colliding_eids(tmp_path):
    def build():
        # generate_model gives each tree the same position-derived ids
        model = Model("urn:several")
        for seed in range(3):
            source = generate_model("demo", size=120, seed=seed,
                                    repair=False).model
            root = source.roots[0]
            source.remove_root(root)        # a root belongs to one model
            model.add_root(root)
        return model

    text = assert_streams_the_reference(build, tmp_path)
    document = json.loads(text)
    assert len(document["roots"]) == 3
    assert document["roots"][1]["id"] == document["roots"][0]["id"] + ".1"


def test_an_empty_model(tmp_path):
    model = Model("urn:empty", "nothing")
    text = assert_streams_the_reference(lambda: model, tmp_path)
    assert text.startswith('{"name":"nothing","roots":[],"uri":')


def test_a_single_root_element(tmp_path):
    root = generate_model("uml", size=80, seed=5, repair=False).model.roots[0]
    assert_streams_the_reference(lambda: root, tmp_path)


NAMES = ["Ärger", "日本語", "rocket \U0001F680", 'quote " and \\',
         "tab\tnew\nline", "\x00\x1f", " "]


def test_non_ascii_and_escaped_strings(tmp_path):
    factory = ModelFactory("ünïcode")
    for name in NAMES:
        factory.clazz(name, attrs={"größe": "Integer"})
    model = Model("urn:ünïcode", "naïve")
    model.add_root(factory.model)
    text = assert_streams_the_reference(lambda: model, tmp_path)
    assert text.isascii()
    loaded = load_model(tmp_path / "streamed.json", PACKAGES)
    assert loaded.name == "naïve"
    assert {element.name for element in loaded.roots[0].all_contents()
            if element.meta.name == "Clazz"} == set(NAMES)


def test_streamed_save_holds_a_third_of_the_document_path(tmp_path):
    model = generate_model("demo", size=2_000, seed=0, repair=False).model
    save_model(model, tmp_path / "warm.json")     # imports, lazy eids

    def peak(save):
        tracemalloc.start()
        try:
            save()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    streamed = peak(lambda: save_model(model, tmp_path / "streamed.json"))
    reference = peak(lambda: atomic_write_text(
        tmp_path / "reference.json", [reference_sealed_json(model)]))
    assert_same_text((tmp_path / "streamed.json").read_bytes().decode(),
                     (tmp_path / "reference.json").read_bytes().decode())
    assert streamed * 3 <= reference, (streamed, reference)
