"""Crash-safe persistence: atomic saves, backups, corruption detection.

Covers the three guarantees of :mod:`repro.xmi.persist` — a save is
atomic (a crash at any probe site leaves the previous generation
loadable), the previous generation survives as ``.bak``, and corrupt
input is *detected* (typed :class:`CorruptModelError` with a recovery
path) rather than silently parsed into a wrong model.  The torn-write
cases drive the real fault probes instead of simulating with mocks, so
they exercise the identical code path a chaos run does.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from kernel_fixture import TEST_PKG, TBook, TLibrary
from repro import faults
from repro.mof import compare
from repro.mof.repository import Model
from repro.xmi import (
    CorruptModelError,
    atomic_write_text,
    backup_path,
    load_model,
    save_model,
    write_json,
    write_xml,
)


@pytest.fixture
def model():
    library = TLibrary(name="lib")
    for title in ("a", "b", "c"):
        library.books.append(TBook(name=title, pages=10))
    library.featured = library.books[1]
    model = Model("urn:test:persist")
    model.add_root(library)
    return model


def roundtrip_identical(model, loaded):
    return compare(model.roots[0], loaded.roots[0]).identical


# ---------------------------------------------------------------------------
# Round trips and format handling
# ---------------------------------------------------------------------------

class TestRoundtrip:
    @pytest.mark.parametrize("name", ["m.xmi", "m.xml", "m.json"])
    def test_save_load_identical(self, model, tmp_path, name):
        path = tmp_path / name
        save_model(model, path)
        loaded = load_model(path, [TEST_PKG])
        assert roundtrip_identical(model, loaded)

    def test_format_override_beats_extension(self, model, tmp_path):
        path = tmp_path / "model.dat"
        fmt = save_model(model, path, format="json")
        assert fmt == "json"
        loaded = load_model(path, [TEST_PKG], format="json")
        assert roundtrip_identical(model, loaded)

    def test_unknown_format_rejected(self, model, tmp_path):
        from repro.xmi import PersistenceError
        with pytest.raises(PersistenceError):
            save_model(model, tmp_path / "m.xmi", format="yaml")

    def test_unsealed_foreign_files_still_load(self, model, tmp_path):
        # files written by plain write_xml/write_json (no digest) load
        xml_path, json_path = tmp_path / "f.xmi", tmp_path / "f.json"
        xml_path.write_text(write_xml(model), encoding="utf-8")
        json_path.write_text(write_json(model), encoding="utf-8")
        assert roundtrip_identical(model, load_model(xml_path, [TEST_PKG]))
        assert roundtrip_identical(model, load_model(json_path, [TEST_PKG]))

    def test_sealed_json_is_the_canonical_dump_plus_its_digest(
            self, model, tmp_path):
        path = tmp_path / "m.json"
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        document = json.loads(text)
        digest = document.pop("sha256")
        canonical = json.dumps(document, sort_keys=True,
                               separators=(",", ":"))
        assert text == f'{canonical[:-1]},"sha256":"{digest}"}}'
        assert digest == hashlib.sha256(
            canonical.encode("utf-8")).hexdigest()

    def test_pretty_printed_sealed_json_still_loads(self, model, tmp_path):
        # the form earlier releases sealed: indent=2, digest key last
        document = json.loads(write_json(model))
        document["sha256"] = hashlib.sha256(json.dumps(
            document, sort_keys=True, separators=(",", ":"))
            .encode("utf-8")).hexdigest()
        pretty = json.dumps(document, indent=2)
        path = tmp_path / "old.json"
        path.write_text(pretty, encoding="utf-8")
        assert roundtrip_identical(model, load_model(path, [TEST_PKG]))
        # ... and its digest is still verified
        path.write_text(pretty.replace('"a"', '"zz"', 1), encoding="utf-8")
        with pytest.raises(CorruptModelError, match="digest"):
            load_model(path, [TEST_PKG])

    def test_sealed_json_save_emits_one_xmi_write_span(self, model,
                                                       tmp_path):
        from repro import obs
        sink = obs.MemorySink()
        obs.enable(sink)
        try:
            save_model(model, tmp_path / "m.json")
        finally:
            obs.disable()
            obs.remove_sink(sink)
            obs.REGISTRY.reset()
        spans = [span for span in sink.roots if span.name == "xmi.write"]
        assert len(spans) == 1
        assert spans[0].tags["format"] == "json"
        assert spans[0].tags["chars"] == len(
            (tmp_path / "m.json").read_text(encoding="utf-8"))

    def test_repository_registration(self, model, tmp_path):
        from repro.mof.repository import Repository
        path = tmp_path / "m.xmi"
        save_model(model, path)
        repo = Repository()
        loaded = load_model(path, [TEST_PKG], repository=repo)
        assert loaded in repo.models.values() \
            or loaded in list(repo.models)


# ---------------------------------------------------------------------------
# Corruption detection
# ---------------------------------------------------------------------------

class TestCorruption:
    def test_truncated_xml_detected(self, model, tmp_path):
        path = tmp_path / "m.xmi"
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[:len(text) // 2], encoding="utf-8")
        with pytest.raises(CorruptModelError):
            load_model(path, [TEST_PKG])

    def test_single_character_garble_caught_by_digest(self, model,
                                                      tmp_path):
        # still well-formed XML -> only the digest can notice
        path = tmp_path / "m.xmi"
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        assert 'name="b"' in text
        path.write_text(text.replace('name="b"', 'name="z"', 1),
                        encoding="utf-8")
        with pytest.raises(CorruptModelError, match="digest"):
            load_model(path, [TEST_PKG])

    def test_json_garble_caught_by_digest(self, model, tmp_path):
        path = tmp_path / "m.json"
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"a"', '"zz"', 1), encoding="utf-8")
        with pytest.raises(CorruptModelError, match="digest"):
            load_model(path, [TEST_PKG])

    def test_empty_file_detected(self, tmp_path):
        path = tmp_path / "m.xmi"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorruptModelError, match="empty"):
            load_model(path, [TEST_PKG])

    def test_error_carries_backup_path(self, model, tmp_path):
        path = tmp_path / "m.xmi"
        save_model(model, path)
        save_model(model, path)              # second save creates .bak
        path.write_text("<garbage", encoding="utf-8")
        with pytest.raises(CorruptModelError) as excinfo:
            load_model(path, [TEST_PKG])
        assert excinfo.value.backup_path == str(backup_path(path))
        assert "retained at" in str(excinfo.value)

    def test_fallback_to_backup_recovers(self, model, tmp_path):
        path = tmp_path / "m.json"
        save_model(model, path)
        model.roots[0].books[0].pages = 77   # next generation differs
        save_model(model, path)
        path.write_text("{not json", encoding="utf-8")
        loaded = load_model(path, [TEST_PKG], fallback_to_backup=True)
        # the backup holds the generation before the corrupted save
        assert loaded.roots[0].books[0].pages == 10

    def test_fallback_without_backup_still_raises(self, model, tmp_path):
        path = tmp_path / "m.json"
        save_model(model, path)              # first save: no .bak yet
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CorruptModelError):
            load_model(path, [TEST_PKG], fallback_to_backup=True)


# ---------------------------------------------------------------------------
# Atomicity under injected faults
# ---------------------------------------------------------------------------

class TestAtomicity:
    def test_backup_retained_and_loadable(self, model, tmp_path):
        path = tmp_path / "m.xmi"
        save_model(model, path)
        model.roots[0].books[0].pages = 77
        save_model(model, path)
        bak = backup_path(path)
        assert os.path.exists(bak)
        loaded = load_model(bak, [TEST_PKG])
        assert loaded.roots[0].books[0].pages == 10

    def test_no_backup_when_disabled(self, model, tmp_path):
        path = tmp_path / "m.xmi"
        save_model(model, path)
        save_model(model, path, keep_backup=False)
        assert not os.path.exists(backup_path(path))

    @pytest.mark.parametrize("site", ["io.write", "io.write.partial",
                                      "io.replace"])
    def test_crash_window_leaves_old_generation_loadable(
            self, model, tmp_path, site):
        path = tmp_path / "m.xmi"
        save_model(model, path)
        model.roots[0].books[0].pages = 77
        plan = faults.FaultPlan(seed=1, rate=1.0, sites=[site])
        with pytest.raises(faults.InjectedFault):
            with faults.injected(plan):
                save_model(model, path)
        # the interrupted save must not tear the previous generation
        loaded = load_model(path, [TEST_PKG])
        assert loaded.roots[0].books[0].pages == 10
        assert not [n for n in os.listdir(tmp_path) if ".tmp." in n]

    def test_atomic_write_text_plain(self, tmp_path):
        path = tmp_path / "note.txt"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text(encoding="utf-8") == "two"
        assert (tmp_path / "note.txt.bak").read_text(
            encoding="utf-8") == "one"
