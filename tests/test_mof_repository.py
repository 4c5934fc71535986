"""Tests for models and the repository."""

import pytest

from repro.mof import Model, Repository, RepositoryError
from kernel_fixture import TBook, TLibrary


@pytest.fixture
def model(library):
    lib, _, _ = library
    m = Model("urn:m1", "m1")
    m.add_root(lib)
    return m, lib


class TestModel:
    def test_roots_must_be_containerless(self, library):
        lib, b1, _ = library
        m = Model("urn:x")
        with pytest.raises(RepositoryError):
            m.add_root(b1)

    def test_all_elements(self, model):
        m, lib = model
        elements = list(m.all_elements())
        assert lib in elements and len(elements) == 3

    def test_instances_of(self, model):
        m, _ = model
        assert len(m.instances_of(TBook._meta)) == 2
        assert len(m.instances_of(TLibrary._meta)) == 1

    def test_instances_of_exact(self, model, library):
        m, _ = model
        from kernel_fixture import TNamed
        assert len(m.instances_of(TNamed._meta)) == 3
        assert len(m.instances_of(TNamed._meta, exact=True)) == 0

    def test_model_observation(self, model):
        m, lib = model
        seen = []
        m.observe(seen.append)
        lib.books[0].pages = 77
        assert len(seen) == 1

    def test_duplicate_root_ignored(self, model):
        m, lib = model
        m.add_root(lib)
        assert m.roots.count(lib) == 1

    def test_remove_root(self, model):
        m, lib = model
        m.remove_root(lib)
        assert not m.roots

    def test_a_root_belongs_to_one_model(self, model):
        m, lib = model
        other = Model("urn:m2")
        with pytest.raises(RepositoryError, match="one model"):
            other.add_root(lib)
        assert m.roots == [lib] and other.roots == []
        assert lib._model is m


class TestRepository:
    def test_create_and_lookup(self):
        repo = Repository()
        m = repo.create_model("urn:a")
        assert repo.model("urn:a") is m
        with pytest.raises(RepositoryError):
            repo.create_model("urn:a")
        with pytest.raises(RepositoryError):
            repo.model("urn:missing")

    def test_all_instances_across_models(self, library):
        lib, _, _ = library
        repo = Repository()
        m1 = repo.create_model("urn:a")
        m1.add_root(lib)
        lib2 = TLibrary(name="lib2")
        m2 = repo.create_model("urn:b")
        m2.add_root(lib2)
        assert len(repo.all_instances(TLibrary._meta)) == 2
        assert len(repo.all_instances(TBook._meta)) == 2

    def test_resolve_by_uri_fragment(self, library):
        lib, b1, _ = library
        repo = Repository()
        repo.create_model("urn:a").add_root(lib)
        ref = f"urn:a#{b1.eid}"
        assert repo.resolve(ref) is b1
        with pytest.raises(RepositoryError):
            repo.resolve("urn:a#nope")
        with pytest.raises(RepositoryError):
            repo.resolve("no-fragment")

    def test_remove_model(self, library):
        lib, _, _ = library
        repo = Repository()
        repo.create_model("urn:a").add_root(lib)
        repo.remove_model("urn:a")
        assert "urn:a" not in repo.models
