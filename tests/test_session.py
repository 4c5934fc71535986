"""The unified Session API: parity with the engine-level building blocks.

The contract: for every checker family, ``Session.check`` returns a
diagnostic multiset identical to what the building block behind that
family produces on its own (``validate_tree``, ``run_wellformed_rules``,
``ModelLinter.lint``, ``ConstraintSet.evaluate``), over the generated
model corpus (:mod:`repro.generate`).  The corpus loops below cover
100+ (model, family) cases.
"""

import json

import pytest

from repro.analysis import ModelLinter
from repro.generate import (EditFuzzer, demo_generator, demo_package,
                            uml_generator)
from repro.incremental import report_signature
from repro.mof import CompositionError, Model, transaction
from repro.mof.validate import ValidationReport, validate_tree
from repro.session import DEFAULT_FAMILIES, FAMILIES, CheckResult, Session
from repro.uml import Clazz, ModelFactory
from repro.uml.wellformed import run_wellformed_rules

DEMO_SEEDS = range(20)
UML_SEEDS = range(15)


def _validate_roots(model):
    """Every root through ``validate_tree`` (structure + invariants)."""
    report = ValidationReport()
    for root in model.roots:
        report.extend(validate_tree(root))
    return report


def _signature(diagnostics):
    return sorted((d.severity.value, d.code, d.path, d.message)
                  for d in diagnostics)


def _as_model(root):
    model = Model("urn:parity")
    model.add_root(root)
    return model


def _constraint_set():
    from repro.ocl import ConstraintSet
    constraints = ConstraintSet("parity")
    constraints.add(Clazz, "has-members",
                    "owned_attributes->notEmpty() or "
                    "owned_operations->notEmpty()")
    return constraints


def _corpus_constraint_set():
    """One set for both corpora: a UML invariant, a demo one, and a
    registered demo invariant, which then reports in both the
    ``invariant`` and the ``constraint`` family."""
    constraints = _constraint_set()
    book = demo_package().classifier("GBook")
    constraints.add(book, "long", "self.pages > 10")
    constraints.invariants.append(book.invariants[0])
    return constraints


#: every single family, the default selection, and all six families
VIEW_SELECTIONS = [(family,) for family in FAMILIES] + [None, FAMILIES]


class TestParity:
    """Session.check vs the building block behind each family,
    multiset-equal."""

    @pytest.mark.parametrize("seed", DEMO_SEEDS)
    def test_validate_model_demo_corpus(self, seed):
        # 20 models x 2 families (structural, invariant) = 40 cases
        model = _as_model(demo_generator(seed).generate(30))
        reference = _validate_roots(model)
        new = Session(model).check(families=("structural", "invariant"))
        assert report_signature(reference) == \
            report_signature(new.as_validation_report())

    @pytest.mark.parametrize("seed", UML_SEEDS)
    def test_validate_model_uml_corpus(self, seed):
        # 15 models x 2 families = 30 cases
        model = _as_model(uml_generator(seed).generate(40))
        reference = _validate_roots(model)
        new = Session(model).check(families=("structural", "invariant"))
        assert report_signature(reference) == \
            report_signature(new.as_validation_report())

    @pytest.mark.parametrize("seed", UML_SEEDS)
    def test_check_model_uml_corpus(self, seed):
        # 15 models x 1 family (wellformed) = 15 cases
        root = uml_generator(seed).generate(40)
        reference = run_wellformed_rules(root)
        new = Session(root).check(families=("wellformed",))
        assert report_signature(reference) == \
            report_signature(new.as_validation_report())

    @pytest.mark.parametrize("seed", UML_SEEDS)
    def test_lint_model_uml_corpus(self, seed):
        # 15 models x 1 family (lint) = 15 cases
        root = uml_generator(seed).generate(40)
        reference = ModelLinter().lint(root)
        new = Session(root).check(families=("lint",))
        assert _signature(reference.diagnostics) == \
            _signature(new.diagnostics)

    @pytest.mark.parametrize("seed", range(5))
    def test_constraint_set_uml_corpus(self, seed):
        # 5 models x 1 family (constraint) = 5 cases
        constraints = _constraint_set()
        root = uml_generator(seed).generate(40)
        reference = constraints.evaluate(root)
        new = Session(root, constraint_sets=[constraints]) \
            .check(families=("constraint",))
        assert report_signature(reference) == \
            report_signature(new.as_validation_report())

    @pytest.mark.parametrize("columnar", [False, True])
    @pytest.mark.parametrize("expression", [
        "self.name.toInteger() > 0",        # Python raises ValueError
        "self.pages.max('a') > 0",          # Python raises TypeError
    ])
    def test_raising_constraint_reports_as_the_view(self, expression,
                                                    columnar):
        # an invariant that raises any exception is an invariant-error in
        # the constraint family, as in the registered-invariant family
        # and in the incremental view
        from repro.ocl import ConstraintSet
        constraints = ConstraintSet("raising")
        constraints.add(demo_package().classifier("GBook"), "raising",
                        expression)
        model = _as_model(demo_generator(3).generate(40))
        session = Session(model, constraint_sets=[constraints],
                          columnar=columnar)
        full = session.check(["constraint"]).diagnostics
        engine = session.watch(["constraint"])
        try:
            view = engine.check_result().diagnostics
        finally:
            engine.detach()
        assert len(full) == 26
        assert {d.code for d in full} == {"invariant-error"}
        assert report_signature(ValidationReport(full)) == \
            report_signature(ValidationReport(view))

    # seeds whose corpus and edits change the diagnostics of several
    # families
    @pytest.mark.parametrize("generator,seed",
                             [(demo_generator, 7), (uml_generator, 1)],
                             ids=["demo", "uml"])
    @pytest.mark.parametrize("families", VIEW_SELECTIONS,
                             ids=[*FAMILIES, "default", "all"])
    def test_view_lists_the_families_check_lists(self, generator, seed,
                                                 families):
        """A view's ``check_result()`` has ``Session.check``'s family
        keys, in the same order, and per family the same multiset, both
        once primed and after fuzzed edits."""
        corpus = generator(seed)
        root = corpus.generate(40)
        session = Session(root, constraint_sets=[_corpus_constraint_set()]
                          if families == FAMILIES else ())
        view = session.watch(families)

        def assert_view_is_check():
            full = session.check(families).by_family
            served = view.check_result().by_family
            assert list(served) == list(full)
            for family, diagnostics in full.items():
                assert report_signature(ValidationReport(served[family])) \
                    == report_signature(ValidationReport(diagnostics)), \
                    family

        try:
            assert_view_is_check()
            EditFuzzer(root, seed=11, generator=corpus) \
                .apply_random_edits(10)
            view.revalidate()
            assert_view_is_check()
            assert view.verify() == []
        finally:
            view.detach()

    def test_constraint_family_covers_every_root(self):
        """A session over one root of a two-root model checks the whole
        model in every family, the constraint family included, and its
        view reports the same."""
        from repro.ocl import ConstraintSet
        first = demo_generator(3).generate(40)
        second = demo_generator(4).generate(40)
        model = Model("urn:two-roots")
        model.add_root(first)
        model.add_root(second)
        constraints = ConstraintSet("thick")
        constraints.add(demo_package().classifier("GBook"), "thick",
                        "self.pages > 10")
        families = ("invariant", "constraint")
        session = Session(first, constraint_sets=[constraints])
        full = session.check(families).by_family
        whole = Session(model, constraint_sets=[constraints]) \
            .check(families).by_family
        assert {family: len(found) for family, found in full.items()} \
            == {"invariant": 12, "constraint": 10}
        assert [d.element for d in full["constraint"]] == \
            [d.element for d in whole["constraint"]]
        view = session.watch(families)
        try:
            served = view.check_result().by_family
            for family, diagnostics in full.items():
                assert report_signature(ValidationReport(served[family])) \
                    == report_signature(ValidationReport(diagnostics)), \
                    family
        finally:
            view.detach()

    @pytest.mark.parametrize("seed", range(5))
    def test_watch_matches_batch_check(self, seed):
        # the incremental view agrees with the batch view per family
        root = uml_generator(seed).generate(40)
        session = Session(root)
        engine = session.watch()
        try:
            engine.revalidate()
            incremental = engine.report()
            batch = session.check()
            assert report_signature(incremental) == \
                report_signature(batch.as_validation_report())
        finally:
            engine.detach()


class TestSessionSurface:
    def test_scope_forms(self):
        root = uml_generator(1).generate(30)
        for scope in (root, [root], _as_model(root)):
            assert Session(scope).check(
                families=("structural",)).families == ("structural",)

    def test_checking_an_element_does_not_pin_it(self):
        """``Session(element)`` holds the element in a private model
        only to check it: a link may still contain it elsewhere."""
        outer, inner = ModelFactory("outer"), ModelFactory("inner")
        Session(inner.model).check()
        outer.model.packaged_elements.append(inner.model)
        assert inner.model.container is outer.model
        assert inner.model._model is None

    def test_a_view_drops_a_root_that_moves_elsewhere(self):
        outer, inner = ModelFactory("outer"), ModelFactory("inner")
        inner.clazz("Account", attrs={"balance": "Integer"})
        session = Session(inner.model)
        view = session.watch()
        assert view.unit_count() > 0
        outer.model.packaged_elements.append(inner.model)
        assert session.model.roots == []
        view.revalidate()
        assert view.verify(rerun=True) == []
        assert view.unit_count() == 0
        # the outer model's own view now checks the moved subtree
        outer_view = Session(outer.model).watch()
        assert outer_view.verify(rerun=True) == []
        assert report_signature(outer_view.report()) == report_signature(
            ValidationReport(Session(outer.model).check().diagnostics))
        view.detach()
        outer_view.detach()

    def test_a_rolled_back_move_returns_the_root(self):
        outer, inner = ModelFactory("outer"), ModelFactory("inner")
        session = Session(inner.model)
        view = session.watch()
        with pytest.raises(RuntimeError):
            with transaction(outer.model):
                outer.model.packaged_elements.append(inner.model)
                raise RuntimeError("abandon the edit")
        assert session.model.roots == [inner.model]
        assert inner.model.container is None
        view.revalidate()
        assert view.verify(rerun=True) == []
        view.detach()

    def test_a_model_document_keeps_its_roots(self):
        outer, inner = ModelFactory("outer"), ModelFactory("inner")
        Session(_as_model(inner.model)).check()
        with pytest.raises(CompositionError):
            outer.model.packaged_elements.append(inner.model)

    @pytest.mark.parametrize("second_in_a_model", [True, False])
    def test_roots_of_different_models_are_refused(self, second_in_a_model):
        """A session over roots of two models (or of a model and none)
        would have to take a root from a model document, whose
        notifications would then no longer reach the session's views;
        it is refused before any root moves."""
        first = demo_generator(3).generate(20)
        second = demo_generator(4).generate(20)
        first_model = _as_model(first)
        second_model = _as_model(second) if second_in_a_model else None
        with pytest.raises(ValueError, match="do not share"):
            Session([first, second])
        assert first._model is first_model and first_model.roots == [first]
        assert second._model is second_model
        if second_model is not None:
            assert second_model.roots == [second]

    def test_a_model_takes_a_root_from_a_session(self):
        """``Session(element)``'s private model gives its root up to a
        model that adds it, and its index announces the leave."""
        root = demo_generator(5).generate(20)
        session = Session(root)
        left = []

        def on_transition(element, entered):
            if not entered:
                left.append(element)

        session.model.index().listeners.append(on_transition)
        model = Model("urn:takes")
        model.add_root(root)
        assert model.roots == [root] and root._model is model
        assert session.model.roots == []
        assert list(map(id, left)) == list(
            map(id, [root, *root.all_contents()]))

    def test_default_families(self):
        root = uml_generator(1).generate(20)
        assert Session(root).check().families == DEFAULT_FAMILIES
        with_constraints = Session(
            root, constraint_sets=[_constraint_set()])
        assert with_constraints.check().families == FAMILIES

    def test_unknown_family_rejected(self):
        root = uml_generator(1).generate(20)
        with pytest.raises(ValueError, match="unknown checker"):
            Session(root).check(families=("spelling",))

    def test_family_order_is_canonical(self):
        root = uml_generator(1).generate(20)
        result = Session(root).check(families=("lint", "structural"))
        assert result.families == ("structural", "lint")

    def test_severity_floor(self):
        root = uml_generator(2).generate(40)
        everything = Session(root).check()
        errors_only = Session(root).check(severity="error")
        assert not errors_only.warnings and not errors_only.infos
        assert _signature(errors_only.errors) == \
            _signature(everything.errors)
        with pytest.raises(ValueError, match="unknown severity"):
            everything.filtered("fatal")

    def test_render_and_json(self):
        root = uml_generator(2).generate(40)
        result = Session(root).check()
        text = result.render()
        assert "error(s)" in text and "warning(s)" in text
        doc = result.to_json()
        assert doc["errors"] == len(result.errors)
        assert set(doc["families"]) == set(result.families)
        for family, diagnostics in doc["families"].items():
            for record in diagnostics:
                assert {"severity", "code", "message", "path",
                        "element", "hint"} <= set(record)

    @pytest.mark.parametrize("generator", [demo_generator, uml_generator],
                             ids=["demo", "uml"])
    @pytest.mark.parametrize("seed", range(3))
    def test_encode_is_the_json_document(self, generator, seed):
        # a full pass memoizes no record: every one is rendered on the spot
        result = Session(generator(seed).generate(80)).check()
        assert result.diagnostics
        text = result.encode()
        assert json.loads(text) == result.to_json()
        assert text == json.dumps(result.to_json(), separators=(",", ":"))
        filtered = result.filtered("error")
        assert json.loads(filtered.encode(repo="r", epoch=2)) == \
            {**filtered.to_json(), "repo": "r", "epoch": 2}

    def test_load_from_file(self, tmp_path):
        from repro.uml import ModelFactory
        from repro.xmi import write_xml
        factory = ModelFactory("filed")
        factory.clazz("Thing", attrs={"x": "Integer"})
        model = _as_model(factory.model)
        path = tmp_path / "filed.xmi"
        path.write_text(write_xml(model))
        session = Session.load(str(path))
        assert [r.name for r in session.roots] == ["filed"]
        assert session.check().families == DEFAULT_FAMILIES

    def test_quality_report_delegates(self):
        from repro.uml import ModelFactory
        factory = ModelFactory("qr")
        factory.clazz("Thing", attrs={"x": "Integer"})
        report = Session(factory.model).quality_report()
        assert report.model_name == "qr"
        two_roots = Session([uml_generator(0).generate(10),
                             uml_generator(1).generate(10)])
        with pytest.raises(ValueError, match="roots"):
            two_roots.quality_report()

    def test_stats_document(self):
        root = uml_generator(3).generate(30)
        session = Session(root)
        session.check()
        document = session.stats()
        assert isinstance(document["metrics"], dict)
        assert document["model"]["roots"] == 1
        assert document["model"]["elements"] > 0
        assert document["ocl_cache"]        # compile-cache counters
        # runtime_stats() is the model-free subset the server's global
        # stats verb and `repro stats --format json` also serve
        from repro.session import runtime_stats
        assert "model" not in runtime_stats()
        assert "metrics" in runtime_stats()
