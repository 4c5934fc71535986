"""The unified Session API: parity with the engine-level building blocks.

The contract: for every checker family, ``Session.check`` returns a
diagnostic multiset identical to what the building block behind that
family produces on its own (``validate_tree``, ``run_wellformed_rules``,
``ModelLinter.lint``, ``ConstraintSet.evaluate``), over the generated
model corpus (:mod:`repro.generate`).  The corpus loops below cover
100+ (model, family) cases.
"""

import pytest

from repro.analysis import ModelLinter
from repro.generate import demo_generator, uml_generator
from repro.incremental import report_signature
from repro.mof import Model
from repro.mof.validate import ValidationReport, validate_tree
from repro.session import DEFAULT_FAMILIES, FAMILIES, CheckResult, Session
from repro.uml import Clazz
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

    @pytest.mark.parametrize("seed", range(5))
    def test_watch_matches_batch_check(self, seed):
        # the incremental view agrees with the batch view per family
        root = uml_generator(seed).generate(40)
        session = Session(root)
        engine = session.watch()
        try:
            incremental = engine.revalidate()
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
