"""The model lint engine: seeded defects are flagged with their stable
codes, clean models stay clean (zero false positives), and the CLI /
report / process integrations behave."""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

from repro.analysis import (
    DEFAULT_REGISTRY,
    LintConfig,
    ModelLinter,
    Severity,
    guard_unsatisfiable,
    guards_overlap,
    lint_transformation,
)
from repro.transform import Transformation
from repro.transform.rule import rule
from repro.uml import Clazz, ModelFactory, Package, StateMachine
from repro.uml.activities import Activity

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def codes(report):
    return {d.code for d in report.diagnostics}


def make_class(attrs=("balance",)):
    factory = ModelFactory("m")
    return factory, factory.clazz(
        "Account", attrs={name: "Integer" for name in attrs})


def machine_on(cls, name="sm"):
    machine = StateMachine(name=name)
    cls.owned_behaviors.append(machine)
    return machine, machine.main_region()


# ---------------------------------------------------------------------------
# Seeded state-machine defects
# ---------------------------------------------------------------------------


class TestStateMachineRules:
    def test_dead_state_flagged_sm001(self):
        factory, cls = make_class()
        machine, region = machine_on(cls)
        initial = region.add_initial()
        alive = region.add_state("Alive")
        region.add_state("Limbo")                 # never targeted
        region.add_transition(initial, alive)
        report = ModelLinter().lint(factory.model)
        assert "SM001" in codes(report)
        (diag,) = [d for d in report.diagnostics if d.code == "SM001"]
        assert "Limbo" in diag.message
        assert diag.severity is Severity.ERROR
        assert "Limbo" in diag.path               # containment path filled

    def test_unsatisfiable_guard_flagged_sm002(self):
        factory, cls = make_class()
        machine, region = machine_on(cls)
        initial = region.add_initial()
        a = region.add_state("A")
        b = region.add_state("B")
        region.add_transition(initial, a)
        region.add_transition(a, b, trigger="go",
                              guard="balance > 2 and balance < 1")
        assert "SM002" in codes(ModelLinter().lint(factory.model))

    def test_overlapping_guards_flagged_sm003(self):
        factory, cls = make_class()
        machine, region = machine_on(cls)
        initial = region.add_initial()
        a = region.add_state("A")
        b = region.add_state("B")
        region.add_transition(initial, a)
        region.add_transition(a, b, trigger="go", guard="balance >= 100")
        region.add_transition(a, a, trigger="go", guard="balance >= 50")
        report = ModelLinter().lint(factory.model)
        assert "SM003" in codes(report)

    def test_disjoint_guards_not_flagged(self):
        factory, cls = make_class()
        machine, region = machine_on(cls)
        initial = region.add_initial()
        a = region.add_state("A")
        b = region.add_state("B")
        region.add_transition(initial, a)
        region.add_transition(a, b, trigger="go", guard="balance >= 100")
        region.add_transition(a, a, trigger="go", guard="balance < 100")
        assert "SM003" not in codes(ModelLinter().lint(factory.model))

    def test_different_triggers_not_flagged(self):
        factory, cls = make_class()
        machine, region = machine_on(cls)
        initial = region.add_initial()
        a = region.add_state("A")
        region.add_transition(initial, a)
        region.add_transition(a, a, trigger="tick")
        region.add_transition(a, a, trigger="tock")
        assert "SM003" not in codes(ModelLinter().lint(factory.model))

    def test_guard_typo_flagged_with_suggestion(self):
        factory, cls = make_class()
        machine, region = machine_on(cls)
        initial = region.add_initial()
        a = region.add_state("A")
        region.add_transition(initial, a)
        region.add_transition(a, a, trigger="go", guard="balanc > 3")
        report = ModelLinter().lint(factory.model)
        assert "OCL001" in codes(report)
        (diag,) = [d for d in report.diagnostics if d.code == "OCL001"]
        assert "balance" in diag.hint

    def test_action_created_variables_not_flagged(self):
        factory, cls = make_class()
        machine, region = machine_on(cls)
        initial = region.add_initial()
        a = region.add_state("A", entry="gear := 1")
        region.add_transition(initial, a)
        region.add_transition(a, a, trigger="shift", guard="gear < 5",
                              effect="gear := gear + 1")
        assert ModelLinter().lint(factory.model).ok

    def test_guard_prover_primitives(self):
        assert guards_overlap("x >= 100", "x >= 50") is True
        assert guards_overlap("x >= 100", "x < 100") is False
        assert guards_overlap("x = 1", "x = 2") is False
        assert guards_overlap("", "x > 0") is True
        assert guards_overlap("f(x) > 0", "x > 0") is None  # undecidable
        assert guard_unsatisfiable("x > 2 and x < 1")
        assert guard_unsatisfiable("false")
        assert not guard_unsatisfiable("x > 1")


# ---------------------------------------------------------------------------
# Seeded activity defects
# ---------------------------------------------------------------------------


def activity_on(cls, name="act"):
    activity = Activity(name=name)
    cls.owned_behaviors.append(activity)
    return activity


class TestActivityRules:
    def test_sequential_join_starves_act001(self):
        factory, cls = make_class()
        act = activity_on(cls)
        initial = act.add_initial()
        first = act.add_action("first")
        second = act.add_action("second")
        join = act.add_join()
        final = act.add_final()
        act.flow(initial, first)
        act.flow(first, second)
        act.flow(first, join)
        act.flow(second, join)
        act.flow(join, final)
        report = ModelLinter().lint(factory.model)
        assert "ACT001" in codes(report)

    def test_balanced_fork_join_clean(self):
        factory, cls = make_class()
        act = activity_on(cls)
        initial = act.add_initial()
        fork = act.add_fork()
        a = act.add_action("a")
        b = act.add_action("b")
        join = act.add_join()
        final = act.add_final()
        act.flow(initial, fork)
        act.flow(fork, a)
        act.flow(fork, b)
        act.flow(a, join)
        act.flow(b, join)
        act.flow(join, final)
        assert ModelLinter().lint(factory.model).ok

    def test_fork_overfeeding_join_act002(self):
        factory, cls = make_class()
        act = activity_on(cls)
        initial = act.add_initial()
        fork = act.add_fork()
        a = act.add_action("a")
        b = act.add_action("b")
        c = act.add_action("c")
        join = act.add_join()
        act.flow(initial, fork)
        act.flow(fork, a)
        act.flow(fork, b)
        act.flow(fork, c)
        act.flow(a, join)
        act.flow(b, join)
        act.flow(c, b)             # third branch converges into b's path
        act.add_final()
        report = ModelLinter().lint(factory.model)
        assert "ACT002" in codes(report)

    def test_degenerate_fork_act003(self):
        factory, cls = make_class()
        act = activity_on(cls)
        initial = act.add_initial()
        fork = act.add_fork()
        a = act.add_action("a")
        final = act.add_final()
        act.flow(initial, fork)
        act.flow(fork, a)
        act.flow(a, final)
        assert "ACT003" in codes(ModelLinter().lint(factory.model))


# ---------------------------------------------------------------------------
# Seeded transformation conflicts
# ---------------------------------------------------------------------------


class TestTransformationRules:
    def test_shadowed_rule_tr001(self):
        @rule(Clazz, name="first")
        def first(source, ctx):
            return None

        @rule(Clazz, name="second")
        def second(source, ctx):
            return None

        report = lint_transformation(Transformation("t", [first, second]))
        assert "TR001" in codes(report)
        (diag,) = [d for d in report.diagnostics if d.code == "TR001"]
        assert "second" in diag.message

    def test_guarded_exclusive_rules_tr002(self):
        @rule(Clazz, name="active", guard="self.is_active")
        def active(source, ctx):
            return None

        @rule(Clazz, name="abstract", guard="self.is_abstract")
        def abstract(source, ctx):
            return None

        report = lint_transformation(
            Transformation("t", [active, abstract]))
        assert "TR002" in codes(report)
        assert "TR001" not in codes(report)

    def test_lazy_eager_duplicate_tr003(self):
        @rule(Clazz, name="eager")
        def eager(source, ctx):
            return None

        @rule(Clazz, name="ondemand", lazy=True)
        def ondemand(source, ctx):
            return None

        report = lint_transformation(
            Transformation("t", [eager, ondemand]))
        assert "TR003" in codes(report)

    def test_guarded_then_total_is_clean(self):
        @rule(Clazz, name="special", guard="self.is_active")
        def special(source, ctx):
            return None

        @rule(Package, name="unrelated")
        def unrelated(source, ctx):
            return None

        report = lint_transformation(
            Transformation("t", [special, unrelated]))
        assert report.ok and not report.warnings


# ---------------------------------------------------------------------------
# Config: disable / severity overrides / opt-in
# ---------------------------------------------------------------------------


class TestConfig:
    def seeded(self):
        factory, cls = make_class()
        machine, region = machine_on(cls)
        initial = region.add_initial()
        alive = region.add_state("Alive")
        region.add_state("Limbo")
        region.add_transition(initial, alive)
        return factory.model

    def test_disable_by_code(self):
        model = self.seeded()
        report = ModelLinter(
            config=LintConfig(disabled={"SM001"})).lint(model)
        assert "SM001" not in codes(report)

    def test_disable_by_name(self):
        model = self.seeded()
        report = ModelLinter(
            config=LintConfig(disabled={"dead-state"})).lint(model)
        assert "SM001" not in codes(report)

    def test_severity_override_downgrades(self):
        model = self.seeded()
        report = ModelLinter(config=LintConfig(
            severity_overrides={"SM001": Severity.WARNING})).lint(model)
        assert report.ok
        assert any(d.code == "SM001" for d in report.warnings)

    def test_registry_knows_all_families(self):
        for code in ("SM001", "SM002", "SM003", "ACT001", "ACT002",
                     "ACT003", "TR001", "TR002", "TR003", "OCL101",
                     "OCL102", "OCL103", "UML100"):
            assert code in DEFAULT_REGISTRY

    def test_duplicate_code_rejected(self):
        from repro.analysis.registry import LintRule, RuleRegistry
        registry = RuleRegistry()
        registry.register(LintRule("X001", "one", "model", lambda t, c: []))
        with pytest.raises(ValueError):
            registry.register(
                LintRule("X001", "two", "model", lambda t, c: []))

    def test_decorator_fills_an_empty_custom_registry(self):
        # an empty registry is falsy (it has a length); it must still be
        # the one the rule lands in, not the default
        from repro.analysis.registry import RuleRegistry, lint_rule
        registry = RuleRegistry()

        @lint_rule("X002", "custom-only", "model", registry=registry)
        def custom_only(target, ctx):
            return []

        assert "custom-only" in registry
        assert "custom-only" not in DEFAULT_REGISTRY


# ---------------------------------------------------------------------------
# Zero false positives on every bundled example model
# ---------------------------------------------------------------------------


def _load_example(name):
    path = os.path.join(EXAMPLES_DIR, name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


EXAMPLE_BUILDS = [
    ("quickstart", "build_pim"),
    ("embedded_controller", "build_pim"),
    ("protocol_stack", "build_pim"),
    ("usecases_as_tests", "build_oo_design"),
    ("model_evolution", "build_revision_1"),
    ("information_model", "build_pim"),
]


class TestCleanExamples:
    @pytest.mark.parametrize("name,builder", EXAMPLE_BUILDS,
                             ids=[n for n, _ in EXAMPLE_BUILDS])
    def test_example_lints_clean(self, name, builder):
        module = _load_example(name)
        built = getattr(module, builder)()
        factory = built[0] if isinstance(built, tuple) else built
        report = ModelLinter().lint(factory.model)
        assert report.ok, report.render()

    def test_cruise_fixture_lints_clean(self, cruise_model):
        report = ModelLinter().lint(cruise_model.model)
        assert report.ok, report.render()
        assert report.elements_scanned > 0
        assert report.rules_run > 0


# ---------------------------------------------------------------------------
# Integrations: report section, suite test, process gate
# ---------------------------------------------------------------------------


class TestIntegrations:
    def test_quality_report_has_lint_section(self, cruise_model):
        from repro.validation import build_quality_report
        report = build_quality_report(cruise_model.model)
        section = report.section("static analysis (lint)")
        assert section.passed

    def test_suite_add_lint_gates(self):
        from repro.method.testing import ModelTestSuite
        factory, cls = make_class()
        machine, region = machine_on(cls)
        initial = region.add_initial()
        alive = region.add_state("Alive")
        region.add_state("Limbo")
        region.add_transition(initial, alive)
        suite = ModelTestSuite("level-0").add_lint()
        outcome = suite.run(factory.model)
        assert not outcome.passed
        clean_suite = ModelTestSuite("level-0").add_lint(
            disable=["SM001"])
        assert clean_suite.run(factory.model).passed

    def test_process_lint_gate_stops_run(self):
        from repro.method.process import DevelopmentProcess
        factory, cls = make_class()
        machine, region = machine_on(cls)
        initial = region.add_initial()
        alive = region.add_state("Alive")
        region.add_state("Limbo")
        region.add_transition(initial, alive)
        process = DevelopmentProcess("p")
        process.add_phase("analysis", lint=True)
        run = process.run(factory.model)
        assert run.stopped_at == "analysis"
        record = run.record("analysis")
        assert not record.gate_passed
        assert record.lint_report is not None
        relaxed = process.run(factory.model, enforce_gates=False)
        assert relaxed.completed

    def test_lint_report_adapts_to_validation_report(self):
        factory, cls = make_class()
        machine, region = machine_on(cls)
        initial = region.add_initial()
        alive = region.add_state("Alive")
        region.add_state("Limbo")
        region.add_transition(initial, alive)
        adapted = ModelLinter().lint(factory.model).as_validation_report()
        assert not adapted.ok
        assert any(d.code == "SM001" for d in adapted.errors)
