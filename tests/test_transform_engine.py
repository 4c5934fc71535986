"""Tests for rules, the two-phase engine, and traces."""

import pytest

from repro.mof import RepositoryError
from repro.transform import (
    FunctionRule,
    Rule,
    RuleError,
    TraceModel,
    Transformation,
    TransformError,
    UnresolvedTraceError,
    rule,
)
from repro.uml import Clazz, Package, Property, UmlElement, UmlModel


@pytest.fixture
def simple_model(factory):
    a = factory.clazz("Alpha", attrs={"x": "Integer"})
    b = factory.clazz("Beta", supers=[a])
    return factory, a, b


class TestRuleDeclaration:
    def test_rule_requires_source_type(self):
        with pytest.raises(RuleError):
            Rule(name="broken")

    def test_decorator_builds_function_rule(self):
        @rule(Clazz, name="c2p")
        def class_to_package(source, ctx):
            return Package(name=source.name)
        assert isinstance(class_to_package, FunctionRule)
        assert class_to_package.name == "c2p"

    def test_guard_as_callable(self, simple_model):
        factory, a, b = simple_model
        picked = []

        @rule(Clazz, guard=lambda e, ctx: e.name.startswith("A"))
        def only_alpha(source, ctx):
            picked.append(source.name)
            return Package(name=source.name)
        Transformation("t", [only_alpha]).run(factory.model)
        assert picked == ["Alpha"]

    def test_guard_as_ocl_string(self, simple_model):
        factory, a, b = simple_model

        @rule(Clazz, guard="name = 'Beta'")
        def only_beta(source, ctx):
            return Package(name=source.name)
        result = Transformation("t", [only_beta]).run(factory.model)
        assert [r.name for r in result.target_roots] == ["Beta"]

    def test_source_type_filters(self, simple_model):
        factory, *_ = simple_model

        @rule(Property)
        def props(source, ctx):
            return Package(name=source.name)
        result = Transformation("t", [props]).run(factory.model)
        assert [r.name for r in result.target_roots] == ["x"]


class TestTwoPhaseExecution:
    def test_bind_sees_all_targets(self, simple_model):
        factory, a, b = simple_model
        # Beta is visited after Alpha, but Alpha's bind needs Beta's image:
        # two-phase execution makes that order-independent.

        @rule(Clazz)
        def clazz_to_clazz(source, ctx):
            return Clazz(name=source.name + "_psm")

        @clazz_to_clazz.binder
        def bind(source, target, ctx):
            for sup in source.supers():
                target.add_super(ctx.resolve(sup))
        result = Transformation("t", [clazz_to_clazz]).run(factory.model)
        beta = [r for r in result.target_roots if r.name == "Beta_psm"][0]
        assert [s.name for s in beta.supers()] == ["Alpha_psm"]

    def test_unresolved_trace_raises(self, simple_model):
        factory, a, b = simple_model

        @rule(Clazz, guard="name = 'Beta'")
        def beta_only(source, ctx):
            return Clazz(name=source.name)

        @beta_only.binder
        def bind(source, target, ctx):
            for sup in source.supers():
                ctx.resolve(sup)       # Alpha was never transformed
        with pytest.raises(UnresolvedTraceError):
            Transformation("t", [beta_only]).run(factory.model)

    def test_resolve_optional_returns_none(self, simple_model):
        factory, a, b = simple_model
        seen = {}

        @rule(Clazz, guard="name = 'Beta'")
        def beta_only(source, ctx):
            return Clazz(name=source.name)

        @beta_only.binder
        def bind(source, target, ctx):
            seen["img"] = ctx.resolve_optional(source.supers()[0])
        Transformation("t", [beta_only]).run(factory.model)
        assert seen["img"] is None

    def test_exclusive_rule_claims_element(self, simple_model):
        factory, *_ = simple_model
        fired = []

        @rule(Clazz, name="first")
        def first(source, ctx):
            fired.append(("first", source.name))
            return None

        @rule(Clazz, name="second")
        def second(source, ctx):
            fired.append(("second", source.name))
            return None
        Transformation("t", [first, second]).run(factory.model)
        assert all(rule_name == "first" for rule_name, _ in fired)

    def test_non_exclusive_rules_stack(self, simple_model):
        factory, *_ = simple_model
        fired = []

        @rule(Clazz, name="first", exclusive=False)
        def first(source, ctx):
            fired.append("first")
            return None

        @rule(Clazz, name="second")
        def second(source, ctx):
            fired.append("second")
            return None
        Transformation("t", [first, second]).run(factory.model)
        assert fired.count("first") == 2 and fired.count("second") == 2

    def test_multi_role_targets(self, simple_model):
        factory, a, _ = simple_model

        @rule(Clazz)
        def split(source, ctx):
            return {"default": Clazz(name=source.name),
                    "doc": Package(name=source.name + "_doc")}
        result = Transformation("t", [split]).run(factory.model)
        assert result.trace.resolve(a, "doc").name == "Alpha_doc"
        assert result.trace.resolve(a).name == "Alpha"

    def test_bad_create_return_value(self, simple_model):
        factory, *_ = simple_model

        @rule(Clazz)
        def bad(source, ctx):
            return 42
        with pytest.raises(TransformError):
            Transformation("t", [bad]).run(factory.model)

    def test_lazy_rule_applied_on_demand(self, simple_model):
        factory, a, b = simple_model
        lazy = FunctionRule("lazy-super", Clazz,
                            lambda s, ctx: Clazz(name=s.name + "_lazy"),
                            lazy=True)

        @rule(Clazz, guard="name = 'Beta'")
        def beta(source, ctx):
            return Clazz(name=source.name)

        @beta.binder
        def bind(source, target, ctx):
            image = ctx.resolve_or_apply(source.supers()[0], lazy)
            target.add_super(image)
        transformation = Transformation("t", [beta, lazy])
        result = transformation.run(factory.model)
        named = {r.name for r in result.target_roots}
        assert "Alpha_lazy" in named
        # applied exactly once even if resolved twice
        assert result.trace.rules_used()["lazy-super"] == 1


class TestResultAndStats:
    def test_elements_visited(self, simple_model):
        factory, *_ = simple_model
        result = Transformation("t", []).run(factory.model)
        expected = 1 + sum(1 for _ in factory.model.all_contents())
        assert result.elements_visited == expected

    def test_target_model_wrapper(self, simple_model):
        factory, *_ = simple_model

        @rule(Clazz)
        def copy(source, ctx):
            return Clazz(name=source.name)
        result = Transformation("t", [copy]).run(factory.model)
        model = result.target_model("urn:out")
        assert model.uri == "urn:out"
        assert len(model.roots) == 2

    def test_target_roots_belong_to_one_model(self, simple_model):
        factory, *_ = simple_model

        @rule(Clazz)
        def copy(source, ctx):
            return Clazz(name=source.name)
        result = Transformation("t", [copy]).run(factory.model)
        model = result.target_model("urn:out")
        with pytest.raises(RepositoryError, match="one model"):
            result.target_model("urn:out")
        assert all(root._model is model for root in result.target_roots)
        assert len(model.roots) == 2

    def test_primary_root_requires_output(self, simple_model):
        factory, *_ = simple_model
        result = Transformation("t", []).run(factory.model)
        with pytest.raises(TransformError):
            result.primary_root

    def test_parameters_available(self, simple_model):
        factory, *_ = simple_model
        seen = {}

        @rule(Clazz)
        def check(source, ctx):
            seen["p"] = ctx.parameters["flavour"]
            return None
        Transformation("t", [check]).run(factory.model,
                                         parameters={"flavour": "mint"})
        assert seen["p"] == "mint"


class TestTraceModel:
    def test_backward_lookup(self, simple_model):
        factory, a, _ = simple_model

        @rule(Clazz)
        def copy(source, ctx):
            return Clazz(name=source.name)
        result = Transformation("t", [copy]).run(factory.model)
        image = result.trace.resolve(a)
        assert result.trace.origin_of(image) is a
        assert result.trace.link_of_target(image).rule_name == "copy"

    def test_sources_targets_enumeration(self, simple_model):
        factory, a, b = simple_model

        @rule(Clazz)
        def copy(source, ctx):
            return Clazz(name=source.name)
        result = Transformation("t", [copy]).run(factory.model)
        assert set(result.trace.sources()) == {a, b}
        assert len(result.trace.all_targets()) == 2
        assert len(result.trace) == 2
        assert result.trace.is_transformed(a)

    def test_resolve_all_skips_unmapped(self, simple_model):
        factory, a, b = simple_model
        trace = TraceModel()
        assert trace.resolve_all([a, b]) == []
