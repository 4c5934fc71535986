"""Differential tests: compiled OCL == interpreted OCL.

The closure compiler (:mod:`repro.ocl.compile`) must be observationally
identical to the tree-walking interpreter — same values, same undefined
(``None``) propagation, same ``OclTypeError``/``OclEvaluationError``
types and messages.  The corpus below runs every expression against
every element of generated models (:mod:`repro.generate`) through both
pipelines and requires identical outcomes, including for expressions
that are *type errors* on some elements (wrong metaclass, undefined
navigation, non-boolean guards).  :func:`evaluate` is the compiled side;
the interpreted side is the test-local :func:`interpret` over
:class:`~repro.ocl.OclEvaluator`, the oracle no public path reaches.

Also covers the parse/compile caches: per-(text, context) keying, the
no-poisoning guarantee between contexts, and hit/miss accounting.
"""

import pytest

from repro.generate import demo_generator, demo_package, uml_generator
from repro.incremental import report_signature
from repro.mof import (
    Element,
    MInteger,
    MString,
    Model,
    add_attribute,
    define_class,
    define_package,
)
from repro.ocl import (
    ConstraintSet,
    Environment,
    Invariant,
    OclEvaluator,
    cache_stats,
    compile_expression,
    evaluate,
    parse,
    parse_cached,
)
from repro.ocl.errors import OclError


def interpret(expr, env=None, **bindings):
    """The tree-walking interpreter over an environment built the way
    :func:`evaluate` builds it."""
    if env is None:
        self_object = bindings.get("self")
        if isinstance(self_object, Element):
            env = Environment.for_model(self_object.root(),
                                        self_object=self_object)
        else:
            env = Environment()
    for name, value in bindings.items():
        env.define(name, value)
    return OclEvaluator().eval(parse(expr), env)


def outcome(run, expr, **bindings):
    """Evaluate one way; collapse into a comparable (tag, payload) pair."""
    try:
        return ("value", run(expr, **bindings))
    except OclError as exc:
        return ("error", type(exc).__name__, str(exc))


def assert_differential(expr, **bindings):
    interpreted = outcome(interpret, expr, **bindings)
    compiled = outcome(evaluate, expr, **bindings)
    assert compiled == interpreted, (
        f"divergence on {expr!r}: compiled={compiled!r} "
        f"interpreted={interpreted!r}")
    return compiled


#: Expressions over the genlib demo metamodel.  Deliberately includes
#: expressions that error on some or all elements — error parity is part
#: of the contract.
CORPUS = [
    # navigation, implicit self, arithmetic, comparisons
    "self.pages >= 0",
    "self.books->size() <= self.capacity",
    "self.sequel.oclIsUndefined() or self.sequel <> self",
    "not self.name.oclIsUndefined()",
    "name",
    "pages + 1",
    "self.name.size() > 0",
    "self.pages div 7 + self.pages mod 7",
    "self.pages / 0",
    "-self.pages < 0",
    "self.library.name = self.name",
    # boolean operators, short-circuit and strictness
    "self.pages > 0 and self.pages < 10000",
    "self.books->isEmpty() or self.books->first().pages >= 0",
    "self.name.oclIsUndefined() implies self.pages = 100",
    "(self.pages > 0) xor (self.capacity > 0)",
    "1 = 1 or self.no_such_feature",
    # iterator operations
    "self.shelves->forAll(s | s.capacity >= 0)",
    "self.shelves->collect(s | s.books)->size() >= 0",
    "self.books->select(b | b.pages > 100)->size()",
    "self.books->reject(b | b.pages > 100)->notEmpty()",
    "self.books->exists(b | b.color = 'red')",
    "self.books->collectNested(b | b.tags)->size()",
    "self.books->isUnique(b | b.name)",
    "self.books->sortedBy(b | b.pages)->first()",
    "self.books->one(b | b.pages > 150)",
    "self.books->any(b | b.pages > 0)",
    "self.sequel->closure(b | b.sequel)->excludes(self)",
    "self.books->forAll(x, y | x.pages + y.pages >= 0)",
    "self.books->exists(x, y | x <> y)",
    "self.books->sortedBy(b | b.color)->size()",
    # plain collection operations
    "self.books.pages->sum()",
    "self.tags->includes('x')",
    "self.books->at(1)",
    "self.books->indexOf(self)",
    "self.tags->asSet()->size() = self.tags->size()",
    "self.books.pages->max()",
    "self.books.pages->avg()",
    "self.shelves.books->flatten()->size()",
    "self.tags->including('t')->excluding('t')->size()",
    # collection and tuple literals
    "Set{1, 2, 2, 3}->size() = 3",
    "Sequence{1..self.capacity}->sum()",
    "Sequence{1..self.name}->size()",
    "Tuple{a = 1, b = self.name}.a = 1",
    "OrderedSet{self, self}->size()",
    # type operations and allInstances
    "GBook.allInstances()->size() >= 0",
    "self.oclIsKindOf(GNamed)",
    "self.oclIsTypeOf(GBook)",
    "self.oclAsType(GBook).pages > 0",
    "self.oclIsKindOf(self.pages)",
    # string operations
    "self.name.toUpperCase().size() = self.name.size()",
    "self.name.substring(1, 2).concat('!')",
    "self.name.indexOf('a') >= 0",
    "self.name.startsWith('G') or true",
    "'12'.toInteger() = 12",
    "self.name.noSuchOp()",
    # control flow
    "let n = self.books->size() in n * 2 >= n",
    "if self.books->isEmpty() then 0 else self.books->first().pages endif",
    # undefined propagation
    "null->size() = 0",
    "self.sequel.sequel.oclIsUndefined()",
    "self.featured.pages",
    "self.sequel.pages + 1",
    # unknown operations / names
    "self.books->frobnicate()",
    "self.books->frobnicate(b | b)",
    "totally_unknown",
]


def _sample_elements(seed, size=35):
    root = demo_generator(seed).generate(size)
    return [root] + list(root.all_contents())


class TestDifferentialCorpus:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_corpus_over_generated_models(self, seed):
        elements = _sample_elements(seed)
        assert len(elements) > 10
        divergences = 0
        for expr in CORPUS:
            for element in elements:
                assert_differential(expr, self=element)
        assert divergences == 0

    def test_corpus_over_uml_models(self):
        root = uml_generator(3).generate(30)
        elements = [root] + list(root.all_contents())
        for expr in ["self.name <> null",
                     "self.oclIsKindOf(NamedElement)",
                     "self.owned_elements()->size() >= 0"]:
            for element in elements[:20]:
                assert_differential(expr, self=element)

    def test_scalar_and_binding_expressions(self):
        for expr in ["1 + 2 * 3 - 4 / 2", "7 > 3 and 2 <= 2",
                     "x * x + y", "x > y xor y > x",
                     "Sequence{x..y}->size()",
                     "'a' + 1", "1 + 'a'", "true and 1", "not 5",
                     "1 < 'a'", "Sequence{'a'}->sum()", "x.max(y).min(0)"]:
            assert_differential(expr, x=6, y=2)

    def test_model_scope_environment(self):
        pkg = demo_package()
        root = demo_generator(7).generate(30)
        model = Model("urn:diff")
        model.add_root(root)
        for run in (evaluate, interpret):
            env = Environment.for_model(model, packages=[pkg])
            count = run("GBook.allInstances()->size()", env)
            scan = sum(1 for e in model.all_elements()
                       if e.meta is pkg.classifier("GBook"))
            assert count == scan


class TestInvariantParity:
    def test_holds_matches_interpreted(self):
        pkg = demo_package()
        book = pkg.classifier("GBook")
        elements = _sample_elements(11)
        expressions = [
            "self.pages >= 0",
            "self.sequel.oclIsUndefined() or self.sequel <> self",
            "self.tags->size() >= 0",
            "self.pages + self.name > 0",     # raises when name is a str
        ]
        for expression in expressions:
            inv = Invariant(book, "parity", expression)
            for element in elements:
                if not element.meta.conforms_to(book):
                    continue
                results = []
                for holds in (inv.holds, inv._holds_interpreted):
                    try:
                        results.append(("ok", holds(element)))
                    except OclError as exc:
                        results.append(
                            ("err", type(exc).__name__, str(exc)))
                assert results[0] == results[1], (expression, element)

    def test_constraint_set_reports_identical(self, monkeypatch):
        pkg = demo_package()
        root = demo_generator(5).generate(40)
        model = Model("urn:cs")
        model.add_root(root)
        expressions = [
            ("GBook", "pages-natural", "self.pages >= 0"),
            ("GShelf", "fits", "self.books->size() <= self.capacity"),
            ("GNamed", "named", "not self.name.oclIsUndefined()"),
            ("GBook", "tagged", "self.tags->forAll(t | t.size() > 0)"),
        ]
        constraints = ConstraintSet("parity")
        for cls, name, expression in expressions:
            constraints.add(pkg.classifier(cls), name, expression)
        compiled = [report_signature(constraints.evaluate(scope))
                    for scope in (model, root)]
        monkeypatch.setattr(Invariant, "_holds_impl",
                            Invariant._holds_interpreted)
        interpreted = [report_signature(constraints.evaluate(scope))
                       for scope in (model, root)]
        assert compiled == interpreted


class TestCaches:
    def test_text_compilation_is_cached(self):
        expression = "self.pages >= 0 and self.pages < 99991"
        before = cache_stats()
        first = compile_expression(expression)
        second = compile_expression(expression)
        after = cache_stats()
        assert first is second
        assert after["compile_hits"] >= before["compile_hits"] + 1
        assert after["parse_misses"] == before["parse_misses"] + 1

    def test_parse_cached_returns_same_ast(self):
        text = "1 + 2 * 99989"
        assert parse_cached(text) is parse_cached(text)

    def test_node_compilation_is_cached(self):
        node = parse_cached("self.pages * 99971")
        assert compile_expression(node) is compile_expression(node)

    def test_contexts_get_distinct_entries(self):
        pkg = define_package("cachepoison", "urn:test:cachepoison")
        first = define_class(pkg, "PFirst")
        add_attribute(first, "x", MInteger, 7)
        second = define_class(pkg, "PSecond")
        add_attribute(second, "x", MString, "seven")
        expression = "x"

        compiled_first = compile_expression(expression, context=first)
        compiled_second = compile_expression(expression, context=second)
        assert compiled_first is not compiled_second
        assert compile_expression(expression, context=first) \
            is compiled_first

        a = first()
        b = second()
        env_a = Environment()
        env_a.define("self", a)
        env_b = Environment()
        env_b.define("self", b)
        assert compiled_first(env_a) == 7
        assert compiled_second(env_b) == "seven"

    def test_context_specialisation_does_not_poison_other_types(self):
        # A closure compiled for one context must still evaluate
        # correctly against elements of any other metaclass: the
        # context feature is only an inline-cache hint.
        pkg = define_package("cachecross", "urn:test:cachecross")
        first = define_class(pkg, "XFirst")
        add_attribute(first, "v", MInteger, 1)
        second = define_class(pkg, "XSecond")
        add_attribute(second, "v", MInteger, 2)
        compiled = compile_expression("v + 10", context=first)
        for element, expected in ((first(), 11), (second(), 12)):
            env = Environment()
            env.define("self", element)
            assert compiled(env) == expected

    def test_invariants_share_compilations(self):
        pkg = demo_package()
        book = pkg.classifier("GBook")
        expression = "self.pages >= -99961"
        one = Invariant(book, "a", expression)
        two = Invariant(book, "b", expression)
        assert one._compiled is two._compiled
