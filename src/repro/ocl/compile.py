"""Compilation of OCL ASTs into nested Python closures.

The interpreter in :mod:`repro.ocl.evaluator` re-dispatches on node type
(``getattr`` per node), rebuilds operation tables per call and re-resolves
names on every evaluation.  For the constraint hot path — the same small
expression evaluated against thousands of elements — almost all of that
work is invariant across evaluations, so this module stages it out
(classic partial evaluation a la Futamura): :func:`compile_expression`
walks the AST **once** and returns one ``env -> value`` callable per node,
with

* operator dispatch resolved at compile time (one closure per operator,
  short-circuiting ``and``/``or``/``implies`` compiled to Python's own
  short-circuit forms);
* stdlib binding done at compile time — string/number operation tables
  are module constants, iterator operations (``select``/``collect``/
  ``exists``/``forAll`` …) are hand-compiled loops that reuse a single
  child environment and rebind the iterator variable per item instead of
  allocating an :class:`~repro.ocl.evaluator.Environment` per element;
* implicit-``self`` feature lookup specialised against the *context*
  metaclass when one is given (a monomorphic inline cache guarded by a
  ``meta is context`` test, with the generic path as fallback);
* navigation sites carrying their own monomorphic ``(meta, feature)``
  inline cache.

Compiled closures are **behaviour-compatible with the interpreter**,
including undefined (``None``) propagation and the exact
:class:`~repro.ocl.errors.OclTypeError`/``OclEvaluationError`` messages —
the differential suite in ``tests/test_ocl_compile.py`` holds compiled ==
interpreted over the generated corpus.  The compiler is the only public
evaluation path; the interpreter (:class:`~repro.ocl.evaluator.OclEvaluator`)
stays as that suite's oracle.

Caching: each distinct expression *text* is parsed once per process
(:func:`parse_cached`) and compiled once per ``(text, context)`` pair
(:func:`compile_expression`), so re-keying the same text against a
different context metaclass never reuses the other context's
specialisation.  :func:`cache_stats` exposes hit/miss counters; with the
observability layer on, compilation runs under an ``ocl.compile`` span
and cache traffic lands in the ``ocl.compile.cache`` counter family.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..mof.kernel import Element, MetaClass, _get_value
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .ast import (
    ArrowCall,
    BinOp,
    Call,
    CollectionLiteral,
    If,
    Ident,
    Let,
    Literal,
    Nav,
    Node,
    Range,
    SelfExpr,
    TupleLiteral,
    UnOp,
)
from .errors import OclEvaluationError, OclTypeError
from .evaluator import _EVALUATOR, Environment, OclEvaluator, _normalize, truthy
from .parser import parse
from .stdlib import COLLECTION_OPS, _contains

#: A compiled node: environment in, value out.
Closure = Callable[[Environment], Any]

_equal = OclEvaluator._equal
_compare = OclEvaluator._compare
_arithmetic = OclEvaluator._arithmetic


# ---------------------------------------------------------------------------
# Compile-time operation tables (the interpreter rebuilds these per call)
# ---------------------------------------------------------------------------

STR_OPS: Dict[str, Callable[[str, List[Any]], Any]] = {
    "size": lambda s, a: len(s),
    "concat": lambda s, a: s + str(a[0]),
    "toUpperCase": lambda s, a: s.upper(),
    "toLowerCase": lambda s, a: s.lower(),
    "substring": lambda s, a: s[a[0] - 1:a[1]],
    "indexOf": lambda s, a: s.find(str(a[0])) + 1,
    "startsWith": lambda s, a: s.startswith(str(a[0])),
    "endsWith": lambda s, a: s.endswith(str(a[0])),
    "contains": lambda s, a: str(a[0]) in s,
    "trim": lambda s, a: s.strip(),
    "toInteger": lambda s, a: int(s),
    "toReal": lambda s, a: float(s),
}

NUM_OPS: Dict[str, Callable[[Any, List[Any]], Any]] = {
    "abs": lambda n, a: abs(n),
    "floor": lambda n, a: int(n // 1),
    "round": lambda n, a: int(round(n)),
    "max": lambda n, a: max(n, a[0]),
    "min": lambda n, a: min(n, a[0]),
    "toString": lambda n, a: str(n),
}


def _as_collection(value: Any) -> List[Any]:
    # OCL: arrow ops treat undefined as the empty collection and wrap
    # scalars (mirrors CollectionOps.run).
    if value is None:
        return []
    if isinstance(value, list):
        return value
    return [value]


def _call_plain(name: str, str_op, num_op, source: Any, args: List[Any]) -> Any:
    """Dot-call dispatch on an evaluated source value.

    Shared verbatim between the compiled ``Call`` closure and the columnar
    row planner (:mod:`repro.ocl.columns`) so the two paths can never
    diverge in semantics or error messages."""
    if isinstance(source, str):
        if str_op is None:
            raise OclEvaluationError(f"no String operation {name!r}")
        return _normalize(str_op(source, args))
    if isinstance(source, bool):
        raise OclEvaluationError(f"no operation {name!r} on Boolean")
    if isinstance(source, (int, float)):
        if num_op is None:
            raise OclEvaluationError(f"no numeric operation {name!r}")
        return _normalize(num_op(source, args))
    if isinstance(source, Element):
        fallback = getattr(source, name, None)
        if callable(fallback):
            return _normalize(fallback(*args))
        raise OclEvaluationError(
            f"'{source.meta.name}' has no operation {name!r}")
    if source is None:
        return None
    raise OclEvaluationError(f"cannot call {name!r} on {source!r}")


_MISS = object()


def _lookup_var(env: Environment, name: str) -> Tuple[bool, Any]:
    scope: Optional[Environment] = env
    while scope is not None:
        if name in scope.vars:
            return True, scope.vars[name]
        scope = scope.parent
    return False, None


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------

class _Compiler:
    """One-shot AST walker producing a closure per node.

    *context*, when given, is the metaclass invariants of which the
    expression will usually be evaluated against.  It is purely an
    optimisation hint: implicit-self lookups precompute the context's
    feature and guard it with a ``meta is context`` test, so evaluating
    the same compiled closure against elements of *other* metaclasses
    still takes the generic (correct) path.
    """

    def __init__(self, context: Optional[MetaClass] = None):
        self.context = context

    def compile(self, node: Any) -> Closure:
        method = getattr(self, f"_c_{type(node).__name__}", None)
        if method is None:
            message = f"cannot evaluate node {node!r}"

            def raise_unknown(env: Environment) -> Any:
                raise OclEvaluationError(message)
            return raise_unknown
        return method(node)

    # -- leaves ----------------------------------------------------------

    def _c_Literal(self, node: Literal) -> Closure:
        value = node.value
        return lambda env: value

    def _c_SelfExpr(self, node: SelfExpr) -> Closure:
        def run(env: Environment) -> Any:
            found, value = _lookup_var(env, "self")
            if not found:
                raise OclEvaluationError("'self' is not bound")
            return _normalize(value)
        return run

    def _c_Ident(self, node: Ident) -> Closure:
        name = node.name
        context = self.context
        context_feature = (context.find_feature(name)
                           if context is not None else None)
        miss = _MISS

        def run(env: Environment) -> Any:
            # inlined _lookup_var / lookup_type: this closure is the
            # hottest in compiled invariants, and the env chain is short
            scope: Optional[Environment] = env
            while scope is not None:
                value = scope.vars.get(name, miss)
                if value is not miss:
                    return _normalize(value)
                scope = scope.parent
            scope = env
            while scope is not None:
                metaclass = scope._types.get(name)
                if metaclass is not None:
                    return metaclass
                scope = scope.parent
            self_object = None
            scope = env
            while scope is not None:
                value = scope.vars.get("self", miss)
                if value is not miss:
                    self_object = value
                    break
                scope = scope.parent
            if isinstance(self_object, Element):
                meta = self_object.meta
                feature = (context_feature if meta is context
                           else meta.find_feature(name))
                if feature is not None:
                    return _normalize(_get_value(self_object, feature))
            if isinstance(self_object, dict) and name in self_object:
                return _normalize(self_object[name])
            raise OclEvaluationError(f"unknown name {name!r}")
        return run

    def _c_CollectionLiteral(self, node: CollectionLiteral) -> Closure:
        parts: List[Tuple[bool, Closure, Optional[Closure]]] = []
        for item in node.items:
            if isinstance(item, Range):
                parts.append((True, self.compile(item.first),
                              self.compile(item.last)))
            else:
                parts.append((False, self.compile(item), None))
        dedupe = node.kind in ("Set", "OrderedSet")

        def run(env: Environment) -> Any:
            items: List[Any] = []
            for is_range, first_c, last_c in parts:
                if is_range:
                    first = first_c(env)
                    last = last_c(env)
                    if not isinstance(first, int) or not isinstance(last, int):
                        raise OclTypeError("range bounds must be Integers")
                    items.extend(range(first, last + 1))
                else:
                    items.append(first_c(env))
            if dedupe:
                deduped: List[Any] = []
                for value in items:
                    if not any(v is value or v == value for v in deduped):
                        deduped.append(value)
                return deduped
            return items
        return run

    def _c_TupleLiteral(self, node: TupleLiteral) -> Closure:
        fields = [(name, self.compile(expr)) for name, expr in node.fields]

        def run(env: Environment) -> Any:
            return {name: closure(env) for name, closure in fields}
        return run

    # -- navigation and calls --------------------------------------------

    def _c_Nav(self, node: Nav) -> Closure:
        source_c = self.compile(node.source)
        navigate = _make_navigator(node.name)
        return lambda env: navigate(source_c(env))

    def _c_Call(self, node: Call) -> Closure:
        name = node.name
        if name == "allInstances":
            source_c = self.compile(node.source)

            def run_all(env: Environment) -> Any:
                metaclass = source_c(env)
                if not isinstance(metaclass, MetaClass):
                    raise OclTypeError("allInstances() applies to types")
                return _normalize(env.instances(metaclass))
            return run_all
        if name in ("oclIsKindOf", "oclIsTypeOf", "oclAsType"):
            return self._c_type_op(node)
        if name == "oclIsUndefined":
            source_c = self.compile(node.source)
            return lambda env: source_c(env) is None

        source_c = self.compile(node.source) if node.source else None
        arg_cs = [self.compile(arg) for arg in node.args]
        str_op = STR_OPS.get(name)
        num_op = NUM_OPS.get(name)

        def run(env: Environment) -> Any:
            source = source_c(env) if source_c is not None else None
            args = [closure(env) for closure in arg_cs]
            return _call_plain(name, str_op, num_op, source, args)
        return run

    def _c_type_op(self, node: Call) -> Closure:
        name = node.name
        if len(node.args) != 1:
            message = f"{name} expects one type argument"

            def run_arity(env: Environment) -> Any:
                raise OclEvaluationError(message)
            return run_arity
        source_c = self.compile(node.source)
        arg_c = self.compile(node.args[0])

        def run(env: Environment) -> Any:
            value = source_c(env)
            type_arg = arg_c(env)
            if not isinstance(type_arg, MetaClass):
                raise OclTypeError(f"{name} argument must be a type")
            if name == "oclIsKindOf":
                return (isinstance(value, Element)
                        and value.meta.conforms_to(type_arg))
            if name == "oclIsTypeOf":
                return isinstance(value, Element) and value.meta is type_arg
            # oclAsType: checked identity cast
            if isinstance(value, Element) and value.meta.conforms_to(type_arg):
                return value
            return None
        return run

    def _c_ArrowCall(self, node: ArrowCall) -> Closure:
        name = node.name
        source_c = self.compile(node.source)
        arg_cs = [self.compile(arg) for arg in node.args]
        if node.body is not None:
            maker = _ITERATOR_COMPILERS.get(name)
            if maker is None:
                message = f"unknown iterator operation ->{name}()"

                def run_unknown_it(env: Environment) -> Any:
                    source_c(env)
                    for closure in arg_cs:
                        closure(env)
                    raise OclEvaluationError(message)
                return run_unknown_it
            body_c = self.compile(node.body)
            return maker(source_c, arg_cs, list(node.iterators), body_c)
        plain = COLLECTION_OPS.plain.get(name)
        if plain is None:
            message = f"unknown collection operation ->{name}()"

            def run_unknown(env: Environment) -> Any:
                source_c(env)
                for closure in arg_cs:
                    closure(env)
                raise OclEvaluationError(message)
            return run_unknown

        def run(env: Environment) -> Any:
            source = source_c(env)
            args = [closure(env) for closure in arg_cs]
            return _normalize(
                plain(_EVALUATOR, env, _as_collection(source), args))
        return run

    # -- operators --------------------------------------------------------

    def _c_UnOp(self, node: UnOp) -> Closure:
        operand_c = self.compile(node.operand)
        if node.op == "not":
            return lambda env: not truthy(operand_c(env))
        if node.op == "-":
            def run(env: Environment) -> Any:
                value = operand_c(env)
                if isinstance(value, bool) \
                        or not isinstance(value, (int, float)):
                    raise OclTypeError(
                        f"unary '-' needs a number, got {value!r}")
                return -value
            return run
        message = f"unknown unary operator {node.op!r}"

        def run_unknown(env: Environment) -> Any:
            operand_c(env)
            raise OclEvaluationError(message)
        return run_unknown

    def _c_BinOp(self, node: BinOp) -> Closure:
        op = node.op
        left_c = self.compile(node.left)
        right_c = self.compile(node.right)
        if op == "and":
            return lambda env: truthy(left_c(env)) and truthy(right_c(env))
        if op == "or":
            return lambda env: truthy(left_c(env)) or truthy(right_c(env))
        if op == "implies":
            return lambda env: ((not truthy(left_c(env)))
                                or truthy(right_c(env)))
        if op == "xor":
            def run_xor(env: Environment) -> Any:
                left = truthy(left_c(env))
                return left != truthy(right_c(env))
            return run_xor
        if op == "=":
            return lambda env: _equal(left_c(env), right_c(env))
        if op == "<>":
            return lambda env: not _equal(left_c(env), right_c(env))
        if op == "+":
            def run_plus(env: Environment) -> Any:
                left = left_c(env)
                right = right_c(env)
                if isinstance(left, str) or isinstance(right, str):
                    return str(left) + str(right)
                return _arithmetic("+", left, right)
            return run_plus
        if op in ("<", "<=", ">", ">="):
            def run_cmp(env: Environment) -> Any:
                left = left_c(env)
                return _compare(op, left, right_c(env))
            return run_cmp

        def run_arith(env: Environment) -> Any:
            left = left_c(env)
            return _arithmetic(op, left, right_c(env))
        return run_arith

    # -- control ----------------------------------------------------------

    def _c_If(self, node: If) -> Closure:
        condition_c = self.compile(node.condition)
        then_c = self.compile(node.then_branch)
        else_c = self.compile(node.else_branch)
        return lambda env: (then_c(env) if truthy(condition_c(env))
                            else else_c(env))

    def _c_Let(self, node: Let) -> Closure:
        name = node.name
        value_c = self.compile(node.value)
        body_c = self.compile(node.body)

        def run(env: Environment) -> Any:
            child = env.child()
            child.vars[name] = value_c(env)
            return body_c(child)
        return run


# ---------------------------------------------------------------------------
# Hand-compiled iterator operations
#
# One child environment per operation call, with the iterator variable
# rebound per item — the interpreter allocates a fresh Environment per
# element, which dominates its iterator cost.
# ---------------------------------------------------------------------------

def _mk_select(source_c, arg_cs, iterators, body_c):
    names = iterators[:1]

    def run(env: Environment) -> Any:
        source = _as_collection(source_c(env))
        for closure in arg_cs:
            closure(env)
        child = env.child()
        out = []
        if names:
            name = names[0]
            for item in source:
                child.vars[name] = item
                if truthy(body_c(child)):
                    out.append(item)
        else:
            for item in source:
                if truthy(body_c(child)):
                    out.append(item)
        return out
    return run


def _mk_reject(source_c, arg_cs, iterators, body_c):
    names = iterators[:1]

    def run(env: Environment) -> Any:
        source = _as_collection(source_c(env))
        for closure in arg_cs:
            closure(env)
        child = env.child()
        out = []
        if names:
            name = names[0]
            for item in source:
                child.vars[name] = item
                if not truthy(body_c(child)):
                    out.append(item)
        else:
            for item in source:
                if not truthy(body_c(child)):
                    out.append(item)
        return out
    return run


def _mk_collect(source_c, arg_cs, iterators, body_c):
    names = iterators[:1]

    def run(env: Environment) -> Any:
        source = _as_collection(source_c(env))
        for closure in arg_cs:
            closure(env)
        child = env.child()
        name = names[0] if names else None
        out: List[Any] = []
        for item in source:
            if name is not None:
                child.vars[name] = item
            value = body_c(child)
            if isinstance(value, list):
                out.extend(value)           # collect flattens one level
            elif value is not None:
                out.append(value)
        return out
    return run


def _mk_collect_nested(source_c, arg_cs, iterators, body_c):
    names = iterators[:1]

    def run(env: Environment) -> Any:
        source = _as_collection(source_c(env))
        for closure in arg_cs:
            closure(env)
        child = env.child()
        name = names[0] if names else None
        out: List[Any] = []
        for item in source:
            if name is not None:
                child.vars[name] = item
            out.append(body_c(child))
        return out
    return run


def _mk_for_all(source_c, arg_cs, iterators, body_c):
    def run(env: Environment) -> Any:
        source = _as_collection(source_c(env))
        for closure in arg_cs:
            closure(env)
        child = env.child()
        if len(iterators) > 1:
            # forAll(x, y | ...) iterates the cartesian product
            first, second = iterators[0], iterators[1]
            for x in source:
                for y in source:
                    child.vars[first] = x
                    child.vars[second] = y
                    if not truthy(body_c(child)):
                        return False
            return True
        name = iterators[0] if iterators else None
        for item in source:
            if name is not None:
                child.vars[name] = item
            if not truthy(body_c(child)):
                return False
        return True
    return run


def _mk_exists(source_c, arg_cs, iterators, body_c):
    def run(env: Environment) -> Any:
        source = _as_collection(source_c(env))
        for closure in arg_cs:
            closure(env)
        child = env.child()
        if len(iterators) > 1:
            first, second = iterators[0], iterators[1]
            for x in source:
                for y in source:
                    child.vars[first] = x
                    child.vars[second] = y
                    if truthy(body_c(child)):
                        return True
            return False
        name = iterators[0] if iterators else None
        for item in source:
            if name is not None:
                child.vars[name] = item
            if truthy(body_c(child)):
                return True
        return False
    return run


def _mk_one(source_c, arg_cs, iterators, body_c):
    names = iterators[:1]

    def run(env: Environment) -> Any:
        source = _as_collection(source_c(env))
        for closure in arg_cs:
            closure(env)
        child = env.child()
        name = names[0] if names else None
        count = 0
        for item in source:
            if name is not None:
                child.vars[name] = item
            if truthy(body_c(child)):
                count += 1
        return count == 1
    return run


def _mk_any(source_c, arg_cs, iterators, body_c):
    names = iterators[:1]

    def run(env: Environment) -> Any:
        source = _as_collection(source_c(env))
        for closure in arg_cs:
            closure(env)
        child = env.child()
        name = names[0] if names else None
        for item in source:
            if name is not None:
                child.vars[name] = item
            if truthy(body_c(child)):
                return item
        return None
    return run


def _mk_is_unique(source_c, arg_cs, iterators, body_c):
    names = iterators[:1]

    def run(env: Environment) -> Any:
        source = _as_collection(source_c(env))
        for closure in arg_cs:
            closure(env)
        child = env.child()
        name = names[0] if names else None
        seen: List[Any] = []
        for item in source:
            if name is not None:
                child.vars[name] = item
            value = body_c(child)
            if _contains(seen, value):
                return False
            seen.append(value)
        return True
    return run


def _mk_sorted_by(source_c, arg_cs, iterators, body_c):
    names = iterators[:1]

    def run(env: Environment) -> Any:
        source = _as_collection(source_c(env))
        for closure in arg_cs:
            closure(env)
        child = env.child()
        name = names[0] if names else None
        keyed = []
        for item in source:
            if name is not None:
                child.vars[name] = item
            keyed.append((body_c(child), item))
        try:
            keyed.sort(key=lambda pair: pair[0])
        except TypeError as exc:
            raise OclTypeError(f"->sortedBy keys not comparable: {exc}")
        return [item for _value, item in keyed]
    return run


def _mk_closure(source_c, arg_cs, iterators, body_c):
    names = iterators[:1]

    def run(env: Environment) -> Any:
        source = _as_collection(source_c(env))
        for closure in arg_cs:
            closure(env)
        child = env.child()
        name = names[0] if names else None
        out: List[Any] = []
        frontier = list(source)
        while frontier:
            current = frontier.pop(0)
            if name is not None:
                child.vars[name] = current
            step = body_c(child)
            neighbours = step if isinstance(step, list) else (
                [] if step is None else [step])
            for neighbour in neighbours:
                if not _contains(out, neighbour):
                    out.append(neighbour)
                    frontier.append(neighbour)
        return out
    return run


_ITERATOR_COMPILERS = {
    "select": _mk_select,
    "reject": _mk_reject,
    "collect": _mk_collect,
    "collectNested": _mk_collect_nested,
    "forAll": _mk_for_all,
    "exists": _mk_exists,
    "one": _mk_one,
    "any": _mk_any,
    "isUnique": _mk_is_unique,
    "sortedBy": _mk_sorted_by,
    "closure": _mk_closure,
}


def _make_navigator(name: str) -> Callable[[Any], Any]:
    """A navigation closure with a monomorphic (meta → feature) cache."""
    cached_meta: Optional[MetaClass] = None
    cached_feature: Any = None

    def navigate(source: Any) -> Any:
        nonlocal cached_meta, cached_feature
        if source is None:
            return None
        if isinstance(source, list):
            out: List[Any] = []
            for item in source:
                value = navigate(item)
                if isinstance(value, list):
                    out.extend(value)
                elif value is not None:
                    out.append(value)
            return out
        if isinstance(source, Element):
            meta = source.meta
            if meta is cached_meta:
                feature = cached_feature
            else:
                feature = meta.find_feature(name)
                cached_meta, cached_feature = meta, feature
            if feature is not None:
                return _normalize(_get_value(source, feature))
            fallback = getattr(source, name, None)
            if fallback is not None and not callable(fallback):
                return _normalize(fallback)
            if callable(fallback):
                return _normalize(fallback())
            raise OclEvaluationError(
                f"'{meta.name}' has no feature {name!r}")
        if isinstance(source, dict):
            if name in source:
                return _normalize(source[name])
            raise OclEvaluationError(f"no key {name!r} in {source!r}")
        fallback = getattr(source, name, None)
        if fallback is not None:
            return _normalize(fallback() if callable(fallback) else fallback)
        raise OclEvaluationError(
            f"cannot navigate {name!r} from {source!r}")
    return navigate


# ---------------------------------------------------------------------------
# Compiled expressions and the process-wide caches
# ---------------------------------------------------------------------------

class CompiledExpression:
    """An OCL expression lowered to one Python callable.

    Calling it with an :class:`~repro.ocl.evaluator.Environment` evaluates
    it; :meth:`evaluate` additionally builds the same default environment
    :func:`repro.ocl.evaluate` would.  Holds strong references to its text,
    AST and context metaclass, which also keeps cache keys (built from
    ``id(context)``) collision-free for the cache's lifetime.
    """

    __slots__ = ("text", "ast", "context", "_fn")

    def __init__(self, text: Optional[str], ast: Node,
                 context: Optional[MetaClass], fn: Closure):
        self.text = text
        self.ast = ast
        self.context = context
        self._fn = fn

    def __call__(self, env: Environment) -> Any:
        return self._fn(env)

    def evaluate(self, env: Optional[Environment] = None,
                 **bindings: Any) -> Any:
        if env is None:
            self_object = bindings.get("self")
            if isinstance(self_object, Element):
                env = Environment.for_model(self_object.root(),
                                            self_object=self_object)
            else:
                env = Environment()
        for name, value in bindings.items():
            env.define(name, value)
        return self._fn(env)

    def __repr__(self) -> str:
        context = self.context.name if self.context is not None else None
        return f"<CompiledExpression {self.text!r} context={context}>"


_PARSE_CACHE: Dict[str, Node] = {}
_COMPILE_CACHE: Dict[Tuple[str, Optional[int]], CompiledExpression] = {}
#: AST-object compilations (id-keyed; the value pins the node so its id
#: cannot be recycled).  Bounded: cleared wholesale if it ever fills up.
_NODE_CACHE: Dict[int, CompiledExpression] = {}
_NODE_CACHE_LIMIT = 2048

_STATS = {
    "parse_hits": 0, "parse_misses": 0,
    "compile_hits": 0, "compile_misses": 0,
    "node_hits": 0, "node_misses": 0,
}


def _count(cache: str, result: str) -> None:
    _STATS[f"{cache}_{result}"] += 1
    if _trace.ON:
        _metrics.REGISTRY.counter(
            "ocl.compile.cache",
            help="OCL parse/compile cache traffic",
            cache=cache, result=result).inc()


def parse_cached(text: str) -> Node:
    """:func:`repro.ocl.parse`, memoised per expression text."""
    node = _PARSE_CACHE.get(text)
    if node is not None:
        _count("parse", "hits")
        return node
    node = parse(text)
    _count("parse", "misses")
    _PARSE_CACHE[text] = node
    return node


def compile_expression(
        text_or_node: Union[str, Node],
        context: Optional[Union[MetaClass, type]] = None
) -> CompiledExpression:
    """Compile an expression (text or parsed AST) to a closure, cached.

    Text is cached per ``(text, context metaclass)`` — the same text
    compiled against two different contexts yields two independent
    specialisations.  AST objects are cached by identity.
    """
    if isinstance(context, type):
        context = context._meta
    if isinstance(text_or_node, str):
        key = (text_or_node, id(context) if context is not None else None)
        cached = _COMPILE_CACHE.get(key)
        if cached is not None and cached.context is context:
            _count("compile", "hits")
            return cached
        _count("compile", "misses")
        ast = parse_cached(text_or_node)
        compiled = _build(text_or_node, ast, context)
        _COMPILE_CACHE[key] = compiled
        return compiled
    cached = _NODE_CACHE.get(id(text_or_node))
    if cached is not None and cached.ast is text_or_node \
            and cached.context is context:
        _count("node", "hits")
        return cached
    _count("node", "misses")
    compiled = _build(None, text_or_node, context)
    if len(_NODE_CACHE) >= _NODE_CACHE_LIMIT:
        _NODE_CACHE.clear()
    _NODE_CACHE[id(text_or_node)] = compiled
    return compiled


def _build(text: Optional[str], ast: Node,
           context: Optional[MetaClass]) -> CompiledExpression:
    if not _trace.ON:
        fn = _Compiler(context).compile(ast)
    else:
        with _trace.span(
                "ocl.compile",
                context=context.name if context is not None else "",
                expression=(text if text is not None else "<ast>")[:80]):
            fn = _Compiler(context).compile(ast)
    return CompiledExpression(text, ast, context, fn)


def cache_stats() -> Dict[str, int]:
    """Sizes and hit/miss counters of the parse/compile caches."""
    stats = dict(_STATS)
    stats["parse_size"] = len(_PARSE_CACHE)
    stats["compile_size"] = len(_COMPILE_CACHE)
    stats["node_size"] = len(_NODE_CACHE)
    return stats


def clear_caches() -> None:
    """Drop all cached parses/compilations and reset the counters."""
    _PARSE_CACHE.clear()
    _COMPILE_CACHE.clear()
    _NODE_CACHE.clear()
    for key in _STATS:
        _STATS[key] = 0
