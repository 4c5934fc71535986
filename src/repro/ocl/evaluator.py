"""Evaluator for the OCL-like language over MOF/UML models.

The evaluator walks ASTs from :mod:`repro.ocl.parser` against an
:class:`Environment` that supplies variable bindings, a type namespace
(name → :class:`~repro.mof.kernel.MetaClass`) and an instance scope for
``allInstances()``.

Value universe: ``int``/``float``/``str``/``bool``/``None``, Python lists
(OCL collections) and model elements.  Navigation over a collection is the
implicit-collect of OCL; navigation into an absent feature of an element
falls back to the element's Python attributes, so helper methods defined on
metaclasses (``all_supers`` etc.) are available to expressions.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Union

from ..mof.kernel import Element, FeatureList, MetaClass, MetaPackage
from ..mof.query import instances_of
from ..mof.repository import Model, Repository
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .ast import (
    ArrowCall,
    TupleLiteral,
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
    UnOp,
)
from .errors import OclEvaluationError, OclTypeError
from .stdlib import COLLECTION_OPS


class Environment:
    """Variable bindings + type namespace + instance scope."""

    def __init__(self, parent: Optional["Environment"] = None):
        self.parent = parent
        self.depth = parent.depth + 1 if parent is not None else 0
        self.vars: Dict[str, Any] = {}
        self._types: Dict[str, MetaClass] = {}
        self._instance_scope: Optional[Callable[[MetaClass], List[Element]]] \
            = None

    # -- construction ------------------------------------------------------

    @classmethod
    def for_model(cls, scope: Union[Model, Repository, Element],
                  packages: Optional[List[MetaPackage]] = None,
                  self_object: Any = None) -> "Environment":
        """Build an environment whose types come from *packages* (defaults
        to the metamodel packages of the elements in scope) and whose
        ``allInstances`` searches *scope*."""
        env = cls()
        if packages:
            for package in packages:
                env.register_package(package)
        else:
            env._auto_register_types(scope)
        env.set_instance_scope_from(scope)
        if self_object is not None:
            env.define("self", self_object)
        return env

    def _auto_register_types(self,
                             scope: Union[Model, Repository, Element]) -> None:
        elements = _scope_elements(scope)
        seen = set()
        for element in elements:
            package = element.meta.package
            if package is not None and id(package) not in seen:
                seen.add(id(package))
                self.register_package(package)

    def register_package(self, package: MetaPackage) -> None:
        for pkg in package.all_packages():
            for name, classifier in pkg.classifiers.items():
                if isinstance(classifier, MetaClass):
                    self._types.setdefault(name, classifier)
                    self._types.setdefault(f"{pkg.name}::{name}", classifier)

    def register_type(self, name: str, metaclass: MetaClass) -> None:
        self._types[name] = metaclass

    def set_instance_scope_from(
            self, scope: Union[Model, Repository, Element]) -> None:
        if isinstance(scope, Repository):
            # Repository/Model queries go through the incrementally
            # maintained extent index (repro.mof.index) when no read
            # hook is active — O(answer) instead of O(model).
            self._instance_scope = scope.all_instances
        elif isinstance(scope, Model):
            self._instance_scope = scope.instances_of
        else:
            def lookup(metaclass: MetaClass) -> List[Element]:
                if not isinstance(scope, Element):
                    raise OclTypeError(f"invalid instance scope {scope!r}")
                return instances_of(scope, metaclass)
            self._instance_scope = lookup

    # -- scoping ----------------------------------------------------------

    def child(self) -> "Environment":
        child = Environment(parent=self)
        if _trace.ON:
            _metrics.REGISTRY.histogram(
                "ocl.env.depth",
                help="environment nesting depth at scope creation",
                buckets=(1, 2, 4, 8, 16, 32, 64)).observe(child.depth)
        return child

    def define(self, name: str, value: Any) -> None:
        self.vars[name] = value

    def lookup(self, name: str) -> Any:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        raise KeyError(name)

    def lookup_type(self, name: str) -> Optional[MetaClass]:
        env: Optional[Environment] = self
        while env is not None:
            if name in env._types:
                return env._types[name]
            env = env.parent
        return None

    def instances(self, metaclass: MetaClass) -> List[Element]:
        env: Optional[Environment] = self
        while env is not None:
            if env._instance_scope is not None:
                return env._instance_scope(metaclass)
            env = env.parent
        raise OclEvaluationError(
            "allInstances() used without an instance scope")


def _scope_elements(scope: Union[Model, Repository, Element]) -> List[Element]:
    if isinstance(scope, Repository):
        return list(scope.all_elements())
    if isinstance(scope, Model):
        return list(scope.all_elements())
    if isinstance(scope, Element):
        return [scope] + list(scope.all_contents())
    raise OclTypeError(f"invalid instance scope {scope!r}")


_SCALAR_TYPES = (str, int, float, bool, type(None))


def _normalize(value: Any) -> Any:
    if value.__class__ in _SCALAR_TYPES:
        return value
    if isinstance(value, FeatureList):
        return list(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def truthy(value: Any) -> bool:
    """Boolean interpretation: only True is true; None (OCL undefined)
    is false, and non-boolean values are a type error."""
    if value is True:
        return True
    if value is False or value is None:
        return False
    raise OclTypeError(f"expected Boolean, got {value!r}")


class OclEvaluator:
    """Evaluates parsed OCL-like expressions."""

    def truthy(self, value: Any) -> bool:
        """See the module-level :func:`truthy` (shared with the compiler)."""
        return truthy(value)

    # -- dispatch ----------------------------------------------------------

    def eval(self, node: Node, env: Environment) -> Any:
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is None:
            raise OclEvaluationError(f"cannot evaluate node {node!r}")
        return _normalize(method(node, env))

    # -- leaves ----------------------------------------------------------

    def _eval_Literal(self, node: Literal, env: Environment) -> Any:
        return node.value

    def _eval_SelfExpr(self, node: SelfExpr, env: Environment) -> Any:
        try:
            return env.lookup("self")
        except KeyError:
            raise OclEvaluationError("'self' is not bound")

    def _eval_Ident(self, node: Ident, env: Environment) -> Any:
        try:
            return env.lookup(node.name)
        except KeyError:
            pass
        metaclass = env.lookup_type(node.name)
        if metaclass is not None:
            return metaclass
        # implicit self-feature shorthand (OCL allows 'attr' for 'self.attr')
        try:
            self_object = env.lookup("self")
        except KeyError:
            self_object = None
        if isinstance(self_object, Element):
            feature = self_object.meta.find_feature(node.name)
            if feature is not None:
                return _normalize(self_object.eget(node.name))
        if isinstance(self_object, dict) and node.name in self_object:
            return _normalize(self_object[node.name])
        raise OclEvaluationError(f"unknown name {node.name!r}")

    def _eval_CollectionLiteral(self, node: CollectionLiteral,
                                env: Environment) -> Any:
        items: List[Any] = []
        for item in node.items:
            if isinstance(item, Range):
                first = self.eval(item.first, env)
                last = self.eval(item.last, env)
                if not isinstance(first, int) or not isinstance(last, int):
                    raise OclTypeError("range bounds must be Integers")
                items.extend(range(first, last + 1))
            else:
                items.append(self.eval(item, env))
        if node.kind in ("Set", "OrderedSet"):
            deduped: List[Any] = []
            for value in items:
                if not any(v is value or v == value for v in deduped):
                    deduped.append(value)
            return deduped
        return items

    def _eval_TupleLiteral(self, node: TupleLiteral,
                           env: Environment) -> Any:
        return {name: self.eval(expr, env) for name, expr in node.fields}

    # -- navigation and calls -------------------------------------------

    def _eval_Nav(self, node: Nav, env: Environment) -> Any:
        source = self.eval(node.source, env)
        return self._navigate(source, node.name)

    def _navigate(self, source: Any, name: str) -> Any:
        if source is None:
            return None
        if isinstance(source, list):
            out: List[Any] = []
            for item in source:
                value = self._navigate(item, name)
                if isinstance(value, list):
                    out.extend(value)
                elif value is not None:
                    out.append(value)
            return out
        if isinstance(source, Element):
            feature = source.meta.find_feature(name)
            if feature is not None:
                return _normalize(source.eget(name))
            fallback = getattr(source, name, None)
            if fallback is not None and not callable(fallback):
                return _normalize(fallback)
            if callable(fallback):
                return _normalize(fallback())
            raise OclEvaluationError(
                f"'{source.meta.name}' has no feature {name!r}")
        if isinstance(source, dict):
            if name in source:
                return _normalize(source[name])
            raise OclEvaluationError(f"no key {name!r} in {source!r}")
        fallback = getattr(source, name, None)
        if fallback is not None:
            return _normalize(fallback() if callable(fallback) else fallback)
        raise OclEvaluationError(
            f"cannot navigate {name!r} from {source!r}")

    def _eval_Call(self, node: Call, env: Environment) -> Any:
        # allInstances on a type
        if node.name == "allInstances":
            metaclass = self.eval(node.source, env)
            if not isinstance(metaclass, MetaClass):
                raise OclTypeError("allInstances() applies to types")
            return env.instances(metaclass)
        if node.name in ("oclIsKindOf", "oclIsTypeOf", "oclAsType"):
            return self._ocl_type_op(node, env)
        if node.name == "oclIsUndefined":
            return self.eval(node.source, env) is None
        source = self.eval(node.source, env) if node.source else None
        args = [self.eval(arg, env) for arg in node.args]
        return self._call(source, node.name, args)

    def _ocl_type_op(self, node: Call, env: Environment) -> Any:
        if len(node.args) != 1:
            raise OclEvaluationError(f"{node.name} expects one type argument")
        value = self.eval(node.source, env)
        type_arg = self.eval(node.args[0], env)
        if not isinstance(type_arg, MetaClass):
            raise OclTypeError(f"{node.name} argument must be a type")
        if node.name == "oclIsKindOf":
            return (isinstance(value, Element)
                    and value.meta.conforms_to(type_arg))
        if node.name == "oclIsTypeOf":
            return isinstance(value, Element) and value.meta is type_arg
        # oclAsType: checked identity cast
        if isinstance(value, Element) and value.meta.conforms_to(type_arg):
            return value
        return None

    def _call(self, source: Any, name: str, args: List[Any]) -> Any:
        if isinstance(source, str):
            return self._string_op(source, name, args)
        if isinstance(source, bool):
            raise OclEvaluationError(f"no operation {name!r} on Boolean")
        if isinstance(source, (int, float)):
            return self._number_op(source, name, args)
        if isinstance(source, Element):
            fallback = getattr(source, name, None)
            if callable(fallback):
                return _normalize(fallback(*args))
            raise OclEvaluationError(
                f"'{source.meta.name}' has no operation {name!r}")
        if source is None:
            return None
        raise OclEvaluationError(f"cannot call {name!r} on {source!r}")

    @staticmethod
    def _string_op(source: str, name: str, args: List[Any]) -> Any:
        ops: Dict[str, Callable[[], Any]] = {
            "size": lambda: len(source),
            "concat": lambda: source + str(args[0]),
            "toUpperCase": lambda: source.upper(),
            "toLowerCase": lambda: source.lower(),
            "substring": lambda: source[args[0] - 1:args[1]],
            "indexOf": lambda: source.find(str(args[0])) + 1,
            "startsWith": lambda: source.startswith(str(args[0])),
            "endsWith": lambda: source.endswith(str(args[0])),
            "contains": lambda: str(args[0]) in source,
            "trim": lambda: source.strip(),
            "toInteger": lambda: int(source),
            "toReal": lambda: float(source),
        }
        if name not in ops:
            raise OclEvaluationError(f"no String operation {name!r}")
        return ops[name]()

    @staticmethod
    def _number_op(source: Union[int, float], name: str,
                   args: List[Any]) -> Any:
        ops: Dict[str, Callable[[], Any]] = {
            "abs": lambda: abs(source),
            "floor": lambda: int(source // 1),
            "round": lambda: int(round(source)),
            "max": lambda: max(source, args[0]),
            "min": lambda: min(source, args[0]),
            "toString": lambda: str(source),
        }
        if name not in ops:
            raise OclEvaluationError(f"no numeric operation {name!r}")
        return ops[name]()

    def _eval_ArrowCall(self, node: ArrowCall, env: Environment) -> Any:
        source = self.eval(node.source, env)
        args = [self.eval(arg, env) for arg in node.args]
        return COLLECTION_OPS.run(self, env, node.name, source, args,
                                  list(node.iterators), node.body)

    # -- operators --------------------------------------------------------

    def _eval_UnOp(self, node: UnOp, env: Environment) -> Any:
        value = self.eval(node.operand, env)
        if node.op == "not":
            return not self.truthy(value)
        if node.op == "-":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise OclTypeError(f"unary '-' needs a number, got {value!r}")
            return -value
        raise OclEvaluationError(f"unknown unary operator {node.op!r}")

    def _eval_BinOp(self, node: BinOp, env: Environment) -> Any:
        op = node.op
        if op in ("and", "or", "implies", "xor"):
            return self._boolean_op(node, env)
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        if op == "=":
            return self._equal(left, right)
        if op == "<>":
            return not self._equal(left, right)
        if op == "+" and (isinstance(left, str) or isinstance(right, str)):
            return str(left) + str(right)
        if op in ("<", "<=", ">", ">="):
            return self._compare(op, left, right)
        return self._arithmetic(op, left, right)

    def _boolean_op(self, node: BinOp, env: Environment) -> bool:
        left = self.truthy(self.eval(node.left, env))
        if node.op == "and":
            return left and self.truthy(self.eval(node.right, env))
        if node.op == "or":
            return left or self.truthy(self.eval(node.right, env))
        if node.op == "implies":
            return (not left) or self.truthy(self.eval(node.right, env))
        right = self.truthy(self.eval(node.right, env))
        return left != right    # xor

    @staticmethod
    def _equal(left: Any, right: Any) -> bool:
        if isinstance(left, Element) or isinstance(right, Element):
            return left is right
        if isinstance(left, bool) != isinstance(right, bool):
            return False
        return left == right

    @staticmethod
    def _compare(op: str, left: Any, right: Any) -> bool:
        comparable = (
            (isinstance(left, (int, float)) and not isinstance(left, bool)
             and isinstance(right, (int, float))
             and not isinstance(right, bool))
            or (isinstance(left, str) and isinstance(right, str)))
        if not comparable:
            raise OclTypeError(
                f"cannot compare {left!r} {op} {right!r}")
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right

    @staticmethod
    def _arithmetic(op: str, left: Any, right: Any) -> Any:
        for value in (left, right):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise OclTypeError(
                    f"arithmetic '{op}' needs numbers, got {value!r}")
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise OclEvaluationError("division by zero")
            return left / right
        if op == "div":
            if right == 0:
                raise OclEvaluationError("division by zero")
            return int(left // right)
        if op == "mod":
            if right == 0:
                raise OclEvaluationError("division by zero")
            return int(left % right)
        raise OclEvaluationError(f"unknown operator {op!r}")

    # -- control ----------------------------------------------------------

    def _eval_If(self, node: If, env: Environment) -> Any:
        if self.truthy(self.eval(node.condition, env)):
            return self.eval(node.then_branch, env)
        return self.eval(node.else_branch, env)

    def _eval_Let(self, node: Let, env: Environment) -> Any:
        child = env.child()
        child.define(node.name, self.eval(node.value, env))
        return self.eval(node.body, child)


_EVALUATOR = OclEvaluator()


def evaluate(text_or_node: Union[str, Node],
             env: Optional[Environment] = None, **bindings: Any) -> Any:
    """Parse (if needed) and evaluate an expression.

    Keyword bindings become variables; ``self=obj`` binds the context
    object.  If no environment is given and ``self`` is a model element, a
    default environment scoped to the element's containment tree is built.

    The expression runs through the closure compiler
    (:mod:`repro.ocl.compile`) with its process-wide parse+compile cache.
    The tree-walking :class:`OclEvaluator` is not reached from here; it
    is the oracle the differential suite holds the compiler equal to.
    """
    if env is None:
        self_object = bindings.get("self")
        if isinstance(self_object, Element):
            env = Environment.for_model(self_object.root(),
                                        self_object=self_object)
        else:
            env = Environment()
    for name, value in bindings.items():
        env.define(name, value)
    from .compile import compile_expression
    return compile_expression(text_or_node)(env)
