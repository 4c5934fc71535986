"""Static type checking of OCL expressions — no evaluation involved.

The checker abstractly interprets the AST against a type environment:
every sub-expression gets a static :class:`OclType`, and deviations are
collected as :class:`TypeIssue` records with stable codes.  It catches,
*before* any model instance exists, the defects the evaluator would only
surface at runtime: unknown properties and operations, non-boolean
invariant/guard bodies, collection-operation arity and type mismatches,
and navigation that treats a collection as a scalar (or vice versa).

Diagnostic codes (stable, documented in DESIGN.md):

========  ==========================================================
OCL001    unknown property / identifier
OCL002    unknown operation on the inferred type
OCL003    expression must be Boolean (invariant / guard body)
OCL004    unknown collection operation
OCL005    wrong number of arguments
OCL006    operand / argument type mismatch
OCL007    unknown type name
OCL008    syntax error in the expression
OCL009    navigation into a non-object value
OCL010    iterator body has the wrong type
========  ==========================================================

Typing is *gradual*: wherever nothing is known (helper methods resolved
through the Python fallback, dynamically bound variables) the checker
assigns ``OclAny``, which conforms to everything — so it never reports a
false positive on an expression it cannot fully analyse.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..mof.kernel import Attribute, MetaClass, MetaPackage, Reference
from .ast import (
    ArrowCall,
    BinOp,
    Call,
    CollectionLiteral,
    Ident,
    If,
    Let,
    Literal,
    Nav,
    Node,
    Range,
    SelfExpr,
    TupleLiteral,
    TypeRef,
    UnOp,
)
from .compile import parse_cached
from .errors import OclSyntaxError

# ---------------------------------------------------------------------------
# The type lattice
# ---------------------------------------------------------------------------


class OclType:
    """Base of the static type lattice."""

    name = "OclAny"

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<{self.name}>"


class _AnyType(OclType):
    name = "OclAny"


class _VoidType(OclType):
    name = "OclVoid"


@dataclass(frozen=True, repr=False)
class PrimitiveOclType(OclType):
    primitive: str          # 'Integer' | 'Real' | 'String' | 'Boolean'

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.primitive


ANY = _AnyType()
VOID = _VoidType()
INTEGER = PrimitiveOclType("Integer")
REAL = PrimitiveOclType("Real")
STRING = PrimitiveOclType("String")
BOOLEAN = PrimitiveOclType("Boolean")

NUMERICS = (INTEGER, REAL)


class ObjectTypeView:
    """Adapter protocol: how the checker sees a classifier.

    Implementations exist for MOF metaclasses (here) and UML classifiers
    (:mod:`repro.analysis.rules_ocl`); anything implementing this duck
    type plugs in.
    """

    def type_name(self) -> str:
        raise NotImplementedError

    def feature_type(self, name: str) -> Optional[OclType]:
        """Static type of property *name*, or None when unknown."""
        raise NotImplementedError

    def feature_names(self) -> List[str]:
        return []

    def operation_signature(self, name: str) -> Optional[
            Tuple[List[OclType], OclType]]:
        """(parameter types, return type) of operation *name*."""
        return None

    def has_fallback(self, name: str) -> bool:
        """True when the evaluator would resolve *name* dynamically
        (Python attribute / helper method) — typed as OclAny."""
        return False

    def conforms_to(self, other: "ObjectTypeView") -> bool:
        return self is other


@dataclass(frozen=True, repr=False)
class ObjectType(OclType):
    view: ObjectTypeView

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.view.type_name()


@dataclass(frozen=True, repr=False)
class CollectionType(OclType):
    kind: str               # 'Set'|'Sequence'|'Bag'|'OrderedSet'|'Collection'
    element: OclType

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"{self.kind}({self.element.name})"


@dataclass(frozen=True, repr=False)
class TupleType(OclType):
    fields: Tuple[Tuple[str, OclType], ...]

    @property
    def name(self) -> str:  # type: ignore[override]
        inner = ", ".join(f"{n}: {t.name}" for n, t in self.fields)
        return f"Tuple({inner})"

    def field_type(self, name: str) -> Optional[OclType]:
        for field_name, field_type in self.fields:
            if field_name == name:
                return field_type
        return None


@dataclass(frozen=True, repr=False)
class TypeType(OclType):
    """The type of a type name used as a value (``Clazz.allInstances()``)."""

    referent: OclType

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"Type({self.referent.name})"


def conforms(actual: OclType, expected: OclType) -> bool:
    """Gradual conformance: OclAny and OclVoid conform both ways."""
    if isinstance(actual, (_AnyType, _VoidType)):
        return True
    if isinstance(expected, _AnyType):
        return True
    if isinstance(actual, PrimitiveOclType) \
            and isinstance(expected, PrimitiveOclType):
        if actual == expected:
            return True
        return actual == INTEGER and expected == REAL
    if isinstance(actual, ObjectType) and isinstance(expected, ObjectType):
        return actual.view.conforms_to(expected.view)
    if isinstance(actual, CollectionType) \
            and isinstance(expected, CollectionType):
        kinds_ok = (actual.kind == expected.kind
                    or "Collection" in (actual.kind, expected.kind))
        return kinds_ok and conforms(actual.element, expected.element)
    if isinstance(actual, TupleType) and isinstance(expected, TupleType):
        return actual == expected
    return False


def common_type(a: OclType, b: OclType) -> OclType:
    if conforms(a, b):
        return b if not isinstance(b, (_AnyType, _VoidType)) else a
    if conforms(b, a):
        return a
    if a in NUMERICS and b in NUMERICS:
        return REAL
    return ANY


def is_numeric(t: OclType) -> bool:
    return t in NUMERICS or isinstance(t, (_AnyType, _VoidType))


def is_boolean(t: OclType) -> bool:
    return t == BOOLEAN or isinstance(t, (_AnyType, _VoidType))


# ---------------------------------------------------------------------------
# Metaclass adapter (M2 features from the MOF kernel)
# ---------------------------------------------------------------------------

_PRIMITIVE_MAP = {"String": STRING, "Integer": INTEGER,
                  "Real": REAL, "Boolean": BOOLEAN}


class MetaClassView(ObjectTypeView):
    """Types navigation through a :class:`~repro.mof.kernel.MetaClass`."""

    def __init__(self, metaclass: MetaClass):
        self.metaclass = metaclass

    def type_name(self) -> str:
        return self.metaclass.name

    def feature_type(self, name: str) -> Optional[OclType]:
        feature = self.metaclass.find_feature(name)
        if feature is None:
            return None
        base: OclType
        if isinstance(feature, Attribute):
            base = _PRIMITIVE_MAP.get(
                getattr(feature.type, "name", ""), STRING)
        elif isinstance(feature, Reference):
            base = ObjectType(MetaClassView(feature.target))
        else:
            return ANY
        if feature.many:
            return CollectionType("Collection", base)
        return base

    def feature_names(self) -> List[str]:
        return sorted(self.metaclass.all_features())

    def has_fallback(self, name: str) -> bool:
        python_class = getattr(self.metaclass, "python_class", None)
        return (python_class is not None
                and getattr(python_class, name, None) is not None)

    def conforms_to(self, other: ObjectTypeView) -> bool:
        if isinstance(other, MetaClassView):
            return self.metaclass.conforms_to(other.metaclass)
        return False

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, MetaClassView)
                and other.metaclass is self.metaclass)

    def __hash__(self) -> int:
        return hash(id(self.metaclass))


# ---------------------------------------------------------------------------
# Issues and environment
# ---------------------------------------------------------------------------


@dataclass
class TypeIssue:
    """One static finding inside an expression."""

    code: str
    message: str
    position: int = 0
    hint: str = ""

    def __str__(self) -> str:
        text = f"{self.code} at {self.position}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


@dataclass
class TypeCheckResult:
    """Outcome of checking one expression."""

    type: OclType
    issues: List[TypeIssue] = field(default_factory=list)
    expression: str = ""

    @property
    def ok(self) -> bool:
        return not self.issues


class TypeEnv:
    """Variable and type-name bindings for one check."""

    def __init__(self, parent: Optional["TypeEnv"] = None):
        self.parent = parent
        self.vars: Dict[str, OclType] = {}
        self.types: Dict[str, OclType] = {}

    def child(self) -> "TypeEnv":
        return TypeEnv(parent=self)

    def define(self, name: str, ocl_type: OclType) -> None:
        self.vars[name] = ocl_type

    def define_type(self, name: str, ocl_type: OclType) -> None:
        self.types[name] = ocl_type

    def register_metapackage(self, package: MetaPackage) -> None:
        for pkg in package.all_packages():
            for name, classifier in pkg.classifiers.items():
                if isinstance(classifier, MetaClass):
                    obj = ObjectType(MetaClassView(classifier))
                    self.types.setdefault(name, obj)
                    self.types.setdefault(f"{pkg.name}::{name}", obj)

    def lookup_var(self, name: str) -> Optional[OclType]:
        env: Optional[TypeEnv] = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        return None

    def lookup_type(self, name: str) -> Optional[OclType]:
        env: Optional[TypeEnv] = self
        while env is not None:
            if name in env.types:
                return env.types[name]
            env = env.parent
        return None

    def known_names(self) -> List[str]:
        names: List[str] = []
        env: Optional[TypeEnv] = self
        while env is not None:
            names.extend(env.vars)
            names.extend(env.types)
            env = env.parent
        return names


# ---------------------------------------------------------------------------
# Operation signature tables
# ---------------------------------------------------------------------------

# Collection ops: name -> (argument spec, result spec).  Specs use small
# callables evaluated against (element type, checked arg types).
_ELEM = object()          # marker: the collection's element type
_SAME = object()          # marker: the source collection type itself

_PLAIN_COLLECTION_OPS: Dict[str, Tuple[Tuple[Any, ...], Any]] = {
    "size": ((), INTEGER),
    "isEmpty": ((), BOOLEAN),
    "notEmpty": ((), BOOLEAN),
    "first": ((), _ELEM),
    "last": ((), _ELEM),
    "at": ((INTEGER,), _ELEM),
    "includes": ((_ELEM,), BOOLEAN),
    "excludes": ((_ELEM,), BOOLEAN),
    "includesAll": ((_SAME,), BOOLEAN),
    "excludesAll": ((_SAME,), BOOLEAN),
    "including": ((_ELEM,), _SAME),
    "excluding": ((_ELEM,), _SAME),
    "count": ((_ELEM,), INTEGER),
    "sum": ((), "numeric-elem"),
    "max": ((), "numeric-elem"),
    "min": ((), "numeric-elem"),
    "avg": ((), REAL),
    "asSet": ((), "as:Set"),
    "asSequence": ((), "as:Sequence"),
    "asBag": ((), "as:Bag"),
    "asOrderedSet": ((), "as:OrderedSet"),
    "union": ((_SAME,), _SAME),
    "intersection": ((_SAME,), _SAME),
    "symmetricDifference": ((_SAME,), _SAME),
    "append": ((_ELEM,), _SAME),
    "prepend": ((_ELEM,), _SAME),
    "flatten": ((), "flatten"),
    "reverse": ((), _SAME),
    "indexOf": ((_ELEM,), INTEGER),
    "subSequence": ((INTEGER, INTEGER), _SAME),
}

_BOOLEAN_BODY_ITERATORS = {"select", "reject", "forAll", "exists",
                           "one", "any", "isUnique"}

_STRING_OPS: Dict[str, Tuple[Tuple[OclType, ...], OclType]] = {
    "size": ((), INTEGER),
    "concat": ((STRING,), STRING),
    "toUpperCase": ((), STRING),
    "toLowerCase": ((), STRING),
    "substring": ((INTEGER, INTEGER), STRING),
    "indexOf": ((STRING,), INTEGER),
    "startsWith": ((STRING,), BOOLEAN),
    "endsWith": ((STRING,), BOOLEAN),
    "contains": ((STRING,), BOOLEAN),
    "trim": ((), STRING),
    "toInteger": ((), INTEGER),
    "toReal": ((), REAL),
}

_NUMBER_OPS: Dict[str, Tuple[Tuple[OclType, ...], Any]] = {
    "abs": ((), "same"),
    "floor": ((), INTEGER),
    "round": ((), INTEGER),
    "max": ((REAL,), "common"),
    "min": ((REAL,), "common"),
    "toString": ((), STRING),
}


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------


class OclTypeChecker:
    """Infers a static type for every expression node, collecting issues."""

    def __init__(self, env: Optional[TypeEnv] = None):
        self.env = env or TypeEnv()

    # -- public entry ------------------------------------------------------

    def check(self, expression: Union[str, Node], *,
              self_type: Optional[OclType] = None,
              expect_boolean: bool = False) -> TypeCheckResult:
        text = expression if isinstance(expression, str) else ""
        issues: List[TypeIssue] = []
        if isinstance(expression, str):
            try:
                node = parse_cached(expression)
            except OclSyntaxError as exc:
                issues.append(TypeIssue(
                    "OCL008", f"syntax error: {str(exc).splitlines()[0]}",
                    getattr(exc, "position", 0) or 0))
                return TypeCheckResult(ANY, issues, text)
        else:
            node = expression
        state = _CheckState(self.env, issues, self_type)
        inferred = state.infer(node, self.env)
        if expect_boolean and not is_boolean(inferred):
            issues.append(TypeIssue(
                "OCL003",
                f"expression must be Boolean, inferred {inferred.name}",
                node.position,
                hint="invariants and guards must evaluate to true/false"))
        return TypeCheckResult(inferred, issues, text)


class _CheckState:
    """One traversal: environment threading plus issue collection."""

    def __init__(self, root_env: TypeEnv, issues: List[TypeIssue],
                 self_type: Optional[OclType]):
        self.root_env = root_env
        self.issues = issues
        self.self_type = self_type or ANY

    def error(self, code: str, node: Node, message: str,
              hint: str = "") -> OclType:
        self.issues.append(TypeIssue(code, message, node.position, hint))
        return ANY

    # -- dispatch ----------------------------------------------------------

    def infer(self, node: Node, env: TypeEnv) -> OclType:
        method = getattr(self, f"_infer_{type(node).__name__.lower()}", None)
        if method is None:
            return ANY
        return method(node, env)

    # -- leaves ------------------------------------------------------------

    def _infer_literal(self, node: Literal, env: TypeEnv) -> OclType:
        value = node.value
        if value is None:
            return VOID
        if isinstance(value, bool):
            return BOOLEAN
        if isinstance(value, int):
            return INTEGER
        if isinstance(value, float):
            return REAL
        return STRING

    def _infer_selfexpr(self, node: SelfExpr, env: TypeEnv) -> OclType:
        return self.self_type

    def _infer_ident(self, node: Ident, env: TypeEnv) -> OclType:
        bound = env.lookup_var(node.name)
        if bound is not None:
            return bound
        as_type = env.lookup_type(node.name)
        if as_type is not None:
            return TypeType(as_type)
        # implicit-self shorthand: a bare name may be a feature of self
        if isinstance(self.self_type, ObjectType):
            feature = self.self_type.view.feature_type(node.name)
            if feature is not None:
                return feature
            if self.self_type.view.has_fallback(node.name):
                return ANY
        hint = self._suggest(node.name, env)
        return self.error("OCL001", node,
                          f"unknown identifier '{node.name}'", hint)

    def _infer_typeref(self, node: TypeRef, env: TypeEnv) -> OclType:
        found = env.lookup_type(node.name)
        if found is None:
            return self.error("OCL007", node,
                              f"unknown type '{node.name}'")
        return TypeType(found)

    # -- literals with structure ------------------------------------------

    def _infer_collectionliteral(self, node: CollectionLiteral,
                                 env: TypeEnv) -> OclType:
        element: OclType = VOID
        for item in node.items:
            if isinstance(item, Range):
                for bound in (item.first, item.last):
                    bound_type = self.infer(bound, env)
                    if not conforms(bound_type, INTEGER):
                        self.error("OCL006", bound,
                                   f"range bounds must be Integer, got "
                                   f"{bound_type.name}")
                item_type: OclType = INTEGER
            else:
                item_type = self.infer(item, env)
            element = item_type if element == VOID \
                else common_type(element, item_type)
        if element == VOID:
            element = ANY
        return CollectionType(node.kind, element)

    def _infer_tupleliteral(self, node: TupleLiteral,
                            env: TypeEnv) -> OclType:
        return TupleType(tuple((name, self.infer(value, env))
                               for name, value in node.fields))

    def _infer_range(self, node: Range, env: TypeEnv) -> OclType:
        return CollectionType("Sequence", INTEGER)

    # -- navigation --------------------------------------------------------

    def _infer_nav(self, node: Nav, env: TypeEnv) -> OclType:
        source = self.infer(node.source, env)
        return self._navigate(node, source, node.name)

    def _navigate(self, node: Node, source: OclType, name: str) -> OclType:
        if isinstance(source, (_AnyType, _VoidType)):
            return ANY
        if isinstance(source, CollectionType):
            # implicit collect: navigate the element type, flatten
            inner = self._navigate(node, source.element, name)
            if isinstance(inner, CollectionType):
                return CollectionType("Collection", inner.element)
            if isinstance(inner, (_AnyType, _VoidType)):
                return CollectionType("Collection", ANY)
            return CollectionType("Collection", inner)
        if isinstance(source, TupleType):
            found = source.field_type(name)
            if found is None:
                return self.error(
                    "OCL001", node,
                    f"tuple has no field '{name}'",
                    hint=f"fields: "
                         f"{', '.join(n for n, _ in source.fields)}")
            return found
        if isinstance(source, ObjectType):
            feature = source.view.feature_type(name)
            if feature is not None:
                return feature
            if source.view.has_fallback(name):
                return ANY
            hint = ""
            close = difflib.get_close_matches(
                name, source.view.feature_names(), n=1)
            if close:
                hint = f"did you mean '{close[0]}'?"
            return self.error(
                "OCL001", node,
                f"'{source.name}' has no property '{name}'", hint)
        return self.error(
            "OCL009", node,
            f"cannot navigate '{name}' on {source.name} value",
            hint="only objects, tuples and collections are navigable")

    # -- operation calls ---------------------------------------------------

    def _infer_call(self, node: Call, env: TypeEnv) -> OclType:
        source = self.infer(node.source, env)
        name = node.name
        arg_types = [self.infer(arg, env) for arg in node.args]

        # universal OCL operations
        if name == "oclIsUndefined":
            self._expect_arity(node, name, arg_types, 0)
            return BOOLEAN
        if name in ("oclIsKindOf", "oclIsTypeOf", "oclAsType"):
            referent = self._type_argument(node, env)
            if name == "oclAsType":
                return referent if referent is not None else ANY
            return BOOLEAN
        if name == "allInstances":
            self._expect_arity(node, name, arg_types, 0)
            if isinstance(source, TypeType):
                return CollectionType("Set", source.referent)
            if isinstance(source, (_AnyType, _VoidType)):
                return CollectionType("Set", ANY)
            return self.error(
                "OCL002", node,
                f"allInstances() applies to type names, not "
                f"{source.name} values")

        if isinstance(source, (_AnyType, _VoidType)):
            return ANY
        if source == STRING:
            return self._table_call(node, name, arg_types, _STRING_OPS,
                                    "String")
        if source in NUMERICS:
            return self._number_call(node, source, name, arg_types)
        if isinstance(source, ObjectType):
            signature = source.view.operation_signature(name)
            if signature is not None:
                params, result = signature
                if len(arg_types) != len(params):
                    self.error("OCL005", node,
                               f"'{name}' expects {len(params)} "
                               f"argument(s), got {len(arg_types)}")
                else:
                    for index, (actual, expected) in enumerate(
                            zip(arg_types, params)):
                        if not conforms(actual, expected):
                            self.error(
                                "OCL006", node.args[index],
                                f"argument {index + 1} of '{name}': "
                                f"expected {expected.name}, got "
                                f"{actual.name}")
                return result
            if source.view.has_fallback(name):
                return ANY
            return self.error(
                "OCL002", node,
                f"'{source.name}' has no operation '{name}()'")
        if isinstance(source, CollectionType):
            # dot-call over a collection: implicit collect of the call
            return CollectionType("Collection", ANY)
        return self.error(
            "OCL002", node,
            f"no operation '{name}()' on {source.name}")

    def _type_argument(self, node: Call, env: TypeEnv) -> Optional[OclType]:
        if len(node.args) != 1:
            self.error("OCL005", node,
                       f"'{node.name}' expects exactly one type argument")
            return None
        arg = node.args[0]
        type_name = arg.name if isinstance(arg, (Ident, TypeRef)) else None
        if type_name is None:
            self.error("OCL007", node,
                       f"'{node.name}' needs a type name argument")
            return None
        found = env.lookup_type(type_name)
        if found is None:
            self.error("OCL007", arg, f"unknown type '{type_name}'")
            return None
        return found

    def _table_call(self, node: Call, name: str,
                    arg_types: List[OclType],
                    table: Dict[str, Tuple[Tuple[OclType, ...], OclType]],
                    kind: str) -> OclType:
        entry = table.get(name)
        if entry is None:
            return self.error("OCL002", node,
                              f"no operation '{name}()' on {kind}")
        params, result = entry
        if not self._expect_arity(node, name, arg_types, len(params)):
            return result
        for index, (actual, expected) in enumerate(zip(arg_types, params)):
            if not conforms(actual, expected):
                self.error("OCL006", node.args[index],
                           f"argument {index + 1} of '{name}': expected "
                           f"{expected.name}, got {actual.name}")
        return result

    def _number_call(self, node: Call, source: OclType, name: str,
                     arg_types: List[OclType]) -> OclType:
        entry = _NUMBER_OPS.get(name)
        if entry is None:
            return self.error("OCL002", node,
                              f"no operation '{name}()' on {source.name}")
        params, result = entry
        if not self._expect_arity(node, name, arg_types, len(params)):
            return source
        for index, actual in enumerate(arg_types):
            if not is_numeric(actual):
                self.error("OCL006", node.args[index],
                           f"argument {index + 1} of '{name}' must be "
                           f"numeric, got {actual.name}")
        if result == "same":
            return source
        if result == "common":
            merged = source
            for actual in arg_types:
                if actual in NUMERICS:
                    merged = common_type(merged, actual)
            return merged
        return result

    def _expect_arity(self, node: Node, name: str,
                      arg_types: Sequence[OclType], count: int) -> bool:
        if len(arg_types) != count:
            self.error("OCL005", node,
                       f"'{name}' expects {count} argument(s), got "
                       f"{len(arg_types)}")
            return False
        return True

    # -- arrow calls -------------------------------------------------------

    def _infer_arrowcall(self, node: ArrowCall, env: TypeEnv) -> OclType:
        source = self.infer(node.source, env)
        if isinstance(source, CollectionType):
            collection = source
        elif isinstance(source, (_AnyType, _VoidType)):
            collection = CollectionType("Collection", ANY)
        else:
            # OCL semantics: an arrow op on a scalar wraps it in a Set
            collection = CollectionType("Set", source)
        if node.body is not None:
            return self._iterate(node, collection, env)
        return self._plain_collection_op(node, collection, env)

    def _iterate(self, node: ArrowCall, collection: CollectionType,
                 env: TypeEnv) -> OclType:
        child = env.child()
        for iterator in node.iterators:
            child.define(iterator, collection.element)
        body_type = self.infer(node.body, child)
        name = node.name
        if name in _BOOLEAN_BODY_ITERATORS and not is_boolean(body_type):
            self.error("OCL010", node.body,
                       f"body of '{name}' must be Boolean, inferred "
                       f"{body_type.name}")
        if name in ("select", "reject"):
            return collection
        if name in ("forAll", "exists", "one", "isUnique"):
            return BOOLEAN
        if name == "any":
            return collection.element
        if name == "collect":
            if isinstance(body_type, CollectionType):
                return CollectionType("Collection", body_type.element)
            return CollectionType("Collection", body_type)
        if name == "collectNested":
            return CollectionType("Sequence", body_type)
        if name == "sortedBy":
            if not (is_numeric(body_type) or body_type == STRING):
                self.error("OCL010", node.body,
                           f"'sortedBy' body must be comparable "
                           f"(number or String), inferred {body_type.name}")
            return CollectionType("Sequence", collection.element)
        if name == "closure":
            ok = conforms(body_type, collection.element) or (
                isinstance(body_type, CollectionType)
                and conforms(body_type.element, collection.element))
            if not ok:
                self.error("OCL010", node.body,
                           f"'closure' body must yield "
                           f"{collection.element.name} (or a collection "
                           f"of it), inferred {body_type.name}")
            return CollectionType("Set", collection.element)
        return self.error("OCL004", node,
                          f"unknown iterator operation '{name}'")

    def _plain_collection_op(self, node: ArrowCall,
                             collection: CollectionType,
                             env: TypeEnv) -> OclType:
        name = node.name
        entry = _PLAIN_COLLECTION_OPS.get(name)
        if entry is None:
            hint = ""
            close = difflib.get_close_matches(
                name, list(_PLAIN_COLLECTION_OPS), n=1)
            if close:
                hint = f"did you mean '->{close[0]}'?"
            return self.error("OCL004", node,
                              f"unknown collection operation '{name}'",
                              hint)
        params, result = entry
        arg_types = [self.infer(arg, env) for arg in node.args]
        if len(arg_types) != len(params):
            self.error("OCL005", node,
                       f"'->{name}' expects {len(params)} argument(s), "
                       f"got {len(arg_types)}")
            arg_types = arg_types[:len(params)]
        for index, (actual, expected) in enumerate(zip(arg_types, params)):
            if expected is _ELEM:
                if not (conforms(actual, collection.element)
                        or conforms(collection.element, actual)):
                    self.error(
                        "OCL006", node.args[index],
                        f"argument of '->{name}': expected "
                        f"{collection.element.name}, got {actual.name}")
            elif expected is _SAME:
                if not isinstance(actual,
                                  (CollectionType, _AnyType, _VoidType)):
                    self.error(
                        "OCL006", node.args[index],
                        f"argument of '->{name}' must be a collection, "
                        f"got {actual.name}")
            elif isinstance(expected, OclType):
                if not conforms(actual, expected):
                    self.error(
                        "OCL006", node.args[index],
                        f"argument {index + 1} of '->{name}': expected "
                        f"{expected.name}, got {actual.name}")
        if result is _ELEM:
            return collection.element
        if result is _SAME:
            return collection
        if result == "numeric-elem":
            if not is_numeric(collection.element) \
                    and collection.element != STRING:
                self.error("OCL006", node,
                           f"'->{name}' needs numeric elements, got "
                           f"{collection.element.name}")
            return collection.element
        if isinstance(result, str) and result.startswith("as:"):
            return CollectionType(result[3:], collection.element)
        if result == "flatten":
            element = collection.element
            while isinstance(element, CollectionType):
                element = element.element
            return CollectionType(collection.kind, element)
        return result  # a concrete OclType

    # -- operators ---------------------------------------------------------

    def _infer_unop(self, node: UnOp, env: TypeEnv) -> OclType:
        operand = self.infer(node.operand, env)
        if node.op == "not":
            if not is_boolean(operand):
                self.error("OCL006", node,
                           f"'not' needs a Boolean operand, got "
                           f"{operand.name}")
            return BOOLEAN
        if not is_numeric(operand):
            self.error("OCL006", node,
                       f"unary '-' needs a number, got {operand.name}")
            return ANY
        return operand if operand in NUMERICS else ANY

    def _infer_binop(self, node: BinOp, env: TypeEnv) -> OclType:
        left = self.infer(node.left, env)
        right = self.infer(node.right, env)
        op = node.op
        if op in ("and", "or", "xor", "implies"):
            for side, side_type in ((node.left, left), (node.right, right)):
                if not is_boolean(side_type):
                    self.error("OCL006", side,
                               f"'{op}' needs Boolean operands, got "
                               f"{side_type.name}")
            return BOOLEAN
        if op in ("=", "<>"):
            if self._definitely_incomparable(left, right):
                self.error("OCL006", node,
                           f"comparison {left.name} {op} {right.name} "
                           f"is always "
                           f"{'false' if op == '=' else 'true'}",
                           hint="the operand types can never be equal")
            return BOOLEAN
        if op in ("<", "<=", ">", ">="):
            both_numeric = is_numeric(left) and is_numeric(right)
            both_string = (left in (STRING, ANY, VOID)
                           and right in (STRING, ANY, VOID))
            if not (both_numeric or both_string):
                self.error("OCL006", node,
                           f"'{op}' cannot order {left.name} and "
                           f"{right.name}")
            return BOOLEAN
        if op in ("div", "mod"):
            self._require_numeric(node, op, left, right)
            return INTEGER
        if op == "/":
            self._require_numeric(node, op, left, right)
            return REAL
        if op in ("+", "-", "*"):
            if op == "+" and (left == STRING or right == STRING):
                if conforms(left, STRING) and conforms(right, STRING):
                    return STRING
            self._require_numeric(node, op, left, right)
            if left == REAL or right == REAL:
                return REAL
            if left == INTEGER and right == INTEGER:
                return INTEGER
            return ANY
        return ANY

    def _require_numeric(self, node: BinOp, op: str,
                         left: OclType, right: OclType) -> None:
        for side, side_type in ((node.left, left), (node.right, right)):
            if not is_numeric(side_type):
                self.error("OCL006", side,
                           f"'{op}' needs numeric operands, got "
                           f"{side_type.name}")

    @staticmethod
    def _definitely_incomparable(left: OclType, right: OclType) -> bool:
        concrete = (PrimitiveOclType,)
        if not (isinstance(left, concrete) and isinstance(right, concrete)):
            return False
        families = {INTEGER: "number", REAL: "number",
                    STRING: "string", BOOLEAN: "boolean"}
        return families[left] != families[right]

    # -- control forms -----------------------------------------------------

    def _infer_if(self, node: If, env: TypeEnv) -> OclType:
        condition = self.infer(node.condition, env)
        if not is_boolean(condition):
            self.error("OCL006", node.condition,
                       f"'if' condition must be Boolean, got "
                       f"{condition.name}")
        then_type = self.infer(node.then_branch, env)
        else_type = self.infer(node.else_branch, env)
        return common_type(then_type, else_type)

    def _infer_let(self, node: Let, env: TypeEnv) -> OclType:
        value_type = self.infer(node.value, env)
        child = env.child()
        child.define(node.name, value_type)
        return self.infer(node.body, child)

    # -- hints -------------------------------------------------------------

    def _suggest(self, name: str, env: TypeEnv) -> str:
        candidates = env.known_names()
        if isinstance(self.self_type, ObjectType):
            candidates = candidates + self.self_type.view.feature_names()
        close = difflib.get_close_matches(name, candidates, n=1)
        return f"did you mean '{close[0]}'?" if close else ""


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def env_for_metamodel(*packages: MetaPackage) -> TypeEnv:
    """A type environment whose type namespace covers *packages*."""
    env = TypeEnv()
    for package in packages:
        env.register_metapackage(package)
    return env


def typecheck(expression: Union[str, Node], *,
              context: Union[MetaClass, type, ObjectTypeView,
                             OclType, None] = None,
              env: Optional[TypeEnv] = None,
              expect_boolean: bool = False) -> TypeCheckResult:
    """Statically check *expression*.

    ``context`` types ``self``: a MetaClass (or Element subclass), an
    :class:`ObjectTypeView`, or a ready :class:`OclType`.  When a
    MetaClass is given and no *env*, its package populates the type
    namespace automatically.
    """
    if isinstance(context, type):
        context = getattr(context, "_meta", None)
    self_type: Optional[OclType] = None
    if isinstance(context, MetaClass):
        if env is None:
            env = TypeEnv()
            if context.package is not None:
                env.register_metapackage(context.package)
        self_type = ObjectType(MetaClassView(context))
    elif isinstance(context, ObjectTypeView):
        self_type = ObjectType(context)
    elif isinstance(context, OclType):
        self_type = context
    checker = OclTypeChecker(env or TypeEnv())
    return checker.check(expression, self_type=self_type,
                        expect_boolean=expect_boolean)
