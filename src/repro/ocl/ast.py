"""AST node types for the OCL-like language.

Plain dataclasses; the evaluator dispatches on node type.  Every node keeps
its source position for error reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple


@dataclass(frozen=True)
class Node:
    position: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Literal(Node):
    """An int/float/str/bool/None literal."""
    value: Any = None


@dataclass(frozen=True)
class SelfExpr(Node):
    """The contextual instance ``self``."""


@dataclass(frozen=True)
class Ident(Node):
    """A variable or type name reference."""
    name: str = ""


@dataclass(frozen=True)
class CollectionLiteral(Node):
    """``Set{...}`` / ``Sequence{...}``; ranges appear as Range items."""
    kind: str = "Set"
    items: Tuple[Node, ...] = ()


@dataclass(frozen=True)
class TupleLiteral(Node):
    """``Tuple{name = expr, ...}`` — evaluates to a field dictionary."""
    fields: Tuple[Tuple[str, "Node"], ...] = ()


@dataclass(frozen=True)
class Range(Node):
    """``a..b`` inside a collection literal."""
    first: Optional[Node] = None
    last: Optional[Node] = None


@dataclass(frozen=True)
class Nav(Node):
    """Dot navigation ``source.name`` (attribute or association end).

    When applied to a collection, navigation maps over the elements
    (OCL's implicit collect).
    """
    source: Optional[Node] = None
    name: str = ""


@dataclass(frozen=True)
class Call(Node):
    """Dot call ``source.name(args)`` — operation on an object, or a
    built-in like ``oclIsKindOf``; ``source is None`` for bare calls."""
    source: Optional[Node] = None
    name: str = ""
    args: Tuple[Node, ...] = ()


@dataclass(frozen=True)
class ArrowCall(Node):
    """Collection operation ``source->name(...)``.

    ``iterators`` holds the declared iterator variable names for iterator
    operations (``select``, ``forAll``...); ``body`` their expression.  For
    plain arrow operations (``size``, ``includes``...) ``args`` is used.
    """
    source: Optional[Node] = None
    name: str = ""
    iterators: Tuple[str, ...] = ()
    body: Optional[Node] = None
    args: Tuple[Node, ...] = ()


@dataclass(frozen=True)
class UnOp(Node):
    op: str = ""
    operand: Optional[Node] = None


@dataclass(frozen=True)
class BinOp(Node):
    op: str = ""
    left: Optional[Node] = None
    right: Optional[Node] = None


@dataclass(frozen=True)
class If(Node):
    condition: Optional[Node] = None
    then_branch: Optional[Node] = None
    else_branch: Optional[Node] = None


@dataclass(frozen=True)
class Let(Node):
    name: str = ""
    value: Optional[Node] = None
    body: Optional[Node] = None


@dataclass(frozen=True)
class TypeRef(Node):
    """A (possibly qualified) type name used as a value, e.g. in
    ``Car.allInstances()`` or ``oclIsKindOf(Car)``."""
    name: str = ""
