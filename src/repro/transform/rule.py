"""Transformation rules.

A rule declares *what kind* of source element it matches (a metaclass plus
an optional guard) and *what* it creates.  Execution is two-phase:

* ``create(source, ctx)`` — instantiate target elements; **no
  cross-references yet** (other targets may not exist);
* ``bind(source, targets, ctx)`` — wire references, resolving images of
  other source elements through ``ctx.resolve(...)`` (the trace).

Rules may be written as subclasses of :class:`Rule` or as functions wrapped
by the :func:`rule` decorator.  Lazy rules are only applied on demand via
``ctx.resolve_or_apply``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from ..mof.kernel import Element, MetaClass
from ..ocl import Environment, evaluate, parse
from .errors import RuleError
from .trace import DEFAULT_ROLE

GuardSpec = Union[str, Callable[[Element, "TransformationContext"], bool],
                  None]


def _as_metaclass(spec: Union[MetaClass, type]) -> MetaClass:
    if isinstance(spec, MetaClass):
        return spec
    if isinstance(spec, type) and hasattr(spec, "_meta"):
        return spec._meta
    raise RuleError(f"invalid source type spec {spec!r}")


class Rule:
    """Base class for transformation rules."""

    #: Subclasses may set these as class attributes instead of passing them
    #: to ``__init__``.
    source_type: Union[MetaClass, type, None] = None
    guard: GuardSpec = None
    lazy: bool = False
    exclusive: bool = True     # an exclusive rule claims its element

    def __init__(self, name: Optional[str] = None,
                 source_type: Union[MetaClass, type, None] = None,
                 guard: GuardSpec = None,
                 lazy: Optional[bool] = None,
                 exclusive: Optional[bool] = None):
        self.name = name or type(self).__name__
        if source_type is not None:
            self.source_type = source_type
        if guard is not None:
            self.guard = guard
        if lazy is not None:
            self.lazy = lazy
        if exclusive is not None:
            self.exclusive = exclusive
        if self.source_type is None:
            raise RuleError(f"rule '{self.name}' declares no source type")
        self._source_meta = _as_metaclass(self.source_type)
        self._guard_ast = (parse(self.guard)
                           if isinstance(self.guard, str) else None)

    # -- matching ----------------------------------------------------------

    def matches(self, element: Element, ctx: "TransformationContext") -> bool:
        if not element.meta.conforms_to(self._source_meta):
            return False
        if self.guard is None:
            return True
        if self._guard_ast is not None:
            env = Environment.for_model(element.root(), self_object=element)
            env.define("platform", ctx.platform)
            result = evaluate(self._guard_ast, env)
            return result is True
        return bool(self.guard(element, ctx))

    # -- the two phases ----------------------------------------------------

    def create(self, source: Element,
               ctx: "TransformationContext"
               ) -> Union[Element, Dict[str, Element], None]:
        """Instantiate target element(s) for *source*.

        Return a single element (recorded under the default role), a dict
        of role → element, or None to claim the element without output.
        """
        raise NotImplementedError

    def bind(self, source: Element, targets: Dict[str, Element],
             ctx: "TransformationContext") -> None:
        """Wire references between already-created targets (optional)."""

    def __repr__(self) -> str:
        return (f"<Rule {self.name} on {self._source_meta.name}"
                f"{' lazy' if self.lazy else ''}>")


class FunctionRule(Rule):
    """A rule assembled from plain functions (see :func:`rule`)."""

    def __init__(self, name: str, source_type: Union[MetaClass, type],
                 create_fn: Callable, bind_fn: Optional[Callable] = None,
                 guard: GuardSpec = None, lazy: bool = False,
                 exclusive: bool = True):
        super().__init__(name=name, source_type=source_type, guard=guard,
                         lazy=lazy, exclusive=exclusive)
        self._create_fn = create_fn
        self._bind_fn = bind_fn

    def create(self, source, ctx):
        return self._create_fn(source, ctx)

    def bind(self, source, targets, ctx):
        if self._bind_fn is not None:
            if len(targets) == 1 and DEFAULT_ROLE in targets:
                self._bind_fn(source, targets[DEFAULT_ROLE], ctx)
            else:
                self._bind_fn(source, targets, ctx)


def rule(source_type: Union[MetaClass, type], *,
         name: Optional[str] = None, guard: GuardSpec = None,
         lazy: bool = False, exclusive: bool = True
         ) -> Callable[[Callable], FunctionRule]:
    """Decorator turning a create function into a :class:`FunctionRule`.

    The decorated function receives ``(source, ctx)`` and returns target
    element(s).  Attach a bind phase with ``@my_rule.binder``::

        @rule(Clazz)
        def class_to_task(source, ctx):
            return Task(name=source.name)

        @class_to_task.binder
        def bind(source, target, ctx):
            target.collaborators = ctx.resolve_all(source.supers())
    """
    def wrap(create_fn: Callable) -> FunctionRule:
        function_rule = FunctionRule(
            name or create_fn.__name__, source_type, create_fn,
            guard=guard, lazy=lazy, exclusive=exclusive)

        def binder(bind_fn: Callable) -> FunctionRule:
            function_rule._bind_fn = bind_fn
            return function_rule

        function_rule.binder = binder       # type: ignore[attr-defined]
        return function_rule
    return wrap
