"""OCL invariants attached to metaclasses.

An :class:`Invariant` carries a context metaclass and a boolean expression;
registering it places it on ``MetaClass.invariants``, where the structural
validator (:mod:`repro.mof.validate`) picks it up — so ``validate_tree``
checks both structure *and* semantics, which is exactly the "models must be
testable" discipline the paper requires.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..mof import kernel as _kernel
from ..mof.kernel import CONTAINER_KEY, Element, MetaClass, MetaPackage
from ..mof.query import instances_of
from ..mof.repository import Model
from ..mof.validate import Severity, ValidationReport, check_invariant
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .ast import Node
from .compile import CompiledExpression, compile_expression, parse_cached
from .evaluator import Environment, _EVALUATOR, truthy


class Invariant:
    """A named boolean constraint over instances of a context metaclass.

    The expression is lowered once to a closure (:mod:`repro.ocl.compile`)
    specialised against the context metaclass, and the per-package type
    environments are cached across evaluations.
    """

    def __init__(self, context: Union[MetaClass, type], name: str,
                 expression: str, *,
                 message: str = "",
                 severity: Severity = Severity.ERROR,
                 packages: Optional[List[MetaPackage]] = None):
        if isinstance(context, type):
            context = context._meta
        self.context: MetaClass = context
        self.name = name
        self.expression = expression
        self.ast: Node = parse_cached(expression)
        self.message = message
        self.severity = severity
        self.packages = packages
        self._compiled: CompiledExpression = compile_expression(
            expression, context=context)
        self._compiled_fn = self._compiled._fn
        # (element package id, root package id) -> [reusable env, its root]
        self._env_cache: Dict[Tuple[int, int], list] = {}

    def holds(self, element: Element) -> bool:
        """Evaluate the invariant for *element* (must conform to context).

        When the observability layer is on, each evaluation is wrapped in
        an ``ocl.invariant`` span and timed into the per-invariant
        ``ocl.invariant.seconds`` histogram.
        """
        if not _trace.ON:
            return self._holds_impl(element)
        sp = _trace.span("ocl.invariant", invariant=self.name,
                         context=self.context.name)
        with sp:
            result = self._holds_impl(element)
        _metrics.REGISTRY.counter(
            "ocl.invariant.evals",
            help="invariant evaluations").inc()
        _metrics.REGISTRY.histogram(
            "ocl.invariant.seconds",
            help="per-invariant evaluation time",
            invariant=self.name).observe(sp.duration)
        return result

    def _holds_impl(self, element: Element) -> bool:
        # The type namespace depends only on the element's and root's
        # packages, so one environment is built per package pair and
        # reused across calls — the closures only read it (iterator
        # variables live in child environments they create themselves), so
        # rebinding ``self`` and, when the root changes, the instance scope
        # is all a call needs.  The root is found by a hook-free walk,
        # and dependency tracking sees one read, the element's own
        # container.  That read is enough: a model root is never
        # contained (kernel._link), so the root changes only when the
        # element leaves or enters a model, and the incremental engine
        # then reruns every reader of the element's container.  It keeps
        # a move under a root of another metapackage exact, since the
        # type namespace depends on the root's package.
        if _kernel._READ_HOOK is not None:
            _kernel._READ_HOOK(element, CONTAINER_KEY)
        root = element
        while root._container is not None:
            root = root._container
        key = (id(element.meta.package), id(root.meta.package))
        entry = self._env_cache.get(key)
        if entry is None:
            env = Environment()
            packages = list(self.packages or [])
            for candidate in (self.context.package, element.meta.package,
                              root.meta.package):
                if candidate is not None and candidate not in packages:
                    packages.append(candidate)
            for package in packages:
                env.register_package(package)
            entry = [env, None]
            self._env_cache[key] = entry
        else:
            env = entry[0]
        if entry[1] is not root:
            env.set_instance_scope_from(root)
            entry[1] = root
        env.vars["self"] = element
        result = self._compiled_fn(env)
        if result is True:
            return True
        if result is False or result is None:
            return False
        return truthy(result)

    def _holds_interpreted(self, element: Element) -> bool:
        """The tree-walking interpreter, with a fresh environment per
        call.  No public path reaches it: it is the differential-testing
        oracle :meth:`_holds_impl` is held equal to."""
        # The type namespace is built from the context metaclass's package
        # (plus the element's own and its root's) rather than by scanning
        # the whole model, so checking n elements stays O(n).
        env = Environment()
        packages = list(self.packages or [])
        for candidate in (self.context.package, element.meta.package,
                          element.root().meta.package):
            if candidate is not None and candidate not in packages:
                packages.append(candidate)
        for package in packages:
            env.register_package(package)
        env.set_instance_scope_from(element.root())
        env.define("self", element)
        result = _EVALUATOR.eval(self.ast, env)
        return _EVALUATOR.truthy(result)

    def register(self) -> "Invariant":
        """Attach to the context metaclass so validators see it."""
        if self not in self.context.invariants:
            self.context.invariants.append(self)
        return self

    def unregister(self) -> None:
        if self in self.context.invariants:
            self.context.invariants.remove(self)

    def __repr__(self) -> str:
        return (f"<Invariant {self.context.name}::{self.name}: "
                f"{self.expression!r}>")


def invariant(context: Union[MetaClass, type], name: str,
              expression: str, *, message: str = "",
              severity: Severity = Severity.ERROR) -> Invariant:
    """Create *and register* an invariant (the common case)."""
    return Invariant(context, name, expression, message=message,
                     severity=severity).register()


class ConstraintSet:
    """A named, detachable group of invariants — one per abstraction level
    or concern, matching the paper's "at each abstraction level a well
    defined set of tests must be performed"."""

    def __init__(self, name: str):
        self.name = name
        self.invariants: List[Invariant] = []

    def add(self, context: Union[MetaClass, type], name: str,
            expression: str, *, message: str = "",
            severity: Severity = Severity.ERROR) -> Invariant:
        inv = Invariant(context, name, expression, message=message,
                        severity=severity)
        self.invariants.append(inv)
        return inv

    def evaluate(self, scope: Union[Model, Element]) -> ValidationReport:
        """Check every invariant against all conforming elements in scope
        (without requiring registration on the metaclasses).

        This is the engine-level building block behind the
        ``"constraint"`` family of :meth:`repro.session.Session.check`.
        """
        report = ValidationReport()
        model_scope = isinstance(scope, Model)
        column_store = scope.column_store() if model_scope else None
        if column_store is not None:
            from .columns import flag_constraint_suspects
        for inv in self.invariants:
            candidates = (scope.instances_of(inv.context) if model_scope
                          else instances_of(scope, inv.context))
            # Columnar suspect scan: evaluate the invariant extent-wide
            # as a row plan and re-run holds() only where a diagnostic is
            # certain — candidate order (and thus the report) unchanged.
            # None means some conforming block wasn't plannable; then the
            # full candidate loop below is the evaluation.
            flagged = (flag_constraint_suspects(inv, column_store)
                       if column_store is not None else None)
            for element in candidates:
                if flagged is None or id(element) in flagged:
                    check_invariant(inv, element, report)
        return report

    def register_all(self) -> None:
        for inv in self.invariants:
            inv.register()

    def unregister_all(self) -> None:
        for inv in self.invariants:
            inv.unregister()

    def __len__(self) -> int:
        return len(self.invariants)
