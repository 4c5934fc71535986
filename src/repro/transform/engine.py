"""The transformation engine — the paper's "model compiler".

A :class:`Transformation` owns an ordered rule set and executes in two
phases over the source containment tree:

1. **create** — every non-lazy rule is offered every element (exclusive
   rules stop the search for their element); targets are instantiated and
   recorded in the :class:`~repro.transform.trace.TraceModel`;
2. **bind** — every trace link's rule gets to wire references, resolving
   other images through the trace.  Forward references are therefore
   impossible to get wrong: by bind time all targets exist.

A transformation is *platform-parametric* when run with a platform model:
rules receive it via ``ctx.platform`` and consume its services/types —
this is the paper's "generic engine that takes a model of a platform as
its parameter".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Union

from .. import faults as _faults
from ..mof import txn as _txn
from ..mof.kernel import Element
from ..mof.repository import Model
from ..mof.validate import Diagnostic, Severity
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .errors import RuleApplicationError, TransformError, UnresolvedTraceError
from .rule import Rule
from .trace import DEFAULT_ROLE, TraceLink, TraceModel


@dataclass(frozen=True)
class FailurePolicy:
    """What a :class:`Transformation` does when a rule raises.

    Every rule application (create *and* bind) runs inside a kernel
    transaction, so whatever a failing rule had already mutated is rolled
    back before the policy acts; the difference is what happens next:

    * ``fail-fast`` (default) — re-raise as
      :class:`~repro.transform.errors.RuleApplicationError` with the
      original exception chained; the run stops, the source and any
      shared targets are exactly as before the failing application.
    * ``skip`` — record an ERROR :class:`~repro.mof.validate.Diagnostic`
      (code ``rule-failed``) on the result and carry on with the next
      element; the paper's gates then decide whether a partially mapped
      PSM may proceed.
    * ``retry`` — re-apply up to ``retries`` extra times (each attempt
      freshly rolled back), then fall through to ``then`` (``fail-fast``
      or ``skip``) — for transient faults, not deterministic bugs.
    """

    mode: str = "fail-fast"          # fail-fast | skip | retry
    retries: int = 2                 # extra attempts in retry mode
    then: str = "fail-fast"          # retry exhaustion: fail-fast | skip

    def __post_init__(self):
        if self.mode not in ("fail-fast", "skip", "retry"):
            raise ValueError(f"unknown failure-policy mode {self.mode!r}")
        if self.then not in ("fail-fast", "skip"):
            raise ValueError(f"unknown failure-policy fallback {self.then!r}")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")

    @property
    def attempts(self) -> int:
        return self.retries + 1 if self.mode == "retry" else 1

    @property
    def on_exhausted(self) -> str:
        return self.then if self.mode == "retry" else self.mode


FAIL_FAST = FailurePolicy("fail-fast")
SKIP = FailurePolicy("skip")


class TransformationContext:
    """Everything rules may consult while executing."""

    def __init__(self, transformation: "Transformation",
                 source_roots: List[Element],
                 platform: Any = None,
                 parameters: Optional[Dict[str, Any]] = None):
        self.transformation = transformation
        self.source_roots = source_roots
        self.platform = platform
        self.parameters = dict(parameters or {})
        self.trace = TraceModel()
        self.helpers: Dict[str, Any] = {}

    # -- trace-backed resolution ----------------------------------------

    def resolve(self, source: Element, role: str = DEFAULT_ROLE,
                *, required: bool = True) -> Optional[Element]:
        """Image of *source*; raises when required and absent."""
        target = self.trace.resolve(source, role)
        if target is None and required:
            raise UnresolvedTraceError(source, role)
        return target

    def resolve_optional(self, source: Optional[Element],
                         role: str = DEFAULT_ROLE) -> Optional[Element]:
        if source is None:
            return None
        return self.trace.resolve(source, role)

    def resolve_all(self, sources: Iterable[Element],
                    role: str = DEFAULT_ROLE) -> List[Element]:
        return self.trace.resolve_all(sources, role)

    def resolve_or_apply(self, source: Element, rule: Rule,
                         role: str = DEFAULT_ROLE) -> Element:
        """Lazy-rule support: transform *source* with *rule* on first
        demand, reuse the trace afterwards."""
        target = self.trace.resolve(source, role, rule=rule.name)
        if target is not None:
            return target
        link = self.transformation._apply_rule(rule, source, self)
        if link is None or role not in link.targets:
            raise UnresolvedTraceError(source, role)
        self.transformation._bind_link(link, self)
        return link.targets[role]


@dataclass
class TransformationResult:
    """Output of one run: target roots, the trace, and statistics.

    ``failures`` holds one ERROR diagnostic (code ``rule-failed``) per
    rule application a ``skip`` failure policy rolled back and skipped;
    it is empty under ``fail-fast`` (the run would have raised instead).
    """

    target_roots: List[Element] = field(default_factory=list)
    trace: TraceModel = field(default_factory=TraceModel)
    elements_visited: int = 0
    elapsed_seconds: float = 0.0
    failures: List[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def target_model(self, uri: str = "urn:target",
                     name: str = "target") -> Model:
        """A new model over the target roots.  A root belongs to one
        model, so a second call is refused (``RepositoryError``)."""
        model = Model(uri, name)
        for root in self.target_roots:
            model.add_root(root)
        return model

    @property
    def primary_root(self) -> Element:
        if not self.target_roots:
            raise TransformError("transformation produced no target roots")
        return self.target_roots[0]


class Transformation:
    """An ordered set of rules executed by the two-phase engine.

    ``kind`` documents whether the transformation is *semantic* (changes
    abstraction level, consumes platform knowledge) or *syntactic* (same
    semantics re-expressed), per the paper's distinction.
    ``abstraction_delta`` counts the levels descended (negative = toward
    platform).
    """

    def __init__(self, name: str, rules: Optional[Iterable[Rule]] = None, *,
                 kind: str = "semantic", abstraction_delta: int = -1,
                 description: str = ""):
        self.name = name
        self.rules: List[Rule] = list(rules or [])
        self.kind = kind
        self.abstraction_delta = abstraction_delta
        self.description = description

    def add_rule(self, rule: Rule) -> Rule:
        self.rules.append(rule)
        return rule

    # -- execution --------------------------------------------------------

    def run(self, source: Union[Model, Element, Iterable[Element]], *,
            platform: Any = None,
            parameters: Optional[Dict[str, Any]] = None,
            failure_policy: Optional[FailurePolicy] = None
            ) -> TransformationResult:
        """Transform *source* (a model, one root, or several roots).

        Each rule application (create and bind alike) runs inside a
        kernel transaction and is governed by *failure_policy* (default
        :data:`FAIL_FAST`): a raising rule never leaves half an
        application behind, whether the run then stops, skips, or
        retries — see :class:`FailurePolicy`.

        When the observability layer is on, the run and its two phases
        are wrapped in ``transform.*`` spans and every rule's match and
        apply costs feed per-rule histograms/counters.
        """
        started = time.perf_counter()
        policy = failure_policy or FAIL_FAST
        roots = self._roots_of(source)
        ctx = TransformationContext(self, roots, platform, parameters)
        failures: List[Diagnostic] = []
        visited = 0
        obs_on = _trace.ON          # sampled once per run
        run_span = (_trace.span("transform.run", transformation=self.name,
                                kind=self.kind) if obs_on else _trace.NULL_SPAN)
        with run_span:
            # Phase 1: create
            with (_trace.span("transform.create") if obs_on
                  else _trace.NULL_SPAN):
                for element in self._all_elements(roots):
                    visited += 1
                    for candidate in self.rules:
                        if candidate.lazy:
                            continue
                        if obs_on:
                            t0 = time.perf_counter()
                            matched = candidate.matches(element, ctx)
                            _metrics.REGISTRY.histogram(
                                "transform.rule.match.seconds",
                                help="per-rule match-test time",
                                rule=candidate.name,
                            ).observe(time.perf_counter() - t0)
                            if not matched:
                                continue
                            t0 = time.perf_counter()
                            self._apply_guarded(candidate, element, ctx,
                                                policy, failures)
                            _metrics.REGISTRY.histogram(
                                "transform.rule.apply.seconds",
                                help="per-rule create-phase apply time",
                                rule=candidate.name,
                            ).observe(time.perf_counter() - t0)
                            _metrics.REGISTRY.counter(
                                "transform.rule.applies",
                                help="create-phase rule applications",
                                rule=candidate.name).inc()
                        else:
                            if not candidate.matches(element, ctx):
                                continue
                            self._apply_guarded(candidate, element, ctx,
                                                policy, failures)
                        if candidate.exclusive:
                            break

            # Phase 2: bind
            with (_trace.span("transform.bind") if obs_on
                  else _trace.NULL_SPAN):
                for link in list(ctx.trace):
                    self._bind_guarded(link, ctx, policy, failures)

            result = TransformationResult(
                target_roots=self._collect_roots(ctx),
                trace=ctx.trace,
                elements_visited=visited,
                elapsed_seconds=time.perf_counter() - started,
                failures=failures,
            )
            if obs_on:
                run_span.tag(elements=visited, links=len(list(ctx.trace)))
                _metrics.REGISTRY.counter(
                    "transform.runs", help="transformation executions").inc()
                _metrics.REGISTRY.counter(
                    "transform.elements.visited",
                    help="source elements offered to rules").inc(visited)
        return result

    @staticmethod
    def _roots_of(source: Union[Model, Element, Iterable[Element]]
                  ) -> List[Element]:
        if isinstance(source, Model):
            return list(source.roots)
        if isinstance(source, Element):
            return [source]
        return list(source)

    @staticmethod
    def _all_elements(roots: List[Element]):
        for root in roots:
            yield root
            yield from root.all_contents()

    def _apply_guarded(self, rule_obj: Rule, element: Element,
                       ctx: TransformationContext, policy: FailurePolicy,
                       failures: List[Diagnostic]) -> Optional[TraceLink]:
        """Apply *rule_obj* under a transaction and the failure policy."""
        last: Optional[Exception] = None
        for _attempt in range(policy.attempts):
            try:
                with _txn.transaction(ctx):
                    return self._apply_rule(rule_obj, element, ctx)
            except Exception as exc:  # noqa: BLE001 - policy decides
                last = exc
        self._rule_failed(rule_obj.name, element, last, "create",
                          policy, failures)
        return None

    def _bind_guarded(self, link: TraceLink, ctx: TransformationContext,
                      policy: FailurePolicy,
                      failures: List[Diagnostic]) -> None:
        last: Optional[Exception] = None
        for _attempt in range(policy.attempts):
            try:
                with _txn.transaction(ctx):
                    self._bind_link(link, ctx)
                return
            except Exception as exc:  # noqa: BLE001 - policy decides
                last = exc
        self._rule_failed(link.rule_name, link.source, last, "bind",
                          policy, failures)

    def _rule_failed(self, rule_name: str, element: Element,
                     error: Exception, phase: str, policy: FailurePolicy,
                     failures: List[Diagnostic]) -> None:
        """The policy's endgame once every attempt was rolled back."""
        if _trace.ON:
            _metrics.REGISTRY.counter(
                "transform.rule.failures",
                help="rule applications rolled back by the failure policy",
                rule=rule_name, phase=phase).inc()
        if policy.on_exhausted == "skip":
            failures.append(Diagnostic(
                Severity.ERROR, element,
                f"rule '{rule_name}' failed in {phase} phase and was "
                f"skipped: {type(error).__name__}: {error}",
                code="rule-failed",
                hint="the application was rolled back; the source and "
                     "other targets are unaffected"))
            return
        if policy.mode == "retry":
            raise RuleApplicationError(rule_name, element, error,
                                       phase=phase,
                                       attempts=policy.attempts) from error
        raise error

    def _apply_rule(self, rule_obj: Rule, element: Element,
                    ctx: TransformationContext) -> Optional[TraceLink]:
        if _faults.ACTIVE is not None:
            _faults.probe("transform.rule")
        produced = rule_obj.create(element, ctx)
        if produced is None:
            targets: Dict[str, Element] = {}
        elif isinstance(produced, dict):
            targets = produced
        elif isinstance(produced, Element):
            targets = {DEFAULT_ROLE: produced}
        else:
            raise TransformError(
                f"rule '{rule_obj.name}' returned {produced!r}; expected "
                f"an Element, a role dict, or None")
        link = TraceLink(rule_obj.name, element, targets)
        ctx.trace.add(link)
        return link

    def _bind_link(self, link: TraceLink, ctx: TransformationContext) -> None:
        rule_obj = self._rule_named(link.rule_name)
        if rule_obj is not None:
            rule_obj.bind(link.source, link.targets, ctx)

    def _rule_named(self, name: str) -> Optional[Rule]:
        for rule_obj in self.rules:
            if rule_obj.name == name:
                return rule_obj
        return None

    @staticmethod
    def _collect_roots(ctx: TransformationContext) -> List[Element]:
        """Container-less targets, in creation order, are the new roots."""
        roots: List[Element] = []
        for link in ctx.trace:
            for target in link.targets.values():
                if target.container is None and target not in roots:
                    roots.append(target)
        return roots

    @property
    def is_semantic(self) -> bool:
        return self.kind == "semantic"

    @property
    def is_syntactic(self) -> bool:
        return self.kind == "syntactic"

    def __repr__(self) -> str:
        return (f"<Transformation {self.name} ({self.kind}, "
                f"{len(self.rules)} rules)>")
