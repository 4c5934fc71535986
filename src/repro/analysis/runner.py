"""The batch lint runner: one walk over a model, rules dispatched by kind.

The runner traverses each root's containment tree exactly once,
bucketing what the registered rules care about (state machines,
activities, the set of metaclasses in use), then hands every bucket to
the matching rules.  Severity overrides and disabled codes from the
:class:`~repro.analysis.registry.LintConfig` are applied to the emitted
diagnostics before they reach the report.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from ..mof.kernel import Element, MetaClass
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..uml.activities import Activity
from ..uml.interactions import Interaction
from ..uml.statemachines import StateMachine
from .diagnostics import Diagnostic, LintReport, Severity, model_path
from .registry import DEFAULT_REGISTRY, LintConfig, LintRule, RuleRegistry


def element_target(element: Element) -> Optional[str]:
    """The target kind *element* is linted as: ``statemachine``,
    ``activity``, ``interaction``, or None.  The other per-model kinds
    are not decided per element: ``model`` targets are the roots and
    ``metaclass`` targets the metaclasses in use."""
    if isinstance(element, StateMachine):
        return "statemachine"
    if isinstance(element, Activity):
        return "activity"
    if isinstance(element, Interaction):
        return "interaction"
    return None


class LintContext:
    """What a rule may consult while checking one target."""

    def __init__(self, root: Optional[Element], config: LintConfig,
                 registry: RuleRegistry):
        self.root = root
        self.config = config
        self.registry = registry
        self.cache: Dict[Any, Any] = {}
        self.current_rule: Optional[LintRule] = None

    def diag(self, element: Any, message: str, *,
             code: Optional[str] = None,
             severity: Optional[Severity] = None,
             hint: str = "", related: Any = None) -> Diagnostic:
        """Build a diagnostic defaulting to the running rule's identity.

        *related* names the secondary endpoint of a cross-diagram
        finding (e.g. the state machine a message cannot reach).
        """
        rule = self.current_rule
        return Diagnostic(
            severity or (rule.severity if rule else Severity.ERROR),
            element, message, None,
            code or (rule.code if rule else ""),
            path=model_path(element), hint=hint,
            related=related,
            related_path=model_path(related) if related is not None else "")


class ModelLinter:
    """Runs every applicable registered rule over models.

    *families* selects the rule families to execute (default: the
    classic single-diagram ``lint`` rules; pass ``("consistency",)`` for
    the cross-diagram ``XD`` rules, or both for everything)."""

    def __init__(self, registry: Optional[RuleRegistry] = None,
                 config: Optional[LintConfig] = None,
                 families: Iterable[str] = ("lint",)):
        self.registry = DEFAULT_REGISTRY if registry is None else registry
        self.config = config or LintConfig()
        self.families = tuple(families)

    # -- model lint --------------------------------------------------------

    def lint(self, *roots: Element) -> LintReport:
        if not _trace.ON:
            report = LintReport()
            for root in roots:
                self._lint_root(root, report)
            return report
        with _trace.span("analysis.lint", roots=len(roots),
                         families=",".join(self.families)) as sp:
            report = LintReport()
            for root in roots:
                self._lint_root(root, report)
        sp.tag(elements=report.elements_scanned,
               findings=len(report.diagnostics))
        _metrics.REGISTRY.counter(
            "analysis.lint.elements",
            help="elements scanned by the linter").inc(
                report.elements_scanned)
        for diagnostic in report.diagnostics:
            _metrics.REGISTRY.counter(
                "analysis.lint.findings", help="lint findings by severity",
                severity=diagnostic.severity.value).inc()
        return report

    def _lint_root(self, root: Element, report: LintReport) -> None:
        context = LintContext(root, self.config, self.registry)

        # the single walk: bucket targets by kind
        targets: Dict[str, List[Element]] = {
            "statemachine": [], "activity": [], "interaction": []}
        metas: Dict[MetaClass, None] = {}
        count = 0
        for element in self._walk(root):
            count += 1
            kind = element_target(element)
            if kind is not None:
                targets[kind].append(element)
            metas[element.meta] = None
        report.elements_scanned += count
        # each distinct metaclass with its superclasses, in first-use
        # order: the order a per-element expansion gives, at a cost per
        # metaclass rather than per element
        metaclasses: Dict[int, MetaClass] = {}
        for meta in metas:
            for metaclass in [meta] + meta.all_superclasses():
                metaclasses.setdefault(id(metaclass), metaclass)

        self._dispatch("model", [root], context, report)
        for kind, found in targets.items():
            self._dispatch(kind, found, context, report)
        self._dispatch("metaclass", list(metaclasses.values()),
                       context, report)

    @staticmethod
    def _walk(root: Element) -> Iterable[Element]:
        yield root
        yield from root.all_contents()

    # -- transformation lint ----------------------------------------------

    def lint_transformation(self, transformation: Any) -> LintReport:
        report = LintReport()
        context = LintContext(None, self.config, self.registry)
        self._dispatch("transformation", [transformation], context, report)
        return report

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, target_kind: str, targets: List[Any],
                  context: LintContext, report: LintReport) -> None:
        if not targets:
            return
        for rule in self.registry.rules(target_kind, self.config,
                                        families=self.families):
            context.current_rule = rule
            report.rules_run += 1
            for target in targets:
                for diagnostic in rule.check(target, context):
                    self._emit(diagnostic, report)
            context.current_rule = None

    def _emit(self, diagnostic: Diagnostic, report: LintReport) -> None:
        diagnostic = self.config.admit(diagnostic)
        if diagnostic is not None:
            report.diagnostics.append(diagnostic)


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def lint_transformation(transformation: Any, *,
                        registry: Optional[RuleRegistry] = None,
                        config: Optional[LintConfig] = None) -> LintReport:
    """Run the transformation-conflict rules over a rule set."""
    return ModelLinter(registry, config).lint_transformation(transformation)
