"""``repro.session`` — the unified checking/session facade.

:class:`Session` is the one public way to check a model scope, behind
two verbs:

* :meth:`Session.check` — run any subset of the checker *families*
  (``structural``, ``invariant``, ``wellformed``, ``lint``,
  ``consistency``, ``constraint``) and get one merged
  :class:`CheckResult` of :class:`~repro.mof.validate.Diagnostic`
  records;
* :meth:`Session.watch` — the same subset, incrementally maintained by a
  primed :class:`~repro.incremental.IncrementalEngine`.

Each family delegates to an engine-level building block
(``validate_tree``, ``validate_invariants``, ``run_wellformed_rules``,
``ModelLinter.lint``, ``ConstraintSet.evaluate``); the parity suite in
``tests/test_session.py`` holds ``Session.check`` multiset-equal to
those blocks over the generated model corpus.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .analysis import LintConfig, ModelLinter, RuleRegistry
from .mof.kernel import Element
from .mof.repository import Model
from .mof.validate import (
    Diagnostic,
    Severity,
    ValidationReport,
    validate_element,
    validate_invariants,
    validate_tree,
)
from .obs import metrics as _metrics
from .obs import trace as _trace

Scope = Union[Model, Element, Sequence[Element]]

#: Every checker family, in report order.  ``consistency`` is the
#: cross-diagram ``XD`` rule family (:mod:`repro.analysis.rules_consistency`).
FAMILIES: Tuple[str, ...] = (
    "structural", "invariant", "wellformed", "lint", "consistency",
    "constraint")

#: Families run by default (``constraint`` joins when the session has
#: constraint sets).
DEFAULT_FAMILIES: Tuple[str, ...] = (
    "structural", "invariant", "wellformed", "lint", "consistency")

_SEVERITY_RANK = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}


def _as_severity(severity: Union[str, Severity, None]) -> Optional[Severity]:
    if severity is None or isinstance(severity, Severity):
        return severity
    try:
        return Severity(severity)
    except ValueError:
        raise ValueError(
            f"unknown severity {severity!r}; expected one of "
            f"{sorted(s.value for s in Severity)}") from None


class CheckResult:
    """The merged outcome of one :meth:`Session.check` call."""

    def __init__(self, by_family: Dict[str, List[Diagnostic]]):
        self.by_family = by_family
        self.families: Tuple[str, ...] = tuple(by_family)

    @property
    def diagnostics(self) -> List[Diagnostic]:
        """All diagnostics, in family order."""
        out: List[Diagnostic] = []
        for family in self.families:
            out.extend(self.by_family[family])
        return out

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    @property
    def ok(self) -> bool:
        return not self.errors

    def filtered(self, severity: Union[str, Severity, None]) -> "CheckResult":
        """A copy keeping only diagnostics at or above *severity*."""
        minimum = _as_severity(severity)
        if minimum is None:
            return self
        floor = _SEVERITY_RANK[minimum]
        return CheckResult({
            family: [d for d in diagnostics
                     if _SEVERITY_RANK[d.severity] >= floor]
            for family, diagnostics in self.by_family.items()})

    def as_validation_report(self) -> ValidationReport:
        return ValidationReport(diagnostics=self.diagnostics)

    def to_json(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
            "families": {
                family: [_diagnostic_json(d) for d in diagnostics]
                for family, diagnostics in self.by_family.items()},
        }

    def render(self, format: str = "text") -> str:
        return render_check_document(self.to_json(), format)

    def __repr__(self) -> str:
        return (f"<CheckResult families={list(self.families)} "
                f"errors={len(self.errors)} warnings={len(self.warnings)}>")


def render_check_document(document: Dict[str, Any],
                          format: str = "text") -> str:
    """Render a :meth:`CheckResult.to_json` document.

    This is *the* diagnostic renderer: :meth:`CheckResult.render`
    delegates here, and because it works on the serialized document
    rather than live objects, a ``check`` response received over the
    model-server wire protocol renders byte-identically to a local
    ``python -m repro check`` run.
    """
    if format == "json":
        return json.dumps(document, indent=2)
    families = document.get("families", {})
    lines = [record["rendered"]
             for diagnostics in families.values()
             for record in diagnostics]
    lines.append(f"check: {document.get('errors', 0)} error(s), "
                 f"{document.get('warnings', 0)} warning(s), "
                 f"{document.get('infos', 0)} info(s) "
                 f"[{', '.join(families)}]")
    return "\n".join(lines)


def canonical_check_document(document: Dict[str, Any]) -> str:
    """One canonical byte representation of a check document.

    Sorted keys, no whitespace — two documents are semantically equal
    exactly when their canonical strings compare equal, which is how
    the server's crash-recovery verification (``repro.server``
    durability tests and the crash-recovery smoke) proves a restarted
    repository byte-identical to a shadow session that applied the same
    acknowledged edit prefix.
    """
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _diagnostic_json(diagnostic: Diagnostic) -> Dict[str, Any]:
    record = {
        "severity": diagnostic.severity.value,
        "code": diagnostic.code,
        "message": diagnostic.message,
        "path": diagnostic.path,
        "element": repr(diagnostic.element),
        "hint": diagnostic.hint,
        "rendered": diagnostic.render(),
    }
    if diagnostic.related is not None:
        record["related"] = repr(diagnostic.related)
        record["related_path"] = diagnostic.related_path
    return record


class Session:
    """One model scope plus everything needed to check it uniformly.

    *scope* is a :class:`~repro.mof.repository.Model`, a single root
    element, or a sequence of roots (same contract as the incremental
    engine).  *constraint_sets* supplies detached
    :class:`~repro.ocl.invariants.ConstraintSet` groups for the
    ``constraint`` family; *registry*/*lint_config* parameterize the
    ``lint`` family.
    """

    def __init__(self, scope: Scope, *,
                 constraint_sets: Iterable[Any] = (),
                 registry: Optional[RuleRegistry] = None,
                 lint_config: Optional[LintConfig] = None,
                 columnar: bool = False):
        from .incremental.engine import IncrementalEngine
        self.scope = scope
        self.model = IncrementalEngine._resolve_scope(scope)
        self.constraint_sets = list(constraint_sets)
        self.registry = registry
        self.lint_config = lint_config
        if columnar:
            # per-metaclass struct-of-arrays extents (repro.mof.columns):
            # allInstances-heavy OCL and the structural/invariant families
            # run over contiguous columns instead of per-object slots
            self.model.enable_columns()
        #: the :class:`~repro.generate.GenerationResult` behind this
        #: session, when it was opened via :meth:`Session.generate`
        self.generation: Optional[Any] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def load(cls, path: str, **kwargs: Any) -> "Session":
        """Open a session over a serialized model file (.xmi/.xml/.json),
        with all bundled profiles available for stereotype resolution."""
        from .cli import load_model
        return cls(load_model(path), **kwargs)

    @classmethod
    def generate(cls, package: str = "demo", *, size: int = 1000,
                 seed: int = 0, repair: bool = True,
                 **kwargs: Any) -> "Session":
        """Open a session over a freshly generated seeded model
        (:func:`repro.generate.generate_model`); by default the corpus
        is repaired to zero error diagnostics first.  The full
        :class:`~repro.generate.GenerationResult` (coverage map, repair
        report) is kept as ``session.generation``."""
        from .generate import generate_model
        result = generate_model(package, size=size, seed=seed,
                                repair=repair, **kwargs)
        session = cls(result.model)
        session.generation = result
        return session

    @property
    def roots(self) -> List[Element]:
        return list(self.model.roots)

    # -- batch checking ----------------------------------------------------

    def check(self, families: Optional[Iterable[str]] = None, *,
              severity: Union[str, Severity, None] = None) -> CheckResult:
        """Run the requested checker *families*; merge their diagnostics.

        With ``families=None``, runs structural, invariant, wellformed,
        lint and cross-diagram consistency checks — plus constraint
        checks when the session has constraint sets.  *severity* keeps
        only diagnostics at or above the given floor.
        """
        selected = self._resolve_families(families)
        by_family: Dict[str, List[Diagnostic]] = {}
        with (_trace.span("session.check", families=",".join(selected))
              if _trace.ON else _trace.NULL_SPAN):
            for family in selected:
                with (_trace.span(f"session.check.{family}")
                      if _trace.ON else _trace.NULL_SPAN):
                    if family == "lint":
                        by_family[family] = self._check_lint(selected)
                    else:
                        by_family[family] = getattr(
                            self, f"_check_{family}")()
        result = CheckResult(by_family)
        if _trace.ON:
            for family in selected:
                _metrics.REGISTRY.counter(
                    "session.checks", help="family runs per Session.check",
                    family=family).inc()
            for diagnostic in result.diagnostics:
                _metrics.REGISTRY.counter(
                    "session.diagnostics",
                    help="diagnostics returned, by severity",
                    severity=diagnostic.severity.value).inc()
        return result.filtered(severity)

    def _resolve_families(self,
                          families: Optional[Iterable[str]]
                          ) -> Tuple[str, ...]:
        if families is None:
            selected = DEFAULT_FAMILIES + (
                ("constraint",) if self.constraint_sets else ())
        else:
            requested = tuple(families)
            unknown = [f for f in requested if f not in FAMILIES]
            if unknown:
                raise ValueError(
                    f"unknown checker families {unknown}; "
                    f"expected a subset of {list(FAMILIES)}")
            # report in canonical order, ignoring duplicates
            selected = tuple(f for f in FAMILIES if f in requested)
        return selected

    def _active_column_store(self) -> Optional[Any]:
        """The model's column store when its fast paths may be used:
        enabled, and no dependency tracking (incremental tracking must
        observe per-element reads a bulk scan would hide)."""
        from .mof import kernel as _kernel
        store = self.model.column_store()
        if store is None or _kernel._TRACKING:
            return None
        return store

    def _check_structural(self) -> List[Diagnostic]:
        store = self._active_column_store()
        if store is not None:
            # columnar fast path: one bulk scan over the extent columns
            # flags every element that *could* carry a structural
            # diagnostic; only suspects get the per-object validator,
            # visited in the sequential walk order (clean elements emit
            # nothing, so the report is unchanged)
            suspects = store.scan_structural()
            out: List[Diagnostic] = []
            if suspects:
                for root in self.model.roots:
                    for element in [root, *root.all_contents()]:
                        if id(element) in suspects:
                            out.extend(
                                validate_element(
                                    element, check_invariants=False)
                                .diagnostics)
            return out
        out = []
        for root in self.model.roots:
            out.extend(validate_tree(root, check_invariants=False)
                       .diagnostics)
        return out

    def _check_invariant(self) -> List[Diagnostic]:
        store = self._active_column_store()
        if store is not None:
            # columnar fast path: invariants run extent-wide as row
            # plans (repro.ocl.columns); the flagged set is exact, and
            # holds() re-runs per suspect in walk order reproduce the
            # sequential diagnostics byte for byte
            from .mof.validate import _check_invariants
            from .ocl.columns import flag_registered_suspects
            flagged = flag_registered_suspects(store)
            report = ValidationReport()
            if flagged:
                for root in self.model.roots:
                    for element in [root, *root.all_contents()]:
                        if id(element) in flagged:
                            _check_invariants(element, report)
            return report.diagnostics
        out: List[Diagnostic] = []
        for root in self.model.roots:
            out.extend(validate_invariants(root).diagnostics)
        return out

    def _check_wellformed(self) -> List[Diagnostic]:
        from .uml.package import Package
        from .uml.wellformed import run_wellformed_rules
        out: List[Diagnostic] = []
        for root in self.model.roots:
            if isinstance(root, Package):
                out.extend(run_wellformed_rules(root).diagnostics)
        return out

    def _check_lint(self, selected: Tuple[str, ...] = ()
                    ) -> List[Diagnostic]:
        config = self.lint_config
        if config is None and "wellformed" in selected:
            # the wellformed family already reports the uml-* rules;
            # don't let lint's bundled bridge rule repeat them
            config = LintConfig(disabled={"uml-wellformed"})
        linter = ModelLinter(self.registry, config)
        return list(linter.lint(*self.model.roots).diagnostics)

    def _check_consistency(self) -> List[Diagnostic]:
        linter = ModelLinter(self.registry, self.lint_config,
                             families=("consistency",))
        report = linter.lint(*self.model.roots)
        if _trace.ON:
            _metrics.REGISTRY.counter(
                "analysis.consistency.runs",
                help="cross-diagram consistency passes").inc()
            for diagnostic in report.diagnostics:
                _metrics.REGISTRY.counter(
                    "analysis.consistency.findings",
                    help="cross-diagram findings by code",
                    code=diagnostic.code).inc()
        return list(report.diagnostics)

    def _check_constraint(self) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        scopes: List[Union[Model, Element]]
        if isinstance(self.scope, (Model, Element)):
            scopes = [self.scope]
        else:
            scopes = list(self.model.roots)
        for constraint_set in self.constraint_sets:
            for scope in scopes:
                out.extend(constraint_set.evaluate(scope).diagnostics)
        return out

    # -- incremental checking ----------------------------------------------

    def watch(self, families: Optional[Iterable[str]] = None, *,
              wellformed_rules: Optional[Iterable[Any]] = None):
        """An incrementally maintained :meth:`check` over this scope.

        Returns a primed :class:`~repro.incremental.IncrementalEngine`
        restricted to the requested families; after each model edit,
        ``engine.revalidate()`` re-runs only the (check, element) units
        whose recorded read set the edit touched.
        """
        from .incremental.engine import IncrementalEngine
        selected = self._resolve_families(families)
        wellformed = "wellformed" in selected
        engine = IncrementalEngine(
            self.scope,
            structural="structural" in selected,
            invariants="invariant" in selected,
            constraint_sets=(self.constraint_sets
                             if "constraint" in selected else ()),
            wellformed=wellformed,
            wellformed_rules=(list(wellformed_rules)
                              if wellformed_rules is not None and wellformed
                              else None),
            lint="lint" in selected,
            consistency="consistency" in selected,
            registry=self.registry,
            config=self.lint_config)
        engine.revalidate()
        return engine

    # -- aggregate reporting -----------------------------------------------

    def quality_report(self, root: Optional[Element] = None, **kwargs: Any):
        """The one-page quality dashboard for a root of this session
        (defaults to the sole root; see
        :func:`repro.validation.report.build_quality_report` for the
        keyword arguments)."""
        from .validation.report import build_quality_report
        if root is None:
            roots = self.model.roots
            if len(roots) != 1:
                raise ValueError(
                    f"session has {len(roots)} roots; pass root= to pick "
                    f"one")
            root = roots[0]
        return build_quality_report(root, **kwargs)

    # -- introspection ------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The session's runtime statistics document.

        The same dict the ``python -m repro stats --format json`` verb
        prints and the model server's ``stats`` verb returns per
        repository: a ``model`` block (uri, roots, element count, index
        state), the OCL compile-cache counters and the full metrics
        registry export.  Keep the three consumers as passthroughs of
        this one method so they can never drift apart.
        """
        document = runtime_stats()
        store = self.model.column_store()
        document["model"] = {
            "uri": self.model.uri,
            "roots": len(self.model.roots),
            "elements": self.model.size(),
            "index": self.model.index().stats(),
            "columns": (store.stats() if store is not None
                        else {"enabled": False}),
        }
        return document

    def __repr__(self) -> str:
        return (f"<Session model={self.model.uri!r} "
                f"roots={len(self.model.roots)} "
                f"constraint_sets={len(self.constraint_sets)}>")


def runtime_stats() -> Dict[str, Any]:
    """The model-free half of :meth:`Session.stats`: OCL cache counters
    plus the process-wide metrics registry export."""
    from .ocl.compile import cache_stats
    return {
        "ocl_cache": dict(cache_stats()),
        "metrics": _metrics.REGISTRY.to_json(),
    }
