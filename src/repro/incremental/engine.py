"""The incremental change-driven revalidation engine.

The paper's workflow is a cycle: edit the model, re-check the model.
Batch checking pays for the whole model on every edit; this engine pays
only for what the edit touched.  It decomposes validation into *check
units* — one structural check per element, one (invariant, element)
pair, one (well-formedness rule, root) pair, one (lint rule, target)
pair — runs each unit under the kernel's read instrumentation
(:mod:`repro.incremental.tracking`), and memoises both the unit's
diagnostics and its exact read set.  A change notification then
invalidates precisely the units whose last run read the changed slot;
everything else is served from cache.

Element membership comes from the model's
:class:`~repro.mof.index.ModelIndex`, which already derives enter/leave
transitions from containment-side notifications and root hooks.  The
engine walks the containment tree once, for its first build; after that
:meth:`IncrementalEngine.revalidate` applies only the transitions
recorded since the last pass — creating units for elements that entered
the scope and dropping units for elements that left — so its cost
follows the edit, not the model.  Root units are reconciled from a diff
of ``model.roots``.

Reports are assembled the same way: only units with diagnostics keep a
result entry, and each unit carries its insertion sequence, so a report
sorts those few entries into unit order instead of scanning every unit.
:meth:`IncrementalEngine.verify` recomputes membership and reports from
scratch and lists any difference.

The unit decomposition mirrors the batch checkers exactly —
``validate_tree`` (structure + registered invariants),
``uml.wellformed.run_wellformed_rules`` and ``analysis.ModelLinter`` — so
that an engine's merged report is diagnostic-for-diagnostic equal to a
from-scratch run; the property suite in
``tests/test_incremental_properties.py`` holds that equality over
thousands of random edits.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .. import faults as _faults
from ..analysis.registry import DEFAULT_REGISTRY, LintConfig, LintRule, RuleRegistry
from ..analysis.runner import LintContext
from ..mof.kernel import Element, MetaClass, Reference
from ..mof.notify import Notification
from ..mof.repository import Model
from ..mof.validate import (
    Diagnostic,
    Severity,
    ValidationReport,
    validate_element,
)
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .tracking import CONTAINER_KEY, DependencyGraph, ReadKey, collect_reads


# ---------------------------------------------------------------------------
# Check units
# ---------------------------------------------------------------------------

class _Unit:
    """One independently re-runnable check with memoised diagnostics.

    ``seq`` is the engine's insertion sequence number for the unit; it
    orders reports without a scan over every unit."""

    __slots__ = ("seq",)
    kind = "?"

    def run(self) -> List[Diagnostic]:
        raise NotImplementedError


class StructuralUnit(_Unit):
    """``validate_element`` (multiplicities, opposites, containment) for
    one element; invariants are carried by :class:`InvariantUnit`."""

    __slots__ = ("element",)
    kind = "structural"

    def __init__(self, element: Element):
        self.element = element

    def run(self) -> List[Diagnostic]:
        return validate_element(self.element,
                                check_invariants=False).diagnostics


class InvariantUnit(_Unit):
    """One (invariant, element) pair, reproducing the diagnostics of
    ``repro.mof.validate._check_invariants`` verbatim."""

    __slots__ = ("invariant", "element")
    kind = "invariant"

    def __init__(self, invariant: Any, element: Element):
        self.invariant = invariant
        self.element = element

    def run(self) -> List[Diagnostic]:
        report = ValidationReport()
        invariant = self.invariant
        try:
            passed = invariant.holds(self.element)
        except Exception as exc:  # invariant itself is broken
            report.add(Severity.ERROR, self.element,
                       f"invariant '{invariant.name}' raised: {exc}",
                       code="invariant-error")
            return report.diagnostics
        if not passed:
            report.add(invariant.severity, self.element,
                       f"invariant '{invariant.name}' violated"
                       + (f": {invariant.message}" if invariant.message
                          else ""),
                       code="invariant")
        return report.diagnostics


class WellformedUnit(_Unit):
    """One (well-formedness rule, root) pair."""

    __slots__ = ("rule", "root")
    kind = "wellformed"

    def __init__(self, rule: Any, root: Element):
        self.rule = rule
        self.root = root

    def run(self) -> List[Diagnostic]:
        report = ValidationReport()
        self.rule(self.root, report)
        return report.diagnostics


class LintUnit(_Unit):
    """One (lint rule, target) pair, applying the same config filtering
    as ``ModelLinter._emit``.

    Each run gets a fresh :class:`LintContext`; rules only use the
    context cache for per-target memoisation, so isolating them changes
    nothing but the sharing.
    """

    __slots__ = ("rule", "target", "config", "registry")
    kind = "lint"

    def __init__(self, rule: LintRule, target: Any, config: LintConfig,
                 registry: RuleRegistry):
        self.rule = rule
        self.target = target
        self.config = config
        self.registry = registry

    def run(self) -> List[Diagnostic]:
        root = self.target.root() if isinstance(self.target, Element) \
            else None
        context = LintContext(root, self.config, self.registry)
        context.current_rule = self.rule
        out: List[Diagnostic] = []
        for diagnostic in self.rule.check(self.target, context):
            if not self.config.allows(diagnostic):
                continue
            effective = self.config.effective_severity(diagnostic)
            if effective is not diagnostic.severity:
                diagnostic = replace(diagnostic, severity=effective)
            out.append(diagnostic)
        return out


class ConsistencyUnit(LintUnit):
    """One (cross-diagram ``XD`` rule, target) pair — a lint unit whose
    diagnostics report under the ``consistency`` family."""

    __slots__ = ()
    kind = "consistency"


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

@dataclass
class EngineStats:
    """Counters for observability (CLI ``watch`` prints these)."""

    notifications: int = 0     # change notifications received
    invalidations: int = 0     # units marked dirty by notifications
    unit_runs: int = 0         # units (re-)executed, lifetime
    syncs: int = 0             # membership syncs
    revalidations: int = 0     # revalidate() calls
    last_rerun: int = 0        # units re-executed by the last revalidate()
    last_skipped: int = 0      # units served from cache by it
    checker_failures: int = 0  # unit runs that raised (quarantine events)

    def summary(self) -> str:
        out = (f"units rerun/cached {self.last_rerun}/{self.last_skipped}, "
               f"lifetime runs {self.unit_runs}, "
               f"notifications {self.notifications}, "
               f"invalidations {self.invalidations}, "
               f"syncs {self.syncs}")
        if self.checker_failures:
            out += f", checker failures {self.checker_failures}"
        return out


@dataclass
class QuarantineEntry:
    """Failure isolation record for one crashing (check, element) unit.

    A unit whose ``run()`` raises does not kill the engine: the exception
    becomes an ERROR diagnostic (code ``checker-crashed``) and the unit is
    quarantined — skipped by subsequent revalidations until ``retry_at``
    (exponential backoff in revalidation passes: 1, 2, 4, ... capped at
    64).  A retry that succeeds lifts the quarantine; one that raises
    doubles the backoff.
    """

    failures: int = 0          # consecutive raising runs
    retry_at: int = 0          # stats.revalidations value when due again
    error: str = ""            # str() of the last exception

    def due(self, revalidations: int) -> bool:
        return revalidations >= self.retry_at


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

Scope = Union[Model, Element, Sequence[Element]]


class IncrementalEngine:
    """Dependency-tracked, notification-driven revalidation of one model.

    ``scope`` may be a :class:`~repro.mof.repository.Model`, a single root
    element, or a sequence of roots (the latter two are wrapped in a
    private model so that element notifications reach the engine).

    Checker families are opt-out: structural validation, registered
    metaclass invariants, extra :class:`~repro.ocl.invariants.ConstraintSet`
    groups, UML well-formedness rules (skipped for roots that are not UML
    packages) and the lint registry.  When both well-formedness and lint
    are active, the default lint config disables the ``uml-wellformed``
    meta-rule — same de-duplication as
    ``validation.report.build_quality_report``.
    The cross-diagram ``consistency`` family (the ``XD`` rules) is opt-in
    via ``consistency=True`` and runs as its own unit kind, so
    :meth:`report_by_kind` keeps the families separate.
    """

    def __init__(self, scope: Scope, *,
                 structural: bool = True,
                 invariants: bool = True,
                 constraint_sets: Iterable[Any] = (),
                 wellformed: bool = True,
                 wellformed_rules: Optional[Iterable[Any]] = None,
                 lint: bool = True,
                 consistency: bool = False,
                 registry: Optional[RuleRegistry] = None,
                 config: Optional[LintConfig] = None):
        self.model = self._resolve_scope(scope)
        self.structural = structural
        self.invariants = invariants
        self.constraint_sets = list(constraint_sets)
        if wellformed_rules is not None:
            self.wellformed_rules = list(wellformed_rules)
        elif wellformed:
            from ..uml.wellformed import ALL_RULES
            self.wellformed_rules = list(ALL_RULES)
        else:
            self.wellformed_rules = []
        self.lint = lint
        self.consistency = consistency
        self.registry = registry or DEFAULT_REGISTRY
        if config is None:
            config = LintConfig(disabled={"uml-wellformed"}
                                if self.wellformed_rules else set())
        self.config = config

        self._units: Dict[tuple, _Unit] = {}
        # non-empty results only; a unit that reports nothing has no entry
        self._results: Dict[tuple, Tuple[Diagnostic, ...]] = {}
        self._next_seq = itertools.count()
        self._kind_counts: Counter = Counter()   # unit kind -> live units
        self._deps = DependencyGraph()
        self._dirty: Set[tuple] = set()
        self._elements: Dict[int, Element] = {}
        # membership transitions since the last sync: id -> (element,
        # entered by the latest one)
        self._transitions: Dict[int, Tuple[Element, bool]] = {}
        self._built = False
        self._element_keys: Dict[int, List[tuple]] = {}
        self._root_keys: Dict[int, List[tuple]] = {}
        self._mc_counts: Dict[MetaClass, int] = {}
        self._mc_keys: Dict[MetaClass, List[tuple]] = {}
        self._external: Dict[int, Element] = {}
        self._roots_snapshot: Tuple[Element, ...] = ()
        self._structure_dirty = True
        self._quarantine: Dict[tuple, QuarantineEntry] = {}
        self._txn_listener = None
        self.stats = EngineStats()
        self.model.observe(self._on_change)
        self._index = self.model.index()
        self._index.listeners.append(self._on_membership)
        self._attached = True

    # -- lifecycle ---------------------------------------------------------

    @staticmethod
    def _resolve_scope(scope: Scope) -> Model:
        if isinstance(scope, Model):
            return scope
        if isinstance(scope, Element):
            roots = [scope]
        else:
            roots = list(scope)
            if not roots:
                raise ValueError("incremental scope needs at least one root")
        shared = getattr(roots[0], "_model", None)
        if shared is not None and all(
                getattr(root, "_model", None) is shared for root in roots):
            return shared
        model = Model(f"urn:incremental:{roots[0].eid}")
        for root in roots:
            model.add_root(root)
        return model

    def detach(self) -> None:
        """Stop observing; the caches stay readable but go stale silently."""
        if self._attached:
            self.model.unobserve(self._on_change)
            self._index.listeners.remove(self._on_membership)
            for element in self._external.values():
                element.unobserve(self._on_external_change)
            self._external.clear()
            self._attached = False
        self.unbind_transactions()

    def bind_transactions(self) -> None:
        """Revalidate once per committed outermost transaction.

        Notifications still mark units dirty as they stream in; binding
        adds a commit listener so a whole edit burst is re-checked in one
        pass when its transaction commits, instead of the caller polling.
        Rollbacks need no special casing — replayed inverses are ordinary
        notifications, so the dirty set unwinds with the model.
        """
        if self._txn_listener is not None:
            return
        from ..mof import txn as _txn

        def on_txn_commit(txn: Any, _engine=self) -> None:
            if _engine._attached and txn.op_count:
                _engine.revalidate()

        self._txn_listener = on_txn_commit
        _txn.on_commit(on_txn_commit)

    def unbind_transactions(self) -> None:
        if self._txn_listener is not None:
            from ..mof import txn as _txn
            _txn.remove_listener(self._txn_listener)
            self._txn_listener = None

    def __enter__(self) -> "IncrementalEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.detach()

    # -- unit management ---------------------------------------------------

    def _add_unit(self, key: tuple, unit: _Unit,
                  keys: List[tuple]) -> None:
        unit.seq = next(self._next_seq)
        self._units[key] = unit
        self._kind_counts[unit.kind] += 1
        self._dirty.add(key)
        keys.append(key)

    def _drop_unit(self, key: tuple) -> None:
        unit = self._units.pop(key, None)
        if unit is not None:
            self._kind_counts[unit.kind] -= 1
        self._results.pop(key, None)
        self._deps.drop(key)
        self._dirty.discard(key)
        self._quarantine.pop(key, None)

    def _element_invariants(self, element: Element) -> List[Any]:
        seen: Set[int] = set()
        found: List[Any] = []
        if self.invariants:
            for metaclass in [element.meta] + element.meta.all_superclasses():
                for invariant in metaclass.invariants:
                    if id(invariant) not in seen:
                        seen.add(id(invariant))
                        found.append(invariant)
        for constraint_set in self.constraint_sets:
            for invariant in constraint_set.invariants:
                if element.meta.conforms_to(invariant.context) \
                        and id(invariant) not in seen:
                    seen.add(id(invariant))
                    found.append(invariant)
        return found

    def _target_rules(self, target_kind: str) -> List[Tuple[LintRule, type]]:
        """(rule, unit class) pairs for the enabled rule families."""
        specs: List[Tuple[LintRule, type]] = []
        if self.lint:
            for rule in self.registry.rules(target_kind, self.config,
                                            families=("lint",)):
                specs.append((rule, LintUnit))
        if self.consistency:
            for rule in self.registry.rules(target_kind, self.config,
                                            families=("consistency",)):
                specs.append((rule, ConsistencyUnit))
        return specs

    def _add_element(self, element: Element) -> None:
        keys: List[tuple] = []
        if self.structural:
            self._add_unit(("struct", element), StructuralUnit(element), keys)
        for invariant in self._element_invariants(element):
            self._add_unit(("inv", invariant, element),
                           InvariantUnit(invariant, element), keys)
        if self.lint or self.consistency:
            from ..uml.activities import Activity
            from ..uml.interactions import Interaction
            from ..uml.statemachines import StateMachine
            target_kind = None
            if isinstance(element, StateMachine):
                target_kind = "statemachine"
            elif isinstance(element, Activity):
                target_kind = "activity"
            elif isinstance(element, Interaction):
                target_kind = "interaction"
            if target_kind is not None:
                for rule, unit_cls in self._target_rules(target_kind):
                    self._add_unit(
                        ("lint", rule.name, element),
                        unit_cls(rule, element, self.config, self.registry),
                        keys)
        for metaclass in [element.meta] + element.meta.all_superclasses():
            count = self._mc_counts.get(metaclass, 0)
            self._mc_counts[metaclass] = count + 1
            if count == 0 and (self.lint or self.consistency):
                mc_keys: List[tuple] = []
                for rule, unit_cls in self._target_rules("metaclass"):
                    self._add_unit(
                        ("lint", rule.name, metaclass),
                        unit_cls(rule, metaclass, self.config, self.registry),
                        mc_keys)
                if mc_keys:
                    self._mc_keys[metaclass] = mc_keys
        self._element_keys[id(element)] = keys

    def _remove_element(self, element_id: int, element: Element) -> None:
        for key in self._element_keys.pop(element_id, ()):
            self._drop_unit(key)
        for metaclass in [element.meta] + element.meta.all_superclasses():
            count = self._mc_counts.get(metaclass, 0) - 1
            if count <= 0:
                self._mc_counts.pop(metaclass, None)
                for key in self._mc_keys.pop(metaclass, ()):
                    self._drop_unit(key)
            else:
                self._mc_counts[metaclass] = count

    def _add_root_units(self, root: Element) -> None:
        keys: List[tuple] = []
        if self.wellformed_rules and self._is_uml_package(root):
            for rule in self.wellformed_rules:
                self._add_unit(("wf", rule, root),
                               WellformedUnit(rule, root), keys)
        for rule, unit_cls in self._target_rules("model"):
            self._add_unit(
                ("lint", rule.name, root),
                unit_cls(rule, root, self.config, self.registry), keys)
        self._root_keys[id(root)] = keys

    @staticmethod
    def _is_uml_package(root: Element) -> bool:
        from ..uml.package import Package
        return isinstance(root, Package)

    # -- membership sync ---------------------------------------------------

    def _sync_structure(self) -> None:
        self.stats.syncs += 1
        transitions, self._transitions = self._transitions, {}
        if not self._built:
            # the one full walk: preorder fixes the initial unit order
            for element in self.model.all_elements():
                if id(element) not in self._elements:
                    self._elements[id(element)] = element
                    self._add_element(element)
            self._built = True
        else:
            # every removal before any addition, as a re-walk would: a
            # metaclass whose last instance leaves while another enters
            # gets its metaclass-level units rebuilt
            entered: List[Element] = []
            for element_id, (element, inside) in transitions.items():
                if inside:
                    if element_id not in self._elements:
                        entered.append(element)
                elif element_id in self._elements:
                    del self._elements[element_id]
                    self._remove_element(element_id, element)
            for element in entered:
                self._elements[id(element)] = element
                self._add_element(element)

        old_root_ids = {id(root) for root in self._roots_snapshot}
        new_root_ids = {id(root) for root in self.model.roots}
        for root in self._roots_snapshot:
            if id(root) not in new_root_ids:
                for key in self._root_keys.pop(id(root), ()):
                    self._drop_unit(key)
        for root in self.model.roots:
            if id(root) not in old_root_ids:
                self._add_root_units(root)
        self._roots_snapshot = tuple(self.model.roots)

        # elements observed individually while outside the scope are now
        # covered by the model-level observer
        for element_id in [i for i in self._external
                           if i in self._elements]:
            self._external.pop(element_id).unobserve(self._on_external_change)
        self._structure_dirty = False

    # -- change intake -----------------------------------------------------

    def _on_membership(self, element: Element, entered: bool) -> None:
        # an index transition; the latest one per element decides at sync
        self._transitions[id(element)] = (element, entered)
        self._structure_dirty = True

    def _on_change(self, notification: Notification) -> None:
        self.stats.notifications += 1
        feature = notification.feature
        element = notification.element
        self._invalidate((element, feature.name))
        if getattr(feature, "containment", False):
            for value in (notification.old, notification.new):
                if isinstance(value, Element):
                    self._invalidate((value, CONTAINER_KEY))
        opposite = feature.opposite if isinstance(feature, Reference) \
            else None
        if opposite is not None and opposite.containment:
            self._invalidate((element, CONTAINER_KEY))

    def _on_external_change(self, notification: Notification) -> None:
        # same handling; delivered directly by an element outside the
        # containment tree (its notifications never reach our model)
        self._on_change(notification)

    def _invalidate(self, key: ReadKey) -> None:
        for unit_key in self._deps.readers(key):
            if unit_key in self._units and unit_key not in self._dirty:
                self._dirty.add(unit_key)
                self.stats.invalidations += 1

    def _note_external_reads(self, reads: Set[ReadKey]) -> None:
        for obj, _name in reads:
            if isinstance(obj, Element):
                obj_id = id(obj)
                if obj_id not in self._elements \
                        and obj_id not in self._external:
                    obj.observe(self._on_external_change)
                    self._external[obj_id] = obj

    # -- execution ---------------------------------------------------------

    #: consecutive-failure backoff cap: 2**6 = 64 revalidation passes
    _BACKOFF_CAP = 6

    def _run_unit(self, key: tuple, unit: _Unit) -> None:
        reads: Set[ReadKey] = set()
        try:
            with collect_reads(reads):
                if _faults.ACTIVE is not None:
                    _faults.probe("checker.run")
                diagnostics = unit.run()
        except Exception as exc:  # noqa: BLE001 - isolation is the point
            self._quarantine_unit(key, unit, exc, reads)
            return
        if diagnostics:
            self._results[key] = tuple(diagnostics)
        else:
            self._results.pop(key, None)
        self._deps.set_reads(key, reads)
        self._note_external_reads(reads)
        self.stats.unit_runs += 1
        if key in self._quarantine:
            del self._quarantine[key]

    def _quarantine_unit(self, key: tuple, unit: _Unit, exc: Exception,
                         reads: Set[ReadKey]) -> None:
        entry = self._quarantine.get(key)
        if entry is None:
            entry = self._quarantine[key] = QuarantineEntry()
        entry.failures += 1
        entry.error = f"{type(exc).__name__}: {exc}"
        entry.retry_at = self.stats.revalidations + \
            2 ** min(entry.failures - 1, self._BACKOFF_CAP)
        element = getattr(unit, "element", None) \
            or getattr(unit, "target", None) or getattr(unit, "root", None)
        self._results[key] = (Diagnostic(
            Severity.ERROR,
            element if isinstance(element, Element) else None,
            f"{unit.kind} checker raised and was quarantined "
            f"(failure {entry.failures}, retrying after revalidation "
            f"{entry.retry_at}): {entry.error}",
            code="checker-crashed"),)
        # keep whatever reads happened before the crash so a relevant edit
        # can re-dirty the unit even before the backoff expires
        self._deps.set_reads(key, reads)
        self._note_external_reads(reads)
        self.stats.unit_runs += 1
        self.stats.checker_failures += 1
        self._dirty.add(key)        # retried once the backoff expires
        if _trace.ON:
            _metrics.REGISTRY.counter(
                "incremental.checker.crashes",
                help="check unit runs that raised (quarantine events)",
                kind=unit.kind).inc()
            _metrics.REGISTRY.gauge(
                "incremental.quarantine.size",
                help="units currently quarantined").set(
                    len(self._quarantine))

    def quarantined(self) -> Dict[tuple, QuarantineEntry]:
        """The currently quarantined units (unit key -> entry), live."""
        return dict(self._quarantine)

    def quarantine_report(self) -> List[str]:
        """Human-readable one-liners for each quarantined unit."""
        out = []
        for key, entry in sorted(self._quarantine.items(),
                                 key=lambda item: -item[1].failures):
            unit = self._units.get(key)
            kind = unit.kind if unit is not None else "?"
            out.append(f"[{kind}] {key[-1] if key else '?'}: "
                       f"{entry.error} (failures {entry.failures}, "
                       f"retry at pass {entry.retry_at})")
        return out

    def revalidate(self) -> ValidationReport:
        """Bring every cached result up to date; return the merged report.

        When the observability layer is on, each pass is wrapped in an
        ``incremental.revalidate`` span and the cache hit/miss balance
        feeds the ``incremental.units.*`` counters.
        """
        if not _trace.ON:
            return self._revalidate_impl()
        with _trace.span("incremental.revalidate") as sp:
            report = self._revalidate_impl()
        sp.tag(rerun=self.stats.last_rerun, cached=self.stats.last_skipped)
        registry = _metrics.REGISTRY
        registry.counter(
            "incremental.revalidations",
            help="revalidation passes").inc()
        registry.counter(
            "incremental.units.rerun",
            help="check units re-run (cache misses)").inc(
                self.stats.last_rerun)
        registry.counter(
            "incremental.units.cached",
            help="check units served from cache (hits)").inc(
                self.stats.last_skipped)
        return report

    def _revalidate_impl(self) -> ValidationReport:
        self.stats.revalidations += 1
        if self._structure_dirty:
            self._sync_structure()
        dirty, self._dirty = self._dirty, set()
        rerun = 0
        for key in dirty:
            unit = self._units.get(key)
            if unit is None:
                continue
            entry = self._quarantine.get(key)
            if entry is not None and not entry.due(self.stats.revalidations):
                # backing off: stays pending without re-running
                self._dirty.add(key)
                continue
            self._run_unit(key, unit)
            rerun += 1
        self.stats.last_rerun = rerun
        self.stats.last_skipped = len(self._units) - rerun
        return self.report()

    def recompute_from_scratch(self) -> ValidationReport:
        """Run every unit afresh, ignoring and not touching the caches.

        This is the engine's own from-scratch baseline: identical unit
        decomposition, zero memoisation — what a benchmark should compare
        :meth:`revalidate` against.
        """
        if self._structure_dirty:
            self._sync_structure()
        report = ValidationReport()
        for unit in self._units.values():
            report.diagnostics.extend(unit.run())
        return report

    # -- results -----------------------------------------------------------

    def _result_keys(self) -> List[tuple]:
        """The keys of the non-empty results, in unit insertion order."""
        units = self._units
        return sorted(self._results, key=lambda key: units[key].seq)

    def report(self) -> ValidationReport:
        """The merged cached diagnostics of every unit (no recomputation)."""
        report = ValidationReport()
        for key in self._result_keys():
            report.diagnostics.extend(self._results[key])
        return report

    def report_by_kind(self) -> Dict[str, ValidationReport]:
        """Cached diagnostics split per checker family (unit ``kind``);
        every kind that has units is present, even with no diagnostics."""
        out = {kind: ValidationReport()
               for kind, count in self._kind_counts.items() if count}
        for key in self._result_keys():
            out[self._units[key].kind].diagnostics.extend(self._results[key])
        return out

    def check_result(self):
        """Cached diagnostics as a :class:`repro.session.CheckResult`.

        Unit kinds map one-to-one onto the session's checker families
        (extra :class:`~repro.ocl.invariants.ConstraintSet` invariants
        run as ``invariant`` units and report there), so a watching
        client renders server-pushed documents with the same renderer a
        batch ``Session.check`` uses.
        """
        from ..session import FAMILIES, CheckResult
        kinds = self.report_by_kind()
        return CheckResult({
            family: list(kinds[family].diagnostics)
            for family in FAMILIES if family in kinds})

    def unit_count(self) -> int:
        return len(self._units)

    def verify(self) -> List[str]:
        """Compare membership and reports against a recomputation from
        scratch; return a list of discrepancies (empty when consistent).

        Meant to run right after :meth:`revalidate`: edits made since
        then are not yet applied and show up as discrepancies.
        """
        walked = {id(element): element
                  for element in self.model.all_elements()}
        problems = [f"missing from engine: {element!r}"
                    for key, element in walked.items()
                    if key not in self._elements]
        problems += [f"stale in engine: {element!r}"
                     for key, element in self._elements.items()
                     if key not in walked]
        roots = {id(root): root for root in self.model.roots}
        problems += [f"root without units: {root!r}"
                     for key, root in roots.items()
                     if key not in self._root_keys]
        problems += [f"units for a removed root: id {key}"
                     for key in self._root_keys if key not in roots]
        orphans = [key for key in self._results if key not in self._units]
        problems += [f"result kept for a dropped unit: {key!r}"
                     for key in orphans]
        problems += [f"empty result kept: {key!r}"
                     for key, diagnostics in self._results.items()
                     if not diagnostics]
        if orphans:
            return problems     # the report scan below needs every unit
        # the reference: a scan of every unit, in unit order
        scanned: List[Diagnostic] = []
        by_kind: Dict[str, List[Diagnostic]] = {}
        for key, unit in self._units.items():
            diagnostics = self._results.get(key, ())
            scanned.extend(diagnostics)
            by_kind.setdefault(unit.kind, []).extend(diagnostics)
        if list(map(id, self.report().diagnostics)) != list(map(id, scanned)):
            problems.append("report() differs from the scan of every unit")
        split = {kind: list(map(id, report.diagnostics))
                 for kind, report in self.report_by_kind().items()}
        if split != {kind: list(map(id, found))
                     for kind, found in by_kind.items()}:
            problems.append(
                "report_by_kind() differs from the scan of every unit")
        return problems

    def __repr__(self) -> str:
        return (f"<IncrementalEngine model={self.model.uri!r} "
                f"units={len(self._units)} dirty={len(self._dirty)}>")


# ---------------------------------------------------------------------------
# Comparison helpers (the property suite's oracle interface)
# ---------------------------------------------------------------------------

def diagnostic_key(diagnostic: Diagnostic) -> tuple:
    """A hashable identity for one diagnostic: everything observable except
    object addresses — plus the element's identity, because two elements
    may legitimately yield identical text."""
    feature = diagnostic.feature
    return (diagnostic.code,
            diagnostic.severity.value,
            id(diagnostic.element),
            diagnostic.message,
            diagnostic.path,
            feature.name if feature is not None else None,
            diagnostic.hint,
            id(diagnostic.related) if diagnostic.related is not None
            else None,
            diagnostic.related_path)


def report_signature(report: ValidationReport) -> Counter:
    """Order-insensitive multiset signature of a report's diagnostics."""
    return Counter(diagnostic_key(d) for d in report.diagnostics)


def watch(scope: Scope, **kwargs: Any) -> IncrementalEngine:
    """Create an engine over *scope* and prime its caches."""
    engine = IncrementalEngine(scope, **kwargs)
    engine.revalidate()
    return engine
