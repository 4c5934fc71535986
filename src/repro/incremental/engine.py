"""The incremental change-driven revalidation engine.

The paper's workflow is a cycle: edit the model, re-check the model.
Batch checking pays for the whole model on every edit; this engine pays
only for what the edit touched.  It decomposes validation into *check
units* — one structural check per element, one (invariant, element)
pair, one (constraint set, invariant, element) triple, one
(well-formedness rule, root) pair, one (lint or consistency rule,
target) pair — runs each unit under the kernel's read instrumentation
(:mod:`repro.incremental.tracking`), and memoises both the unit's
diagnostics and its exact read set.  A change notification then
invalidates precisely the units whose last run read the changed slot;
everything else is served from cache.

Two dependencies are left out of the read sets, because the engine
learns of their changes anyway.  A structural unit depends on its own
element: every notification of the element, and every re-entry of it
into the model, dirties the unit directly (see :class:`StructuralUnit`).
An invariant depends on its element's root: the invariant records one
read, the element's own container, and a root changes only when the
element leaves or enters the model, which reruns every reader of that
container (see ``Invariant._holds_impl``).

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
result entry, and each unit's key maps to its insertion sequence, so a
report sorts those few entries into unit order, once per change of the
result set, instead of scanning every unit.  Each diagnostic's wire
record is rendered inside its unit's tracked run, so a served check
document is spliced from records that go stale only with their units.
:meth:`IncrementalEngine.verify` recomputes membership, reports and
records from scratch and lists any difference; with ``rerun=True`` it
also reruns every unit.

The unit decomposition mirrors the batch checkers exactly —
``validate_tree`` (structure + registered invariants),
``ConstraintSet.evaluate``, ``uml.wellformed.run_wellformed_rules`` and
``analysis.ModelLinter`` — so that each family of an engine's report is
diagnostic-for-diagnostic equal to a from-scratch run; the property
suite in ``tests/test_incremental_properties.py`` holds that equality
over thousands of random edits.  :meth:`repro.session.Session.watch`
builds every engine, and its session decides what each selected family
runs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import (Any, Dict, Iterable, List, NamedTuple, Optional, Set,
                    Tuple)

from .. import faults as _faults
from ..analysis.registry import FAMILIES as RULE_FAMILIES
from ..analysis.registry import LintConfig, LintRule, RuleRegistry
from ..analysis.runner import LintContext, element_target
from ..mof.index import walk
from ..mof.kernel import Element, MetaClass, Reference
from ..mof.notify import ChangeKind, Notification
from ..mof.validate import (
    Diagnostic,
    Severity,
    ValidationReport,
    _check_multiplicities,
    audit_links,
    check_invariant,
)
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..session import CheckResult, Session, encode_record
from ..uml.package import Package
from ..uml.wellformed import ALL_RULES as WELLFORMED_RULES
from .tracking import (CONTAINER_KEY, EXTENT_KEY, DependencyGraph, ReadKey,
                       ReadCollector, untracked)


# ---------------------------------------------------------------------------
# Check units
# ---------------------------------------------------------------------------

class _Unit:
    """The runnable form of one check unit.

    A unit is its key: a tag naming the check, then what it checks
    (``("inv", invariant, element)``).  The engine keeps the unit's
    insertion sequence number under that key, and makes this runnable
    form afresh for each run (``IncrementalEngine._unit``), so a view
    holds no object per unit, nearly all of its units being structural
    and invariant ones.  A lint unit's key names its rule only by name,
    so the engine keeps those few units' objects."""

    __slots__ = ()
    kind = "?"

    def run(self) -> List[Diagnostic]:
        raise NotImplementedError

    def run_into(self, collector: ReadCollector) -> List[Diagnostic]:
        """Run the check with its reads going to *collector*, and render
        each diagnostic's wire record there too: the names a record
        shows join the unit's reads, so a write that changes the record
        reruns the unit."""
        with collector:
            diagnostics = self.run()
            for diagnostic in diagnostics:
                diagnostic._record = encode_record(diagnostic)
        return diagnostics


#: the checks of a structural unit, in the full pass's order
_STRUCTURAL_CHECKS = (_check_multiplicities, audit_links)


class StructuralUnit(_Unit):
    """``validate_element`` (multiplicities, opposites, containment) for
    one element; invariants are carried by :class:`InvariantUnit`.

    Both checks run with the engine's collector off (no read hook of
    its own, no tracking depth: they read the element's own slots and
    links directly and take no bulk fast path), so a unit that reports
    nothing costs what the full pass pays for it and records no read.
    Its dependency is implicit instead: the multiplicity check
    reads only the element's own slots, and no kernel edit can break one
    of the element's links or children (the audits,
    :func:`~repro.mof.validate.audit_links`) without writing one of
    those slots.  Every such write notifies the element, and the engine
    dirties the unit directly on every notification of its element.  A
    write made while the element was outside the model notifies no one,
    but the sync that sees the element back dirties the unit the same
    way.  Raw damage done after the unit ran notifies no one and is the
    full pass's to find.  A check that reports something runs again
    inside the collector, so the reads behind its diagnostics (the names
    their ``path`` renders among them) are recorded and a later repair or
    rename reruns the unit."""

    __slots__ = ("element",)
    kind = "structural"

    def __init__(self, key: tuple):
        _tag, self.element = key

    def run(self) -> List[Diagnostic]:
        report = ValidationReport()
        for check in _STRUCTURAL_CHECKS:
            check(self.element, report)
        return report.diagnostics

    def run_into(self, collector: ReadCollector) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        report = ValidationReport()
        for check in _STRUCTURAL_CHECKS:
            check(self.element, report)
            if report.diagnostics:
                report.diagnostics = []
                with collector:
                    check(self.element, report)
                    for diagnostic in report.diagnostics:
                        diagnostic._record = encode_record(diagnostic)
                diagnostics += report.diagnostics
                report.diagnostics = []
        return diagnostics


class InvariantUnit(_Unit):
    """One (invariant, element) pair, reported by
    :func:`repro.mof.validate.check_invariant` as the full pass does."""

    __slots__ = ("invariant", "element")
    kind = "invariant"

    def __init__(self, key: tuple):
        _tag, self.invariant, self.element = key

    def run(self) -> List[Diagnostic]:
        report = ValidationReport()
        check_invariant(self.invariant, self.element, report)
        return report.diagnostics


class ConstraintUnit(InvariantUnit):
    """One invariant of a :class:`~repro.ocl.invariants.ConstraintSet` on
    one conforming element, as ``Session._check_constraint`` evaluates
    it; it reports under the ``constraint`` family."""

    __slots__ = ()
    kind = "constraint"

    def __init__(self, key: tuple):
        _tag, _constraint_set, self.invariant, self.element = key


class WellformedUnit(_Unit):
    """One (well-formedness rule, root) pair."""

    __slots__ = ("rule", "root")
    kind = "wellformed"

    def __init__(self, key: tuple):
        _tag, self.rule, self.root = key

    def run(self) -> List[Diagnostic]:
        report = ValidationReport()
        self.rule(self.root, report)
        return report.diagnostics


class LintUnit(_Unit):
    """One (rule, target) pair of the ``lint`` or ``consistency`` rule
    family; it reports under its rule's family, filtered by
    :meth:`~repro.analysis.registry.LintConfig.admit` as
    ``ModelLinter`` filters it.

    Each run gets a fresh :class:`LintContext`; rules only use the
    context cache for per-target memoisation, so isolating them changes
    nothing but the sharing.
    """

    __slots__ = ("rule", "target", "config", "registry", "kind")

    def __init__(self, rule: LintRule, target: Any, config: LintConfig,
                 registry: RuleRegistry):
        self.rule = rule
        self.target = target
        self.config = config
        self.registry = registry
        self.kind = rule.family

    def run(self) -> List[Diagnostic]:
        root = self.target.root() if isinstance(self.target, Element) \
            else None
        context = LintContext(root, self.config, self.registry)
        context.current_rule = self.rule
        admitted = map(self.config.admit, self.rule.check(self.target,
                                                          context))
        return [diagnostic for diagnostic in admitted
                if diagnostic is not None]


#: unit key tag -> the runnable form, made from the key
_UNIT_TYPES = {"struct": StructuralUnit, "inv": InvariantUnit,
               "con": ConstraintUnit, "wf": WellformedUnit}


class _Plan(NamedTuple):
    """What each instance of one metaclass gets from a sync, computed
    once per metaclass per sync: the metaclasses whose instance counts
    it moves (itself first, then every superclass), and its units' key
    prefixes in unit order, each with its rule for a lint unit (else
    None).  An element keeps the plan its units were made from, so
    leaving drops exactly those units."""

    metaclasses: Tuple[MetaClass, ...]
    units: Tuple[Tuple[tuple, Optional[LintRule]], ...]


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

class IncrementalEngine:
    """Dependency-tracked, notification-driven revalidation of one
    session's model, over one selection of its checker families.

    :meth:`repro.session.Session.watch` builds and primes one.  The
    session decides everything about the selected *families* (``None``
    for its default selection): which families they are, in which
    order, and what each runs, from its constraint sets, its rule
    registry and its lint config.  Each family runs as
    its own unit kind (well-formedness rules only for roots that are
    UML packages), so :meth:`check_result` lists the families
    :meth:`~repro.session.Session.check` lists.
    """

    def __init__(self, session: Session,
                 families: Optional[Iterable[str]]):
        self.model = session.model
        self.families = families = session._resolve_families(families)
        self.structural = "structural" in families
        self.invariants = "invariant" in families
        self.constraint_sets = (session.constraint_sets
                                if "constraint" in families else [])
        self.wellformed = "wellformed" in families
        self.rule_families = [family for family in RULE_FAMILIES
                              if family in families]
        self.registry = session.registry
        self.config = session.lint_config

        # unit key -> insertion sequence number (see _Unit)
        self._units: Dict[tuple, int] = {}
        self._lint_units: Dict[tuple, LintUnit] = {}
        # non-empty results only; a unit that reports nothing has no entry
        self._results: Dict[tuple, Tuple[Diagnostic, ...]] = {}
        # the keys of _results in unit order; None once a key came or went
        self._ordered: Optional[List[tuple]] = None
        self._next_seq = itertools.count()
        self._deps = DependencyGraph()
        self._dirty: Set[tuple] = set()
        self._elements: Dict[int, Element] = {}
        # membership transitions since the last sync: id -> (element,
        # entered by the latest one)
        self._transitions: Dict[int, Tuple[Element, bool]] = {}
        self._built = False
        # element id -> the plan its units were made from
        self._element_plans: Dict[int, _Plan] = {}
        self._root_keys: Dict[int, List[tuple]] = {}
        self._mc_counts: Dict[MetaClass, int] = {}
        self._mc_keys: Dict[MetaClass, List[tuple]] = {}
        # elements outside the scope that some unit's last run read,
        # observed one by one: the elements each unit read, and per
        # element the number of units that read it
        self._external: Dict[int, Element] = {}
        self._external_reads: Dict[tuple, Dict[int, Element]] = {}
        self._external_readers: Counter = Counter()
        self._roots_snapshot: Tuple[Element, ...] = ()
        self._structure_dirty = True
        self._quarantine: Dict[tuple, QuarantineEntry] = {}
        self.stats = EngineStats()
        self._collector = ReadCollector()
        self.model.observe(self._on_change)
        self._index = self.model.index()
        self._index.listeners.append(self._on_membership)
        self._attached = True

    # -- lifecycle ---------------------------------------------------------

    def detach(self) -> None:
        """Stop observing; the caches stay readable but go stale silently."""
        if self._attached:
            self.model.unobserve(self._on_change)
            self._index.listeners.remove(self._on_membership)
            for element in self._external.values():
                element.unobserve(self._on_external_change)
            self._external.clear()
            self._external_reads.clear()
            self._external_readers.clear()
            self._attached = False

    def __enter__(self) -> "IncrementalEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.detach()

    # -- unit management ---------------------------------------------------

    def _add_unit(self, key: tuple) -> None:
        self._units[key] = next(self._next_seq)
        self._dirty.add(key)

    def _unit(self, key: tuple) -> _Unit:
        """The runnable form of unit *key* (see :class:`_Unit`)."""
        unit_type = _UNIT_TYPES.get(key[0])
        if unit_type is None:
            return self._lint_units[key]
        return unit_type(key)

    def _kind(self, key: tuple) -> str:
        """The family unit *key* reports under."""
        unit_type = _UNIT_TYPES.get(key[0])
        if unit_type is None:
            return self._lint_units[key].kind
        return unit_type.kind

    def _drop_unit(self, key: tuple) -> None:
        self._units.pop(key, None)
        if key[0] == "lint":
            self._lint_units.pop(key, None)
        if self._results.pop(key, None) is not None:
            self._ordered = None
        self._deps.drop(key)
        for element_id in self._external_reads.pop(key, ()):
            self._release_external(element_id)
        self._dirty.discard(key)
        self._quarantine.pop(key, None)

    def _add_lint_units(self, target: Any, target_kind: str,
                        keys: List[tuple]) -> None:
        """A unit per rule of the selected rule families for *target*."""
        for rule in self.registry.rules(target_kind, self.config,
                                        families=self.rule_families):
            key = ("lint", rule.name, target)
            self._add_lint_unit(key, rule)
            keys.append(key)

    def _add_lint_unit(self, key: tuple, rule: LintRule) -> None:
        self._lint_units[key] = LintUnit(rule, key[2], self.config,
                                         self.registry)
        self._add_unit(key)

    def _plan(self, element: Element) -> _Plan:
        """The plan of *element*'s metaclass (see :class:`_Plan`)."""
        meta = element.meta
        metaclasses = (meta, *meta.all_superclasses())
        units: List[Tuple[tuple, Optional[LintRule]]] = []
        if self.structural:
            units.append((("struct",), None))
        if self.invariants:
            seen: Set[int] = set()
            for metaclass in metaclasses:
                for invariant in metaclass.invariants:
                    if id(invariant) not in seen:
                        seen.add(id(invariant))
                        units.append((("inv", invariant), None))
        for constraint_set in self.constraint_sets:
            for invariant in constraint_set.invariants:
                if meta.conforms_to(invariant.context):
                    units.append((("con", constraint_set, invariant), None))
        if self.rule_families:
            # a metaclass has one Python class, so its instances share
            # a target kind
            target_kind = element_target(element)
            if target_kind is not None:
                units += [(("lint", rule.name), rule)
                          for rule in self.registry.rules(
                              target_kind, self.config,
                              families=self.rule_families)]
        return _Plan(metaclasses, tuple(units))

    def _add_element(self, element: Element,
                     plans: Dict[MetaClass, _Plan]) -> None:
        plan = plans.get(element.meta)
        if plan is None:
            plan = plans[element.meta] = self._plan(element)
        units, dirty, seq = self._units, self._dirty, self._next_seq
        tail = (element,)
        for prefix, rule in plan.units:
            key = prefix + tail
            if rule is None:
                # _add_unit, inline: a build adds nearly every unit here
                units[key] = next(seq)
                dirty.add(key)
            else:
                self._add_lint_unit(key, rule)
        counts = self._mc_counts
        for metaclass in plan.metaclasses:
            count = counts.get(metaclass, 0)
            counts[metaclass] = count + 1
            if count == 0 and self.rule_families:
                mc_keys: List[tuple] = []
                self._add_lint_units(metaclass, "metaclass", mc_keys)
                if mc_keys:
                    self._mc_keys[metaclass] = mc_keys
        self._element_plans[id(element)] = plan

    def _remove_element(self, element_id: int, element: Element) -> None:
        plan = self._element_plans.pop(element_id)
        tail = (element,)
        for prefix, _rule in plan.units:
            self._drop_unit(prefix + tail)
        for metaclass in plan.metaclasses:
            count = self._mc_counts.get(metaclass, 0) - 1
            if count <= 0:
                self._mc_counts.pop(metaclass, None)
                for key in self._mc_keys.pop(metaclass, ()):
                    self._drop_unit(key)
            else:
                self._mc_counts[metaclass] = count

    def _add_root_units(self, root: Element) -> None:
        keys: List[tuple] = []
        if self.wellformed and isinstance(root, Package):
            for rule in WELLFORMED_RULES:
                key = ("wf", rule, root)
                self._add_unit(key)
                keys.append(key)
        self._add_lint_units(root, "model", keys)
        self._root_keys[id(root)] = keys

    # -- membership sync ---------------------------------------------------

    def _sync_structure(self) -> None:
        self.stats.syncs += 1
        transitions, self._transitions = self._transitions, {}
        # computed afresh by each sync, so a plan sees the invariants and
        # rules registered at the time
        plans: Dict[MetaClass, _Plan] = {}
        if not self._built:
            # the one full walk: preorder fixes the initial unit order
            for element in self.model.all_elements():
                if id(element) not in self._elements:
                    self._elements[id(element)] = element
                    self._add_element(element, plans)
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
                    else:
                        # left and came back since the last sync: a write
                        # made while it was outside reached no model
                        self._invalidate_readers_of(element)
                elif element_id in self._elements:
                    del self._elements[element_id]
                    self._remove_element(element_id, element)
                    self._invalidate_readers_of(element)
            for element in entered:
                self._elements[id(element)] = element
                self._add_element(element, plans)

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
        # an index transition; the latest one per element decides at sync.
        # An element that leaves before the engine ever had it needs no
        # sync, and keeping its transition would keep it alive until one.
        if entered or id(element) in self._elements:
            self._transitions[id(element)] = (element, entered)
        else:
            self._transitions.pop(id(element), None)
        self._structure_dirty = True
        self._invalidate_extents(element)

    def _invalidate_extents(self, element: Element) -> None:
        # every instance query whose answer holds *element* read the
        # extent of its metaclass or of one of the superclasses
        meta = element.meta
        self._invalidate((meta, EXTENT_KEY))
        for metaclass in meta.all_superclasses():
            self._invalidate((metaclass, EXTENT_KEY))

    def _invalidate_readers_of(self, element: Element) -> None:
        # a unit that read an element which has since left the scope must
        # rerun: its rerun reads the element while outside, so the element
        # is observed on its own and later writes to it reach the engine.
        # An element back since the last sync also reruns its structural
        # unit, which records no read of it.
        self._invalidate_structural(element)
        for name in element.meta.all_features():
            self._invalidate((element, name))
        self._invalidate((element, CONTAINER_KEY))

    def _invalidate_structural(self, element: Element) -> None:
        # the implicit dependency of a structural unit (StructuralUnit):
        # any notification of its element, and any re-entry, dirties it
        key = ("struct", element)
        if key in self._units and key not in self._dirty:
            self._dirty.add(key)
            self.stats.invalidations += 1

    def _on_change(self, notification: Notification) -> None:
        self.stats.notifications += 1
        feature = notification.feature
        element = notification.element
        self._invalidate_structural(element)
        self._invalidate((element, feature.name))
        if getattr(feature, "containment", False):
            for value in (notification.old, notification.new):
                if isinstance(value, Element):
                    self._invalidate((value, CONTAINER_KEY))
            if notification.kind is ChangeKind.MOVE \
                    and isinstance(notification.new, Element):
                # a reordering changes no membership, but it changes the
                # preorder position of the moved subtree
                for moved in walk(notification.new):
                    self._invalidate_extents(moved)
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

    def _note_external_reads(self, key: tuple, reads: Set[ReadKey]) -> None:
        elements = self._elements
        found: Dict[int, Element] = {}
        # nearly every read names an element inside the scope: the scan
        # for the others starts only at the first read that does not
        for obj, _name in reads:
            if id(obj) not in elements:
                found = {id(obj): obj for obj, _name in reads
                         if id(obj) not in elements
                         and isinstance(obj, Element)}
                break
        previous = self._external_reads.pop(key, None) \
            if self._external_reads else None
        if found:
            self._external_reads[key] = found
            for obj_id, obj in found.items():
                if previous is None or obj_id not in previous:
                    self._external_readers[obj_id] += 1
                if obj_id not in self._external:
                    obj.observe(self._on_external_change)
                    self._external[obj_id] = obj
        if previous:
            for obj_id in previous.keys() - found.keys():
                self._release_external(obj_id)

    def _release_external(self, element_id: int) -> None:
        # one unit fewer reads the element; after the last one no read
        # key names it, so its changes can invalidate nothing
        readers = self._external_readers
        readers[element_id] -= 1
        if readers[element_id] == 0:
            del readers[element_id]
            element = self._external.pop(element_id, None)
            if element is not None:
                element.unobserve(self._on_external_change)

    # -- execution ---------------------------------------------------------

    #: consecutive-failure backoff cap: 2**6 = 64 revalidation passes
    _BACKOFF_CAP = 6

    def _run_unit(self, key: tuple) -> None:
        unit = self._unit(key)
        reads = self._collector.reads
        reads.clear()
        try:
            if _faults.ACTIVE is not None:
                _faults.probe("checker.run")
            diagnostics = unit.run_into(self._collector)
        except Exception as exc:  # noqa: BLE001 - isolation is the point
            self._quarantine_unit(key, unit, exc, reads)
            return
        if diagnostics:
            if key not in self._results:
                self._ordered = None
            self._results[key] = tuple(diagnostics)
        elif self._results.pop(key, None) is not None:
            self._ordered = None
        self._deps.set_reads(key, reads)
        if reads or self._external_reads:
            self._note_external_reads(key, reads)
        self.stats.unit_runs += 1
        if self._quarantine:
            self._quarantine.pop(key, None)

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
        if key not in self._results:
            self._ordered = None
        # built outside any tracked run, so its record is not memoized:
        # the document renders it afresh every time
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
        self._note_external_reads(key, reads)
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
            kind = self._kind(key) if key in self._units else "?"
            out.append(f"[{kind}] {key[-1] if key else '?'}: "
                       f"{entry.error} (failures {entry.failures}, "
                       f"retry at pass {entry.retry_at})")
        return out

    def revalidate(self) -> None:
        """Bring every cached result up to date (read them with
        :meth:`report` or :meth:`check_result`).

        When the observability layer is on, each pass is wrapped in an
        ``incremental.revalidate`` span and the cache hit/miss balance
        feeds the ``incremental.units.*`` counters.
        """
        if not _trace.ON:
            self._revalidate_impl()
            return
        with _trace.span("incremental.revalidate") as sp:
            self._revalidate_impl()
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

    def _revalidate_impl(self) -> None:
        self.stats.revalidations += 1
        if self._structure_dirty:
            self._sync_structure()
        dirty, self._dirty = self._dirty, set()
        units, quarantine = self._units, self._quarantine
        rerun = 0
        # dirty keys are always units, so equal sizes mean every unit is
        # dirty, as after a build: then they run in unit order, each
        # element's units one after another over data still in cache
        pending = units if len(dirty) == len(units) else [
            key for key in dirty if key in units]
        for key in pending:
            entry = quarantine.get(key) if quarantine else None
            if entry is not None and not entry.due(self.stats.revalidations):
                # backing off: stays pending without re-running
                self._dirty.add(key)
                continue
            self._run_unit(key)
            rerun += 1
        self.stats.last_rerun = rerun
        self.stats.last_skipped = len(self._units) - rerun

    def recompute_from_scratch(self) -> ValidationReport:
        """Run every unit afresh, ignoring and not touching the caches.

        This is the engine's own from-scratch baseline: identical unit
        decomposition, zero memoisation — what a benchmark should compare
        :meth:`revalidate` against.
        """
        if self._structure_dirty:
            self._sync_structure()
        report = ValidationReport()
        for key in self._units:
            report.diagnostics.extend(self._unit(key).run())
        return report

    # -- results -----------------------------------------------------------

    def _result_keys(self) -> List[tuple]:
        """The keys of the non-empty results, in unit insertion order;
        sorted again only after a key came or went."""
        if self._ordered is None:
            self._ordered = sorted(self._results,
                                   key=self._units.__getitem__)
        return self._ordered

    def report(self) -> ValidationReport:
        """The merged cached diagnostics of every unit (no recomputation)."""
        report = ValidationReport()
        for key in self._result_keys():
            report.diagnostics.extend(self._results[key])
        return report

    def check_result(self) -> CheckResult:
        """Cached diagnostics as a :class:`repro.session.CheckResult`
        with one list per selected family, in the session's family
        order and empty where a family found nothing, so a watching
        client renders server-pushed documents with the same renderer,
        and the same families, as a batch ``Session.check``."""
        by_family: Dict[str, List[Diagnostic]] = {
            family: [] for family in self.families}
        results = self._results
        for key in self._result_keys():
            by_family[self._kind(key)].extend(results[key])
        return CheckResult(by_family)

    def unit_count(self) -> int:
        return len(self._units)

    def index_size(self) -> Dict[str, int]:
        """The dependency index's size: units with recorded reads,
        distinct read keys, and (unit, key) edges."""
        deps = self._deps
        return {"units": len(deps), "keys": deps.key_count(),
                "edges": deps.edge_count()}

    def verify(self, rerun: bool = False) -> List[str]:
        """Compare membership, reports and memoized records against a
        recomputation from scratch and audit the dependency index
        (:meth:`DependencyGraph.verify`); return a list of discrepancies
        (empty when consistent).

        The reports are compared with the units' cached results, so a
        unit that should have rerun and did not goes unseen.  With
        *rerun* (for tests: it costs a build) every unit also runs
        again, through the engine's own unit code into a scratch
        collector, and each unit whose diagnostics, records or read set
        differ from what the engine keeps is listed; the index, the
        results and :attr:`stats` stay untouched.

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
        problems += [f"lint unit kept for a dropped unit: {key!r}"
                     for key in self._lint_units if key not in self._units]
        orphans = [key for key in self._results if key not in self._units]
        problems += [f"result kept for a dropped unit: {key!r}"
                     for key in orphans]
        problems += [f"empty result kept: {key!r}"
                     for key, diagnostics in self._results.items()
                     if not diagnostics]
        # a fresh render reads names; muted, it records nothing
        with untracked():
            problems += [f"stale record for {key!r}: {diagnostic._record}"
                         for key, diagnostics in self._results.items()
                         for diagnostic in diagnostics
                         if diagnostic._record is not None
                         and diagnostic._record != encode_record(diagnostic)]
        problems += self._deps.verify(self._units)
        named = {id(obj) for key in self._units
                 for obj, _name in self._deps.reads(key)}
        problems += [f"observed with no read naming it: {element!r}"
                     for key, element in self._external.items()
                     if key not in named]
        if self._external_readers != Counter(
                element_id for found in self._external_reads.values()
                for element_id in found):
            problems.append("external reader counts differ from the "
                            "units' recorded external reads")
        if rerun:
            problems += self._rerun_problems()
        if orphans:
            return problems     # the report scan below needs every unit
        # the reference: a scan of every unit, in unit order
        scanned: List[Diagnostic] = []
        by_family: Dict[str, List[int]] = {
            family: [] for family in self.families}
        for key in self._units:
            diagnostics = self._results.get(key, ())
            scanned.extend(diagnostics)
            by_family[self._kind(key)].extend(map(id, diagnostics))
        if list(map(id, self.report().diagnostics)) != list(map(id, scanned)):
            problems.append("report() differs from the scan of every unit")
        split = {family: list(map(id, diagnostics)) for family, diagnostics
                 in self.check_result().by_family.items()}
        if split != by_family:
            problems.append(
                "check_result() differs from the scan of every unit")
        return problems

    def _rerun_problems(self) -> List[str]:
        """Each unit whose rerun disagrees with its cached result or its
        recorded reads (see :meth:`verify`).  A quarantined unit keeps
        its crash report instead of a result, so it is skipped."""
        problems: List[str] = []
        scratch = ReadCollector()
        for key in self._units:
            if key in self._quarantine:
                continue
            scratch.reads.clear()
            try:
                fresh = self._unit(key).run_into(scratch)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                problems.append(f"rerun of {key!r} raised {exc!r}")
                continue
            cached = self._results.get(key, ())
            if list(map(diagnostic_key, fresh)) != \
                    list(map(diagnostic_key, cached)):
                problems.append(f"stale result for {key!r}: cached "
                                f"{len(cached)}, a rerun reports "
                                f"{len(fresh)}")
            elif [d._record for d in fresh] != [d._record for d in cached]:
                problems.append(f"stale records for {key!r}")
            if frozenset(scratch.reads) != self._deps.reads(key):
                problems.append(f"stale reads for {key!r}: a rerun reads "
                                f"{len(scratch.reads)} keys, the index "
                                f"holds {len(self._deps.reads(key))}")
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
