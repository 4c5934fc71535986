"""Structural validation of models against their metamodels.

Mutation-time checks (type conformance, upper bounds, containment cycles)
are enforced eagerly by the kernel; this module performs the *whole-model*
checks that can only be decided once construction is finished: lower bounds,
required attributes, opposite integrity, and single-container discipline —
plus any OCL invariants registered on the metaclasses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional

from .kernel import Attribute, Element, Feature, Reference


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


def model_path(element: Any) -> str:
    """A stable, human-readable location of *element* in its model: the
    containment chain of names (metaclass name where unnamed), joined
    with ``/``.  Works for any kernel element; non-elements yield ""."""
    if not isinstance(element, Element):
        return ""
    parts: List[str] = []
    node: Optional[Element] = element
    while isinstance(node, Element):
        try:
            label = node.eget("name") if "name" in node.meta.all_features() \
                else ""
        except Exception:
            label = ""
        parts.append(label or node.meta.name)
        node = node.container
    return "/".join(reversed(parts))


@dataclass
class Diagnostic:
    """One finding — the record shared by every checker in the toolchain.

    The structural validator, the UML well-formedness rules and the
    :mod:`repro.analysis` lint engine all emit this same shape: a
    severity, a stable rule ``code`` (e.g. ``OCL001``, ``SM003``,
    ``uml-unique-name``), the offending element plus its containment
    ``path``, the message, and an optional fix ``hint``.

    Cross-diagram findings (the ``XD`` consistency rules) involve *two*
    model locations — e.g. a message and the state machine that cannot
    accept it.  ``related``/``related_path`` carry that secondary
    endpoint; both default empty so single-location checkers are
    unaffected.
    """

    severity: Severity
    element: Any
    message: str
    feature: Optional[Feature] = None
    code: str = ""
    path: str = ""
    hint: str = ""
    related: Any = None
    related_path: str = ""

    def __str__(self) -> str:
        where = f" [{self.feature.name}]" if self.feature else ""
        return f"{self.severity.value}: {self.element!r}{where}: {self.message}"

    def render(self) -> str:
        """The lint-style one-liner: ``severity code path: message``."""
        code = f" {self.code}" if self.code else ""
        where = self.path or repr(self.element)
        text = f"{self.severity.value}{code} {where}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        if self.related is not None:
            text += f" [with {self.related_path or repr(self.related)}]"
        return text


@dataclass
class ValidationReport:
    """All diagnostics from one validation run."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.WARNING]

    def add(self, severity: Severity, element: Any, message: str,
            feature: Optional[Feature] = None, code: str = "",
            hint: str = "") -> None:
        self.diagnostics.append(
            Diagnostic(severity, element, message, feature, code,
                       path=model_path(element), hint=hint))

    def extend(self, other: "ValidationReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    def __str__(self) -> str:
        if not self.diagnostics:
            return "validation: ok"
        return "\n".join(str(d) for d in self.diagnostics)


def _check_multiplicities(element: Element, report: ValidationReport) -> None:
    for feature in element.meta.all_features().values():
        value = element.eget(feature.name)
        count = len(value) if feature.many else (0 if value is None else 1)
        if not feature.multiplicity.accepts_count(count):
            report.add(
                Severity.ERROR, element,
                f"multiplicity [{feature.multiplicity}] violated: "
                f"{count} value(s) present",
                feature=feature, code="multiplicity")


def _check_opposites(element: Element, report: ValidationReport) -> None:
    for feature in element.meta.all_features().values():
        if not isinstance(feature, Reference) or feature.opposite is None:
            continue
        opposite = feature.opposite
        value = element.eget(feature.name)
        targets = list(value) if feature.many else (
            [value] if value is not None else [])
        for target in targets:
            back = target.eget(opposite.name)
            holds = (element in back) if opposite.many else (back is element)
            if not holds:
                report.add(
                    Severity.ERROR, element,
                    f"opposite inconsistency: {target!r}.{opposite.name} "
                    f"does not point back",
                    feature=feature, code="opposite")


def _check_containment(element: Element, report: ValidationReport) -> None:
    for child in element.contents():
        if child.container is not element:
            report.add(
                Severity.ERROR, element,
                f"containment bookkeeping broken for child {child!r}",
                code="containment")


def _check_invariants(element: Element, report: ValidationReport) -> None:
    for metaclass in [element.meta] + element.meta.all_superclasses():
        for invariant in metaclass.invariants:
            try:
                passed = invariant.holds(element)
            except Exception as exc:  # invariant itself is broken
                report.add(
                    Severity.ERROR, element,
                    f"invariant '{invariant.name}' raised: {exc}",
                    code="invariant-error")
                continue
            if not passed:
                report.add(
                    invariant.severity, element,
                    f"invariant '{invariant.name}' violated"
                    + (f": {invariant.message}" if invariant.message else ""),
                    code="invariant")


def validate_element(element: Element,
                     check_invariants: bool = True) -> ValidationReport:
    """Validate a single element (not its contents)."""
    report = ValidationReport()
    _check_multiplicities(element, report)
    _check_opposites(element, report)
    _check_containment(element, report)
    if check_invariants:
        _check_invariants(element, report)
    return report


def validate_tree(root: Element,
                  check_invariants: bool = True) -> ValidationReport:
    """Validate *root* and everything it contains."""
    report = ValidationReport()
    report.extend(validate_element(root, check_invariants))
    for element in root.all_contents():
        report.extend(validate_element(element, check_invariants))
    return report


def validate_invariants(root: Element) -> ValidationReport:
    """Evaluate only the registered invariants over *root* and its tree.

    The invariant-only counterpart of
    ``validate_tree(root, check_invariants=False)``: together the two
    cover exactly what ``validate_tree(root)`` covers.  This is the
    building block behind the ``"invariant"`` family of
    :meth:`repro.session.Session.check`.
    """
    report = ValidationReport()
    _check_invariants(root, report)
    for element in root.all_contents():
        _check_invariants(element, report)
    return report
