"""The model quality dashboard: one report per model, all test kinds.

The paper's closing complaint is "documentation oriented methods in which
the documentation is more important than the actual product".  The
antidote is a single, regenerable answer to "is this model any good?" —
structure, well-formedness, metrics, purity and (optionally) requirement
traceability folded into one text report with an overall verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..analysis import LintConfig, ModelLinter
from ..method.concerns import check_domain_purity
from ..mof.validate import ValidationReport, validate_tree
from ..platforms.base import PlatformModel
from ..profiles.sysml import traceability_matrix
from ..uml import Package
from ..uml.wellformed import run_wellformed_rules
from .metrics import compute_model_metrics


@dataclass
class SectionResult:
    title: str
    passed: bool
    lines: List[str] = field(default_factory=list)


@dataclass
class QualityReport:
    model_name: str
    sections: List[SectionResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(section.passed for section in self.sections)

    def section(self, title: str) -> SectionResult:
        for section in self.sections:
            if section.title == title:
                return section
        raise KeyError(title)

    def render(self) -> str:
        width = 64
        out = [f"{' model quality report: ' + self.model_name + ' ':=^{width}}"]
        for section in self.sections:
            status = "PASS" if section.passed else "FAIL"
            out.append(f"-- {section.title} [{status}]")
            out.extend(f"   {line}" for line in section.lines)
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"{' overall: ' + verdict + ' ':=^{width}}")
        return "\n".join(out)

    def to_json(self) -> dict:
        """The report as a JSON-ready document (``repro report
        --format json``)."""
        return {
            "model": self.model_name,
            "passed": self.passed,
            "sections": [{"title": section.title,
                          "passed": section.passed,
                          "lines": list(section.lines)}
                         for section in self.sections],
        }


#: severity floor ranks for the ``severity`` parameter below
_SEVERITY_RANK = {"info": 0, "warning": 1, "error": 2}


def _at_or_above(diagnostics, floor: int):
    return [d for d in diagnostics
            if _SEVERITY_RANK.get(
                getattr(d.severity, "value", "error"), 2) >= floor]


def build_quality_report(root: Package, *,
                         platforms: Sequence[PlatformModel] = (),
                         include_traceability: bool = False,
                         max_coupling_density: float = 0.75,
                         max_single_operation_ratio: float = 0.5,
                         incremental=None,
                         severity: Optional[str] = None) -> QualityReport:
    """Run every applicable model test over *root* and fold the results.

    When *incremental* is a primed
    :class:`repro.incremental.IncrementalEngine` over *root*, the
    structural, well-formedness and lint sections are served from its
    (freshly revalidated) caches instead of full re-walks — the metrics,
    purity and traceability sections are cheap and always recomputed.

    *severity* is the shared CLI floor (``info``/``warning``/``error``):
    diagnostic lines below it are omitted from the diagnostic sections.
    Section verdicts are always computed from the unfiltered reports —
    the floor hides lines, it never flips PASS/FAIL.

    This is the building block behind
    :meth:`repro.session.Session.quality_report`.
    """
    floor = _SEVERITY_RANK[getattr(severity, "value", severity)] \
        if severity else 0
    report = QualityReport(root.name or "(unnamed)")

    if incremental is not None:
        incremental.revalidate()
        kinds = incremental.report_by_kind()
        structural = kinds.get("structural", ValidationReport())
        structural.extend(kinds.get("invariant", ValidationReport()))
        wellformed = kinds.get("wellformed", ValidationReport())
        lint = kinds.get("lint", ValidationReport())
        consistency = kinds.get("consistency", ValidationReport())
    else:
        structural = validate_tree(root)
        wellformed = run_wellformed_rules(root)
        lint = ModelLinter(config=LintConfig(
            disabled={"uml-wellformed"})).lint(root)
        consistency = ModelLinter(
            families=("consistency",)).lint(root)

    report.sections.append(SectionResult(
        "structural validity", structural.ok,
        [str(d) for d in _at_or_above(structural.errors, floor)]
        or ["no errors"]))

    lines = [str(d) for d in _at_or_above(wellformed.errors, floor)]
    lines += [str(d) for d in _at_or_above(wellformed.warnings, floor)]
    report.sections.append(SectionResult(
        "uml well-formedness", wellformed.ok, lines or ["no findings"]))

    # the well-formedness section above already reports the uml-* rules;
    # the lint section covers the behavioural/OCL analyses on top
    lines = [d.render() for d in _at_or_above(lint.errors, floor)]
    lines += [d.render() for d in _at_or_above(lint.warnings, floor)]
    report.sections.append(SectionResult(
        "static analysis (lint)", lint.ok,
        lines or [lint.summary() if hasattr(lint, "summary")
                  else "no findings"]))

    # cross-diagram consistency: interactions vs class model vs state
    # machines (the XD rule family)
    lines = [d.render() for d in _at_or_above(consistency.errors, floor)]
    lines += [d.render() for d in
              _at_or_above(consistency.warnings, floor)]
    report.sections.append(SectionResult(
        "cross-diagram consistency", consistency.ok,
        lines or ["no findings"]))

    metrics = compute_model_metrics(root)
    metric_ok = (metrics.coupling_density <= max_coupling_density
                 and metrics.single_operation_ratio
                 <= max_single_operation_ratio)
    report.sections.append(SectionResult(
        "design metrics", metric_ok,
        [metrics.summary(),
         f"thresholds: coupling<= {max_coupling_density} "
         f"single-op<= {max_single_operation_ratio}"]))

    purity = check_domain_purity(root, platforms)
    report.sections.append(SectionResult(
        "domain purity", purity.clean,
        [str(f) for f in purity.findings]
        or [f"clean ({purity.elements_scanned} elements scanned)"]))

    if include_traceability:
        matrix = traceability_matrix(root)
        trace_ok = (matrix.satisfaction_coverage == 1.0
                    and matrix.verification_coverage == 1.0)
        lines = [matrix.summary()]
        lines += [f"unsatisfied: {row.req_id} {row.name}"
                  for row in matrix.unsatisfied()]
        lines += [f"unverified: {row.req_id} {row.name}"
                  for row in matrix.unverified()]
        report.sections.append(SectionResult(
            "requirement traceability", trace_ok, lines))

    return report
