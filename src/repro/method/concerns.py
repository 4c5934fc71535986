"""Separation-of-concerns checking: domain/platform pollution detection.

"At minimum one must have a separation between the domain of the system
(what the system is) and the potential platforms ... avoiding polluting
either model with information from the other."  The checker scans a
domain model (PIM) for platform vocabulary — native type names, engine and
mechanism suffixes, service names — and reports each leak, so E7 can
measure precision/recall against seeded pollution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Set

from ..mof.kernel import Element
from ..mof.query import all_contents
from ..mof.validate import Severity, ValidationReport
from ..platforms.base import PlatformModel
from .abstraction import platform_vocabulary

# Suffixes that smell of execution platforms even without a platform model
# in hand (the checker accepts extra vocabulary for project idioms).
GENERIC_PLATFORM_SUFFIXES = (
    "_thread", "_task", "_process", "_isr", "_queue", "_mutex",
    "_semaphore", "_socket", "_driver", "_dma", "_irq",
)

GENERIC_PLATFORM_TYPES = {
    "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "char*", "void*", "size_t", "q15_t", "bit",
}


@dataclass
class PollutionFinding:
    """One platform leak in a domain model."""

    element: Element
    reason: str
    word: str

    def __str__(self) -> str:
        return f"{self.element!r}: {self.reason} ({self.word!r})"


@dataclass
class PollutionReport:
    findings: List[PollutionFinding] = field(default_factory=list)
    elements_scanned: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def pollution_ratio(self) -> float:
        if not self.elements_scanned:
            return 0.0
        polluted = {id(f.element) for f in self.findings}
        return len(polluted) / self.elements_scanned

    def polluted_elements(self) -> List[Element]:
        seen = {}
        for finding in self.findings:
            seen.setdefault(id(finding.element), finding.element)
        return list(seen.values())

    def as_validation_report(self) -> ValidationReport:
        report = ValidationReport()
        for finding in self.findings:
            report.add(Severity.ERROR, finding.element,
                       f"platform pollution: {finding.reason} "
                       f"({finding.word!r})", code="concern-pollution")
        return report


def check_domain_purity(root: Element,
                        platforms: Sequence[PlatformModel] = (), *,
                        extra_vocabulary: Iterable[str] = (),
                        use_generic_heuristics: bool = True
                        ) -> PollutionReport:
    """Scan a supposed PIM for platform vocabulary."""
    vocabulary: Set[str] = set(extra_vocabulary)
    for platform in platforms:
        vocabulary |= platform_vocabulary(platform)
    type_words = set(vocabulary)
    if use_generic_heuristics:
        type_words |= GENERIC_PLATFORM_TYPES

    report = PollutionReport()
    for element in [root] + list(all_contents(root)):
        report.elements_scanned += 1
        name_feature = element.meta.find_feature("name")
        name = ""
        if name_feature is not None and not name_feature.many:
            name = element.eget("name") or ""
        if name:
            for word in vocabulary:
                if name == word or name.endswith(f"_{word}"):
                    report.findings.append(PollutionFinding(
                        element, "platform word in name", word))
                    break
            else:
                if use_generic_heuristics:
                    for suffix in GENERIC_PLATFORM_SUFFIXES:
                        if name.lower().endswith(suffix):
                            report.findings.append(PollutionFinding(
                                element, "platform-style name suffix",
                                suffix))
                            break
        type_feature = element.meta.find_feature("type")
        if type_feature is not None and not type_feature.many:
            typed = element.eget("type")
            type_name = getattr(typed, "name", "") if typed is not None \
                else ""
            if type_name in type_words:
                report.findings.append(PollutionFinding(
                    element, "platform-native type", type_name))
    return report


def check_psm_grounding(psm_root: Element,
                        platform: PlatformModel, *,
                        minimum_ratio: float = 0.05) -> ValidationReport:
    """The dual check: a PSM that contains (almost) no platform vocabulary
    was produced by a syntactic, not semantic, transformation."""
    from .abstraction import platform_content_ratio
    report = ValidationReport()
    ratio = platform_content_ratio(psm_root, platform)
    if ratio < minimum_ratio:
        report.add(Severity.WARNING, psm_root,
                   f"PSM platform-content ratio {ratio:.3f} below "
                   f"{minimum_ratio}; mapping added no platform knowledge",
                   code="concern-ungrounded-psm")
    return report
