"""The trace model: a first-class record of what a transformation did.

MDA's accountability story hinges on traces — they are how refinement is
checked, how binds resolve forward references, and how a PSM element can be
tracked back to the PIM requirement it realises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..mof.kernel import Element

DEFAULT_ROLE = "default"


@dataclass
class TraceLink:
    """One application of one rule to one source element.

    ``targets`` maps role names to created elements; most rules create one
    target under the :data:`DEFAULT_ROLE`.
    """

    rule_name: str
    source: Element
    targets: Dict[str, Element] = field(default_factory=dict)

    def target(self, role: str = DEFAULT_ROLE) -> Optional[Element]:
        return self.targets.get(role)

    def __repr__(self) -> str:
        targets = {role: repr(t) for role, t in self.targets.items()}
        return f"<TraceLink {self.rule_name}: {self.source!r} -> {targets}>"


class TraceModel:
    """All trace links of one transformation run, indexed both ways."""

    def __init__(self) -> None:
        self.links: List[TraceLink] = []
        self._by_source: Dict[int, List[TraceLink]] = {}
        self._by_target: Dict[int, TraceLink] = {}

    def add(self, link: TraceLink) -> TraceLink:
        self.links.append(link)
        self._by_source.setdefault(id(link.source), []).append(link)
        for target in link.targets.values():
            self._by_target[id(target)] = link
        return link

    # -- forward lookup ----------------------------------------------------

    def links_for(self, source: Element) -> List[TraceLink]:
        return list(self._by_source.get(id(source), []))

    def resolve(self, source: Element, role: str = DEFAULT_ROLE,
                rule: Optional[str] = None) -> Optional[Element]:
        """The image of *source* under the given role (and optionally a
        specific rule).  Returns None when untransformed."""
        for link in self._by_source.get(id(source), []):
            if rule is not None and link.rule_name != rule:
                continue
            target = link.targets.get(role)
            if target is not None:
                return target
        return None

    def resolve_all(self, sources, role: str = DEFAULT_ROLE) -> List[Element]:
        """Images of each source that has one, in order."""
        out: List[Element] = []
        for source in sources:
            target = self.resolve(source, role)
            if target is not None:
                out.append(target)
        return out

    def is_transformed(self, source: Element) -> bool:
        return id(source) in self._by_source

    # -- backward lookup -------------------------------------------------

    def origin_of(self, target: Element) -> Optional[Element]:
        """The source element from which *target* was created."""
        link = self._by_target.get(id(target))
        return link.source if link is not None else None

    def link_of_target(self, target: Element) -> Optional[TraceLink]:
        return self._by_target.get(id(target))

    # -- stats ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.links)

    def __iter__(self) -> Iterator[TraceLink]:
        return iter(self.links)

    def rules_used(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for link in self.links:
            counts[link.rule_name] = counts.get(link.rule_name, 0) + 1
        return counts

    def sources(self) -> List[Element]:
        seen: Dict[int, Element] = {}
        for link in self.links:
            seen.setdefault(id(link.source), link.source)
        return list(seen.values())

    def all_targets(self) -> List[Element]:
        seen: Dict[int, Element] = {}
        for link in self.links:
            for target in link.targets.values():
                seen.setdefault(id(target), target)
        return list(seen.values())
