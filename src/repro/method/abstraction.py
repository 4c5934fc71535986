"""Abstraction levels and model stacks.

"To correctly apply UML/MDA one must have a much greater understanding and
adherence to the various levels of abstraction" — this module makes levels
first-class: a :class:`ModelStack` orders named levels, holds the model at
each level, and only relates adjacent levels through recorded
transformations.  It also quantifies abstraction: the *platform content
ratio* measures how much platform vocabulary a model contains, which is
the observable difference between a PIM and a PSM (experiment E2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..mof.kernel import Element
from ..mof.query import all_contents
from ..platforms.base import PlatformModel
from ..transform.engine import Transformation, TransformationResult


@dataclass(frozen=True)
class AbstractionLevel:
    """One rung of the abstraction ladder (smaller index = more abstract)."""

    name: str
    index: int
    description: str = ""

    def __str__(self) -> str:
        return f"L{self.index}:{self.name}"


@dataclass
class LevelSlot:
    level: AbstractionLevel
    roots: List[Element] = field(default_factory=list)
    produced_by: Optional[TransformationResult] = None


class ModelStack:
    """Models arranged by abstraction level, related by transformations.

    The paper: "given any model one can not state whether it is platform
    independent or platform specific without a second model related to it
    by one or more transformations" — so PIM/PSM here are *relative*
    queries on the stack, not intrinsic flags.
    """

    def __init__(self, name: str = "stack"):
        self.name = name
        self.slots: List[LevelSlot] = []

    def add_level(self, name: str, description: str = "") -> AbstractionLevel:
        level = AbstractionLevel(name, len(self.slots), description)
        self.slots.append(LevelSlot(level))
        return level

    def slot(self, level: AbstractionLevel) -> LevelSlot:
        return self.slots[level.index]

    def place(self, level: AbstractionLevel, roots) -> None:
        if isinstance(roots, Element):
            roots = [roots]
        self.slots[level.index].roots = list(roots)

    def refine(self, source_level: AbstractionLevel,
               transformation: Transformation, *,
               platform: Optional[PlatformModel] = None
               ) -> TransformationResult:
        """Transform the model at *source_level* into the next level down."""
        if source_level.index + 1 >= len(self.slots):
            raise IndexError(
                f"no level below {source_level} in stack '{self.name}'")
        source_slot = self.slots[source_level.index]
        if not source_slot.roots:
            raise ValueError(f"level {source_level} holds no model")
        result = transformation.run(source_slot.roots, platform=platform)
        target_slot = self.slots[source_level.index + 1]
        target_slot.roots = list(result.target_roots)
        target_slot.produced_by = result
        return result

    # -- relative PIM/PSM queries ----------------------------------------

    def is_platform_independent_wrt(self, level: AbstractionLevel,
                                    other: AbstractionLevel) -> bool:
        """A model is a PIM *relative to* a lower model it maps onto."""
        return level.index < other.index

    def levels(self) -> List[AbstractionLevel]:
        return [slot.level for slot in self.slots]

    def distance(self, a: AbstractionLevel, b: AbstractionLevel) -> int:
        return abs(a.index - b.index)


# ---------------------------------------------------------------------------
# Quantifying abstraction
# ---------------------------------------------------------------------------

def platform_vocabulary(platform: PlatformModel) -> Set[str]:
    """Every name the platform model introduces (types, engines, comms,
    services) — the words a PIM must not contain."""
    vocabulary: Set[str] = set()
    vocabulary.update(t.name for t in platform.types)
    for engine in platform.engines:
        vocabulary.add(engine.name)
        vocabulary.add(engine.kind)
    for comm in platform.comms:
        vocabulary.add(comm.name)
        vocabulary.add(comm.kind)
    vocabulary.update(s.name for s in platform.services)
    vocabulary.discard("")
    return vocabulary


def _element_mentions(element: Element, vocabulary: Set[str]) -> bool:
    name_feature = element.meta.find_feature("name")
    if name_feature is not None and not name_feature.many:
        name = element.eget("name") or ""
        for word in vocabulary:
            if word and (name == word or name.endswith(f"_{word}")):
                return True
    type_feature = element.meta.find_feature("type")
    if type_feature is not None and not type_feature.many:
        typed = element.eget("type")
        if typed is not None:
            type_name = getattr(typed, "name", "")
            if type_name in vocabulary:
                return True
    return False


def platform_content_ratio(root: Element,
                           platform: PlatformModel) -> float:
    """Fraction of model elements that mention platform vocabulary.

    ≈0 for a clean PIM; substantially positive for the PSM produced by a
    semantic transformation onto *platform*; exactly what a syntactic
    (identity) transformation leaves unchanged.
    """
    vocabulary = platform_vocabulary(platform)
    total = 0
    mentions = 0
    for element in [root] + list(all_contents(root)):
        total += 1
        if _element_mentions(element, vocabulary):
            mentions += 1
    return mentions / total if total else 0.0


def abstraction_delta(source_root: Element, target_root: Element,
                      platform: PlatformModel) -> float:
    """How much platform content the transformation added — the measured
    counterpart of a transformation's declared ``abstraction_delta``."""
    return (platform_content_ratio(target_root, platform)
            - platform_content_ratio(source_root, platform))
