"""Static memory-footprint estimation against platform budgets.

Ties the platform model's :class:`~repro.platforms.base.ResourceBudget`
entries to the PSM: each class's instance size is estimated from the bit
widths of its (platform-typed) attributes, engine wrappers add their
stack allocation, channels their queue storage.  A deployment plan
(class → instance count) is then checked against the ``memory_kb``
budget — the kind of early platform-fit question the paper's systems
designers ask of a model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..mof.query import instances_of
from ..uml import Behavior, Clazz, Package
from .base import PlatformModel

POINTER_BITS = 32
STATE_FIELD_BITS = 8


@dataclass
class ClassFootprint:
    name: str
    instance_bytes: int = 0
    stack_bytes: int = 0
    queue_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.instance_bytes + self.stack_bytes + self.queue_bytes


@dataclass
class FootprintReport:
    classes: Dict[str, ClassFootprint] = field(default_factory=dict)
    total_bytes: int = 0
    budget_bytes: Optional[int] = None

    @property
    def fits(self) -> bool:
        return self.budget_bytes is None \
            or self.total_bytes <= self.budget_bytes

    @property
    def utilization(self) -> Optional[float]:
        if not self.budget_bytes:
            return None
        return self.total_bytes / self.budget_bytes

    def summary(self) -> str:
        budget = (f"{self.budget_bytes // 1024} KiB budget"
                  if self.budget_bytes else "no budget")
        verdict = "FITS" if self.fits else "OVER BUDGET"
        return (f"footprint: {self.total_bytes} B across "
                f"{len(self.classes)} classes vs {budget} -> {verdict}")


def _type_bits(platform: PlatformModel, type_name: str) -> int:
    for platform_type in platform.types:
        if platform_type.name == type_name:
            return max(platform_type.bits, 8)
    return POINTER_BITS      # unknown/object-typed: a pointer


def class_footprint(cls: Clazz, platform: PlatformModel) -> ClassFootprint:
    """Estimate one class's per-instance memory on *platform*."""
    footprint = ClassFootprint(cls.name)
    bits = 0
    for prop in cls.all_attributes():
        type_name = prop.type.name if prop.type is not None else ""
        if isinstance(prop.type, Clazz):
            bits += POINTER_BITS
        else:
            bits += _type_bits(platform, type_name)
    if cls.state_machine() is not None:
        bits += STATE_FIELD_BITS
    footprint.instance_bytes = (bits + 7) // 8

    # engine wrappers declare their stack through a default value
    stack_attr = cls.attribute("stack_bytes")
    if stack_attr is not None and stack_attr.default_value:
        try:
            footprint.stack_bytes = int(stack_attr.default_value)
        except ValueError:
            pass
    # channels declare queue depth; message size from the platform comm
    depth_attr = cls.attribute("depth")
    if depth_attr is not None and depth_attr.default_value:
        try:
            depth = int(depth_attr.default_value)
        except ValueError:
            depth = 0
        comm = platform.comm_for("queue", "topic", "signal")
        message_bytes = comm.max_message_bytes if comm is not None else 0
        footprint.queue_bytes = depth * max(message_bytes, 1)
    return footprint


def estimate_footprint(psm_root: Package, platform: PlatformModel, *,
                       instances: Optional[Dict[str, int]] = None
                       ) -> FootprintReport:
    """Estimate the whole PSM's footprint against the platform's
    ``memory_kb`` budget.

    *instances* maps class names to instance counts (default 1 each).
    """
    report = FootprintReport()
    counts = instances or {}
    for cls in instances_of(psm_root, Clazz):
        if isinstance(cls, Behavior):
            continue
        footprint = class_footprint(cls, platform)
        report.classes[cls.name] = footprint
        report.total_bytes += footprint.total_bytes \
            * counts.get(cls.name, 1)
    for budget in platform.budgets:
        if budget.resource == "memory_kb":
            report.budget_bytes = budget.capacity * 1024
            break
    return report
