"""The platform description metamodel.

A *platform model* describes the target onto which a PIM is mapped: its
execution engines (threads, tasks, ISRs, hardware modules), communication
mechanisms (queues, signals, buses), services, resource limits and its
native data types.  Transformations take the whole platform model as a
parameter — keeping every platform fact out of the domain model, which is
the separation the paper calls "the key to success".
"""

from __future__ import annotations

from typing import List, Optional

from ..mof import (
    Attribute,
    Element,
    M_0N,
    MBoolean,
    MInteger,
    MetaEnum,
    MetaPackage,
    MReal,
    MString,
    Reference,
)

PLATFORM = MetaPackage("platform", uri="urn:repro:platform")

ServiceKind = MetaEnum(
    "ServiceKind",
    ["scheduling", "communication", "storage", "timing", "io", "fault"],
    package=PLATFORM)

EngineKind = MetaEnum(
    "EngineKind",
    ["process", "thread", "task", "isr", "hw_module", "virtual_machine"],
    package=PLATFORM)

CommKind = MetaEnum(
    "CommKind",
    ["queue", "shared_memory", "signal", "rpc", "bus", "topic"],
    package=PLATFORM)


class PlatformElement(Element):
    _mof_package = PLATFORM
    _mof_abstract = True

    name = Attribute(MString)

    def __repr__(self) -> str:
        label = f" '{self.name}'" if self.name else ""
        return f"<{self.meta.name}{label}>"


class PlatformType(PlatformElement):
    """A native data type of the platform (e.g. ``int32_t``)."""

    bits = Attribute(MInteger, 32)
    is_signed = Attribute(MBoolean, True)
    is_floating = Attribute(MBoolean, False)


class TypeMapping(PlatformElement):
    """Maps a PIM primitive type name to a platform type."""

    pim_type = Attribute(MString, doc="PIM type name, e.g. 'Integer'.")
    platform_type = Reference(PlatformType)


class PlatformService(PlatformElement):
    """A named capability with an invocation overhead."""

    kind = Attribute(ServiceKind, "scheduling")
    overhead_us = Attribute(MReal, 0.0,
                            doc="Per-invocation overhead in microseconds.")


class ExecutionEngine(PlatformElement):
    """A unit of execution the platform can schedule."""

    kind = Attribute(EngineKind, "thread")
    context_switch_us = Attribute(MReal, 1.0)
    supports_priorities = Attribute(MBoolean, True)
    priority_levels = Attribute(MInteger, 32)
    max_instances = Attribute(MInteger, -1, doc="-1 = unbounded.")
    stack_bytes = Attribute(MInteger, 4096)


class CommunicationMechanism(PlatformElement):
    """A way for engines to exchange data."""

    kind = Attribute(CommKind, "queue")
    latency_us = Attribute(MReal, 10.0)
    is_reliable = Attribute(MBoolean, True)
    is_synchronous = Attribute(MBoolean, False)
    max_message_bytes = Attribute(MInteger, 256)
    depth = Attribute(MInteger, 16, doc="Default queue depth, if queued.")


class ResourceBudget(PlatformElement):
    """A platform-wide capacity limit."""

    resource = Attribute(MString, doc="e.g. 'memory_kb', 'timers'.")
    capacity = Attribute(MInteger, 0)


class PlatformModel(PlatformElement):
    """The root of one platform description."""

    description = Attribute(MString)
    vendor = Attribute(MString)
    is_real_time = Attribute(MBoolean, False)
    types = Reference(PlatformType, containment=True, multiplicity=M_0N)
    type_mappings = Reference(TypeMapping, containment=True,
                              multiplicity=M_0N)
    services = Reference(PlatformService, containment=True,
                         multiplicity=M_0N)
    engines = Reference(ExecutionEngine, containment=True, multiplicity=M_0N)
    comms = Reference(CommunicationMechanism, containment=True,
                      multiplicity=M_0N)
    budgets = Reference(ResourceBudget, containment=True, multiplicity=M_0N)

    # -- construction helpers -------------------------------------------

    def add_type(self, name: str, *, bits: int = 32, is_signed: bool = True,
                 is_floating: bool = False) -> PlatformType:
        platform_type = PlatformType(name=name, bits=bits,
                                     is_signed=is_signed,
                                     is_floating=is_floating)
        self.types.append(platform_type)
        return platform_type

    def map_type(self, pim_type: str, platform_type: PlatformType
                 ) -> TypeMapping:
        mapping = TypeMapping(pim_type=pim_type,
                              platform_type=platform_type)
        self.type_mappings.append(mapping)
        return mapping

    def add_engine(self, name: str, kind: str, **attrs) -> ExecutionEngine:
        engine = ExecutionEngine(name=name, kind=kind, **attrs)
        self.engines.append(engine)
        return engine

    def add_comm(self, name: str, kind: str, **attrs
                 ) -> CommunicationMechanism:
        comm = CommunicationMechanism(name=name, kind=kind, **attrs)
        self.comms.append(comm)
        return comm

    def add_service(self, name: str, kind: str, **attrs) -> PlatformService:
        service = PlatformService(name=name, kind=kind, **attrs)
        self.services.append(service)
        return service

    # -- lookup ----------------------------------------------------------

    def type_for(self, pim_type_name: str) -> Optional[PlatformType]:
        """The platform type a PIM primitive maps to."""
        for mapping in self.type_mappings:
            if mapping.pim_type == pim_type_name:
                return mapping.platform_type
        return None

    def engine_for(self, *preferred_kinds: str) -> Optional[ExecutionEngine]:
        """The first engine matching the preference order, else any."""
        for kind in preferred_kinds:
            for engine in self.engines:
                if engine.kind == kind:
                    return engine
        return self.engines[0] if len(self.engines) else None

    def comm_for(self, *preferred_kinds: str
                 ) -> Optional[CommunicationMechanism]:
        for kind in preferred_kinds:
            for comm in self.comms:
                if comm.kind == kind:
                    return comm
        return self.comms[0] if len(self.comms) else None

    def service_named(self, name: str) -> Optional[PlatformService]:
        for service in self.services:
            if service.name == name:
                return service
        return None

    def platform_type_names(self) -> List[str]:
        return [t.name for t in self.types]
