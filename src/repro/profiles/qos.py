"""The QoS & Fault Tolerance profile — contracts that can be *evaluated*.

Stereotypes mark classes/associations with offered or required QoS
characteristics (latency, throughput, reliability, availability) and
fault-tolerance policies (replication).  The functions below check
offered-vs-required contract conformance statically, estimate end-to-end
latency over a platform's communication mechanisms, and compute
availability under replication — so QoS annotations are testable model
content, not decoration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..mof import MInteger, MReal, MString
from ..platforms.base import PlatformModel
from ..uml import Association, Clazz, Package
from ..mof.query import instances_of
from .base import Profile

QOS_FT = Profile("QoSFT", "Quality of Service and Fault Tolerance")

QOS_OFFERED = QOS_FT.define("QoSOffered", Clazz) \
    .tag("latency_ms", MReal) \
    .tag("throughput_ops", MReal) \
    .tag("reliability", MReal, 1.0) \
    .tag("availability", MReal, 1.0)

QOS_REQUIRED = QOS_FT.define("QoSRequired", Clazz) \
    .tag("latency_ms", MReal) \
    .tag("throughput_ops", MReal) \
    .tag("reliability", MReal) \
    .tag("availability", MReal)

FT_REPLICATED = QOS_FT.define("FTReplicated", Clazz) \
    .tag("replicas", MInteger, 2) \
    .tag("style", MString, "hot")        # hot | warm | cold


@dataclass
class QoSContract:
    """A comparable bundle of QoS figures.

    ``latency_ms``: smaller is better; ``throughput_ops``, ``reliability``,
    ``availability``: larger is better.  ``None`` means unconstrained /
    unspecified.
    """

    latency_ms: Optional[float] = None
    throughput_ops: Optional[float] = None
    reliability: Optional[float] = None
    availability: Optional[float] = None

    def satisfies(self, required: "QoSContract") -> bool:
        return not self.violations(required)

    def violations(self, required: "QoSContract") -> List[str]:
        """Which required figures this offered contract fails."""
        problems: List[str] = []
        if required.latency_ms is not None:
            if self.latency_ms is None or \
                    self.latency_ms > required.latency_ms:
                problems.append(
                    f"latency {self.latency_ms} > {required.latency_ms}")
        for figure in ("throughput_ops", "reliability", "availability"):
            wanted = getattr(required, figure)
            if wanted is None:
                continue
            offered = getattr(self, figure)
            if offered is None or offered < wanted:
                problems.append(f"{figure} {offered} < {wanted}")
        return problems

    @classmethod
    def offered_on(cls, element) -> Optional["QoSContract"]:
        if not QOS_OFFERED.is_applied_to(element):
            return None
        return cls(
            latency_ms=QOS_OFFERED.value_on(element, "latency_ms"),
            throughput_ops=QOS_OFFERED.value_on(element, "throughput_ops"),
            reliability=QOS_OFFERED.value_on(element, "reliability"),
            availability=QOS_OFFERED.value_on(element, "availability"))

    @classmethod
    def required_on(cls, element) -> Optional["QoSContract"]:
        if not QOS_REQUIRED.is_applied_to(element):
            return None
        return cls(
            latency_ms=QOS_REQUIRED.value_on(element, "latency_ms"),
            throughput_ops=QOS_REQUIRED.value_on(element, "throughput_ops"),
            reliability=QOS_REQUIRED.value_on(element, "reliability"),
            availability=QOS_REQUIRED.value_on(element, "availability"))


@dataclass
class ContractCheck:
    client: str
    supplier: str
    passed: bool
    problems: List[str] = field(default_factory=list)


def check_contracts(root: Package) -> List[ContractCheck]:
    """For every association whose ends join a «QoSRequired» client to a
    «QoSOffered» supplier, check the offered contract against the
    required one."""
    checks: List[ContractCheck] = []
    for association in instances_of(root, Association):
        ends = list(association.member_ends)
        if len(ends) != 2:
            continue
        types = [end.type for end in ends]
        if not all(isinstance(t, Clazz) for t in types):
            continue
        for client, supplier in (types, list(reversed(types))):
            required = QoSContract.required_on(client)
            offered = QoSContract.offered_on(supplier)
            if required is None or offered is None:
                continue
            problems = offered.violations(required)
            checks.append(ContractCheck(client.name, supplier.name,
                                        not problems, problems))
    return checks


def availability_with_replication(base_availability: float,
                                  replicas: int,
                                  style: str = "hot") -> float:
    """Availability of a replicated service.

    hot: all replicas active, fails only if all fail;
    warm: standby switch-over succeeds with 0.95 probability per replica;
    cold: switch-over succeeds with 0.8 probability per replica.
    """
    if not 0.0 <= base_availability <= 1.0:
        raise ValueError("availability must be within [0, 1]")
    if replicas < 1:
        raise ValueError("need at least one replica")
    failure = 1.0 - base_availability
    switch = {"hot": 1.0, "warm": 0.95, "cold": 0.8}.get(style)
    if switch is None:
        raise ValueError(f"unknown replication style {style!r}")
    # A standby replica saves the service only if the switch-over works
    # AND the replica itself is up: effective per-replica failure is
    # 1 - switch * (1 - failure); hot replicas have perfect switch-over.
    effective_failure = 1.0 - switch * (1.0 - failure)
    unavailable = failure * (effective_failure ** (replicas - 1))
    return 1.0 - min(unavailable, 1.0)


def effective_availability(cls: Clazz) -> Optional[float]:
    """Offered availability after applying the class's «FTReplicated»
    policy, if any."""
    offered = QoSContract.offered_on(cls)
    if offered is None or offered.availability is None:
        return None
    if not FT_REPLICATED.is_applied_to(cls):
        return offered.availability
    replicas = FT_REPLICATED.value_on(cls, "replicas", 2)
    style = FT_REPLICATED.value_on(cls, "style", "hot")
    return availability_with_replication(offered.availability, replicas,
                                         style)


def estimate_path_latency_ms(platform: PlatformModel, hops: int, *,
                             comm_kind: str = "queue",
                             per_hop_processing_ms: float = 0.0) -> float:
    """End-to-end latency estimate over *hops* platform communications."""
    comm = platform.comm_for(comm_kind)
    comm_latency_ms = (comm.latency_us / 1000.0) if comm is not None else 0.0
    return hops * (comm_latency_ms + per_hop_processing_ms)
