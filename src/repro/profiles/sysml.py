"""A SysML-lite profile: blocks, value properties, requirements and
traceability.

Covers the slice of SysML the paper's systems-engineering argument needs:
requirements as model elements, «satisfy»/«verify»/«deriveReqt» links, and
a traceability matrix with coverage figures — i.e. requirements that can
be *tested for coverage*, not just listed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..mof import MString
from ..uml import Clazz, Dependency, NamedElement, Package
from ..mof.query import instances_of
from .base import Profile

SYSML = Profile("SysML", "Systems Modeling Language (lite)")

BLOCK = SYSML.define("Block", Clazz)
VALUE_TYPE = SYSML.define("ValueType", Clazz)
REQUIREMENT = SYSML.define("Requirement", Clazz) \
    .tag("req_id", MString, required=True) \
    .tag("text", MString, required=True) \
    .tag("risk", MString, "medium")
SATISFY = SYSML.define("Satisfy", Dependency)
VERIFY = SYSML.define("Verify", Dependency)
DERIVE_REQT = SYSML.define("DeriveReqt", Dependency)


def add_requirement(package: Package, name: str, req_id: str,
                    text: str, risk: str = "medium") -> Clazz:
    """Create a «Requirement» class inside *package*."""
    requirement = Clazz(name=name, is_abstract=True)
    package.add(requirement)
    REQUIREMENT.apply(requirement, req_id=req_id, text=text, risk=risk)
    return requirement


def _stereotyped_dependency(package: Package, stereotype,
                            client: NamedElement,
                            supplier: NamedElement) -> Dependency:
    dependency = Dependency(name=f"{client.name}_{supplier.name}",
                            client=client, supplier=supplier)
    package.add(dependency)
    stereotype.apply(dependency)
    return dependency


def satisfy(package: Package, element: NamedElement,
            requirement: Clazz) -> Dependency:
    """Record that *element* satisfies *requirement*."""
    return _stereotyped_dependency(package, SATISFY, element, requirement)


def verify(package: Package, test_element: NamedElement,
           requirement: Clazz) -> Dependency:
    """Record that *test_element* verifies *requirement*."""
    return _stereotyped_dependency(package, VERIFY, test_element,
                                   requirement)


def derive(package: Package, derived: Clazz, source: Clazz) -> Dependency:
    """Record that *derived* is derived from *source* requirement."""
    return _stereotyped_dependency(package, DERIVE_REQT, derived, source)


@dataclass
class RequirementRow:
    req_id: str
    name: str
    text: str
    satisfied_by: List[str] = field(default_factory=list)
    verified_by: List[str] = field(default_factory=list)
    derived_from: List[str] = field(default_factory=list)

    @property
    def satisfied(self) -> bool:
        return bool(self.satisfied_by)

    @property
    def verified(self) -> bool:
        return bool(self.verified_by)


@dataclass
class TraceabilityMatrix:
    rows: List[RequirementRow] = field(default_factory=list)

    def row(self, req_id: str) -> RequirementRow:
        for row in self.rows:
            if row.req_id == req_id:
                return row
        raise KeyError(req_id)

    @property
    def satisfaction_coverage(self) -> float:
        if not self.rows:
            return 1.0
        return sum(1 for r in self.rows if r.satisfied) / len(self.rows)

    @property
    def verification_coverage(self) -> float:
        if not self.rows:
            return 1.0
        return sum(1 for r in self.rows if r.verified) / len(self.rows)

    def unsatisfied(self) -> List[RequirementRow]:
        return [r for r in self.rows if not r.satisfied]

    def unverified(self) -> List[RequirementRow]:
        return [r for r in self.rows if not r.verified]

    def summary(self) -> str:
        return (f"requirements={len(self.rows)} "
                f"satisfied={self.satisfaction_coverage:.0%} "
                f"verified={self.verification_coverage:.0%}")


def traceability_matrix(root: Package) -> TraceabilityMatrix:
    """Build the matrix from «Requirement» classes and stereotyped
    dependencies under *root*."""
    matrix = TraceabilityMatrix()
    requirement_rows: Dict[int, RequirementRow] = {}
    for cls in instances_of(root, Clazz):
        if REQUIREMENT.is_applied_to(cls):
            row = RequirementRow(
                req_id=REQUIREMENT.value_on(cls, "req_id"),
                name=cls.name,
                text=REQUIREMENT.value_on(cls, "text"))
            requirement_rows[id(cls)] = row
            matrix.rows.append(row)
    for dependency in instances_of(root, Dependency):
        supplier = dependency.supplier
        client = dependency.client
        if supplier is None or client is None:
            continue
        row = requirement_rows.get(id(supplier))
        if row is None:
            continue
        if SATISFY.is_applied_to(dependency):
            row.satisfied_by.append(client.name)
        elif VERIFY.is_applied_to(dependency):
            row.verified_by.append(client.name)
        elif DERIVE_REQT.is_applied_to(dependency):
            client_row = requirement_rows.get(id(client))
            if client_row is not None:
                client_row.derived_from.append(supplier.name)
    return matrix
