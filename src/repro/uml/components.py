"""UML components and deployment: ports, connectors, nodes, artifacts.

These metaclasses carry the *platform-specific* side of PIM→PSM mappings:
transformations allocate classes to components, wire ports with connectors,
and deploy artifacts onto nodes described by a platform model.
"""

from __future__ import annotations

from typing import List, Optional

from ..mof import (
    Attribute,
    M_0N,
    MBoolean,
    MInteger,
    MString,
    Reference,
)
from .classifiers import Clazz, Interface
from .package import NamedElement, PackageableElement


class Port(NamedElement):
    """An interaction point of a component or class."""

    provided = Reference(Interface, multiplicity=M_0N)
    required = Reference(Interface, multiplicity=M_0N)
    is_service = Attribute(MBoolean, True)


class Component(Clazz):
    """A modular, replaceable unit with explicit provided/required
    interfaces."""

    ports = Reference(Port, containment=True, multiplicity=M_0N)
    realizing_classes = Reference(Clazz, multiplicity=M_0N,
                                  doc="Classes realizing this component's "
                                      "behaviour.")

    def add_port(self, name: str, *,
                 provided: Optional[Interface] = None,
                 required: Optional[Interface] = None) -> Port:
        port = Port(name=name)
        if provided is not None:
            port.provided.append(provided)
        if required is not None:
            port.required.append(required)
        self.ports.append(port)
        return port

    def provided_interfaces(self) -> List[Interface]:
        out: List[Interface] = []
        for port in self.ports:
            out.extend(port.provided)
        return out

    def required_interfaces(self) -> List[Interface]:
        out: List[Interface] = []
        for port in self.ports:
            out.extend(port.required)
        return out


class ConnectorEnd(NamedElement):
    """One end of a connector, attached to a port."""

    port = Reference(Port)


class Connector(PackageableElement):
    """A communication path between two ports."""

    ends = Reference(ConnectorEnd, containment=True, multiplicity=M_0N)

    @classmethod
    def between(cls, a: Port, b: Port, name: str = "") -> "Connector":
        connector = cls(name=name)
        connector.ends.append(ConnectorEnd(name=a.name, port=a))
        connector.ends.append(ConnectorEnd(name=b.name, port=b))
        return connector

    def ports(self) -> List[Port]:
        return [end.port for end in self.ends if end.port is not None]


class Artifact(PackageableElement):
    """A physical piece of information used or produced by development
    (binary, library, configuration)."""

    file_name = Attribute(MString)
    manifested_components = Reference(Component, multiplicity=M_0N)


class ExecutionNode(PackageableElement):
    """A computational resource onto which artifacts are deployed.

    Capacity attributes let schedulability analysis and the pollution
    checker reason about platform limits.
    """

    processor_count = Attribute(MInteger, 1)
    memory_kb = Attribute(MInteger, 0)
    is_real_time = Attribute(MBoolean, False)
    nested_nodes = Reference("ExecutionNode", containment=True,
                             multiplicity=M_0N)
    deployed_artifacts = Reference(Artifact, multiplicity=M_0N)

    def deploy(self, artifact: Artifact) -> None:
        self.deployed_artifacts.append(artifact)


class Deployment(PackageableElement):
    """The allocation record of an artifact onto a node."""

    location = Reference(ExecutionNode)
    deployed_artifact = Reference(Artifact)
