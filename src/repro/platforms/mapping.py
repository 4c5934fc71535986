"""The generic PIM→PSM mapping engine, parameterised by a platform model.

This module is the reproduction's centrepiece for the paper's §1 claim
that a transformation can be "a generic engine that takes a model of a
platform as its parameter": :func:`make_pim_to_psm` builds, from *any*
:class:`~repro.platforms.base.PlatformModel`, a semantic transformation
that

* retypes every primitive-typed property to the platform's native types;
* wraps every **active** class in an execution-engine wrapper class
  (thread/task/ISR/hardware module, whatever the platform offers);
* realises every association between active classes as a communication
  channel class built on the platform's preferred mechanism;
* flattens hierarchical state machines (the flat form is what platform
  schedulers and code generators consume);
* copies passive structure faithfully.

All platform knowledge is consumed *here*; the PIM contains none of it,
and the produced PSM contains all of it — which is what makes the
transformation *semantic* (abstraction level changes) rather than
syntactic.
"""

from __future__ import annotations

from ..mof.kernel import Element
from ..transform.engine import Transformation, TransformationContext
from ..transform.library import flatten_state_machine
from ..transform.platformparam import PlatformParametricTransformation
from ..transform.rule import Rule
from ..uml import (
    Association,
    Behavior,
    Clazz,
    DataType,
    Enumeration,
    Generalization,
    Interface,
    Operation,
    Package,
    Parameter,
    PrimitiveDataType,
    Property,
    StateMachine,
    UmlModel,
)
from .base import PlatformModel

ENGINE_ROLE = "engine_wrapper"
CHANNEL_ROLE = "channel"


def _attach_to_container_image(source: Element, target: Element,
                               ctx: TransformationContext,
                               feature_name: str) -> None:
    """Put *target* into the image of *source*'s container, under the given
    containment feature."""
    container = source.container
    if container is None:
        return
    image = ctx.resolve_optional(container)
    if image is None:
        return
    collection = image.eget(feature_name)
    if target not in collection:
        collection.append(target)


class ModelRule(Rule):
    source_type = UmlModel

    def create(self, source, ctx):
        platform: PlatformModel = ctx.platform
        return UmlModel(name=f"{source.name}_{platform.name}")


class PrimitiveTypeRule(Rule):
    """PIM primitive → platform native type (the retyping map)."""

    source_type = PrimitiveDataType

    def create(self, source, ctx):
        platform: PlatformModel = ctx.platform
        native = platform.type_for(source.name)
        native_name = native.name if native is not None else source.name
        return DataType(name=native_name)

    def bind(self, source, targets, ctx):
        _attach_to_container_image(source, targets["default"],
                                   ctx, "packaged_elements")


class EnumerationRule(Rule):
    source_type = Enumeration

    def create(self, source, ctx):
        return Enumeration(name=source.name)

    def bind(self, source, targets, ctx):
        target = targets["default"]
        for literal in source.literals:
            target.add_literal(literal.name)
        _attach_to_container_image(source, target, ctx, "packaged_elements")


class PackageRule(Rule):
    source_type = Package

    def create(self, source, ctx):
        return Package(name=source.name)

    def bind(self, source, targets, ctx):
        _attach_to_container_image(source, targets["default"],
                                   ctx, "packaged_elements")


class InterfaceRule(Rule):
    source_type = Interface

    def create(self, source, ctx):
        return Interface(name=source.name)

    def bind(self, source, targets, ctx):
        _attach_to_container_image(source, targets["default"],
                                   ctx, "packaged_elements")


class ClassRule(Rule):
    """PIM class → PSM class (+ engine wrapper when active)."""

    source_type = Clazz

    def matches(self, element, ctx):
        if not super().matches(element, ctx):
            return False
        return not isinstance(element, Behavior)   # behaviours handled apart

    def create(self, source: Clazz, ctx):
        platform: PlatformModel = ctx.platform
        psm_class = Clazz(name=source.name, is_abstract=source.is_abstract,
                          is_active=source.is_active)
        targets = {"default": psm_class}
        if source.is_active:
            engine = platform.engine_for("thread", "task", "hw_module")
            if engine is not None:
                wrapper = Clazz(name=f"{source.name}_{engine.kind}")
                wrapper.owned_attributes.append(Property(
                    name="priority", default_value="0"))
                wrapper.owned_attributes.append(Property(
                    name="stack_bytes",
                    default_value=str(engine.stack_bytes)))
                for op_name in ("start", "stop", "run"):
                    wrapper.owned_operations.append(Operation(name=op_name))
                targets[ENGINE_ROLE] = wrapper
        return targets

    def bind(self, source: Clazz, targets, ctx):
        psm_class = targets["default"]
        _attach_to_container_image(source, psm_class, ctx,
                                   "packaged_elements")
        wrapper = targets.get(ENGINE_ROLE)
        if wrapper is not None:
            _attach_to_container_image(source, wrapper, ctx,
                                       "packaged_elements")
            # the wrapper holds its subject by composition
            subject = Property(name="subject", type=psm_class,
                               aggregation="composite")
            wrapper.owned_attributes.append(subject)


class PropertyRule(Rule):
    source_type = Property

    def create(self, source: Property, ctx):
        return Property(name=source.name, lower=source.lower,
                        upper=source.upper,
                        aggregation=source.aggregation,
                        default_value=source.default_value or None)

    def bind(self, source: Property, targets, ctx):
        target = targets["default"]
        if source.type is not None:
            target.type = ctx.resolve_optional(source.type) or None
        container = source.container
        image = ctx.resolve_optional(container) if container else None
        if image is None:
            return
        if isinstance(container, Association):
            image.eget("owned_ends").append(target)
        else:
            image.eget("owned_attributes").append(target)


class OperationRule(Rule):
    source_type = Operation

    def create(self, source: Operation, ctx):
        return Operation(name=source.name, is_query=source.is_query,
                         is_abstract=source.is_abstract, body=source.body)

    def bind(self, source, targets, ctx):
        _attach_to_container_image(source, targets["default"], ctx,
                                   "owned_operations")


class ParameterRule(Rule):
    source_type = Parameter

    def create(self, source: Parameter, ctx):
        return Parameter(name=source.name, direction=source.direction,
                         lower=source.lower, upper=source.upper)

    def bind(self, source: Parameter, targets, ctx):
        target = targets["default"]
        if source.type is not None:
            target.type = ctx.resolve_optional(source.type) or None
        _attach_to_container_image(source, target, ctx, "parameters")


class GeneralizationRule(Rule):
    source_type = Generalization

    def create(self, source, ctx):
        return Generalization()

    def bind(self, source: Generalization, targets, ctx):
        target = targets["default"]
        specific = ctx.resolve_optional(source.specific)
        general = ctx.resolve_optional(source.general)
        if general is not None:
            target.general = general
        if specific is not None:
            specific.generalizations.append(target)


class AssociationRule(Rule):
    """Association → association (+ channel class for active↔active)."""

    source_type = Association

    def create(self, source: Association, ctx):
        platform: PlatformModel = ctx.platform
        psm_assoc = Association(name=source.name)
        targets = {"default": psm_assoc}
        ends = list(source.member_ends)
        end_types = [end.type for end in ends if end.type is not None]
        both_active = (len(end_types) == 2
                       and all(isinstance(t, Clazz) and t.is_active
                               for t in end_types))
        if both_active:
            comm = platform.comm_for("queue", "topic", "signal", "bus")
            if comm is not None:
                channel = Clazz(name=f"{source.name}_{comm.kind}")
                channel.owned_attributes.append(Property(
                    name="depth", default_value=str(comm.depth)))
                channel.owned_attributes.append(Property(
                    name="latency_us",
                    default_value=str(comm.latency_us)))
                send = Operation(name="send")
                send.add_parameter("message")
                channel.owned_operations.append(send)
                channel.owned_operations.append(Operation(name="receive"))
                targets[CHANNEL_ROLE] = channel
        return targets

    def bind(self, source: Association, targets, ctx):
        psm_assoc = targets["default"]
        _attach_to_container_image(source, psm_assoc, ctx,
                                   "packaged_elements")
        for end in source.member_ends:
            end_image = ctx.resolve_optional(end)
            if end_image is not None and end_image not in \
                    psm_assoc.member_ends:
                psm_assoc.member_ends.append(end_image)
        channel = targets.get(CHANNEL_ROLE)
        if channel is not None:
            _attach_to_container_image(source, channel, ctx,
                                       "packaged_elements")


class StateMachineRule(Rule):
    """Hierarchical PIM machine → flat PSM machine."""

    source_type = StateMachine

    def create(self, source: StateMachine, ctx):
        if not source.regions:
            return StateMachine(name=source.name)
        return flatten_state_machine(source, name=source.name)

    def bind(self, source: StateMachine, targets, ctx):
        target = targets["default"]
        owner = source.container
        image = ctx.resolve_optional(owner) if owner is not None else None
        if image is None:
            return
        image.eget("owned_behaviors").append(target)
        if getattr(owner, "classifier_behavior", None) is source:
            image.eset("classifier_behavior", target)


def make_pim_to_psm(platform: PlatformModel) -> Transformation:
    """Build the concrete PIM→PSM transformation for *platform*."""
    rules = [
        ModelRule(),            # must precede PackageRule (UmlModel is one)
        PrimitiveTypeRule(),    # must precede generic class handling
        EnumerationRule(),
        PackageRule(),
        InterfaceRule(),
        StateMachineRule(),     # must precede ClassRule (Behavior is a Clazz)
        ClassRule(),
        PropertyRule(),
        OperationRule(),
        ParameterRule(),
        GeneralizationRule(),
        AssociationRule(),
    ]
    return Transformation(
        f"pim_to_psm[{platform.name}]", rules,
        kind="semantic", abstraction_delta=-1,
        description="generic PIM->PSM engine instantiated for "
                    f"platform '{platform.name}'")


PIM_TO_PSM = PlatformParametricTransformation(
    "pim_to_psm", make_pim_to_psm,
    description="The paper's generic engine: one transformation, "
                "parameterised by a platform model.")
