"""Well-formedness rules for UML models.

These are the checks the paper claims are skipped by "use case based
development": that objects shown in interactions exist in the class model,
that inheritance is acyclic taxonomy rather than a development trick, that
state machines are executable, and that names are unambiguous.

Each rule appends :class:`~repro.mof.validate.Diagnostic` entries — the
record shared with the structural validator and the
:mod:`repro.analysis` lint engine, carrying a stable ``uml-*`` code,
the element's containment path and an optional fix hint — to a shared
:class:`~repro.mof.validate.ValidationReport`; ``run_wellformed_rules``
runs all of them (the lint engine re-runs the same rules through its
registry).
"""

from __future__ import annotations

from typing import Callable, List, Set

from ..mof import Severity, ValidationReport, instances_of
from .classifiers import Classifier, Clazz, Interface, StructuredClassifier
from .features import Property
from .interactions import Interaction, Lifeline
from .package import Package
from .relationships import Association
from .statemachines import (
    FinalState,
    Pseudostate,
    Region,
    State,
    StateMachine,
    Transition,
)
from .activities import (
    Activity,
    ActivityFinalNode,
    DecisionNode,
    InitialNode,
    JoinNode,
)
from .usecases import UseCase

Rule = Callable[[Package, ValidationReport], None]


def rule_unique_member_names(root: Package, report: ValidationReport) -> None:
    """Direct members of a namespace must have distinct names."""
    for pkg in [root] + instances_of(root, Package, include_self=False):
        seen: Set[str] = set()
        for member in pkg.packaged_elements:
            if not member.name:
                report.add(Severity.WARNING, member,
                           "unnamed packaged element", code="uml-name",
                           hint="give the element a name")
                continue
            if member.name in seen:
                report.add(Severity.ERROR, member,
                           f"duplicate name '{member.name}' in package "
                           f"'{pkg.name}'", code="uml-unique-name",
                           hint="rename one of the clashing members")
            seen.add(member.name)


def rule_no_generalization_cycles(root: Package,
                                  report: ValidationReport) -> None:
    """Generalization must be acyclic (it is a taxonomy)."""
    for classifier in instances_of(root, Classifier):
        if classifier in classifier.all_supers():
            report.add(Severity.ERROR, classifier,
                       "generalization cycle", code="uml-gen-cycle",
                       hint="remove one generalization to restore the taxonomy")


def rule_typed_properties(root: Package, report: ValidationReport) -> None:
    """Every property should have a type."""
    for prop in instances_of(root, Property):
        if prop.type is None:
            report.add(Severity.WARNING, prop,
                       "untyped property", code="uml-untyped",
                       hint="set the property's type")


def rule_association_ends(root: Package, report: ValidationReport) -> None:
    """Binary associations need exactly two typed member ends."""
    for association in instances_of(root, Association):
        ends = list(association.member_ends)
        if len(ends) != 2:
            report.add(Severity.ERROR, association,
                       f"association has {len(ends)} member end(s), "
                       f"expected 2", code="uml-assoc-arity")
            continue
        for end in ends:
            if end.type is None:
                report.add(Severity.ERROR, association,
                           f"association end '{end.name}' is untyped",
                           code="uml-assoc-untyped")


def rule_lifelines_represent_classifiers(root: Package,
                                         report: ValidationReport) -> None:
    """The paper's central complaint: interaction objects must exist in the
    class model ("the objects are never shown nor specified in a class
    diagram")."""
    for interaction in instances_of(root, Interaction):
        for lifeline in interaction.floating_lifelines():
            report.add(Severity.ERROR, lifeline,
                       f"lifeline '{lifeline.name}' of interaction "
                       f"'{interaction.name}' does not represent any "
                       f"classifier", code="uml-floating-lifeline",
                       hint="set lifeline.represents to a class of the "
                            "model")


def rule_messages_match_operations(root: Package,
                                   report: ValidationReport) -> None:
    """A message's name should be an operation (or signal reception) of the
    receiving lifeline's classifier."""
    for interaction in instances_of(root, Interaction):
        for message in interaction.messages:
            receiver = message.receive_lifeline
            if receiver is None or receiver.represents is None:
                continue
            classifier = receiver.represents
            if not isinstance(classifier, StructuredClassifier):
                continue
            ops = {op.name for op in classifier.all_operations()}
            for iface in (classifier.realized_interfaces()
                          if isinstance(classifier, Clazz) else []):
                ops.update(op.name for op in iface.all_operations())
            machine = (classifier.state_machine()
                       if isinstance(classifier, Clazz) else None)
            events = set(machine.events()) if machine else set()
            if message.name not in ops and message.name not in events:
                report.add(Severity.ERROR, message,
                           f"message '{message.name}' is neither an "
                           f"operation nor an event of "
                           f"'{classifier.name}'", code="uml-msg-unknown")


def rule_statemachine_initial(root: Package,
                              report: ValidationReport) -> None:
    """Every non-empty region needs exactly one initial pseudostate."""
    for machine in instances_of(root, StateMachine):
        regions: List[Region] = list(machine.regions)
        for state in machine.all_vertices():
            if isinstance(state, State):
                regions.extend(state.regions)
        for region in regions:
            if not region.subvertices:
                continue
            initials = [v for v in region.subvertices
                        if isinstance(v, Pseudostate) and v.kind == "initial"]
            if len(initials) != 1:
                report.add(Severity.ERROR, region,
                           f"region '{region.name}' has {len(initials)} "
                           f"initial pseudostates, expected 1",
                           code="uml-sm-initial",
                           hint="add one initial pseudostate with a "
                                "single outgoing transition")
            for initial in initials:
                if len(initial.outgoing()) != 1:
                    report.add(Severity.ERROR, initial,
                               "initial pseudostate needs exactly one "
                               "outgoing transition", code="uml-sm-initial-out")


SUPPORTED_PSEUDOSTATE_KINDS = {"initial", "choice"}


def rule_supported_pseudostates(root: Package,
                                report: ValidationReport) -> None:
    """History/junction/terminate parse but neither the simulator nor the
    flattener executes them — warn loudly instead of failing late."""
    for pseudo in instances_of(root, Pseudostate):
        if pseudo.kind not in SUPPORTED_PSEUDOSTATE_KINDS:
            report.add(Severity.WARNING, pseudo,
                       f"pseudostate kind '{pseudo.kind}' is not executable "
                       f"in this subset (supported: "
                       f"{sorted(SUPPORTED_PSEUDOSTATE_KINDS)})",
                       code="uml-sm-unsupported-kind")


def rule_transitions_local(root: Package, report: ValidationReport) -> None:
    """Transition source/target must be set and live in the same region
    (this subset does not support inter-level transitions)."""
    for transition in instances_of(root, Transition):
        if transition.source is None or transition.target is None:
            report.add(Severity.ERROR, transition,
                       "transition with missing source or target",
                       code="uml-sm-dangling")
            continue
        if transition.source.container is not transition.container:
            report.add(Severity.ERROR, transition,
                       "transition source lives in another region",
                       code="uml-sm-crossregion")
        if transition.target.container is not transition.container:
            report.add(Severity.ERROR, transition,
                       "transition target lives in another region",
                       code="uml-sm-crossregion")
        if isinstance(transition.source, FinalState):
            report.add(Severity.ERROR, transition,
                       "transitions cannot leave a final state",
                       code="uml-sm-final-out")


def rule_usecases_testable(root: Package, report: ValidationReport) -> None:
    """A use case without scenarios cannot be tested — and per the paper an
    untestable model element is pointless."""
    for usecase in instances_of(root, UseCase):
        if not usecase.is_testable():
            report.add(Severity.WARNING, usecase,
                       f"use case '{usecase.name}' has no realising "
                       f"scenario (untestable)", code="uml-uc-untestable")
        if usecase in usecase.all_included():
            report.add(Severity.ERROR, usecase,
                       "use case include cycle", code="uml-uc-cycle")


def rule_abstract_not_instantiable_leaf(root: Package,
                                        report: ValidationReport) -> None:
    """An abstract classifier with no specializations is dead weight."""
    for classifier in instances_of(root, Classifier):
        if classifier.is_abstract and not classifier.eget(
                "incoming_generalizations"):
            report.add(Severity.WARNING, classifier,
                       f"abstract classifier '{classifier.name}' has no "
                       f"specializations", code="uml-abstract-leaf")


def rule_activity_structure(root: Package,
                            report: ValidationReport) -> None:
    """Activities need one initial node, a reachable final, decisions with
    a default branch, and joins with at least two incoming edges."""
    for activity in instances_of(root, Activity):
        initials = [n for n in activity.nodes
                    if isinstance(n, InitialNode)]
        if len(initials) != 1:
            report.add(Severity.ERROR, activity,
                       f"activity '{activity.name}' has {len(initials)} "
                       f"initial nodes, expected 1", code="uml-act-initial")
        if not any(isinstance(n, ActivityFinalNode)
                   for n in activity.nodes):
            report.add(Severity.WARNING, activity,
                       f"activity '{activity.name}' has no final node",
                       code="uml-act-final")
        for node in activity.nodes:
            if isinstance(node, DecisionNode):
                guards = [(e.guard or "").strip()
                          for e in node.outgoing()]
                if not any(g in ("", "else") for g in guards):
                    report.add(Severity.WARNING, node,
                               f"decision '{node.name}' has no default "
                               f"(else) branch", code="uml-act-noelse")
            if isinstance(node, JoinNode) and len(node.incoming()) < 2:
                report.add(Severity.ERROR, node,
                           f"join '{node.name}' has fewer than two "
                           f"incoming edges", code="uml-act-join")
        for edge in activity.edges:
            if edge.source is None or edge.target is None:
                report.add(Severity.ERROR, edge,
                           "dangling activity edge",
                           code="uml-act-dangling")


ALL_RULES: List[Rule] = [
    rule_unique_member_names,
    rule_no_generalization_cycles,
    rule_typed_properties,
    rule_association_ends,
    rule_lifelines_represent_classifiers,
    rule_messages_match_operations,
    rule_statemachine_initial,
    rule_transitions_local,
    rule_supported_pseudostates,
    rule_usecases_testable,
    rule_abstract_not_instantiable_leaf,
    rule_activity_structure,
]


def run_wellformed_rules(root: Package,
                         rules: List[Rule] = None) -> ValidationReport:
    """Run all (or the given) well-formedness rules over *root*.

    This is the engine-level building block behind the ``"wellformed"``
    family of :meth:`repro.session.Session.check`.
    """
    report = ValidationReport()
    for rule in (rules if rules is not None else ALL_RULES):
        rule(root, report)
    return report
