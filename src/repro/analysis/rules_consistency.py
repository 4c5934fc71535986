"""Cross-diagram consistency rules: the ``XD`` family.

Every other checker in the toolchain validates one model kind in
isolation; these rules reason *across* the diagrams that describe one
system — the paper's premise that a set of UML views only pays off when
it stays mutually coherent.

=======  ==============================================================
XD001    a message that is neither an operation nor a state-machine
         event of the receiving lifeline's classifier
XD002    a message that resolves to an operation but disagrees with
         its signature (argument count, literal argument types)
XD003    a message whose trigger exists in the receiver's state
         machine but only on transitions out of *unreachable* states
         (reachable-trigger analysis, :mod:`.reachability`)
XD004    a transition effect or state entry/exit/do action referencing
         features the owning class does not declare (unknown called
         operation, send over an unknown link, assignment to an
         undeclared attribute)
XD005    a class that can never be instantiated: its association
         multiplicities admit no finite, non-empty object
         configuration (exact rational feasibility check)
XD006    a registered OCL invariant no instance can ever satisfy
         (provably unsatisfiable conjunction)
XD007    a message between lifelines whose classifiers share no
         association — communication without a connector (warning)
=======  ==============================================================

All rules report only *proven* inconsistencies: the multiplicity check
(XD005) decides rational feasibility exactly with Fourier–Motzkin
elimination, and the expression checks (XD004, XD006) reuse the same
decidable-fragment prover as SM002 — anything outside the fragment is
silently accepted, so the family is free of false positives by
construction.  Every diagnostic names *both* endpoints via the
``related`` secondary location.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..codegen.actions import parse_actions
from ..codegen.ir import AssignStmt, CallStmt, SendStmt
from ..mof.kernel import Element, MetaClass
from ..mof.query import instances_of
from ..ocl.ast import Node
from ..uml.classifiers import Clazz, StructuredClassifier
from ..uml.features import Operation, Parameter
from ..uml.interactions import Interaction, Message
from ..uml.relationships import Association
from ..uml.statemachines import State, StateMachine
from .diagnostics import Diagnostic
from .registry import Severity, lint_rule
from .reachability import compute_reachability
from .rules_statemachine import Atom, _atomize, _conjuncts, _satisfiable
from .runner import LintContext

# ---------------------------------------------------------------------------
# Classifier lookups shared by the interaction rules
# ---------------------------------------------------------------------------


def _receiver_classifier(message: Message) -> Optional[StructuredClassifier]:
    lifeline = message.receive_lifeline
    if lifeline is None:
        return None
    classifier = lifeline.represents
    return classifier if isinstance(classifier, StructuredClassifier) \
        else None


def _operations(classifier: StructuredClassifier) -> Dict[str, Operation]:
    """Callable operations by name: own + inherited + realized contracts."""
    found: Dict[str, Operation] = {}
    for operation in classifier.all_operations():
        found.setdefault(operation.name, operation)
    if isinstance(classifier, Clazz):
        for interface in classifier.realized_interfaces():
            for operation in interface.all_operations():
                found.setdefault(operation.name, operation)
    return found


def _machine_of(classifier: StructuredClassifier) -> Optional[StateMachine]:
    if isinstance(classifier, Clazz):
        return classifier.state_machine()
    return None


def _machine_triggers(machine: StateMachine) -> Set[str]:
    return {t.trigger for t in machine.all_transitions() if t.trigger}


# ---------------------------------------------------------------------------
# XD001 / XD002 / XD003 — interaction vs class model vs state machine
# ---------------------------------------------------------------------------


@lint_rule("XD001", "message-unresolved", "interaction",
           family="consistency",
           description="messages that name neither an operation nor a "
                       "state-machine event of the receiver's classifier")
def check_message_resolves(interaction: Interaction,
                           ctx: LintContext) -> Iterable[Diagnostic]:
    for message in interaction.messages:
        classifier = _receiver_classifier(message)
        if classifier is None or not message.name:
            continue
        if message.name in _operations(classifier):
            continue
        machine = _machine_of(classifier)
        if machine is not None and message.name in _machine_triggers(machine):
            continue
        yield ctx.diag(
            message,
            f"message '{message.name}' resolves to no operation or "
            f"state-machine event of '{classifier.name}'",
            related=classifier,
            hint="add the operation to the class (or the trigger to its "
                 "state machine), or rename the message")


@lint_rule("XD002", "message-signature", "interaction",
           family="consistency",
           description="messages whose explicit arguments disagree with "
                       "the resolved operation's signature")
def check_message_signature(interaction: Interaction,
                            ctx: LintContext) -> Iterable[Diagnostic]:
    for message in interaction.messages:
        classifier = _receiver_classifier(message)
        if classifier is None or not message.name:
            continue
        operation = _operations(classifier).get(message.name)
        if operation is None:
            continue
        arguments = list(message.arguments)
        if not arguments:
            continue               # unparameterised scenario shorthand
        parameters = operation.in_parameters()
        if len(arguments) != len(parameters):
            yield ctx.diag(
                message,
                f"message '{message.name}' carries {len(arguments)} "
                f"argument(s) but operation "
                f"'{operation.signature()}' of '{classifier.name}' "
                f"takes {len(parameters)}",
                related=operation,
                hint="match the message arguments to the operation "
                     "parameters")
            continue
        for argument, parameter in zip(arguments, parameters):
            mismatch = _literal_mismatch(argument, parameter)
            if mismatch:
                yield ctx.diag(
                    message,
                    f"message '{message.name}' argument "
                    f"{argument!r} is {mismatch} but parameter "
                    f"'{parameter.name}' of '{classifier.name}."
                    f"{operation.name}' expects "
                    f"{parameter.type.name if parameter.type else '?'}",
                    related=operation,
                    hint="fix the argument value or the parameter type")


def _literal_type(text: str) -> Optional[str]:
    """The UML primitive a textual literal denotes, or None (not a
    literal we can judge — identifiers and expressions stay untyped)."""
    value = (text or "").strip()
    if not value:
        return None
    lowered = value.lower()
    if lowered in ("true", "false"):
        return "Boolean"
    try:
        int(value)
        return "Integer"
    except ValueError:
        pass
    try:
        float(value)
        return "Real"
    except ValueError:
        pass
    if len(value) >= 2 and value[0] in "'\"" and value[-1] == value[0]:
        return "String"
    return None


def _literal_mismatch(argument: str, parameter: Parameter) -> Optional[str]:
    """A description of the literal/parameter type disagreement, if
    provable."""
    expected = parameter.type.name if parameter.type is not None else None
    if expected not in ("Integer", "Real", "Boolean", "String"):
        return None
    actual = _literal_type(argument)
    if actual is None or actual == expected:
        return None
    if actual == "Integer" and expected == "Real":
        return None                   # integers widen to reals
    return f"a {actual} literal"


@lint_rule("XD003", "message-unreachable-trigger", "interaction",
           family="consistency",
           description="messages whose trigger the receiver's state "
                       "machine only accepts in unreachable states")
def check_message_reachable(interaction: Interaction,
                            ctx: LintContext) -> Iterable[Diagnostic]:
    for message in interaction.messages:
        classifier = _receiver_classifier(message)
        if classifier is None or not message.name:
            continue
        if message.name in _operations(classifier):
            continue               # handled as a call, not an event
        machine = _machine_of(classifier)
        if machine is None \
                or message.name not in _machine_triggers(machine):
            continue               # XD001 territory
        # one analysis per machine per pass, however many messages it
        # receives
        cache_key = ("xd003-reachability", id(machine))
        if cache_key not in ctx.cache:
            ctx.cache[cache_key] = compute_reachability(machine)
        summary = ctx.cache[cache_key]
        if summary is None or summary.accepts(message.name):
            continue
        yield ctx.diag(
            message,
            f"event '{message.name}' sent to '{classifier.name}' is "
            f"only accepted in states unreachable from machine "
            f"'{machine.name}'s initial configuration",
            related=machine,
            hint="connect the accepting state to the initial "
                 "configuration or retarget the message")


# ---------------------------------------------------------------------------
# XD004 — state machine vs class model (action-language features)
# ---------------------------------------------------------------------------


def _owning_classifier(element: Element) -> Optional[StructuredClassifier]:
    container = element.container
    if isinstance(container, StructuredClassifier):
        return container
    return None


def _action_programs(machine: StateMachine
                     ) -> List[Tuple[Element, str, str]]:
    """(anchor element, program kind, text) for every action program."""
    programs: List[Tuple[Element, str, str]] = []
    for transition in machine.all_transitions():
        if transition.effect:
            source = transition.source.name if transition.source else "?"
            programs.append((transition, f"effect (from '{source}')",
                             transition.effect))
    for vertex in machine.all_vertices():
        if isinstance(vertex, State):
            for kind, text in (("entry", vertex.entry),
                               ("exit", vertex.exit),
                               ("do", vertex.do_activity)):
                if text:
                    programs.append((vertex, f"{kind} of '{vertex.name}'",
                                     text))
    return programs


@lint_rule("XD004", "effect-unknown-feature", "statemachine",
           family="consistency",
           description="transition effects and state actions referencing "
                       "features the owning class does not declare")
def check_effect_features(machine: StateMachine,
                          ctx: LintContext) -> Iterable[Diagnostic]:
    owner = _owning_classifier(machine)
    if owner is None:
        return
    attributes = {p.name for p in owner.all_attributes()}
    operations = set(_operations(owner))
    links = {p.name: p.type for p in owner.all_attributes()
             if isinstance(p.type, Clazz)}
    for anchor, where, program in _action_programs(machine):
        for statement in parse_actions(program):
            if isinstance(statement, AssignStmt):
                target = statement.lhs
                if target.startswith("self."):
                    target = target[len("self."):]
                if "." in target or not target.isidentifier():
                    continue           # navigation chains: out of fragment
                if target not in attributes:
                    yield ctx.diag(
                        anchor,
                        f"{where} in machine '{machine.name}' assigns "
                        f"'{target}', which is not an attribute of "
                        f"'{owner.name}'",
                        severity=Severity.WARNING, related=owner,
                        hint=f"declare '{target}' on '{owner.name}' or "
                             f"fix the assignment target")
            elif isinstance(statement, CallStmt):
                receiver = (statement.receiver or "self").split(".")[-1]
                if receiver in ("self", ""):
                    callee, callee_ops = owner, operations
                elif receiver in links:
                    callee = links[receiver]
                    callee_ops = set(_operations(callee))
                else:
                    yield ctx.diag(
                        anchor,
                        f"{where} in machine '{machine.name}' calls "
                        f"'{statement.operation}' on '{receiver}', which "
                        f"is not an object-valued feature of "
                        f"'{owner.name}'",
                        related=owner,
                        hint="add the association end or call on self")
                    continue
                if statement.operation not in callee_ops:
                    yield ctx.diag(
                        anchor,
                        f"{where} in machine '{machine.name}' calls "
                        f"unknown operation '{statement.operation}' of "
                        f"'{callee.name}'",
                        related=callee,
                        hint=f"declare the operation on '{callee.name}'")
            elif isinstance(statement, SendStmt):
                target = statement.target.split(".")[-1]
                if target == "self" or target in links:
                    continue
                yield ctx.diag(
                    anchor,
                    f"{where} in machine '{machine.name}' sends "
                    f"'{statement.event}' to '{target}', which is not an "
                    f"object-valued feature of '{owner.name}' — the "
                    f"event would be lost at run time",
                    related=owner,
                    hint="add the association end or send to self")


# ---------------------------------------------------------------------------
# XD005 — class model vs object configurations (multiplicity feasibility)
# ---------------------------------------------------------------------------

#: stands in for an unbounded (``*``) upper bound; homogeneous scaling
#: makes any sufficiently large constant exact for rational feasibility
_UNBOUNDED = Fraction(10 ** 9)

#: a linear constraint  sum(coeffs[v] * x_v) <= const
_Constraint = Tuple[Dict[int, Fraction], Fraction]


def _fm_feasible(constraints: List[_Constraint], n_vars: int) -> bool:
    """Exact rational feasibility via Fourier–Motzkin elimination."""
    rows = [(dict(coeffs), const) for coeffs, const in constraints]
    for var in range(n_vars):
        positive, negative, rest = [], [], []
        for coeffs, const in rows:
            coefficient = coeffs.get(var, Fraction(0))
            if coefficient > 0:
                positive.append((coeffs, const))
            elif coefficient < 0:
                negative.append((coeffs, const))
            else:
                rest.append((coeffs, const))
        combined: List[_Constraint] = []
        for pos_coeffs, pos_const in positive:
            pc = pos_coeffs[var]
            for neg_coeffs, neg_const in negative:
                nc = -neg_coeffs[var]
                coeffs: Dict[int, Fraction] = {}
                for name, value in pos_coeffs.items():
                    if name != var:
                        coeffs[name] = value * nc
                for name, value in neg_coeffs.items():
                    if name == var:
                        continue
                    coeffs[name] = coeffs.get(name, Fraction(0)) \
                        + value * pc
                coeffs = {k: v for k, v in coeffs.items() if v != 0}
                combined.append((coeffs, pos_const * nc + neg_const * pc))
        rows = rest + combined
        # drop tautologies, detect contradictions early
        pruned = []
        for coeffs, const in rows:
            if not coeffs:
                if const < 0:
                    return False
                continue
            pruned.append((coeffs, const))
        rows = pruned
        if len(rows) > 4096:           # FM blow-up guard: give up (= sat)
            return True
    return all(const >= 0 for coeffs, const in rows)


def _component_constraints(classes: List[Clazz],
                           associations: List[Association]
                           ) -> Optional[List[_Constraint]]:
    """Link-count constraints over class-count variables 0..n-1 and one
    link variable per association (appended after the class counts)."""
    index = {id(cls): i for i, cls in enumerate(classes)}
    constraints: List[_Constraint] = []
    for var in range(len(classes) + len(associations)):
        constraints.append(({var: Fraction(-1)}, Fraction(0)))   # x >= 0
    for offset, association in enumerate(associations):
        link_var = len(classes) + offset
        ends = list(association.member_ends)
        if len(ends) != 2:
            return None
        for end, other in ((ends[0], ends[1]), (ends[1], ends[0])):
            # each instance of the *other* end's class holds
            # end.lower..end.upper links through this association
            if other.type is None or id(other.type) not in index:
                return None
            source_var = index[id(other.type)]
            try:
                raw_lower, raw_upper = int(end.lower), int(end.upper)
            except (TypeError, ValueError):
                return None            # degenerate bounds: not our rule
            lower = Fraction(max(raw_lower, 0))
            upper = _UNBOUNDED if raw_upper == -1 else Fraction(raw_upper)
            if lower > upper:
                return None            # ill-formed bounds: structural check
            # n_source * lower <= L  <=>  n_source*lower - L <= 0
            constraints.append(({source_var: lower,
                                 link_var: Fraction(-1)}, Fraction(0)))
            # L <= n_source * upper
            constraints.append(({link_var: Fraction(1),
                                 source_var: -upper}, Fraction(0)))
    return constraints


def _association_components(root: Element
                            ) -> List[Tuple[List[Clazz],
                                            List[Association]]]:
    """Connected components of the class–association graph."""
    classes: Dict[int, Clazz] = {id(cls): cls
                                 for cls in instances_of(root, Clazz)}
    associations: List[Association] = instances_of(root, Association)

    parent: Dict[int, int] = {key: key for key in classes}

    def find(key: int) -> int:
        while parent[key] != key:
            parent[key] = parent[parent[key]]
            key = parent[key]
        return key

    linked: Dict[int, List[Association]] = {}
    for association in associations:
        ends = [end.type for end in association.member_ends
                if end.type is not None and id(end.type) in classes]
        if len(list(association.member_ends)) != len(ends) or not ends:
            continue
        anchor = find(id(ends[0]))
        for end_type in ends[1:]:
            parent[find(id(end_type))] = anchor
        linked.setdefault(id(association), []).append(association)

    groups: Dict[int, Tuple[List[Clazz], List[Association]]] = {}
    for key, cls in classes.items():
        groups.setdefault(find(key), ([], []))[0].append(cls)
    for association in associations:
        ends = [end.type for end in association.member_ends
                if end.type is not None and id(end.type) in classes]
        if len(list(association.member_ends)) == len(ends) and ends:
            groups[find(id(ends[0]))][1].append(association)
    return [group for group in groups.values() if group[1]]


#: skip pathological components rather than risk FM blow-up
_MAX_COMPONENT = 16


@lint_rule("XD005", "class-unsatisfiable", "model",
           family="consistency",
           description="classes whose association multiplicities admit "
                       "no finite non-empty object configuration")
def check_class_satisfiable(root: Element,
                            ctx: LintContext) -> Iterable[Diagnostic]:
    if not isinstance(root, Element):
        return
    for classes, associations in _association_components(root):
        if len(classes) + len(associations) > _MAX_COMPONENT:
            continue
        constraints = _component_constraints(classes, associations)
        if constraints is None:
            continue
        n_vars = len(classes) + len(associations)
        for position, cls in enumerate(classes):
            if getattr(cls, "is_abstract", False):
                continue
            query = constraints + [({position: Fraction(-1)},
                                    Fraction(-1))]      # n_cls >= 1
            if _fm_feasible(query, n_vars):
                continue
            culprit = associations[0] if len(associations) == 1 else None
            yield ctx.diag(
                cls,
                f"class '{cls.name}' can never be instantiated: no "
                f"finite object configuration satisfies the "
                f"multiplicities of its association(s) "
                f"({', '.join(a.name or '(unnamed)' for a in associations)})",
                related=culprit,
                hint="relax the association multiplicities so a "
                     "population with at least one instance exists")


# ---------------------------------------------------------------------------
# XD006 — OCL invariants no instance can satisfy
# ---------------------------------------------------------------------------


def _ast_constraints(node: Node) -> Optional[Dict[str, List[Atom]]]:
    """Per-variable atoms of a conjunction AST; None outside the
    fragment (same decomposition SM002 applies to guard text)."""
    store: Dict[str, List[Atom]] = {}
    for conjunct in _conjuncts(node):
        atom = _atomize(conjunct)
        if atom is None:
            return None
        name, op, value = atom
        store.setdefault(name, []).append((op, value))
    return store


@lint_rule("XD006", "invariant-unsatisfiable", "metaclass",
           family="consistency",
           description="registered OCL invariants that are provably "
                       "unsatisfiable — no instance can ever pass")
def check_invariant_satisfiable(metaclass: MetaClass,
                                ctx: LintContext) -> Iterable[Diagnostic]:
    for invariant in metaclass.invariants:
        ast = getattr(invariant, "ast", None)
        if ast is None:
            continue
        store = _ast_constraints(ast)
        if store is None:
            continue
        for name, atoms in store.items():
            if not _satisfiable(atoms):
                yield ctx.diag(
                    metaclass,
                    f"invariant '{invariant.name}' "
                    f"({invariant.expression!r}) is unsatisfiable: the "
                    f"constraints on '{name}' contradict — every "
                    f"instance of '{metaclass.name}' will fail it",
                    related=invariant,
                    hint="fix the contradictory comparison bounds")
                break


# ---------------------------------------------------------------------------
# XD007 — messages without a supporting association
# ---------------------------------------------------------------------------


def _associated_pairs(root: Element) -> Set[Tuple[int, int]]:
    """Unordered classifier-id pairs connected by an association or an
    object-valued attribute."""
    pairs: Set[Tuple[int, int]] = set()

    def connect(a: Any, b: Any) -> None:
        if a is None or b is None:
            return
        pairs.add((id(a), id(b)))
        pairs.add((id(b), id(a)))

    for association in instances_of(root, Association):
        types = [end.type for end in association.member_ends
                 if end.type is not None]
        for i, first in enumerate(types):
            for second in types[i:]:
                connect(first, second)
    for classifier in instances_of(root, StructuredClassifier):
        for prop in classifier.owned_attributes:
            if isinstance(prop.type, Clazz):
                connect(classifier, prop.type)
    return pairs


def _ancestry(classifier: StructuredClassifier) -> List[Any]:
    return [classifier] + list(classifier.all_supers())


@lint_rule("XD007", "message-no-association", "interaction",
           family="consistency", severity=Severity.WARNING,
           description="messages between lifelines whose classifiers "
                       "share no association (no connector to carry the "
                       "communication)")
def check_message_association(interaction: Interaction,
                              ctx: LintContext) -> Iterable[Diagnostic]:
    root = ctx.root
    if root is None:
        return
    cache_key = ("xd007-pairs", id(root))
    pairs = ctx.cache.get(cache_key)
    if pairs is None:
        pairs = ctx.cache[cache_key] = _associated_pairs(root)
    for message in interaction.messages:
        sender_line, receiver_line = (message.send_lifeline,
                                      message.receive_lifeline)
        if sender_line is None or receiver_line is None:
            continue
        sender, receiver = sender_line.represents, receiver_line.represents
        if not isinstance(sender, Clazz) or not isinstance(receiver, Clazz):
            continue
        if sender is receiver:
            continue
        if any((id(a), id(b)) in pairs
               for a in _ancestry(sender) for b in _ancestry(receiver)):
            continue
        yield ctx.diag(
            message,
            f"message '{message.name}' flows from '{sender.name}' to "
            f"'{receiver.name}' but no association connects the two "
            f"classes",
            related=receiver,
            hint=f"associate '{sender.name}' with '{receiver.name}' in "
                 f"the class model")
