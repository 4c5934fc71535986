"""PSM → IR lowering — the *semantic* half of code generation.

Consumes a platform-specific UML model and produces the language-neutral
:class:`~repro.codegen.ir.CodeModel`:

* every class → a struct with fields from its (own + inherited)
  attributes, an ``init`` function, and one function per operation;
* every class with a state machine → a state enum, an event enum, and a
  ``dispatch(self, event)`` function implementing the (flattened)
  transition table with guards and effects;
* enumerations → enum declarations.

Everything downstream of this module is syntactic pretty-printing.
"""

from __future__ import annotations

from typing import List, Optional

from ..transform.library import flatten_state_machine
from ..uml import (
    Behavior,
    Clazz,
    Enumeration,
    Interface,
    Package,
    State,
    StateMachine,
    UmlModel,
)
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .actions import parse_actions, qualify_identifiers, qualify_stmt
from .ir import (
    AssignStmt,
    BreakStmt,
    CodeModel,
    CommentStmt,
    CompilationUnit,
    EnumDecl,
    Field_,
    FunctionDecl,
    IfStmt,
    Param,
    ReturnStmt,
    StructDecl,
    SwitchCase,
    SwitchStmt,
)

SELF_PARAM = "self"


def _is_activity(behavior) -> bool:
    from ..uml.activities import Activity
    return isinstance(behavior, Activity)


def _type_name(property_or_param) -> str:
    typed = property_or_param.type
    return typed.name if typed is not None else "int"


def lower_class(cls: Clazz, unit: CompilationUnit) -> StructDecl:
    """Lower one class to a struct + functions inside *unit*."""
    struct = StructDecl(name=cls.name, is_active=cls.is_active,
                        doc=f"generated from class '{cls.qualified_name}'")
    for prop in cls.all_attributes():
        struct.fields.append(Field_(
            name=prop.name, type_name=_type_name(prop),
            default=prop.default_value or None,
            doc=prop.multiplicity_str() if prop.is_many else ""))
    unit.structs.append(struct)

    init = FunctionDecl(name=f"{cls.name}_init", return_type="void",
                        params=[Param(SELF_PARAM, f"{cls.name}*")],
                        owner_struct=cls.name,
                        doc=f"initialise a {cls.name} instance")
    for field in struct.fields:
        if field.default is not None:
            init.body.append(AssignStmt(lhs=f"{SELF_PARAM}.{field.name}",
                                        rhs=field.default))
    unit.functions.append(init)

    for operation in cls.all_operations():
        function = FunctionDecl(
            name=f"{cls.name}_{operation.name}",
            return_type=(operation.return_type().name
                         if operation.return_type() else "void"),
            params=[Param(SELF_PARAM, f"{cls.name}*")]
            + [Param(p.name, _type_name(p))
               for p in operation.in_parameters()],
            owner_struct=cls.name,
            doc=operation.signature())
        param_names = {p.name for p in operation.in_parameters()}
        field_names = {f.name for f in struct.fields} - param_names
        method = operation.method
        if method is not None and _is_activity(method):
            from .activity_lower import lower_activity
            compiled = lower_activity(method,
                                      function_name=function.name,
                                      field_names=field_names)
            function.body.extend(compiled.body)
        else:
            function.body.extend(
                qualify_stmt(stmt, field_names)
                for stmt in parse_actions(operation.body))
        if operation.return_type() is not None and not any(
                isinstance(stmt, ReturnStmt) for stmt in function.body):
            function.body.append(ReturnStmt(expr="0"))
        unit.functions.append(function)

    machine = cls.state_machine()
    if machine is not None and machine.regions:
        lower_state_machine(cls, machine, struct, unit)
    return struct


def lower_state_machine(cls: Clazz, machine: StateMachine,
                        struct: StructDecl, unit: CompilationUnit) -> None:
    """Lower a (possibly hierarchical) state machine into enums + dispatch."""
    if any(isinstance(v, State) and v.is_composite
           for v in machine.all_vertices()):
        machine = flatten_state_machine(machine)

    state_names = [s.name for s in machine.all_vertices()
                   if isinstance(s, State)]
    events = machine.events()
    prefix = cls.name.upper()

    unit.enums.append(EnumDecl(
        name=f"{cls.name}_state",
        literals=[f"{prefix}_STATE_{n.upper()}" for n in state_names],
        doc=f"states of '{machine.name}'"))
    unit.enums.append(EnumDecl(
        name=f"{cls.name}_event",
        literals=[f"{prefix}_EVENT_{e.upper()}" for e in events],
        doc=f"events of '{machine.name}'"))
    struct.fields.append(Field_(name="state",
                                type_name=f"{cls.name}_state"))

    dispatch = FunctionDecl(
        name=f"{cls.name}_dispatch", return_type="void",
        params=[Param(SELF_PARAM, f"{cls.name}*"),
                Param("event", f"{cls.name}_event")],
        owner_struct=cls.name,
        doc=f"run-to-completion step of '{machine.name}'")
    switch = SwitchStmt(selector=f"{SELF_PARAM}.state")

    field_names = {f.name for f in struct.fields}
    region = machine.main_region()

    def _entry_statements(target, effect: str) -> List:
        """Statements for taking a transition: effect, then either a state
        assignment, a choice expansion (nested if over its branches), or a
        final-state comment."""
        from ..uml import Pseudostate
        statements: List = [qualify_stmt(stmt, field_names)
                            for stmt in parse_actions(effect)]
        if isinstance(target, Pseudostate) and target.kind == "choice":
            branches = list(target.outgoing())
            guarded = [t for t in branches
                       if (t.guard or "").strip() not in ("", "else")]
            defaults = [t for t in branches if t not in guarded]
            chain: List = []
            for default in defaults[:1]:
                chain = _entry_statements(default.target, default.effect)
            for branch in reversed(guarded):
                chain = [IfStmt(
                    condition=qualify_identifiers(branch.guard,
                                                  field_names),
                    then_body=_entry_statements(branch.target,
                                                branch.effect),
                    else_body=chain)]
            statements.extend(chain)
            return statements
        if isinstance(target, State):
            statements.append(AssignStmt(
                lhs=f"{SELF_PARAM}.state",
                rhs=f"{prefix}_STATE_{target.name.upper()}"))
        else:
            statements.append(CommentStmt(text="final state reached"))
        return statements

    for state in region.states():
        case = SwitchCase(label=f"{prefix}_STATE_{state.name.upper()}")
        for transition in state.outgoing():
            if not transition.trigger:
                continue
            target = transition.target
            body: List = _entry_statements(target, transition.effect)
            guard_wrapped: List = body
            if transition.guard:
                guard_wrapped = [IfStmt(
                    condition=qualify_identifiers(transition.guard,
                                                  field_names),
                    then_body=body)]
            event_check = IfStmt(
                condition=f"event = "
                          f"{prefix}_EVENT_{transition.trigger.upper()}",
                then_body=guard_wrapped + [BreakStmt()])
            case.body.append(event_check)
        case.body.append(BreakStmt())
        switch.cases.append(case)
    switch.default.append(BreakStmt())
    dispatch.body.append(switch)
    unit.functions.append(dispatch)

    # initial-state setter
    initial = region.initial_pseudostate()
    if initial is not None and initial.outgoing():
        entry_target = initial.outgoing()[0].target
        if isinstance(entry_target, State):
            enter = FunctionDecl(
                name=f"{cls.name}_enter_initial", return_type="void",
                params=[Param(SELF_PARAM, f"{cls.name}*")],
                owner_struct=cls.name,
                doc="enter the state machine's initial configuration")
            for stmt in parse_actions(initial.outgoing()[0].effect):
                enter.body.append(qualify_stmt(stmt, field_names))
            enter.body.append(AssignStmt(
                lhs=f"{SELF_PARAM}.state",
                rhs=f"{prefix}_STATE_{entry_target.name.upper()}"))
            unit.functions.append(enter)


def lower_model(model: UmlModel, name: Optional[str] = None) -> CodeModel:
    """Lower a whole PSM to a :class:`CodeModel` (one unit per package,
    plus one for root-level classes)."""
    if _trace.ON:
        with _trace.span("codegen.lower", model=model.name or "?") as sp:
            code = _lower_model_impl(model, name)
        sp.tag(units=len(code.units))
        _metrics.REGISTRY.counter(
            "codegen.lower.structs",
            help="struct declarations lowered").inc(
                sum(len(u.structs) for u in code.units))
        _metrics.REGISTRY.counter(
            "codegen.lower.functions",
            help="function declarations lowered").inc(
                sum(len(u.functions) for u in code.units))
        return code
    return _lower_model_impl(model, name)


def _lower_model_impl(model: UmlModel, name: Optional[str]) -> CodeModel:
    code = CodeModel(name=name or model.name)

    def _unit_for(package: Package) -> CompilationUnit:
        unit_name = package.name or "main"
        unit = code.unit(unit_name)
        if unit is None:
            unit = CompilationUnit(
                name=unit_name,
                doc=f"generated from package '{package.qualified_name}'")
            code.units.append(unit)
        return unit

    def _walk(package: Package) -> None:
        unit = _unit_for(package)
        for member in package.packaged_elements:
            if isinstance(member, Package):
                _walk(member)
            elif isinstance(member, Enumeration):
                unit.enums.append(EnumDecl(
                    name=member.name,
                    literals=[f"{member.name.upper()}_{l.upper()}"
                              for l in member.literal_names()]))
            elif isinstance(member, Clazz) and not isinstance(member,
                                                              Behavior):
                lower_class(member, unit)
            elif isinstance(member, Interface):
                # interfaces become doc-only comments in the C-ish IR
                unit.doc += f"\ninterface {member.name}: " + ", ".join(
                    op.name for op in member.all_operations())
    _walk(model)
    code.units = [u for u in code.units
                  if u.structs or u.enums or u.functions]
    return code
