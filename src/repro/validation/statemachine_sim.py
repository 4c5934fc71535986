"""State-machine interpretation — "validations (simulation, animation)".

Executes UML state machines with run-to-completion semantics over M0
object instances.  Guards are OCL-like expressions over the instance's
attributes; effects/entry/exit are action-language programs (assignment,
``send``, ``call``) shared with the code generator, so what the simulator
executes is exactly what the generated code will do.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from ..codegen.actions import parse_actions
from ..codegen.ir import AssignStmt, CallStmt, CommentStmt, SendStmt
from ..ocl import Environment, evaluate
from ..ocl.errors import OclError
from ..transform.library import flatten_state_machine
from ..uml import (Clazz, FinalState, Property, Pseudostate, State,
                   StateMachine)

MAX_COMPLETION_CHAIN = 32


class SimulationError(Exception):
    """Raised when a model cannot be executed."""


def _default_for(prop: Property) -> Any:
    """Initial attribute value from the property's type and default."""
    text = prop.default_value or ""
    type_name = prop.type.name if prop.type is not None else ""
    if text:
        lowered = text.strip().lower()
        if lowered in ("true", "false"):
            return lowered == "true"
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return float(text)
        except ValueError:
            pass
        return text
    if type_name in ("Integer",):
        return 0
    if type_name in ("Real",):
        return 0.0
    if type_name in ("Boolean",):
        return False
    if type_name in ("String",):
        return ""
    return 0


@dataclass
class Event:
    """An event instance in flight."""

    name: str
    arguments: Tuple[Any, ...] = ()

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.arguments)
        return f"{self.name}({args})"


class ObjectInstance:
    """An M0 instance of a class: attribute slots, links, a state, a
    queue."""

    def __init__(self, name: str, clazz: Clazz,
                 overrides: Optional[Dict[str, Any]] = None):
        self.name = name
        self.clazz = clazz
        self.attributes: Dict[str, Any] = {}
        self.links: Dict[str, "ObjectInstance"] = {}
        self.queue: Deque[Event] = deque()
        self.current_state: Optional[State] = None
        self.completed = False
        for prop in clazz.all_attributes():
            if isinstance(prop.type, Clazz):
                continue    # object-valued ends become links, not attributes
            self.attributes[prop.name] = _default_for(prop)
        for key, value in (overrides or {}).items():
            self.attributes[key] = value

    @property
    def state_name(self) -> Optional[str]:
        return self.current_state.name if self.current_state else None

    def link(self, end_name: str, other: "ObjectInstance") -> None:
        self.links[end_name] = other

    def snapshot(self) -> tuple:
        return (self.state_name, tuple(sorted(self.attributes.items())),
                tuple(e.name for e in self.queue), self.completed)

    def __repr__(self) -> str:
        return (f"<obj {self.name}:{self.clazz.name} "
                f"@{self.state_name} {self.attributes}>")


TraceHook = Callable[[str, "ObjectInstance", Dict[str, Any]], None]


class StateMachineInterpreter:
    """Executes one object's state machine.

    ``send_hook(target_instance, event)`` lets a surrounding collaboration
    deliver cross-object events; standalone interpreters loop sends back to
    their own queue when the target link is missing.
    """

    def __init__(self, instance: ObjectInstance,
                 machine: Optional[StateMachine] = None, *,
                 send_hook: Optional[Callable[[ObjectInstance, Event],
                                              None]] = None,
                 trace_hook: Optional[TraceHook] = None):
        self.instance = instance
        source_machine = machine or instance.clazz.state_machine()
        if source_machine is None or not source_machine.regions:
            raise SimulationError(
                f"class '{instance.clazz.name}' has no state machine")
        if any(isinstance(v, State) and v.is_composite
               for v in source_machine.all_vertices()):
            source_machine = flatten_state_machine(source_machine)
        self.machine = source_machine
        self.region = source_machine.main_region()
        self.send_hook = send_hook
        self.trace_hook = trace_hook

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Enter the initial configuration."""
        initial = self.region.initial_pseudostate()
        if initial is None:
            raise SimulationError(
                f"machine '{self.machine.name}' has no initial pseudostate")
        transition = initial.outgoing()[0]
        self._execute_actions(transition.effect)
        self._enter(transition.target)
        self._fire_completions()

    def dispatch(self, event: Event) -> bool:
        """One run-to-completion step; returns True when a transition
        fired."""
        if self.instance.completed or self.instance.current_state is None:
            return False
        fired = False
        for transition in self.instance.current_state.outgoing():
            if transition.trigger != event.name:
                continue
            if not self._guard_holds(transition.guard, event):
                continue
            self._take(transition, event)
            fired = True
            break
        if not fired:
            self._trace("drop", {"event": event.name})
            return False
        self._fire_completions()
        return True

    def step(self) -> bool:
        """Dispatch the next queued event, if any."""
        if not self.instance.queue:
            return False
        return self.dispatch(self.instance.queue.popleft())

    def run_to_quiescence(self, max_steps: int = 1000) -> int:
        steps = 0
        while self.instance.queue and steps < max_steps:
            self.step()
            steps += 1
        return steps

    # -- internals ---------------------------------------------------------

    def _take(self, transition, event: Event) -> None:
        source = self.instance.current_state
        if getattr(transition, "is_internal", False):
            self._execute_actions(transition.effect, event)
            self._trace("internal", {"state": source.name if source
                                     else None,
                                     "event": event.name if event else ""})
            return
        if isinstance(source, State) and source.exit:
            self._execute_actions(source.exit)
        self._execute_actions(transition.effect, event)
        self._trace("transition", {
            "from": source.name if source else None,
            "to": transition.target.name if transition.target else None,
            "event": event.name if event else "",
        })
        self._enter(transition.target)

    def _enter(self, vertex, _choice_depth: int = 0) -> None:
        if isinstance(vertex, FinalState):
            self.instance.current_state = None
            self.instance.completed = True
            self._trace("final", {})
            return
        if isinstance(vertex, Pseudostate) and vertex.kind == "choice":
            # dynamic choice: guards are evaluated AFTER the incoming
            # transition's effect ran; 'else' (or guardless) is default.
            if _choice_depth > 8:
                raise SimulationError(
                    f"choice chain too deep at '{vertex.name}'")
            chosen = None
            default = None
            for candidate in vertex.outgoing():
                guard = (candidate.guard or "").strip()
                if guard in ("", "else"):
                    default = default or candidate
                elif self._guard_holds(guard, None):
                    chosen = candidate
                    break
            chosen = chosen or default
            if chosen is None:
                raise SimulationError(
                    f"choice '{vertex.name}' on '{self.instance.name}': "
                    f"no branch enabled and no else branch")
            self._execute_actions(chosen.effect)
            self._trace("choice", {"at": vertex.name,
                                   "taken": chosen.guard or "else"})
            self._enter(chosen.target, _choice_depth + 1)
            return
        if not isinstance(vertex, State):
            raise SimulationError(
                f"cannot enter vertex {vertex!r} (unsupported kind)")
        self.instance.current_state = vertex
        if vertex.entry:
            self._execute_actions(vertex.entry)
        self._trace("state", {"state": vertex.name})

    def _fire_completions(self) -> None:
        for _ in range(MAX_COMPLETION_CHAIN):
            state = self.instance.current_state
            if state is None:
                return
            candidates = [t for t in state.outgoing()
                          if t.is_completion
                          and self._guard_holds(t.guard, None)]
            if not candidates:
                return
            self._take(candidates[0], Event(""))
        raise SimulationError(
            f"completion-transition livelock in state "
            f"'{self.instance.state_name}' of '{self.instance.name}'")

    def _guard_holds(self, guard: str, event: Optional[Event]) -> bool:
        if not guard:
            return True
        env = self._environment(event)
        try:
            return evaluate(guard, env) is True
        except OclError as exc:
            raise SimulationError(
                f"guard {guard!r} on '{self.instance.name}' failed: {exc}"
            ) from exc

    def _environment(self, event: Optional[Event] = None) -> Environment:
        env = Environment()
        env.define("self", self.instance.attributes)
        for key, value in self.instance.attributes.items():
            env.define(key, value)
        if event is not None and event.arguments:
            for index, argument in enumerate(event.arguments):
                env.define(f"arg{index}", argument)
        return env

    def _execute_actions(self, program: str,
                         event: Optional[Event] = None) -> None:
        for stmt in parse_actions(program):
            if isinstance(stmt, AssignStmt):
                value = self._eval(stmt.rhs, event)
                target = stmt.lhs.replace("self.", "")
                self.instance.attributes[target] = value
                self._trace("assign", {"attr": target, "value": value})
            elif isinstance(stmt, SendStmt):
                arguments = tuple(self._eval(a, event)
                                  for a in stmt.arguments)
                self._emit(stmt.target, Event(stmt.event, arguments))
            elif isinstance(stmt, CallStmt):
                self._call(stmt, event)
            elif isinstance(stmt, CommentStmt):
                self._trace("note", {"text": stmt.text})

    def _eval(self, expression: str, event: Optional[Event] = None) -> Any:
        env = self._environment(event)
        try:
            return evaluate(expression, env)
        except OclError as exc:
            raise SimulationError(
                f"expression {expression!r} on '{self.instance.name}' "
                f"failed: {exc}") from exc

    def _emit(self, target_path: str, event: Event) -> None:
        target_name = target_path.split(".")[-1]
        if target_name in ("self", self.instance.name):
            self.instance.queue.append(event)
            self._trace("send", {"to": self.instance.name,
                                 "event": event.name})
            return
        target = self.instance.links.get(target_name)
        if target is None:
            self._trace("send-lost", {"to": target_name,
                                      "event": event.name})
            return
        if self.send_hook is not None:
            self.send_hook(target, event)
        else:
            target.queue.append(event)
        self._trace("send", {"to": target.name, "event": event.name})

    def _call(self, stmt: CallStmt, event: Optional[Event]) -> None:
        """Synchronous operation call: execute the operation's action-body
        against the receiver's attributes."""
        receiver = self.instance
        if stmt.receiver and stmt.receiver not in ("self",
                                                   self.instance.name):
            linked = self.instance.links.get(stmt.receiver.split(".")[-1])
            if linked is None:
                self._trace("call-lost", {"op": stmt.operation})
                return
            receiver = linked
        operation = None
        for candidate in receiver.clazz.all_operations():
            if candidate.name == stmt.operation:
                operation = candidate
                break
        if operation is None or not operation.body:
            self._trace("call-noop", {"op": stmt.operation,
                                      "on": receiver.name})
            return
        arguments = [self._eval(a, event) for a in stmt.arguments]
        env = Environment()
        env.define("self", receiver.attributes)
        for key, value in receiver.attributes.items():
            env.define(key, value)
        for parameter, value in zip(operation.in_parameters(), arguments):
            env.define(parameter.name, value)
        for inner in parse_actions(operation.body):
            if isinstance(inner, AssignStmt):
                target = inner.lhs.replace("self.", "")
                receiver.attributes[target] = evaluate(inner.rhs, env)
                env.define(target, receiver.attributes[target])
        self._trace("call", {"op": stmt.operation, "on": receiver.name})

    def _trace(self, kind: str, detail: Dict[str, Any]) -> None:
        if self.trace_hook is not None:
            self.trace_hook(kind, self.instance, detail)
