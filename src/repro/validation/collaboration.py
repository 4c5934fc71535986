"""Object collaboration simulation — emergent behaviour made executable.

The paper: "the global behaviour or functionality is **emergent** from the
particular collaborations and configurations of objects and their
relationships rather than being specified explicitly for the whole
system."  A :class:`Collaboration` is exactly that configuration: a set of
object instances wired by links; running it produces global behaviour that
no single machine specifies.

The run is deterministic (round-robin over objects in creation order), so
scenario tests and the model checker agree on semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..uml import Association, Clazz, Package
from ..mof import instances_of
from .statemachine_sim import (
    Event,
    ObjectInstance,
    SimulationError,
    StateMachineInterpreter,
)


@dataclass
class TraceEntry:
    """One observed simulation occurrence."""

    step: int
    kind: str                 # state/transition/send/assign/drop/...
    object_name: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.step:4d}] {self.object_name:<12} {self.kind:<10} {detail}"


class Collaboration:
    """A configuration of linked object instances, executable as a whole."""

    def __init__(self, name: str = "collaboration"):
        self.name = name
        self.objects: Dict[str, ObjectInstance] = {}
        self.interpreters: Dict[str, StateMachineInterpreter] = {}
        self.trace: List[TraceEntry] = []
        self._step = 0
        self._started = False

    # -- construction ------------------------------------------------------

    def create_object(self, name: str, clazz: Clazz,
                      **attribute_overrides: Any) -> ObjectInstance:
        if name in self.objects:
            raise SimulationError(f"object '{name}' already exists")
        instance = ObjectInstance(name, clazz, attribute_overrides)
        self.objects[name] = instance
        if clazz.state_machine() is not None:
            self.interpreters[name] = StateMachineInterpreter(
                instance,
                send_hook=self._deliver,
                trace_hook=self._record)
        return instance

    def link(self, source: str, end_name: str, target: str, *,
             both_ways: bool = False,
             reverse_end: Optional[str] = None) -> None:
        """Wire ``source.end_name -> target`` (optionally the reverse too)."""
        self.objects[source].link(end_name, self.objects[target])
        if both_ways:
            self.objects[target].link(reverse_end or source,
                                      self.objects[source])

    def wire_from_model(self, assignments: Dict[str, str],
                        root: Package) -> None:
        """Auto-link objects according to the model's associations.

        *assignments* maps object names to class names; for every
        association end typed by a class with exactly one instance here,
        the link is created using the end name.
        """
        by_class: Dict[str, List[str]] = {}
        for object_name, class_name in assignments.items():
            by_class.setdefault(class_name, []).append(object_name)
        for association in instances_of(root, Association):
            ends = list(association.member_ends)
            if len(ends) != 2:
                continue
            for end, other_end in ((ends[0], ends[1]), (ends[1], ends[0])):
                # end is reachable FROM other_end's type via 'end.name'
                if end.type is None or other_end.type is None:
                    continue
                source_names = by_class.get(other_end.type.name, [])
                target_names = by_class.get(end.type.name, [])
                if len(source_names) == 1 and len(target_names) == 1:
                    self.link(source_names[0], end.name, target_names[0])

    # -- execution ---------------------------------------------------------

    def start(self) -> None:
        """Enter every machine's initial configuration."""
        for name, interpreter in self.interpreters.items():
            interpreter.start()
        self._started = True

    def send(self, object_name: str, event_name: str,
             *arguments: Any) -> None:
        """Inject an external stimulus."""
        instance = self.objects[object_name]
        instance.queue.append(Event(event_name, tuple(arguments)))
        self._record("inject", instance, {"event": event_name})

    def run(self, max_steps: int = 10_000) -> int:
        """Round-robin dispatch until quiescence (or the step bound).

        Returns the number of dispatch steps performed.
        """
        if not self._started:
            self.start()
        steps = 0
        while steps < max_steps:
            progressed = False
            for name in self.objects:
                interpreter = self.interpreters.get(name)
                if interpreter is None:
                    continue
                if self.objects[name].queue:
                    self._step += 1
                    interpreter.step()
                    steps += 1
                    progressed = True
                    if steps >= max_steps:
                        return steps
            if not progressed:
                break
        return steps

    @property
    def quiescent(self) -> bool:
        return all(not obj.queue for obj in self.objects.values())

    # -- observation -------------------------------------------------------

    def _deliver(self, target: ObjectInstance, event: Event) -> None:
        target.queue.append(event)

    def _record(self, kind: str, instance: ObjectInstance,
                detail: Dict[str, Any]) -> None:
        self.trace.append(TraceEntry(self._step, kind, instance.name,
                                     dict(detail)))

    def messages(self) -> List[Tuple[str, str, str]]:
        """(sender, receiver, event) triples observed, in order."""
        out: List[Tuple[str, str, str]] = []
        for entry in self.trace:
            if entry.kind == "send":
                out.append((entry.object_name, entry.detail.get("to", "?"),
                            entry.detail.get("event", "?")))
        return out

    def configuration(self) -> Dict[str, Optional[str]]:
        """Current state name of every object."""
        return {name: obj.state_name for name, obj in self.objects.items()}

    def attribute(self, object_name: str, attribute_name: str) -> Any:
        return self.objects[object_name].attributes[attribute_name]

    # -- snapshot/restore (used by the model checker) -----------------------

    def snapshot(self) -> tuple:
        return tuple(sorted(
            (name, obj.snapshot()) for name, obj in self.objects.items()))

    def save_state(self) -> Dict[str, Any]:
        return {
            name: {
                "attributes": dict(obj.attributes),
                "queue": list(obj.queue),
                "state": obj.current_state,
                "completed": obj.completed,
            }
            for name, obj in self.objects.items()
        }

    def load_state(self, saved: Dict[str, Any]) -> None:
        for name, data in saved.items():
            obj = self.objects[name]
            obj.attributes = dict(data["attributes"])
            obj.queue.clear()
            obj.queue.extend(data["queue"])
            obj.current_state = data["state"]
            obj.completed = data["completed"]
