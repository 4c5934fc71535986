"""Timed (discrete-event) collaboration simulation.

The untimed simulator answers *what* happens; platform engineering also
needs *when*.  A :class:`TimedCollaboration` runs the same state machines
under a discrete-event scheduler: every sent event is stamped with a
delivery time = now + channel latency (+ per-hop processing), and the
run advances a virtual clock event by event.  The result carries
per-message latencies, so offered QoS can be *measured* against a
platform instead of only estimated — the dynamic counterpart of
:func:`repro.profiles.qos.estimate_path_latency_ms`.

Latencies come from the platform model: the communication mechanism the
PIM→PSM mapping would pick for each link (or an explicit per-link
override).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..platforms.base import PlatformModel
from .collaboration import Collaboration
from .statemachine_sim import Event, ObjectInstance


@dataclass(order=True)
class _ScheduledEvent:
    time_ms: float
    sequence: int
    target_name: str = field(compare=False)
    event: Event = field(compare=False)
    sent_at_ms: float = field(compare=False, default=0.0)
    sender_name: str = field(compare=False, default="")


@dataclass
class MessageTiming:
    sender: str
    receiver: str
    event: str
    sent_ms: float
    delivered_ms: float

    @property
    def latency_ms(self) -> float:
        return self.delivered_ms - self.sent_ms


class TimedCollaboration(Collaboration):
    """A collaboration with a virtual clock and latency-stamped delivery.

    ``default_comm_kinds`` selects which platform mechanism prices each
    link (same preference order as the PIM→PSM mapping); per-link
    overrides via :meth:`set_link_latency`.
    """

    def __init__(self, name: str = "timed", *,
                 platform: Optional[PlatformModel] = None,
                 processing_ms: float = 0.0,
                 default_comm_kinds: Tuple[str, ...] =
                 ("queue", "topic", "signal", "bus")):
        super().__init__(name)
        self.platform = platform
        self.processing_ms = processing_ms
        self.now_ms = 0.0
        self.timings: List[MessageTiming] = []
        self._heap: List[_ScheduledEvent] = []
        self._sequence = itertools.count()
        self._link_latency: Dict[Tuple[str, str], float] = {}
        self._default_latency = self._platform_latency(default_comm_kinds)

    def _platform_latency(self, kinds: Tuple[str, ...]) -> float:
        if self.platform is None:
            return 0.0
        comm = self.platform.comm_for(*kinds)
        return (comm.latency_us / 1000.0) if comm is not None else 0.0

    # -- configuration ------------------------------------------------------

    def set_link_latency(self, sender: str, receiver: str,
                         latency_ms: float) -> None:
        """Override the latency of one directed object pair."""
        self._link_latency[(sender, receiver)] = latency_ms

    def latency_between(self, sender: str, receiver: str) -> float:
        return self._link_latency.get(
            (sender, receiver),
            self._default_latency) + self.processing_ms

    # -- event plumbing -----------------------------------------------------

    def _deliver(self, target: ObjectInstance, event: Event) -> None:
        """Intercept sends from the interpreters: schedule instead of
        enqueueing immediately."""
        sender_name = self._current_sender or ""
        latency = self.latency_between(sender_name, target.name)
        heapq.heappush(self._heap, _ScheduledEvent(
            time_ms=self.now_ms + latency,
            sequence=next(self._sequence),
            target_name=target.name,
            event=event,
            sent_at_ms=self.now_ms,
            sender_name=sender_name))

    _current_sender: Optional[str] = None

    def send_at(self, time_ms: float, object_name: str, event_name: str,
                *arguments: Any) -> None:
        """Schedule an external stimulus at an absolute virtual time."""
        heapq.heappush(self._heap, _ScheduledEvent(
            time_ms=time_ms,
            sequence=next(self._sequence),
            target_name=object_name,
            event=Event(event_name, tuple(arguments)),
            sent_at_ms=time_ms,
            sender_name="env"))

    def send(self, object_name: str, event_name: str,
             *arguments: Any) -> None:
        """External stimulus at the current virtual time."""
        self.send_at(self.now_ms, object_name, event_name, *arguments)

    def run(self, max_steps: int = 100_000, *,
            until_ms: Optional[float] = None) -> int:
        """Process scheduled events in timestamp order."""
        if not self._started:
            self.start()
        steps = 0
        while self._heap and steps < max_steps:
            if until_ms is not None and self._heap[0].time_ms > until_ms:
                break
            scheduled = heapq.heappop(self._heap)
            self.now_ms = max(self.now_ms, scheduled.time_ms)
            interpreter = self.interpreters.get(scheduled.target_name)
            if interpreter is None:
                continue
            if scheduled.sender_name not in ("", "env"):
                self.timings.append(MessageTiming(
                    scheduled.sender_name, scheduled.target_name,
                    scheduled.event.name, scheduled.sent_at_ms,
                    scheduled.time_ms))
            self._step += 1
            self._current_sender = scheduled.target_name
            try:
                interpreter.dispatch(scheduled.event)
            finally:
                self._current_sender = None
            steps += 1
        return steps

    # -- measurement -------------------------------------------------------

    def latency_stats(self) -> Dict[str, float]:
        """min/avg/max over all inter-object deliveries."""
        if not self.timings:
            return {"count": 0, "min_ms": 0.0, "avg_ms": 0.0,
                    "max_ms": 0.0}
        latencies = [t.latency_ms for t in self.timings]
        return {
            "count": len(latencies),
            "min_ms": min(latencies),
            "avg_ms": sum(latencies) / len(latencies),
            "max_ms": max(latencies),
        }

    def path_latency_ms(self, first_event: str,
                        last_event: str) -> Optional[float]:
        """Virtual time from the first send of *first_event* to the last
        delivery of *last_event* (end-to-end through the collaboration)."""
        starts = [t.sent_ms for t in self.timings
                  if t.event == first_event]
        ends = [t.delivered_ms for t in self.timings
                if t.event == last_event]
        if not starts or not ends:
            return None
        return max(ends) - min(starts)


def measure_offered_latency(collaboration: TimedCollaboration,
                            stimulus: Tuple[str, str],
                            first_event: str, last_event: str
                            ) -> Optional[float]:
    """Drive one stimulus through a fresh timed run and measure the
    end-to-end latency between two message kinds."""
    collaboration.start()
    collaboration.send(*stimulus)
    collaboration.run()
    return collaboration.path_latency_ms(first_event, last_event)
