"""Use cases as tests: scenario conformance checking.

The paper's position: use cases must be "used as (high level) tests to the
model rather than first-class development artifacts ... scripts or
constraints in the model checking sense.  There is almost never a
one-to-one mapping between the use cases and the functionality of the
system ... just that the system is capable of providing the services or
functionality required to enact the described scenario."

Accordingly a :class:`Scenario` is derived from an interaction (which
realises a use case) and *checked against* a running collaboration: the
expected message sequence must occur as a subsequence of the observed
messages.  Nothing here constructs functionality from use cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..uml import Interaction, UseCase
from .collaboration import Collaboration

ExpectedMessage = Tuple[str, str, str]   # (sender, receiver, event)


@dataclass
class ScenarioResult:
    """The verdict of replaying one scenario."""

    scenario_name: str
    passed: bool
    expected: List[ExpectedMessage] = field(default_factory=list)
    observed: List[ExpectedMessage] = field(default_factory=list)
    matched: List[ExpectedMessage] = field(default_factory=list)
    missing: List[ExpectedMessage] = field(default_factory=list)

    def explain(self) -> str:
        lines = [f"scenario '{self.scenario_name}': "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        if self.missing:
            lines.append("  missing (in order):")
            lines.extend(f"    {s} -> {r}: {e}" for s, r, e in self.missing)
        return "\n".join(lines)


class Scenario:
    """An executable test derived from a use-case realisation.

    ``binding`` maps lifeline names to collaboration object names (default:
    identical names).  ``stimuli`` are external events injected before the
    run — the actor's prodding.
    """

    def __init__(self, name: str,
                 expected: Sequence[ExpectedMessage], *,
                 binding: Optional[Dict[str, str]] = None,
                 stimuli: Sequence[Tuple[str, str]] = ()):
        self.name = name
        self.expected = list(expected)
        self.binding = dict(binding or {})
        self.stimuli = list(stimuli)

    @classmethod
    def from_interaction(cls, interaction: Interaction, *,
                         binding: Optional[Dict[str, str]] = None,
                         actor_lifelines: Sequence[str] = ()) -> "Scenario":
        """Build a scenario from an interaction's message sequence.

        Messages *sent by* actor lifelines become external stimuli to their
        receivers; the rest become expected inter-object messages.
        """
        actors = set(actor_lifelines)
        expected: List[ExpectedMessage] = []
        stimuli: List[Tuple[str, str]] = []
        for message in interaction.messages:
            sender = (message.send_lifeline.name
                      if message.send_lifeline else "?")
            receiver = (message.receive_lifeline.name
                        if message.receive_lifeline else "?")
            if sender in actors:
                stimuli.append((receiver, message.name))
            else:
                expected.append((sender, receiver, message.name))
        return cls(interaction.name or "scenario", expected,
                   binding=binding, stimuli=stimuli)

    @classmethod
    def from_use_case(cls, usecase: UseCase, *,
                      binding: Optional[Dict[str, str]] = None
                      ) -> List["Scenario"]:
        """One scenario per realising interaction of the use case."""
        actor_names = {a.name for a in usecase.actors}
        out: List[Scenario] = []
        for interaction in usecase.scenarios:
            lifeline_actor_names = [
                l.name for l in interaction.lifelines
                if l.represents is not None
                and l.represents.name in actor_names]
            out.append(cls.from_interaction(
                interaction, binding=binding,
                actor_lifelines=lifeline_actor_names))
        return out

    # -- execution ---------------------------------------------------------

    def _bound(self, name: str) -> str:
        return self.binding.get(name, name)

    def run(self, collaboration: Collaboration, *,
            max_steps: int = 10_000) -> ScenarioResult:
        """Inject the stimuli, run to quiescence, check conformance."""
        collaboration.start()
        for receiver, event in self.stimuli:
            collaboration.send(self._bound(receiver), event)
        collaboration.run(max_steps=max_steps)
        observed = collaboration.messages()
        return self.check(observed)

    def check(self, observed: Sequence[ExpectedMessage]) -> ScenarioResult:
        """Subsequence conformance: expected messages must appear in order
        within the observed stream (other traffic may interleave)."""
        expected = [(self._bound(s), self._bound(r), e)
                    for s, r, e in self.expected]
        matched: List[ExpectedMessage] = []
        cursor = 0
        for message in observed:
            if cursor < len(expected) and message == expected[cursor]:
                matched.append(message)
                cursor += 1
        missing = expected[cursor:]
        return ScenarioResult(
            scenario_name=self.name,
            passed=not missing,
            expected=expected,
            observed=list(observed),
            matched=matched,
            missing=missing,
        )


def run_use_case_tests(usecase: UseCase,
                       collaboration_factory, *,
                       binding: Optional[Dict[str, str]] = None
                       ) -> List[ScenarioResult]:
    """Run every scenario of *usecase* against fresh collaborations.

    ``collaboration_factory()`` must return a newly built collaboration
    each time (scenarios must not share state).
    """
    results: List[ScenarioResult] = []
    for scenario in Scenario.from_use_case(usecase, binding=binding):
        results.append(scenario.run(collaboration_factory()))
    return results
