"""The gated development process.

A :class:`DevelopmentProcess` is the methodology scaffold the paper says
is missing: an ordered sequence of phases, each pairing an abstraction
level with (a) the test suite that must pass there and (b) the
transformation that takes the model down to the next level.  With gates
enforced, a defective model cannot propagate; with gates off (the
documentation-oriented anti-process) defects flow straight into the PSM
and the code — the difference experiment E8 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Union

from ..mof.kernel import Element
from ..platforms.base import PlatformModel
from ..transform.engine import Transformation, TransformationResult
from .abstraction import ModelStack
from .testing import ModelTestSuite, SuiteResult


@dataclass
class Phase:
    """One rung of the process ladder.

    ``lint`` adds a static-analysis gate: the phase refuses to proceed
    when the lint engine reports errors on the phase's input models
    (in addition to whatever the test suite demands).
    """

    name: str
    suite: Optional[ModelTestSuite] = None
    transformation: Optional[Transformation] = None
    platform: Optional[PlatformModel] = None
    lint: bool = False


@dataclass
class PhaseRecord:
    phase_name: str
    suite_result: Optional[SuiteResult]
    transformed: bool
    result: Optional[TransformationResult] = None
    lint_report: Optional[Any] = None     # analysis.LintReport when linted

    @property
    def gate_passed(self) -> bool:
        suite_ok = self.suite_result is None or self.suite_result.passed
        lint_ok = self.lint_report is None or self.lint_report.ok
        return suite_ok and lint_ok


@dataclass
class ProcessRun:
    records: List[PhaseRecord] = field(default_factory=list)
    final_roots: List[Element] = field(default_factory=list)
    stopped_at: Optional[str] = None      # phase that refused to proceed

    @property
    def completed(self) -> bool:
        return self.stopped_at is None

    def record(self, phase_name: str) -> PhaseRecord:
        for record in self.records:
            if record.phase_name == phase_name:
                return record
        raise KeyError(phase_name)


class DevelopmentProcess:
    """Phases + gates + transformations, executed over a model stack."""

    def __init__(self, name: str):
        self.name = name
        self.phases: List[Phase] = []

    def add_phase(self, name: str, *,
                  suite: Optional[ModelTestSuite] = None,
                  transformation: Optional[Transformation] = None,
                  platform: Optional[PlatformModel] = None,
                  lint: bool = False) -> Phase:
        phase = Phase(name, suite, transformation, platform, lint)
        self.phases.append(phase)
        return phase

    def run(self, initial: Union[Element, List[Element]], *,
            enforce_gates: bool = True) -> ProcessRun:
        """Execute the process.

        With ``enforce_gates`` (the paper's discipline) a failing suite
        stops the run; without it the run continues regardless — the
        documentation-oriented anti-pattern, kept for comparison
        experiments.
        """
        roots = [initial] if isinstance(initial, Element) else list(initial)
        run = ProcessRun()
        for phase in self.phases:
            suite_result = phase.suite.run(roots) if phase.suite else None
            lint_report = None
            if phase.lint:
                from ..analysis import ModelLinter
                lint_report = ModelLinter().lint(*roots)
            gate_ok = ((suite_result is None or suite_result.passed)
                       and (lint_report is None or lint_report.ok))
            if not gate_ok and enforce_gates:
                run.records.append(PhaseRecord(
                    phase.name, suite_result, transformed=False,
                    lint_report=lint_report))
                run.stopped_at = phase.name
                run.final_roots = roots
                return run
            result: Optional[TransformationResult] = None
            if phase.transformation is not None:
                result = phase.transformation.run(
                    roots, platform=phase.platform)
                roots = list(result.target_roots)
            run.records.append(PhaseRecord(
                phase.name, suite_result,
                transformed=result is not None, result=result,
                lint_report=lint_report))
        run.final_roots = roots
        return run

    def as_stack(self) -> ModelStack:
        """A model stack with one level per phase (for inspection)."""
        stack = ModelStack(self.name)
        for phase in self.phases:
            stack.add_level(phase.name)
        return stack

    def __repr__(self) -> str:
        names = " -> ".join(phase.name for phase in self.phases)
        return f"<DevelopmentProcess {self.name}: {names}>"
