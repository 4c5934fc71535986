"""Per-level model test suites.

"At each abstraction level a well defined set of tests must be performed
upon this system and maintained as the 'system models' are developed."
A :class:`ModelTestSuite` bundles named tests over a model's roots —
well-formedness, OCL constraint sets, metric thresholds, scenario runs —
and adapts to a transformation-chain gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Union

from ..mof.kernel import Element
from ..mof.validate import ValidationReport, validate_tree
from ..ocl.invariants import ConstraintSet
from ..transform.chain import GateVerdict
from ..uml import Package
from ..uml.wellformed import run_wellformed_rules

TestFn = Callable[[List[Element]], Union[bool, ValidationReport]]


@dataclass
class ModelTestResult:
    name: str
    passed: bool
    messages: List[str] = field(default_factory=list)


@dataclass
class SuiteResult:
    suite_name: str
    results: List[ModelTestResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    def failures(self) -> List[ModelTestResult]:
        return [result for result in self.results if not result.passed]

    def summary(self) -> str:
        total = len(self.results)
        failed = len(self.failures())
        status = "PASS" if self.passed else "FAIL"
        return f"suite '{self.suite_name}': {status} ({total - failed}/{total})"


class ModelTest:
    """One named test over a model's roots."""

    def __init__(self, name: str, fn: TestFn, description: str = ""):
        self.name = name
        self.fn = fn
        self.description = description

    def run(self, roots: List[Element]) -> ModelTestResult:
        try:
            outcome = self.fn(roots)
        except Exception as exc:        # a broken test must not pass
            return ModelTestResult(self.name, False,
                                   [f"test raised: {exc}"])
        if isinstance(outcome, ValidationReport):
            return ModelTestResult(self.name, outcome.ok,
                                   [str(d) for d in outcome.errors])
        return ModelTestResult(self.name, bool(outcome))


class ModelTestSuite:
    """The well-defined set of tests for one abstraction level."""

    def __init__(self, name: str):
        self.name = name
        self.tests: List[ModelTest] = []

    def add(self, name: str, fn: TestFn,
            description: str = "") -> "ModelTestSuite":
        self.tests.append(ModelTest(name, fn, description))
        return self

    # -- canned test kinds -------------------------------------------------

    def add_structural(self) -> "ModelTestSuite":
        """Kernel-level structure: multiplicities, opposites, invariants."""
        def run(roots: List[Element]) -> ValidationReport:
            report = ValidationReport()
            for root in roots:
                report.extend(validate_tree(root))
            return report
        return self.add("structural-validity", run,
                        "multiplicities, opposites, containment, "
                        "registered invariants")

    def add_wellformedness(self) -> "ModelTestSuite":
        """UML well-formedness rules on every Package root."""
        def run(roots: List[Element]) -> ValidationReport:
            report = ValidationReport()
            for root in roots:
                if isinstance(root, Package):
                    report.extend(run_wellformed_rules(root))
            return report
        return self.add("uml-wellformedness", run)

    def add_lint(self, *, disable: Sequence[str] = ()
                 ) -> "ModelTestSuite":
        """The static-analysis lint gate: OCL type checking, dead code,
        transition conflicts, fork/join imbalance."""
        def run(roots: List[Element]) -> ValidationReport:
            from ..analysis import LintConfig, ModelLinter
            linter = ModelLinter(config=LintConfig(
                disabled=set(disable)))
            return linter.lint(*roots).as_validation_report()
        return self.add("static-analysis-lint", run,
                        "model lint engine (repro.analysis)")

    def add_constraints(self, constraints: ConstraintSet
                        ) -> "ModelTestSuite":
        """An OCL constraint set (one per level, per the paper)."""
        def run(roots: List[Element]) -> ValidationReport:
            report = ValidationReport()
            for root in roots:
                report.extend(constraints.evaluate(root))
            return report
        return self.add(f"constraints:{constraints.name}", run)

    def add_metric_threshold(self, metric_name: str,
                             extract: Callable[[Element], float],
                             maximum: float) -> "ModelTestSuite":
        """Fail when a model metric exceeds *maximum*."""
        def run(roots: List[Element]) -> bool:
            return all(extract(root) <= maximum for root in roots)
        return self.add(f"metric:{metric_name}<= {maximum}", run)

    # -- execution ---------------------------------------------------------

    def run(self, roots: Union[Element, List[Element]]) -> SuiteResult:
        if isinstance(roots, Element):
            roots = [roots]
        result = SuiteResult(self.name)
        for test in self.tests:
            result.results.append(test.run(list(roots)))
        return result

    def as_gate(self) -> Callable[[List[Element]], GateVerdict]:
        """Adapt to a transformation-chain gate."""
        def gate(roots: List[Element]) -> GateVerdict:
            outcome = self.run(roots)
            messages = [f"{r.name}: {'; '.join(r.messages) or 'failed'}"
                        for r in outcome.failures()]
            return GateVerdict(outcome.passed, messages)
        return gate

    def __len__(self) -> int:
        return len(self.tests)
