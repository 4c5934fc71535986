"""The Schedulability, Performance and Time profile (SPT) — with real
analysis behind the stereotypes.

The paper lists the "UML Profile for Schedulability, Performance and Time"
among the languages a systems methodology needs; it also insists a model
one cannot test is pointless.  So this profile is *executable*: annotate
active classes with «SASchedulable» and run

* rate-monotonic priority assignment,
* the Liu & Layland utilisation bound test, and
* exact response-time analysis (with blocking terms),

getting back a per-task schedulability report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from ..mof import MBoolean, MInteger, MReal, MString
from ..uml import Clazz, Package
from ..mof.query import instances_of
from .base import Profile, ProfileError

SPT = Profile("SPT", "Schedulability, Performance and Time")

SA_SCHEDULABLE = SPT.define("SASchedulable", Clazz) \
    .tag("sa_period_ms", MReal, required=True) \
    .tag("sa_wcet_ms", MReal, required=True) \
    .tag("sa_deadline_ms", MReal) \
    .tag("sa_priority", MInteger) \
    .tag("sa_blocking_ms", MReal, 0.0)

SA_SCHEDULER = SPT.define("SAScheduler", Clazz) \
    .tag("sa_policy", MString, "fixed_priority") \
    .tag("sa_preemptive", MBoolean, True)

SA_RESOURCE = SPT.define("SAResource", Clazz) \
    .tag("sa_ceiling", MInteger) \
    .tag("sa_access_ms", MReal, 0.0)


@dataclass
class Task:
    """A periodic task extracted from an annotated class."""

    name: str
    period_ms: float
    wcet_ms: float
    deadline_ms: Optional[float] = None
    priority: Optional[int] = None      # larger = more urgent
    blocking_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.period_ms <= 0:
            raise ValueError(f"task '{self.name}': period must be > 0")
        if self.wcet_ms < 0:
            raise ValueError(f"task '{self.name}': wcet must be >= 0")
        if self.deadline_ms is None:
            self.deadline_ms = self.period_ms

    @property
    def utilization(self) -> float:
        return self.wcet_ms / self.period_ms


@dataclass
class TaskAnalysis:
    """Per-task outcome of response-time analysis."""

    task: Task
    response_ms: float = math.inf
    schedulable: bool = False


@dataclass
class SchedulabilityReport:
    """The full analysis outcome."""

    tasks: List[TaskAnalysis] = field(default_factory=list)
    total_utilization: float = 0.0
    utilization_bound: float = 0.0
    passes_utilization_test: bool = False
    utilization_test_conclusive: bool = False
    schedulable: bool = False

    def row(self, name: str) -> TaskAnalysis:
        for analysis in self.tasks:
            if analysis.task.name == name:
                return analysis
        raise KeyError(name)

    def summary(self) -> str:
        verdict = "SCHEDULABLE" if self.schedulable else "NOT SCHEDULABLE"
        return (f"tasks={len(self.tasks)} "
                f"U={self.total_utilization:.3f} "
                f"bound={self.utilization_bound:.3f} "
                f"rta={verdict}")


def rate_monotonic_priorities(tasks: List[Task]) -> List[Task]:
    """Assign priorities by period (shorter period → higher priority).

    Returns the same task objects, priorities filled for those missing.
    """
    ordered = sorted(tasks, key=lambda t: (t.period_ms, t.name))
    for rank, task in enumerate(ordered):
        if task.priority is None:
            task.priority = len(ordered) - rank
    return tasks


def total_utilization(tasks: List[Task]) -> float:
    return sum(task.utilization for task in tasks)


def liu_layland_bound(n: int) -> float:
    """Liu & Layland utilisation bound for n tasks under RM."""
    if n <= 0:
        return 0.0
    return n * (2.0 ** (1.0 / n) - 1.0)


def utilization_test(tasks: List[Task]) -> Optional[bool]:
    """Sufficient (not necessary) RM test: True = schedulable,
    None = inconclusive, False = definitely over 100%."""
    utilization = total_utilization(tasks)
    if utilization <= liu_layland_bound(len(tasks)):
        return True
    if utilization > 1.0:
        return False
    return None


def response_time_analysis(tasks: List[Task], *,
                           max_iterations: int = 1000
                           ) -> List[TaskAnalysis]:
    """Exact (for this model) fixed-priority preemptive RTA.

    R_i = C_i + B_i + Σ_{j ∈ hp(i)} ceil(R_i / T_j) · C_j, iterated to a
    fixed point; a task is schedulable when R_i ≤ D_i.
    """
    rate_monotonic_priorities(tasks)
    analyses: List[TaskAnalysis] = []
    for task in tasks:
        higher = [t for t in tasks
                  if t is not task and (t.priority or 0) > (task.priority
                                                            or 0)]
        response = task.wcet_ms + task.blocking_ms
        converged = False
        for _ in range(max_iterations):
            interference = sum(
                math.ceil(response / t.period_ms) * t.wcet_ms
                for t in higher)
            next_response = task.wcet_ms + task.blocking_ms + interference
            if math.isclose(next_response, response, rel_tol=1e-12):
                converged = True
                break
            if next_response > (task.deadline_ms or task.period_ms) * 1000:
                break       # hopeless: diverging
            response = next_response
        analyses.append(TaskAnalysis(
            task=task,
            response_ms=response if converged else math.inf,
            schedulable=converged
            and response <= (task.deadline_ms or task.period_ms)))
    return analyses


def analyze_tasks(tasks: List[Task]) -> SchedulabilityReport:
    """Run both tests over an explicit task set."""
    report = SchedulabilityReport()
    report.total_utilization = total_utilization(tasks)
    report.utilization_bound = liu_layland_bound(len(tasks))
    outcome = utilization_test(tasks)
    report.passes_utilization_test = outcome is True
    report.utilization_test_conclusive = outcome is not None
    report.tasks = response_time_analysis(tasks)
    report.schedulable = all(a.schedulable for a in report.tasks)
    return report


def tasks_from_model(root: Package) -> List[Task]:
    """Extract the task set from «SASchedulable» classes under *root*."""
    tasks: List[Task] = []
    for cls in instances_of(root, Clazz):
        if not SA_SCHEDULABLE.is_applied_to(cls):
            continue
        tasks.append(Task(
            name=cls.name,
            period_ms=SA_SCHEDULABLE.value_on(cls, "sa_period_ms"),
            wcet_ms=SA_SCHEDULABLE.value_on(cls, "sa_wcet_ms"),
            deadline_ms=SA_SCHEDULABLE.value_on(cls, "sa_deadline_ms"),
            priority=SA_SCHEDULABLE.value_on(cls, "sa_priority"),
            blocking_ms=SA_SCHEDULABLE.value_on(cls, "sa_blocking_ms",
                                                0.0) or 0.0,
        ))
    return tasks


def analyze_model(root: Package) -> SchedulabilityReport:
    """End-to-end: stereotyped model in, schedulability report out."""
    tasks = tasks_from_model(root)
    if not tasks:
        raise ProfileError("no «SASchedulable» classes found")
    return analyze_tasks(tasks)
