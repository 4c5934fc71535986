"""``repro.validation`` — model testing: "metrics, validations
(simulation, animation etc), verification (proof, model checking)".

* :mod:`repro.validation.metrics` — Chidamber–Kemerer metrics plus the
  paper's decomposition diagnostics;
* :mod:`repro.validation.statemachine_sim` — state-machine interpreter;
* :mod:`repro.validation.collaboration` — multi-object simulation
  (emergent behaviour);
* :mod:`repro.validation.scenarios` — use cases as conformance tests;
* :mod:`repro.validation.modelcheck` — explicit-state model checker;
* :mod:`repro.validation.animation` — textual trace animation.
"""

from .activity_sim import ActivityInterpreter, ActivityRun, run_activity
from .report import (
    QualityReport,
    SectionResult,
    build_quality_report,
)
from .animation import (
    attribute_series,
    sequence_diagram,
    state_history,
    timeline,
)
from .collaboration import Collaboration, TraceEntry
from .metrics import (
    ClassMetrics,
    ModelMetrics,
    compute_class_metrics,
    compute_model_metrics,
    coupling_matrix,
)
from .mining import (
    interaction_from_trace,
    promote_to_regression,
    scenario_from_interaction,
)
from .modelcheck import (
    ModelCheckResult,
    ModelChecker,
    Violation,
    check_collaboration,
)
from .scenarios import (
    Scenario,
    ScenarioResult,
    run_use_case_tests,
)
from .testgen import (
    GeneratedTest,
    TestGenerationResult,
    generate_transition_tests,
    run_generated_tests,
)
from .timedsim import (
    MessageTiming,
    TimedCollaboration,
    measure_offered_latency,
)
from .statemachine_sim import (
    Event,
    ObjectInstance,
    SimulationError,
    StateMachineInterpreter,
)

__all__ = [
    "ActivityInterpreter", "ActivityRun", "ClassMetrics", "QualityReport",
    "GeneratedTest", "MessageTiming", "TestGenerationResult",
    "TimedCollaboration", "generate_transition_tests",
    "measure_offered_latency", "run_generated_tests",
    "interaction_from_trace", "promote_to_regression",
    "scenario_from_interaction",
    "SectionResult", "build_quality_report",
    "run_activity", "Collaboration", "Event", "ModelCheckResult",
    "ModelChecker", "ModelMetrics", "ObjectInstance", "Scenario",
    "ScenarioResult", "SimulationError", "StateMachineInterpreter",
    "TraceEntry", "Violation", "attribute_series", "check_collaboration",
    "compute_class_metrics", "compute_model_metrics", "coupling_matrix",
    "run_use_case_tests", "sequence_diagram", "state_history", "timeline",
]
