"""Static analysis of models: the lint engine.

The paper's discipline is that models are the primary artefacts — so
they deserve the same static scrutiny source code gets.  This package
provides it:

* a uniform :class:`~repro.mof.validate.Diagnostic` record shared with
  the structural validator and the UML well-formedness rules;
* a :class:`~repro.analysis.registry.RuleRegistry` of lint rules with
  per-run enable/disable and severity overrides
  (:class:`~repro.analysis.registry.LintConfig`);
* a batch :class:`~repro.analysis.runner.ModelLinter` that walks a
  model once and dispatches to every applicable rule;
* the bundled rules: OCL static type checking of invariants and guards
  (``OCL001``–``OCL010`` via ``OCL101``–``OCL103``), state-machine
  dead code and nondeterminism (``SM001``–``SM003``), activity
  fork/join imbalance (``ACT001``–``ACT003``) and transformation rule
  conflicts (``TR001``–``TR003``);
* the cross-diagram **consistency** family (``XD001``–``XD007``,
  :mod:`~repro.analysis.rules_consistency`), which checks the *set* of
  diagrams describing one system against each other — interactions
  against class operations and state-machine triggers (via the
  reachable-trigger analysis in :mod:`~repro.analysis.reachability`),
  state-machine actions against class features, and multiplicities and
  invariants for satisfiability.  Select it with
  ``ModelLinter(families=("consistency",))`` or
  ``Session.check(families=["consistency"])``.

Typical use::

    from repro.analysis import ModelLinter
    report = ModelLinter().lint(model_root)
    if not report.ok:
        print(report.render())

(or, for the unified multi-checker API, ``repro.session.Session``).
"""

from .diagnostics import (
    Diagnostic,
    LintReport,
    Severity,
    ValidationReport,
    model_path,
)
from .registry import (
    DEFAULT_REGISTRY,
    FAMILIES,
    LintConfig,
    LintRule,
    RuleRegistry,
    TARGETS,
    lint_rule,
)
from .runner import (
    LintContext,
    ModelLinter,
    lint_transformation,
)

# importing the rule modules registers their rules on DEFAULT_REGISTRY
from . import rules_activity       # noqa: E402,F401
from . import rules_consistency    # noqa: E402,F401
from . import rules_ocl            # noqa: E402,F401
from . import rules_statemachine   # noqa: E402,F401
from . import rules_transform      # noqa: E402,F401
from . import rules_wellformed     # noqa: E402,F401

from .rules_ocl import ClassifierView, uml_type_to_ocl  # noqa: E402
from .rules_statemachine import (  # noqa: E402
    guard_constraints,
    guard_unsatisfiable,
    guards_overlap,
    reachable_vertices,
)
from .reachability import (  # noqa: E402
    ReachabilitySummary,
    compute_reachability,
    reachable_triggers,
)

__all__ = [
    "Diagnostic",
    "LintReport",
    "Severity",
    "ValidationReport",
    "model_path",
    "DEFAULT_REGISTRY",
    "FAMILIES",
    "LintConfig",
    "LintRule",
    "RuleRegistry",
    "TARGETS",
    "lint_rule",
    "LintContext",
    "ModelLinter",
    "lint_transformation",
    "ClassifierView",
    "uml_type_to_ocl",
    "guard_constraints",
    "guard_unsatisfiable",
    "guards_overlap",
    "reachable_vertices",
    "ReachabilitySummary",
    "compute_reachability",
    "reachable_triggers",
]
