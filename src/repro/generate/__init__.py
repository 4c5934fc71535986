"""``repro.generate`` — constraint-aware model generation.

The test-infrastructure generators grew up: this subsystem produces
seeded, reproducible corpora of *valid* models at 10^4–10^6 elements,
the workload engine behind every benchmark, load test and chaos run.

* :mod:`repro.generate.random` — metamodel-derived random generation
  (:class:`ModelGenerator`) and edit fuzzing (:class:`EditFuzzer`);
* :mod:`repro.generate.repair` — the constraint-guided repair loop:
  check, map each diagnostic class to a targeted edit (fill / retype /
  prune / rename), repeat until :meth:`repro.session.Session.check`
  reports zero errors;
* :mod:`repro.generate.coverage` — coverage instrumentation over
  metaclasses, association ends and compiled-OCL invariant branches,
  plus :class:`DirectedGenerator` which biases generation toward
  uncovered targets;
* :mod:`repro.generate.corpus` — the high-level
  :func:`generate_model` / :func:`generate_corpus` entry points behind
  ``python -m repro generate`` and :meth:`repro.session.Session.generate`.
"""

from .corpus import (
    PACKAGES,
    GenerationResult,
    assign_stable_ids,
    corpus_manifest,
    generate_corpus,
    generate_model,
    make_generator,
)
from .coverage import CoverageMap, CoverageReport, DirectedGenerator
from .random import (
    UML_SAFE_CLASSES,
    EditFuzzer,
    ModelGenerator,
    demo_generator,
    demo_package,
    uml_generator,
)
from .repair import RepairEdit, RepairEngine, RepairReport

__all__ = [
    "PACKAGES",
    "UML_SAFE_CLASSES",
    "CoverageMap",
    "CoverageReport",
    "DirectedGenerator",
    "EditFuzzer",
    "GenerationResult",
    "ModelGenerator",
    "RepairEdit",
    "RepairEngine",
    "RepairReport",
    "assign_stable_ids",
    "corpus_manifest",
    "demo_generator",
    "demo_package",
    "generate_corpus",
    "generate_model",
    "make_generator",
    "uml_generator",
]
