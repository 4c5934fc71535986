"""Property-based cache-correctness tests for the incremental engine.

The single property: for ANY model and ANY edit sequence, the
incremental engine's diagnostics are indistinguishable from running the
batch checkers from scratch.  Models and edits come from the
metamodel-driven generators in :mod:`repro.generate`; equality is compared as
a multiset of :func:`repro.incremental.diagnostic_key` signatures after
*every* edit, so a stale cache entry or an over-invalidation that drops
a diagnostic fails on the exact (seed, step) that exposes it.  After
every edit the engine's own self-check (:meth:`IncrementalEngine.verify`:
membership against a full containment walk, reports against a scan of
every unit) must also come back empty.

Two metamodels are covered: the self-contained ``genlib`` demo package
(structural + OCL invariant checking) and a curated slice of UML
(structural + invariants + well-formedness + lint).  Together the
parametrisations form 200 (model, edit-sequence) pairs.
"""

from __future__ import annotations

import pytest

from repro.generate import EditFuzzer, demo_generator, uml_generator
from repro.analysis import LintConfig, ModelLinter
from repro.incremental import IncrementalEngine, report_signature
from repro.mof.validate import validate_tree
from repro.session import Session
from repro.uml.wellformed import run_wellformed_rules

#: the families the UML pairs check, consistency aside
UML_FAMILIES = ["structural", "invariant", "wellformed", "lint"]

DEMO_PAIRS = 120
UML_PAIRS = 80
EDITS_PER_PAIR = 6


def _assert_equivalent(engine, oracle, *, seed, step, history):
    engine.revalidate()
    actual = report_signature(engine.report())
    problems = engine.verify()
    if problems:
        pytest.fail(
            f"engine self-check failed at seed={seed} after edit "
            f"{step}/{len(history)}\n"
            f"  edits so far: {history[:step]}\n"
            f"  discrepancies: {problems[:10]}")
    expected = oracle()
    if actual == expected:
        return
    extra = actual - expected
    missing = expected - actual
    pytest.fail(
        f"incremental/oracle divergence at seed={seed} after edit "
        f"{step}/{len(history)}\n"
        f"  edits so far: {history[:step]}\n"
        f"  stale/extra diagnostics: {dict(extra)}\n"
        f"  dropped diagnostics: {dict(missing)}")


@pytest.mark.parametrize("seed", range(DEMO_PAIRS))
def test_demo_metamodel_pair(seed):
    """Structural + invariant diagnostics stay oracle-equal under edits."""
    generator = demo_generator(seed=seed)
    root = generator.generate(30 + (seed % 4) * 10)
    engine = IncrementalEngine(Session(root), ["structural", "invariant"])

    def oracle():
        return report_signature(validate_tree(root))

    fuzzer = EditFuzzer(root, seed=seed + 10_000, generator=generator)
    history = []
    _assert_equivalent(engine, oracle, seed=seed, step=0, history=history)
    for step in range(1, EDITS_PER_PAIR + 1):
        description = fuzzer.random_edit()
        history.append(description or "(no applicable edit)")
        _assert_equivalent(engine, oracle, seed=seed, step=step,
                           history=history)
    engine.detach()


@pytest.mark.parametrize("seed", range(UML_PAIRS))
def test_uml_metamodel_pair(seed):
    """The full checker stack (structure, invariants, well-formedness,
    lint) stays oracle-equal under edits to random UML models."""
    generator = uml_generator(seed=seed)
    root = generator.generate(35 + (seed % 3) * 10)
    engine = IncrementalEngine(Session(root), UML_FAMILIES)
    linter = ModelLinter(config=LintConfig(disabled={"uml-wellformed"}))

    def oracle():
        return (report_signature(validate_tree(root))
                + report_signature(run_wellformed_rules(root))
                + report_signature(linter.lint(root)))

    fuzzer = EditFuzzer(root, seed=seed + 20_000, generator=generator)
    history = []
    _assert_equivalent(engine, oracle, seed=seed, step=0, history=history)
    for step in range(1, EDITS_PER_PAIR + 1):
        description = fuzzer.random_edit()
        history.append(description or "(no applicable edit)")
        _assert_equivalent(engine, oracle, seed=seed, step=step,
                           history=history)
    engine.detach()


def test_pair_budget():
    """The suite really does cover the promised 200 generated pairs."""
    assert DEMO_PAIRS + UML_PAIRS >= 200


def test_engine_runs_fewer_units_than_scratch():
    """Sanity: on a quiet model, revalidation after one rename re-runs a
    small fraction of the units (the cache actually caches)."""
    generator = demo_generator(seed=424)
    root = generator.generate(60)
    engine = IncrementalEngine(Session(root), ["structural", "invariant"])
    engine.revalidate()
    total = engine.unit_count()

    # rename one leaf element: only its own units should re-run
    leaf = [e for e in root.all_contents() if e.meta.name == "GBook"][0]
    leaf.eset("name", "renamed")
    engine.revalidate()
    assert engine.stats.last_rerun > 0
    assert engine.stats.last_rerun < total / 4
    engine.detach()


def test_incremental_matches_recompute_from_scratch():
    """`recompute_from_scratch` (the engine's own uncached path) agrees
    with the cached path — so benchmarks compare equal work."""
    generator = uml_generator(seed=99)
    root = generator.generate(45)
    engine = IncrementalEngine(Session(root), UML_FAMILIES)
    fuzzer = EditFuzzer(root, seed=77, generator=generator)
    engine.revalidate()
    fuzzer.apply_random_edits(4)
    engine.revalidate()
    cached = report_signature(engine.report())
    scratch = report_signature(engine.recompute_from_scratch())
    assert cached == scratch
    engine.detach()
