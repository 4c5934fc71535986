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
every unit) must also come back empty; after a pair's last edit, and
after every edit of a ``detached`` pair, it also reruns every unit
(``verify(rerun=True)``), which sees a unit that should have rerun and
did not, and a read set that lost a key.

Two metamodels are covered: the self-contained ``genlib`` demo package
(structural + OCL invariant checking) and a curated slice of UML
(structural + invariants + well-formedness + lint).  Together the
parametrisations form 200 (model, edit-sequence) pairs, plus pairs
under the fuzzer's ``detached`` profile, whose edits write elements
that left the tree but are still referenced.  Neither metamodel bounds
many features from below, so a third, test-local one does: its pairs
are where edits flip structural verdicts.
"""

from __future__ import annotations

import pytest

from repro.generate import (EditFuzzer, ModelGenerator, demo_generator,
                            demo_package, uml_generator)
from repro.analysis import LintConfig, ModelLinter
from repro.incremental import IncrementalEngine, report_signature
from repro.mof import (M_0N, M_11, M_1N, MString, Multiplicity,
                       add_attribute, add_reference, define_class,
                       define_package)
from repro.mof.validate import validate_tree
from repro.ocl.invariants import ConstraintSet
from repro.session import Session
from repro.uml.wellformed import run_wellformed_rules

#: the families the UML pairs check, consistency aside
UML_FAMILIES = ["structural", "invariant", "wellformed", "lint"]

DEMO_PAIRS = 120
UML_PAIRS = 80
EDITS_PER_PAIR = 6
DETACHED_PAIRS = 8         # per metamodel
EDITS_PER_DETACHED_PAIR = 8


def _assert_equivalent(engine, oracle, *, seed, step, history,
                       rerun=False):
    engine.revalidate()
    actual = report_signature(engine.report())
    problems = engine.verify(rerun=rerun)
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
                           history=history, rerun=step == EDITS_PER_PAIR)
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
                           history=history, rerun=step == EDITS_PER_PAIR)
    engine.detach()


def _through_references():
    """Demo constraints that read through the one-way references the
    ``detached`` profile detaches elements behind (``sequel``,
    ``authors``): no registered demo invariant reads a referenced
    element's own slots, so without these a detached element would
    reach no demo unit's read set."""
    book = demo_package().classifier("GBook")
    constraints = ConstraintSet("through-references")
    constraints.add(book, "sequel-paged",
                    "self.sequel.oclIsUndefined() or self.sequel.pages > 0")
    constraints.add(book, "authors-named",
                    "self.authors->forAll(a | not a.name.oclIsUndefined())")
    return constraints


def _detached_pair(seed, root, generator, engine, oracle):
    """Run one ``detached`` pair; whether the engine ever observed an
    element outside its scope."""
    fuzzer = EditFuzzer(root, seed=seed + 30_000, generator=generator,
                        profile="detached")
    history, observed = [], False
    _assert_equivalent(engine, oracle, seed=seed, step=0, history=history,
                       rerun=True)
    for step in range(1, EDITS_PER_DETACHED_PAIR + 1):
        description = fuzzer.random_edit()
        history.append(description or "(no applicable edit)")
        _assert_equivalent(engine, oracle, seed=seed, step=step,
                           history=history, rerun=True)
        observed = observed or bool(engine._external)
    engine.detach()
    return observed


def _demo_case(seed):
    """Writes to detached, still referenced books and authors reach the
    units that read them through ``sequel`` and ``authors``."""
    generator = demo_generator(seed=seed)
    root = generator.generate(40)
    constraints = _through_references()
    engine = IncrementalEngine(Session(root, constraint_sets=[constraints]),
                               ["structural", "invariant", "constraint"])

    def oracle():
        return (report_signature(validate_tree(root))
                + report_signature(constraints.evaluate(root)))

    return seed, root, generator, engine, oracle


def _uml_case(seed):
    generator = uml_generator(seed=seed)
    root = generator.generate(40)
    engine = IncrementalEngine(Session(root), UML_FAMILIES)
    linter = ModelLinter(config=LintConfig(disabled={"uml-wellformed"}))

    def oracle():
        return (report_signature(validate_tree(root))
                + report_signature(run_wellformed_rules(root))
                + report_signature(linter.lint(root)))

    return seed, root, generator, engine, oracle


@pytest.mark.parametrize("seed", range(DETACHED_PAIRS))
def test_demo_detached_pair(seed):
    _detached_pair(*_demo_case(seed))


@pytest.mark.parametrize("seed", range(DETACHED_PAIRS))
def test_uml_detached_pair(seed):
    _detached_pair(*_uml_case(seed))


def test_detached_profile_reaches_external_reads():
    """The ``detached`` pairs exercise the engine's observation of
    elements outside its scope on both metamodels."""
    assert _detached_pair(*_demo_case(0))
    assert _detached_pair(*_uml_case(7))


STRICT_SEEDS = 20          # per profile
STRICT_ROUNDS = 15
EDITS_PER_STRICT_ROUND = 3


def _strict_package():
    """A metamodel whose lower bounds the generator leaves to chance: a
    ``[1..1]`` attribute, a ``[1..*]`` containment and a ``[1..1]`` and
    a ``[1..2]`` cross reference, each of which an edit can break or
    mend."""
    pkg = define_package("strictbounds", "urn:test:strictbounds")
    hub = define_class(pkg, "SHub")
    node = define_class(pkg, "SNode")
    add_attribute(node, "label", MString, multiplicity=M_11)
    add_reference(hub, "nodes", node, containment=True, multiplicity=M_1N)
    add_reference(hub, "hubs", hub, containment=True, multiplicity=M_0N)
    add_reference(node, "anchor", hub, multiplicity=M_11)
    add_reference(node, "peers", node, multiplicity=Multiplicity(1, 2))
    return pkg


def _strict_pair(seed, profile):
    """Run one strict-bounds pair; how many rounds changed its report."""
    generator = ModelGenerator(_strict_package(), seed=seed)
    root = generator.generate(30)
    view = Session(root).watch(["structural"])

    def oracle():
        return report_signature(Session(root).check(["structural"]))

    fuzzer = EditFuzzer(root, seed=seed + 40_000, generator=generator,
                        profile=profile)
    history, flips = [], 0
    previous = report_signature(view.report())
    for round_ in range(1, STRICT_ROUNDS + 1):
        history += fuzzer.apply_random_edits(EDITS_PER_STRICT_ROUND)
        _assert_equivalent(view, oracle, seed=seed, step=len(history),
                           history=history,
                           rerun=round_ == STRICT_ROUNDS)
        current = report_signature(view.report())
        flips += current != previous
        previous = current
    view.detach()
    return flips


@pytest.mark.parametrize("profile", ["default", "detached"])
@pytest.mark.parametrize("seed", range(STRICT_SEEDS))
def test_strict_bounds_pair(seed, profile):
    """Structural verdicts that edits flip stay oracle-equal."""
    assert _strict_pair(seed, profile)


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
