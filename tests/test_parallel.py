"""Tests for multi-core sharded checking (repro.parallel).

The contract under test: ``Session.check(workers=N)`` produces a
diagnostic document *byte-identical* to the sequential run for every N,
workers that die degrade to an in-process re-check (with a warning,
never a crash or a dropped diagnostic), and the sharded path politely
refuses whenever its preconditions don't hold (one worker, dependency
tracking active, nothing shardable).
"""

import json

import pytest

from repro import faults
from repro.generate import EditFuzzer, demo_generator, demo_package
from repro.incremental.tracking import collect_reads
from repro.mof import Model
from repro.mof.validate import validate_tree
from repro.ocl.invariants import ConstraintSet
from repro.parallel import (
    _slice_bounds,
    available_workers,
    diagnostic_to_record,
    parallel_check,
    parallel_validate_tree,
    record_to_diagnostic,
)
from repro.session import Session, _diagnostic_json


def dirty_session(seed=11, size=60, **kwargs):
    """A session over an unrepaired corpus (plenty of diagnostics)."""
    root = demo_generator(seed).generate(size)
    model = Model(f"urn:par{seed}")
    model.add_root(root)
    constraints = ConstraintSet("shelf-rules")
    constraints.add(demo_package().classifier("GShelf"), "has-library",
                    "not self.library.oclIsUndefined()")
    constraints.add(demo_package().classifier("GLibrary"), "unique-names",
                    "GBook.allInstances()->forAll(b | b.pages >= 0)")
    return Session(model, constraint_sets=[constraints], **kwargs)


def check_doc(session, **kwargs):
    return json.dumps(session.check(**kwargs).to_json(), sort_keys=True)


class TestSliceBounds:
    @pytest.mark.parametrize("total,workers", [
        (0, 1), (1, 1), (5, 2), (7, 3), (10, 4), (3, 8), (100, 7)])
    def test_contiguous_cover_balanced(self, total, workers):
        bounds = _slice_bounds(total, workers)
        assert len(bounds) == workers
        assert bounds[0][0] == 0 and bounds[-1][1] == total
        sizes = []
        for (start, stop), (next_start, _) in zip(bounds, bounds[1:]):
            assert stop == next_start
            sizes.append(stop - start)
        sizes.append(bounds[-1][1] - bounds[-1][0])
        assert max(sizes) - min(sizes) <= 1

    def test_available_workers_positive(self):
        assert available_workers() >= 1


class TestDiagnosticRecords:
    def test_round_trip_preserves_rendered_identity(self):
        root = demo_generator(21).generate(50)
        report = validate_tree(root)
        assert report.diagnostics            # unrepaired: must have some
        for original in report.diagnostics:
            rebuilt = record_to_diagnostic(diagnostic_to_record(original))
            assert str(rebuilt) == str(original)
            assert rebuilt.render() == original.render()
            assert _diagnostic_json(rebuilt) == _diagnostic_json(original)


class TestWorkerParity:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_check_documents_byte_identical(self, workers):
        session = dirty_session()
        assert check_doc(session) == check_doc(session, workers=workers)

    def test_parity_survives_fuzzed_edits(self):
        session = dirty_session(seed=13)
        fuzzer = EditFuzzer(session.roots[0], seed=13)
        for _round in range(4):
            fuzzer.apply_random_edits(20)
            assert check_doc(session) == check_doc(session, workers=3)

    def test_columnar_and_parallel_compose(self):
        plain = dirty_session(seed=17)
        fast = dirty_session(seed=17, columnar=True)
        assert check_doc(plain) == check_doc(fast, workers=2)

    def test_shardable_subset_only(self):
        session = dirty_session(seed=19)
        families = ["structural", "constraint"]
        assert (check_doc(session, families=families)
                == check_doc(session, families=families, workers=2))

    def test_non_shardable_families_run_in_process(self):
        session = dirty_session(seed=19)
        families = ["wellformed", "consistency"]
        assert (check_doc(session, families=families)
                == check_doc(session, families=families, workers=4))


class TestDegradation:
    def test_dead_worker_degrades_with_warning(self):
        session = dirty_session(seed=23)
        expected = check_doc(session)
        plan = faults.FaultPlan(at={"parallel.worker": [1]})
        with faults.injected(plan):
            with pytest.warns(RuntimeWarning,
                              match="exited without reporting"):
                got = check_doc(session, workers=2)
        assert plan.fault_count == 1
        assert got == expected               # nothing dropped, same bytes

    def test_all_workers_dead_still_completes(self):
        session = dirty_session(seed=23, size=40)
        expected = check_doc(session)
        plan = faults.FaultPlan(at={"parallel.worker": [1, 2]})
        with faults.injected(plan):
            with pytest.warns(RuntimeWarning):
                got = check_doc(session, workers=2)
        assert got == expected


class TestRefusals:
    def test_workers_one_is_sequential(self):
        session = dirty_session(seed=29, size=30)
        assert parallel_check(session.model.roots,
                              ["structural"], workers=1) is None
        assert check_doc(session, workers=1) == check_doc(session)

    def test_nothing_shardable_returns_empty(self):
        session = dirty_session(seed=29, size=30)
        assert parallel_check(session.model.roots,
                              ["wellformed"], workers=4) == {}

    def test_read_hook_forces_sequential(self):
        # dependency tracking must observe per-element reads; forked
        # workers' reads are invisible to the parent's tracker
        session = dirty_session(seed=29, size=30)
        with collect_reads(set()):
            assert parallel_check(session.model.roots,
                                  ["structural"], workers=4) is None


class TestParallelValidateTree:
    def test_interleaving_matches_validate_tree(self):
        root = demo_generator(31).generate(60)
        sequential = validate_tree(root)
        sharded = parallel_validate_tree(root, workers=3)
        assert sharded is not None
        assert ([d.render() for d in sharded.diagnostics]
                == [d.render() for d in sequential.diagnostics])

    def test_quality_report_parity(self):
        from repro.generate import uml_generator
        root = uml_generator(37).generate(50)
        session = Session(root)
        serial = session.quality_report(root).to_json()
        sharded = session.quality_report(root, workers=3).to_json()
        assert json.dumps(serial, sort_keys=True) \
            == json.dumps(sharded, sort_keys=True)
