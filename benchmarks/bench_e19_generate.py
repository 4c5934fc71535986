"""E19 — constraint-aware generation must scale, repair must converge,
direction must beat chance.

Claim: a model-driven toolchain is only testable at the paper's scale if
it can *manufacture* its own workloads — seeded corpora of 10^4–10^6
elements that the full checker stack accepts.  Three promises to
measure:

* **throughput** — generation plus constraint-guided repair stays
  near-linear in corpus size (no O(n^2) cliff), at a rate that makes
  10^5-element corpora routine;
* **convergence** — across a band of seeds, the repair loop drives
  every corpus to zero error diagnostics within its iteration budget
  (default check families, cross-diagram consistency included);
* **direction** — coverage-directed generation reaches full structural
  (metaclass + association-end) coverage of the UML slice in strictly
  fewer elements than blind random generation.

Set ``REPRO_BENCH_QUICK=1`` (CI smoke) to run reduced sizes/seed bands.
"""

import time

from repro.generate import CoverageMap, generate_model, make_generator
from repro.session import Session
from workloads import QUICK

SIZES = [500, 2000] if QUICK else [1000, 10_000, 100_000]
CONVERGENCE_SEEDS = 6 if QUICK else 25
CONVERGENCE_SIZE = 200 if QUICK else 1000
COVERAGE_SEEDS = [3] if QUICK else [3, 7, 11]
COVERAGE_CAP = 4096


def test_e19_throughput_scales_near_linearly():
    print("\nE19: generation + repair throughput across corpus sizes")
    print(f"{'size':>8} {'elements':>9} {'ms':>10} {'elem/s':>10} "
          f"{'us/elem':>9} {'edits':>7}")
    per_element = []
    for size in SIZES:
        started = time.perf_counter()
        result = generate_model("demo", size=size, seed=0, repair=True)
        elapsed = time.perf_counter() - started
        assert result.repair.converged, result.repair.render()
        n = result.n_elements
        micros = elapsed * 1e6 / n
        per_element.append(micros)
        print(f"{size:>8} {n:>9} {elapsed * 1e3:>10.1f} "
              f"{n / elapsed:>10,.0f} {micros:>9.2f} "
              f"{len(result.repair.edits):>7}")
        # repair keeps the corpus: pruning is the last resort
        assert n >= 0.9 * size, (size, n)
    # near-linear: per-element cost must not blow up with corpus size
    assert max(per_element) < 5 * min(per_element) + 100, per_element


def test_e19_repair_converges_across_seeds():
    print("\nE19: repair convergence band "
          f"({CONVERGENCE_SEEDS} seeds, size {CONVERGENCE_SIZE})")
    iterations = []
    edits = []
    for seed in range(CONVERGENCE_SEEDS):
        result = generate_model("demo", size=CONVERGENCE_SIZE, seed=seed,
                                repair=True)
        assert result.repair.converged, (seed, result.repair.render())
        errors = Session(result.model).check().errors
        assert not errors, (seed, [d.render() for d in errors[:3]])
        iterations.append(result.repair.iterations)
        edits.append(len(result.repair.edits))
    print(f"  iterations: max {max(iterations)}, "
          f"mean {sum(iterations) / len(iterations):.2f}")
    print(f"  edits/model: max {max(edits)}, "
          f"mean {sum(edits) / len(edits):.1f}")
    assert max(iterations) <= 10


def _elements_to_full_structural_coverage(directed, seed):
    size = 16
    while size <= COVERAGE_CAP:
        generator = make_generator("uml", seed=seed, directed=directed)
        root = generator.generate(size)
        coverage = generator.coverage or CoverageMap(generator)
        coverage.measure(root)
        if coverage.structural_complete:
            return size
        size *= 2
    return COVERAGE_CAP * 2


def test_e19_directed_beats_random_coverage():
    print("\nE19: elements to full metaclass+end coverage (UML slice)")
    print(f"{'seed':>6} {'random':>8} {'directed':>9} {'ratio':>7}")
    for seed in COVERAGE_SEEDS:
        directed = _elements_to_full_structural_coverage(True, seed)
        random_ = _elements_to_full_structural_coverage(False, seed)
        print(f"{seed:>6} {random_:>8} {directed:>9} "
              f"{random_ / directed:>7.1f}x")
        assert directed < random_, (seed, directed, random_)
        assert directed <= 512, (seed, directed)
