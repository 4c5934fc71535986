"""E21 — columnar extents must make full-pass checking faster without
changing a single output byte.

The paper's acceptance workflow re-runs "a well defined set of tests"
over the whole model at every abstraction level; on 10^5-element
corpora that full pass is the bottleneck.  With ``repro.mof.columns``
enabled, the structural, invariant and constraint families evaluate
per-metaclass struct-of-arrays blocks (suspect scans and invariant row
plans) and only re-validate flagged elements.  Same machine, same
corpus, fewer cache misses: measurably faster than the per-object walk.

Byte-identity of the columnar document is asserted unconditionally —
the speedup floor only on the full corpus.  Set ``REPRO_BENCH_QUICK=1``
(CI smoke) for a reduced corpus.
"""

import json
import time

from repro.generate import demo_generator, demo_package
from repro.mof import Model
from repro.ocl.invariants import ConstraintSet
from repro.session import Session
from workloads import QUICK, paired_medians

CORPUS_SIZE = 3_000 if QUICK else 100_000
ROUNDS = 5 if QUICK else 3


def _session(seed=21, **kwargs):
    """A session over a freshly generated *unrepaired* tree: full of
    diagnostics, so the checkers do real reporting work, not just clean
    scans.  Each side gets its own tree from the same seed, since a root
    belongs to one model and the column store to the model."""
    started = time.perf_counter()
    root = demo_generator(seed).generate(CORPUS_SIZE)
    elapsed = time.perf_counter() - started
    count = 1 + sum(1 for _ in root.all_contents())
    print(f"\n  [corpus: {count:,} elements generated in {elapsed:.1f}s]")
    model = Model("urn:bench:e21")
    model.add_root(root)
    pkg = demo_package()
    constraints = ConstraintSet("bulk")
    constraints.add(pkg.classifier("GBook"), "pages-bounded",
                    "self.pages < 100000")
    constraints.add(pkg.classifier("GLibrary"), "all-books-paged",
                    "GBook.allInstances()->forAll(b | b.pages >= 0)")
    return Session(model, constraint_sets=[constraints], **kwargs)


def _doc(session):
    return json.dumps(
        session.check(["structural", "invariant", "constraint"])
        .to_json(), sort_keys=True)


def test_e21_columnar_single_core_win():
    plain = _session()
    columnar = _session(columnar=True)
    docs = {}

    def object_pass():
        docs["object"] = _doc(plain)

    def column_pass():
        docs["columns"] = _doc(columnar)

    # the untimed first call of each side also warms the column blocks
    object_time, column_time = paired_medians(object_pass, column_pass,
                                              ROUNDS)
    speedup = (object_time.median / column_time.median
               if column_time.median else float("inf"))
    print(f"\n  [columnar: object {object_time} ms vs columns "
          f"{column_time} ms (median [Q1, Q3] of {ROUNDS} alternated "
          f"rounds) -> {speedup:.2f}x of the medians]")
    assert docs["columns"] == docs["object"]     # not one byte different
    # the model never changed, so the timed rounds read the blocks the
    # warm-up built, each built once
    columns = columnar.model.column_store().stats()
    assert columns["rebuilds"] == columns["extents"] == columns["built"]
    if not QUICK:
        # the floor is deliberately modest: the win concentrates in the
        # clean majority (suspect scans), and unrepaired corpora keep
        # the exact re-validation busy too
        assert speedup >= 1.2, (
            f"columnar pass not faster: {speedup:.2f}x")
