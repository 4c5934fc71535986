"""E21 — columnar extents must make full-pass checking faster without
changing a single output byte.

The paper's acceptance workflow re-runs "a well defined set of tests"
over the whole model at every abstraction level; on 10^5-element
corpora that full pass is the bottleneck.  With ``repro.mof.columns``
enabled, the structural and invariant families scan per-metaclass
struct-of-arrays blocks and only re-validate flagged suspects; the
allInstances-heavy constraint sets read whole attribute columns.  Same
machine, same corpus, fewer cache misses: measurably faster than the
per-object walk.

Byte-identity of the columnar document is asserted unconditionally —
the speedup floor only on the full corpus.  Set ``REPRO_BENCH_QUICK=1``
(CI smoke) for a reduced corpus.
"""

import json
import os
import time

from repro.generate import demo_generator, demo_package
from repro.mof import Model
from repro.ocl.invariants import ConstraintSet
from repro.session import Session

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
CORPUS_SIZE = 3_000 if QUICK else 100_000
REPEATS = 2 if QUICK else 3

_corpus_cache = {}


def _corpus_root(size=CORPUS_SIZE, seed=21):
    """One *unrepaired* generated tree per size: full of diagnostics, so
    the checkers do real reporting work, not just clean scans."""
    if size not in _corpus_cache:
        started = time.perf_counter()
        root = demo_generator(seed).generate(size)
        elapsed = time.perf_counter() - started
        count = 1 + sum(1 for _ in root.all_contents())
        print(f"\n  [corpus: {count:,} elements generated in {elapsed:.1f}s]")
        _corpus_cache[size] = root
    return _corpus_cache[size]


def _session(root, **kwargs):
    previous = getattr(root, "_model", None)
    if previous is not None:
        previous.remove_root(root)          # corpus is shared across tests
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


def _timed(fn, repeats=REPEATS):
    best, result = None, None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_e21_columnar_single_core_win():
    root = _corpus_root()
    plain = _session(root)
    object_time, object_doc = _timed(lambda: _doc(plain))

    columnar = _session(root, columnar=True)
    _doc(columnar)                           # warm the column blocks
    column_time, column_doc = _timed(lambda: _doc(columnar))

    speedup = object_time / column_time if column_time else float("inf")
    print(f"\n  [columnar: object {object_time*1000:.0f}ms vs columns "
          f"{column_time*1000:.0f}ms -> {speedup:.2f}x]")
    assert column_doc == object_doc          # not one byte different
    if not QUICK:
        # the floor is deliberately modest: the win concentrates in the
        # clean majority (suspect scans), and unrepaired corpora keep
        # the exact re-validation busy too
        assert speedup >= 1.2, (
            f"columnar pass not faster: {speedup:.2f}x")
