"""Property tests: rollback restores deep equality on generated models.

The property — for ANY model and ANY legal edit sequence, a rolled-back
transaction leaves the model ``repro.mof.compare``-identical to its
pre-transaction snapshot — is checked across 200 seeded random models
(demo metamodel and the curated UML slice) and three fuzz profiles,
including the delete/move-heavy ``destructive`` profile whose inverses
(subtree resurrection, position restoration in ordered lists) are the
hardest to replay.  Snapshots are JSON round-trip clones, so equality is
structural, not aliasing.  The same runs check that the edits and their
rollback leave no opposite or containment damage, which the incremental
engine's untracked link audits rely on.  Everything is seeded: a failure
message names the (metamodel, profile, seed) triple that replays it.
"""

from __future__ import annotations

import pytest

from repro.generate import EditFuzzer, demo_generator, demo_package, \
    uml_generator
from repro.mof import compare, transaction
from repro.mof.repository import Model
from repro.mof.validate import validate_tree
from repro.xmi import read_json, write_json


class Abort(RuntimeError):
    """The deliberate failure that forces the rollback under test."""


def _uml_packages():
    from repro.uml import UML
    return [UML]


CONFIGS = []
# 200 models total: 160 demo-metamodel cases across the three profiles
# (the demo package's opposite pairs + ordered containments are where
# inverse replay can go wrong), 40 over the curated UML slice.
for profile, demo_count in (("default", 60), ("destructive", 60),
                            ("shuffle", 40)):
    CONFIGS += [("demo", profile, seed) for seed in range(demo_count)]
CONFIGS += [("uml", "destructive", seed) for seed in range(20)]
CONFIGS += [("uml", "default", seed) for seed in range(20)]


def _build(metamodel: str, seed: int):
    if metamodel == "demo":
        generator = demo_generator(seed)
        packages = [demo_package()]
    else:
        generator = uml_generator(seed)
        packages = _uml_packages()
    root = generator.generate(12 + (seed % 25))
    return generator, packages, root


def _link_damage(root):
    """The tree's opposite and containment diagnostics.  The kernel
    keeps both ends of every link in step, so edits through it, and
    their rollback, never yield one."""
    return [diagnostic.render() for diagnostic
            in validate_tree(root, check_invariants=False).diagnostics
            if diagnostic.code in ("opposite", "containment")]


def _snapshot(root, packages):
    model = Model("urn:test:snapshot")
    model.add_root(root)
    try:
        return read_json(write_json(model), packages).roots[0]
    finally:
        model.remove_root(root)


@pytest.mark.parametrize("metamodel,profile,seed", CONFIGS)
def test_rollback_restores_snapshot(metamodel, profile, seed):
    generator, packages, root = _build(metamodel, seed)
    snapshot = _snapshot(root, packages)
    fuzzer = EditFuzzer(root, seed=seed * 31 + 7, generator=generator,
                        profile=profile)
    edits = []
    with pytest.raises(Abort):
        with transaction():
            edits = fuzzer.apply_random_edits(30)
            assert _link_damage(root) == [], edits
            raise Abort
    assert _link_damage(root) == [], edits
    result = compare(snapshot, root)
    assert result.identical, (
        f"rollback failed to restore model "
        f"({metamodel}/{profile}/seed={seed}) after edits:\n  "
        + "\n  ".join(edits) + f"\n{result}")


@pytest.mark.parametrize("seed", range(10))
def test_commit_then_rollback_only_undoes_second_transaction(seed):
    """Rollback unwinds to the latest transaction boundary, not to the
    beginning of time: a committed burst survives a later abort.

    The committed mid-state may contain things JSON serialization cannot
    express (explicitly nulled attributes, references dangling at
    deleted elements), so both sides of the equality go through the same
    round-trip lens rather than comparing a clone against the live tree.
    """
    generator, packages, root = _build("demo", seed)
    fuzzer = EditFuzzer(root, seed=seed, generator=generator,
                        profile="destructive")
    with transaction():
        fuzzer.apply_random_edits(15)
    assert _link_damage(root) == []
    committed = _snapshot(root, packages)
    with pytest.raises(Abort):
        with transaction():
            fuzzer.apply_random_edits(15)
            raise Abort
    restored = _snapshot(root, packages)
    result = compare(committed, restored)
    assert result.identical, str(result)


@pytest.mark.parametrize("seed", range(10))
def test_savepoint_fuzz(seed):
    """Partial rollback to a mid-sequence savepoint restores the state
    at the savepoint, while keeping everything before it."""
    generator, packages, root = _build("demo", seed + 100)
    fuzzer = EditFuzzer(root, seed=seed, generator=generator,
                        profile="shuffle")
    with transaction() as txn:
        fuzzer.apply_random_edits(10)
        at_savepoint = _snapshot(root, packages)
        sp = txn.savepoint()
        fuzzer.apply_random_edits(20)
        txn.rollback_to(sp)
        restored = _snapshot(root, packages)
        result = compare(at_savepoint, restored)
        assert result.identical, str(result)
