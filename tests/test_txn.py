"""Transaction unit tests: commit, rollback, savepoints, nesting, hooks.

The journal-of-inverses design (``repro.mof.txn``) is exercised one
mutation kind at a time — every branch of ``_invert`` gets a direct
test — then through the protocol edges: nested scopes, savepoint
unwinding, listener firing, misuse errors, and the irreversibility
escape hatch (freeze-after-edit) that must surface as a
:class:`TransactionError` rather than a silently wrong model.
"""

from __future__ import annotations

import pytest

from kernel_fixture import TBook, TChapter, TLibrary
from repro.mof import (
    TransactionError,
    Transaction,
    compare,
    current_transaction,
    in_transaction,
    transaction,
)
from repro.mof import notify as notify_mod
from repro.mof.repository import Model
from repro.mof import repository as repo_mod


class Boom(RuntimeError):
    pass


@pytest.fixture
def lib():
    library = TLibrary(name="lib")
    for title in ("a", "b", "c"):
        library.books.append(TBook(name=title))
    return library


def titles(library):
    return [b.name for b in library.books]


# ---------------------------------------------------------------------------
# Per-operation inverses
# ---------------------------------------------------------------------------

class TestInverses:
    def test_attribute_set_rolls_back(self, lib):
        with pytest.raises(Boom):
            with transaction():
                lib.books[0].pages = 999
                lib.books[0].name = "renamed"
                raise Boom
        assert lib.books[0].pages == 100
        assert lib.books[0].name == "a"

    def test_attribute_unset_rolls_back(self, lib):
        book = lib.books[0]
        book.pages = 7
        with pytest.raises(Boom):
            with transaction():
                book.eunset("pages")
                raise Boom
        assert book.pages == 7

    def test_many_attribute_add_remove_roll_back(self, lib):
        book = lib.books[0]
        book.tags.append("keep")
        with pytest.raises(Boom):
            with transaction():
                book.tags.append("doomed")
                book.tags.remove("keep")
                raise Boom
        assert list(book.tags) == ["keep"]

    def test_single_reference_set_rolls_back(self, lib):
        lib.featured = lib.books[0]
        with pytest.raises(Boom):
            with transaction():
                lib.featured = lib.books[2]
                raise Boom
        assert lib.featured is lib.books[0]

    def test_single_reference_clear_rolls_back(self, lib):
        lib.featured = lib.books[1]
        with pytest.raises(Boom):
            with transaction():
                lib.featured = None
                raise Boom
        assert lib.featured is lib.books[1]

    def test_bidirectional_set_rolls_back_both_ends(self, lib):
        a, b = lib.books[0], lib.books[1]
        with pytest.raises(Boom):
            with transaction():
                a.sequel = b
                raise Boom
        assert a.sequel is None
        assert b.prequel is None

    def test_containment_remove_restores_position(self, lib):
        middle = lib.books[1]
        with pytest.raises(Boom):
            with transaction():
                lib.books.remove(middle)
                raise Boom
        assert titles(lib) == ["a", "b", "c"]
        assert middle.library is lib

    def test_containment_add_rolls_back(self, lib):
        with pytest.raises(Boom):
            with transaction():
                lib.books.append(TBook(name="extra"))
                raise Boom
        assert titles(lib) == ["a", "b", "c"]

    def test_move_rolls_back(self, lib):
        with pytest.raises(Boom):
            with transaction():
                lib.books.move(0, lib.books[2])
                raise Boom
        assert titles(lib) == ["a", "b", "c"]

    def test_delete_subtree_rolls_back(self, lib):
        book = lib.books[1]
        book.chapters.append(TChapter(name="ch1"))
        book.chapters.append(TChapter(name="ch2"))
        with pytest.raises(Boom):
            with transaction():
                book.delete()
                raise Boom
        assert titles(lib) == ["a", "b", "c"]
        assert [c.name for c in lib.books[1].chapters] == ["ch1", "ch2"]
        assert lib.books[1].chapters[0].book is lib.books[1]

    def test_reparent_rolls_back(self):
        src = TLibrary(name="src")
        dst = TLibrary(name="dst")
        book = TBook(name="wanderer")
        src.books.append(book)
        with pytest.raises(Boom):
            with transaction():
                dst.books.append(book)     # implicit detach from src
                raise Boom
        assert [b.name for b in src.books] == ["wanderer"]
        assert len(dst.books) == 0
        assert book.library is src

    def test_root_add_and_remove_roll_back(self, lib):
        model = Model("urn:test:txn")
        model.add_root(lib)
        stray = TLibrary(name="stray")
        with pytest.raises(Boom):
            with transaction():
                model.add_root(stray)
                model.remove_root(lib)
                raise Boom
        assert lib in model.roots
        assert stray not in model.roots

    def test_mixed_edit_burst_restores_deep_equality(self, lib):
        from repro.xmi import read_json, write_json
        from kernel_fixture import TEST_PKG
        model = Model("urn:test:snap")
        model.add_root(lib)
        snapshot = read_json(write_json(model), [TEST_PKG])
        with pytest.raises(Boom):
            with transaction():
                lib.books[0].delete()
                lib.featured = lib.books[0]
                lib.books.move(0, lib.books[-1])
                lib.books[0].sequel = lib.books[1]
                lib.books.append(TBook(name="new", pages=1))
                raise Boom
        result = compare(snapshot.roots[0], lib)
        assert result.identical, str(result)


# ---------------------------------------------------------------------------
# Protocol: commit, nesting, savepoints
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_commit_keeps_changes(self, lib):
        with transaction():
            lib.books[0].pages = 42
        assert lib.books[0].pages == 42

    def test_explicit_rollback_inside_block(self, lib):
        with transaction() as txn:
            lib.books[0].pages = 42
            txn.rollback()
        assert lib.books[0].pages == 100

    def test_nested_inner_rollback_preserves_outer(self, lib):
        with transaction():
            lib.books[0].pages = 1
            with pytest.raises(Boom):
                with transaction():
                    lib.books[1].pages = 2
                    raise Boom
            assert lib.books[1].pages == 100
        assert lib.books[0].pages == 1

    def test_nested_outer_rollback_undoes_committed_inner(self, lib):
        with pytest.raises(Boom):
            with transaction():
                with transaction():
                    lib.books[0].pages = 1
                raise Boom
        assert lib.books[0].pages == 100

    def test_savepoint_partial_rollback(self, lib):
        with transaction() as txn:
            lib.books[0].pages = 1
            sp = txn.savepoint()
            lib.books[1].pages = 2
            lib.books.remove(lib.books[2])
            txn.rollback_to(sp)
            assert lib.books[1].pages == 100
            assert titles(lib) == ["a", "b", "c"]
        assert lib.books[0].pages == 1

    def test_savepoint_from_other_transaction_rejected(self, lib):
        with transaction() as outer:
            sp = outer.savepoint()
            with transaction() as inner:
                with pytest.raises(TransactionError):
                    inner.rollback_to(sp)

    def test_state_queries(self, lib):
        assert not in_transaction()
        assert current_transaction() is None
        with transaction() as txn:
            assert in_transaction()
            assert current_transaction() is txn
            lib.books[0].pages = 5
            assert txn.op_count == 1
        assert not in_transaction()
        assert txn.state == "committed"

    def test_finishing_twice_is_an_error(self, lib):
        with transaction() as txn:
            pass
        with pytest.raises(TransactionError):
            txn.commit()
        with pytest.raises(TransactionError):
            txn.rollback()

    def test_outer_cannot_finish_before_inner(self, lib):
        with pytest.raises(TransactionError,
                           match="innermost-first"):
            with transaction() as outer:
                with transaction():
                    outer.commit()

    def test_op_count_two_entries_per_bidirectional_link(self, lib):
        with transaction() as txn:
            lib.books[0].sequel = lib.books[1]
        assert txn.op_count == 2       # both ends notify


# ---------------------------------------------------------------------------
# Hooks and listeners
# ---------------------------------------------------------------------------

class TestHooks:
    def test_notify_and_root_hooks_restored(self, lib):
        before_notify = notify_mod._NOTIFY_HOOK
        with transaction():
            assert notify_mod._NOTIFY_HOOK is not before_notify
            lib.books[0].pages = 5
        assert notify_mod._NOTIFY_HOOK is before_notify
        assert repo_mod._ROOT_HOOK is None

    def test_chained_hook_still_sees_notifications(self, lib):
        seen = []
        from repro.mof.notify import set_notify_hook
        previous = set_notify_hook(lambda n: seen.append(n))
        try:
            with transaction():
                lib.books[0].pages = 5
        finally:
            set_notify_hook(previous)
        assert len(seen) == 1

    def test_rollback_listener_and_per_txn_hooks(self, lib):
        events = []
        with pytest.raises(Boom):
            with transaction() as txn:
                txn.on_rollback(lambda t: events.append("hook"))
                txn.on_commit(lambda t: events.append("commit-hook"))
                lib.books[0].pages = 5
                raise Boom
        assert events == ["hook"]

    def test_rollback_during_replay_not_journaled(self, lib):
        # if replay were journaled, op_count would grow during rollback
        with transaction() as txn:
            lib.books[0].pages = 5
            sp = txn.savepoint()
            lib.books[1].pages = 6
            txn.rollback_to(sp)
            assert txn.op_count == 1


# ---------------------------------------------------------------------------
# Irreversibility is loud
# ---------------------------------------------------------------------------

class TestIrreversible:
    def test_freeze_after_edit_makes_rollback_raise(self, lib):
        book = lib.books[0]
        try:
            with pytest.raises(TransactionError) as excinfo:
                with transaction():
                    book.pages = 999
                    book.freeze()
                    raise Boom     # superseded by the rollback failure
            assert excinfo.value.failures
        finally:
            book.unfreeze()
        assert book.pages == 999   # honest: the edit truly stuck
