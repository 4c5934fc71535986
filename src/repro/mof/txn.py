"""ACID-style transactions over the kernel's notification stream.

The kernel already reports every successful high-level mutation as a
:class:`~repro.mof.notify.Notification` carrying the old value and, for
ordered features, the position.  That record is exactly an undo log: each
change kind has a well-defined inverse (re-link what was unlinked at its
old index, restore the previous attribute value, move an element back).
A :class:`Transaction` journals the stream through the process-wide
notify hook and replays inverses in reverse order on rollback.

Usage::

    with transaction(repository):
        pim.classes.append(broken)
        rule.apply(...)            # raises -> every edit above is undone

Properties and limitations:

* **Atomicity** is at the granularity of kernel operations: an operation
  that raises (type error, frozen element, containment cycle, injected
  fault) has already guaranteed not to mutate anything, and completed
  operations are undone by rollback.  There is no isolation — this is a
  single-writer undo journal, not a concurrency mechanism.
* **Nesting**: entering ``transaction()`` inside an open transaction
  creates a savepoint; an inner rollback unwinds to the savepoint only.
  Explicit :meth:`Transaction.savepoint` / :meth:`Transaction.rollback_to`
  give finer control.
* **Scope** is advisory: the journal hooks are process-wide (they chain
  any previously installed notify hook, e.g. the observability layer's,
  so both see the stream).  The ``scope`` argument documents intent and
  is carried on the transaction for its hooks.
* Root attachment (``Model.add_root``/``remove_root``) is not a feature
  write and bypasses notifications; it is journaled through the
  dedicated root hook (:func:`repro.mof.repository.set_root_hook`).
* ``freeze``/``unfreeze`` are not journaled; freezing an element after
  editing it inside an open transaction makes that edit irreversible and
  rollback will report it via :class:`TransactionError`.

Hooks registered with :meth:`Transaction.on_commit` /
:meth:`Transaction.on_rollback` run with the transaction when that
transaction (outermost or nested) commits or rolls back.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, NamedTuple, Optional, Union

from .. import faults as _faults
from . import kernel as _kernel
from . import notify as _notify
from . import repository as _repository
from .errors import TransactionError
from .kernel import Element, Reference
from .notify import ChangeKind, Notification


class RootChange(NamedTuple):
    """Journal entry for ``Model.add_root`` / ``remove_root``."""

    model: Any
    element: Element
    added: bool


JournalEntry = Union[Notification, RootChange]

#: Stack of open transactions (outermost first).  Process-wide by design:
#: the journal taps process-wide hooks, so there is exactly one journal.
_STACK: List["Transaction"] = []

#: True while a rollback replays inverses — replay mutations must not be
#: journaled or they would undo themselves.
_REPLAYING = False


def current_transaction() -> Optional["Transaction"]:
    """The innermost open transaction, or None."""
    return _STACK[-1] if _STACK else None


def in_transaction() -> bool:
    return bool(_STACK)


# ---------------------------------------------------------------------------
# Inverse application
# ---------------------------------------------------------------------------

def _clamp(position: Optional[int], length: int) -> Optional[int]:
    if position is None:
        return None
    return max(0, min(position, length))


def _invert(entry: JournalEntry) -> None:
    """Apply the inverse of one journal entry.

    Every branch is guarded to be idempotent against the *current* state:
    link/unlink operations notify both ends, so the journal holds two
    entries per bidirectional change and the second inverse finds its work
    already done (except for position restoration, which only the owning
    side's entry can do faithfully).
    """
    if isinstance(entry, RootChange):
        model, element, added = entry
        if added:
            if element in model.roots:
                model.remove_root(element)
        else:
            if element not in model.roots and element.container is None:
                model.add_root(element)
        return

    element, feature, kind = entry.element, entry.feature, entry.kind
    is_ref = isinstance(feature, Reference) and feature.is_reference

    if kind is ChangeKind.SET or kind is ChangeKind.UNSET:
        if is_ref:
            current = element._slots.get(feature.name)
            if entry.old is None:
                if current is not None and current is entry.new:
                    _kernel._unlink(element, feature, current)
            elif current is not entry.old:
                _kernel._link(element, feature, entry.old)
        else:
            _kernel._set_value(element, feature, entry.old)
        return

    slot = _kernel._slot_list(element, feature)

    if kind is ChangeKind.ADD:
        if entry.new in slot:
            if is_ref:
                _kernel._unlink(element, feature, entry.new)
            else:
                slot.remove(entry.new)
        return

    if kind is ChangeKind.REMOVE:
        if entry.old in slot:
            # the other end's inverse already re-linked us — but appended;
            # restore the recorded index
            if feature.ordered and entry.position is not None:
                index = slot.index(entry.old)
                target = _clamp(entry.position, len(slot) - 1)
                if target is not None and index != target:
                    slot.move(target, entry.old)
        else:
            position = _clamp(entry.position, len(slot))
            if is_ref:
                _kernel._link(element, feature, entry.old, position=position)
            elif position is None:
                slot.append(entry.old)
            else:
                slot.insert(position, entry.old)
        return

    if kind is ChangeKind.MOVE:
        # forward: old=old_index, new=value, position=new_index
        if entry.new in slot:
            target = _clamp(entry.old, len(slot) - 1)
            if target is not None and slot.index(entry.new) != target:
                slot.move(target, entry.new)
        return

    raise TransactionError(f"journal holds unknown change kind {kind!r}")


def _replay_inverse(journal: List[JournalEntry], base: int) -> None:
    """Undo ``journal[base:]`` newest-first and truncate the journal.

    Fault injection is disarmed during replay: recovery is the machinery
    under test, not a fault site — a chaos run measures whether rollback
    restores the model, which is unanswerable if the probe re-fires inside
    the restoration itself.
    """
    global _REPLAYING
    failures: List[str] = []
    previous_plan = _faults.install(None)
    _REPLAYING = True
    try:
        for entry in reversed(journal[base:]):
            try:
                _invert(entry)
            except Exception as exc:  # noqa: BLE001 - collected, re-raised
                failures.append(f"{entry!r}: {exc}")
    finally:
        _REPLAYING = False
        _faults.install(previous_plan)
        del journal[base:]
    if failures:
        raise TransactionError(
            "rollback could not fully restore pre-transaction state",
            failures)


# ---------------------------------------------------------------------------
# The transaction object
# ---------------------------------------------------------------------------

class Savepoint(NamedTuple):
    txn: "Transaction"
    index: int


class Transaction:
    """One open undo scope over the process-wide journal.

    Created by :func:`transaction`; the outermost transaction owns the
    journal list and the hook installation, nested ones share it and mark
    their base offset.
    """

    def __init__(self, scope: Any = None,
                 parent: Optional["Transaction"] = None):
        self.scope = scope
        self.parent = parent
        self.journal: List[JournalEntry] = \
            parent.journal if parent is not None else []
        self._base = len(self.journal)
        self.state = "open"          # open | committed | rolled-back
        self._commit_hooks: List[Callable[["Transaction"], None]] = []
        self._rollback_hooks: List[Callable[["Transaction"], None]] = []
        self._saved_notify = None
        self._saved_root = None

    # -- journal taps -----------------------------------------------------

    def _install_hooks(self) -> None:
        def journal_notify(notification: Notification,
                           _journal=self.journal) -> None:
            if not _REPLAYING:
                _journal.append(notification)
            if self._saved_notify is not None:
                self._saved_notify(notification)

        def journal_root(model, element, added,
                         _journal=self.journal) -> None:
            if not _REPLAYING:
                _journal.append(RootChange(model, element, added))
            if self._saved_root is not None:
                self._saved_root(model, element, added)

        self._saved_notify = _notify.set_notify_hook(journal_notify)
        self._saved_root = _repository.set_root_hook(journal_root)

    def _uninstall_hooks(self) -> None:
        _notify.set_notify_hook(self._saved_notify)
        _repository.set_root_hook(self._saved_root)
        self._saved_notify = None
        self._saved_root = None

    # -- user API ---------------------------------------------------------

    @property
    def op_count(self) -> int:
        """Journal entries recorded within this transaction's scope."""
        return len(self.journal) - self._base

    def touched_elements(self) -> List[Element]:
        """The distinct elements this transaction's journal touched, in
        first-touch order (both endpoints of bidirectional changes).

        The model server uses this for conflict/watch payloads: a
        rejected ``edit-txn`` can name exactly what the winning
        transaction changed, and a committed one can push a precise
        invalidation summary to watching clients.
        """
        seen: dict = {}
        for entry in self.journal[self._base:]:
            if isinstance(entry, RootChange):
                candidates = (entry.element,)
            else:
                candidates = (entry.element, entry.old, entry.new)
            for candidate in candidates:
                if isinstance(candidate, Element):
                    seen.setdefault(id(candidate), candidate)
        return list(seen.values())

    def on_commit(self, hook: Callable[["Transaction"], None]) -> None:
        """Run *hook(self)* when this transaction commits."""
        self._commit_hooks.append(hook)

    def on_rollback(self, hook: Callable[["Transaction"], None]) -> None:
        """Run *hook(self)* when this transaction rolls back."""
        self._rollback_hooks.append(hook)

    def savepoint(self) -> Savepoint:
        """Mark the current journal position for a partial rollback."""
        self._check_open()
        return Savepoint(self, len(self.journal))

    def rollback_to(self, savepoint: Savepoint) -> None:
        """Undo every change made since *savepoint*; the transaction
        stays open."""
        self._check_open()
        if savepoint.txn is not self:
            raise TransactionError(
                "savepoint belongs to a different transaction")
        if savepoint.index < self._base \
                or savepoint.index > len(self.journal):
            raise TransactionError("savepoint is no longer valid")
        _replay_inverse(self.journal, savepoint.index)

    def commit(self) -> None:
        """Close the transaction keeping its changes."""
        self._finish("committed")
        for hook in self._commit_hooks:
            hook(self)
        self._record_metrics("commit")

    def rollback(self) -> None:
        """Undo every change made inside this transaction and close it."""
        ops = self.op_count
        try:
            _replay_inverse(self.journal, self._base)
        finally:
            self._finish("rolled-back")
        for hook in self._rollback_hooks:
            hook(self)
        self._record_metrics("rollback", ops)

    # -- internals --------------------------------------------------------

    def _check_open(self) -> None:
        if self.state != "open":
            raise TransactionError(
                f"transaction is already {self.state}")

    def _finish(self, state: str) -> None:
        self._check_open()
        if current_transaction() is not self:
            raise TransactionError(
                "transactions must finish innermost-first")
        self.state = state
        _STACK.pop()
        if self.parent is None:
            self._uninstall_hooks()

    def _record_metrics(self, outcome: str, undone: int = 0) -> None:
        try:
            from ..obs import metrics as _metrics
            from ..obs import trace as _trace
        except ImportError:          # pragma: no cover - obs always ships
            return
        if not _trace.ON:
            return
        registry = _metrics.REGISTRY
        registry.counter(
            "txn.finished", help="transactions finished",
            outcome=outcome).inc()
        registry.counter(
            "txn.ops.journaled",
            help="journal entries recorded in finished transactions").inc(
                self.op_count if outcome == "commit" else undone)

    def __repr__(self) -> str:
        nested = " nested" if self.parent is not None else ""
        return (f"<Transaction {self.state}{nested} "
                f"ops={self.op_count}>")


@contextmanager
def transaction(scope: Any = None) -> Iterator[Transaction]:
    """Open a transaction (or, nested, a savepoint scope) over *scope*.

    Commits on normal exit; on exception rolls back every journaled change
    and re-raises the original exception.  A :class:`TransactionError`
    raised *by the rollback itself* supersedes it — a half-restored model
    must never fail silently.
    """
    parent = current_transaction()
    txn = Transaction(scope, parent=parent)
    if parent is None:
        txn._install_hooks()
    _STACK.append(txn)
    try:
        yield txn
    except BaseException:
        if txn.state == "open":
            txn.rollback()
        raise
    else:
        if txn.state == "open":
            txn.commit()
