"""Incrementally maintained per-model element indexes.

``Model.instances_of``, ``Repository.all_instances`` and
``Repository.resolve`` historically scanned the whole containment forest
per call — O(model) for answers that are usually tiny.  A
:class:`ModelIndex` turns them into O(answer) dictionary lookups:

* a **metaclass extent** index: exact metaclass → (insertion-ordered)
  elements, with conforming queries concatenating the extents of the
  metaclass and its transitive subclasses;
* an **eid** index for ``uri#eid`` reference resolution.

It also keeps each root's **preorder**: the elements of
``[root] + list(root.all_contents())``, in that order, which
:func:`repro.mof.query.instances_of` filters on a model root instead of
walking the tree.  A preorder is taken on first use and dropped at the
next containment change anywhere in the model (MOVE included, since it
reorders), so it is walked again only after the tree changed.

Staleness protocol — how the index stays honest against the live model:

* **Containment notifications.**  Every mutation that moves an element
  in or out of a model's containment forest emits (at least) one
  notification *on the containment side* (``feature.containment`` true;
  see ``kernel._link``/``_unlink``), and that side is always still
  attached to the model, so the notification reaches
  :meth:`Model._element_changed` and therefore the index's observer.
  The index reacts **only** to containment-feature notifications
  (ADD/SET attach a subtree, REMOVE/UNSET detach one; MOVE is a
  reordering and leaves membership alone, dropping only the cached
  preorders); the mirror notification on the opposite (child) side is
  deliberately ignored so a move is never double-handled.
* **Root hooks.**  ``Model.add_root``/``remove_root`` bypass the
  notification machinery (no feature is involved), so :class:`Model`
  calls :meth:`ModelIndex.root_added`/:meth:`root_removed` directly.
  The kernel refuses to contain a model root (``kernel._link``), or,
  for a model that gives contained roots up, takes the root out of the
  model first, so a root never enters a containment slot unannounced,
  and an element's root changes only with one of its transitions.
* **Lazy eids.**  ``Element.eid`` assigns ids lazily and ``set_eid``
  rebinds them, both silently — so :meth:`resolve_eid` cross-checks the
  hit (same eid, still indexed) and falls back to a repairing scan on a
  miss.  Extent membership has no such silent channel.
* **Tracking gating and extent reads.**  While dependency tracking is
  active (``kernel._TRACKING``, raised by a ``ReadCollector``), the
  incremental engine derives invalidation sets from recorded reads.
  ``Model.instances_of`` and ``Repository.all_instances`` would hide
  per-element reads, so they defer to the legacy scans.  A preorder
  answer instead records one *extent read*, ``(metaclass,
  kernel.EXTENT_KEY)``, which the engine invalidates on every
  enter/leave transition of an instance and on every containment MOVE
  that repositions one; so it is used whether or not tracking is on.
  A counting read probe alone gates nothing.
* **Hook-free walks.**  Every walk the index makes (subtree enter and
  leave, preorders, the verify oracle) reads the containment slots
  directly through :func:`walk` and never calls the read hook, so no
  index bookkeeping lands in a tracked unit's read set.

Membership listeners: the enter/leave transitions derived above are
also handed to every callable in :attr:`ModelIndex.listeners` as
``listener(element, entered)``, once per real transition (an element
already indexed does not re-enter).  The incremental engines take their
element membership from these instead of re-walking the tree.  The
subtree walk happens at notification time, which keeps "detach, mutate
while detached, reattach" exact: the detached subtree leaves as it was,
and re-enters as it is.

``REPRO_INDEX_VERIFY=1`` cross-checks every indexed answer, and every
preorder, against the scan it replaced (the equivalence oracle the
property tests use).
"""

from __future__ import annotations

import os
from itertools import compress
from operator import attrgetter
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List,
                    Optional, Tuple)

from .kernel import Element, MetaClass
from .notify import ChangeKind, Notification

if TYPE_CHECKING:                                   # pragma: no cover
    from .repository import Model

#: When "1", every indexed query re-runs the scan it replaced and raises
#: IndexDivergence on any mismatch.
VERIFY_ENV = "REPRO_INDEX_VERIFY"


class IndexDivergence(AssertionError):
    """An indexed answer disagreed with the containment-scan oracle."""


_META = attrgetter("meta")


def walk(element: Element) -> List[Element]:
    """*element* and everything it contains, in the preorder of
    ``[element] + list(element.all_contents())``.  The containment slots
    are read directly, so the read hook never sees this walk."""
    out: List[Element] = []
    stack = [element]
    while stack:
        node = stack.pop()
        out.append(node)
        slots = node._slots
        children: List[Element] = []
        for feature in node.meta.containment_features():
            value = slots.get(feature.name)
            if value is None:
                continue
            if feature.many:
                children.extend(value._items)
            else:
                children.append(value)
        if children:
            children.reverse()
            stack.extend(children)
    return out


class ModelIndex:
    """Metaclass-extent and eid indexes over one :class:`Model`.

    Built lazily by ``Model.index()`` from a full scan, then maintained
    incrementally from change notifications (see the module docstring
    for the staleness protocol).
    """

    def __init__(self, model: "Model"):
        self.model = model
        # exact metaclass -> {id(element): element}; dicts keep insertion
        # order, which is the extent order queries report.
        self._extent: Dict[MetaClass, Dict[int, Element]] = {}
        self._ids: Dict[int, Element] = {}
        self._eids: Dict[str, Element] = {}
        # id(root) -> (root, its preorder, each element's metaclass)
        self._preorders: Dict[int, Tuple[Element, List[Element],
                                         List[MetaClass]]] = {}
        #: called as ``listener(element, entered)`` on every membership
        #: transition (see the module docstring)
        self.listeners: List[Callable[[Element, bool], None]] = []
        #: rises on every notification (before the containment filter),
        #: root change and rebuild: the column store's cache key
        self.changes = 0
        self.hits = 0
        self.eid_scans = 0
        self.rebuilds = 0
        model.observe(self._on_change)
        self.rebuild()

    # -- bulk (re)construction -------------------------------------------

    def rebuild(self) -> None:
        """Rebuild from a full scan of the model's containment forest."""
        self._extent.clear()
        self._ids.clear()
        self._eids.clear()
        self._preorders.clear()
        for root in self.model.roots:
            self._add_tree(root)
        self.rebuilds += 1
        self.changes += 1

    # -- single-element maintenance --------------------------------------

    def _add_one(self, element: Element) -> None:
        key = id(element)
        if key in self._ids:
            return
        self._ids[key] = element
        self._extent.setdefault(element.meta, {})[key] = element
        eid = element._eid
        if eid is not None:
            self._eids[eid] = element
        if self.listeners:
            self._announce(element, True)

    def _remove_one(self, element: Element) -> None:
        key = id(element)
        if self._ids.pop(key, None) is None:
            return
        bucket = self._extent.get(element.meta)
        if bucket is not None:
            bucket.pop(key, None)
            if not bucket:
                del self._extent[element.meta]
        eid = element._eid
        if eid is not None and self._eids.get(eid) is element:
            del self._eids[eid]
        if self.listeners:
            self._announce(element, False)

    def _announce(self, element: Element, entered: bool) -> None:
        # snapshot + live-membership check, as Model._element_changed does:
        # a listener removed mid-dispatch (a server connection closing on
        # another thread) is neither called nor lets the loop skip one
        listeners = self.listeners
        for listener in tuple(listeners):
            if listener in listeners:
                listener(element, entered)

    def _add_tree(self, element: Element) -> None:
        for node in walk(element):
            self._add_one(node)

    def _remove_tree(self, element: Element) -> None:
        for node in walk(element):
            self._remove_one(node)

    # -- change intake ----------------------------------------------------

    def _on_change(self, notification: Notification) -> None:
        self.changes += 1
        # Only the containment side decides membership; the opposite-side
        # mirror notification for the same mutation is ignored.
        if not getattr(notification.feature, "containment", False):
            return
        self._preorders.clear()
        kind = notification.kind
        if kind is ChangeKind.ADD or kind is ChangeKind.SET:
            if isinstance(notification.new, Element):
                self._add_tree(notification.new)
        elif kind is ChangeKind.REMOVE or kind is ChangeKind.UNSET:
            if isinstance(notification.old, Element):
                self._remove_tree(notification.old)
        # MOVE repositions within a feature: membership unchanged.

    def root_added(self, root: Element) -> None:
        self.changes += 1
        self._preorders.clear()
        self._add_tree(root)

    def root_removed(self, root: Element) -> None:
        self.changes += 1
        self._preorders.clear()
        self._remove_tree(root)

    # -- queries ----------------------------------------------------------

    def instances_of(self, metaclass: MetaClass,
                     exact: bool = False) -> List[Element]:
        """All (conforming or exactly typed) instances, O(answer)."""
        out: List[Element] = []
        bucket = self._extent.get(metaclass)
        if bucket:
            out.extend(bucket.values())
        if not exact:
            for sub in metaclass.all_subclasses():
                bucket = self._extent.get(sub)
                if bucket:
                    out.extend(bucket.values())
        self.hits += 1
        if os.environ.get(VERIFY_ENV) == "1":
            self._verify_instances(metaclass, exact, out)
        return out

    def preorder(self, root: Element) -> List[Element]:
        """*root* and its contents in ``all_contents`` preorder, walked
        without the read hook and kept until the next containment change
        in the model.  *root* must be a root of the model; the list is
        the index's own, so callers must not mutate it."""
        return self._preorder_entry(root)[1]

    def instances_under(self, root: Element, metaclass: MetaClass,
                        include_self: bool = True) -> List[Element]:
        """The elements of model root *root*'s preorder that conform to
        *metaclass* (*root* itself only with *include_self*), in
        preorder: ``repro.mof.query.instances_of`` on a model root."""
        _root, elements, metas = self._preorder_entry(root)
        wanted = {metaclass, *metaclass.all_subclasses()}
        found = list(compress(elements, map(wanted.__contains__, metas)))
        if not include_self and found and found[0] is root:
            del found[0]
        return found

    def _preorder_entry(self, root: Element
                        ) -> Tuple[Element, List[Element], List[MetaClass]]:
        entry = self._preorders.get(id(root))
        if entry is None:
            if not any(candidate is root for candidate in self.model.roots):
                raise ValueError(f"{root!r} is not a root of {self.model!r}")
            elements = walk(root)
            entry = (root, elements, list(map(_META, elements)))
            self._preorders[id(root)] = entry
        elif os.environ.get(VERIFY_ENV) == "1":
            if list(map(id, entry[1])) != list(map(id, walk(root))):
                raise IndexDivergence(
                    f"preorder of {root!r} diverged from a fresh walk")
        return entry

    def resolve_eid(self, eid: str) -> Optional[Element]:
        """The model's element with ``_eid == eid``, or None.

        An index hit is cross-checked (eids can be rebound via
        ``set_eid``); on a miss the containment scan runs once and
        repairs the entry (eids are assigned lazily, without any
        notification).
        """
        element = self._eids.get(eid)
        if element is not None and element._eid == eid \
                and id(element) in self._ids:
            self.hits += 1
            return element
        self.eid_scans += 1
        for candidate in self.model.all_elements():
            if candidate._eid == eid:
                self._eids[eid] = candidate
                return candidate
        if element is not None:
            # stale entry (rebound or removed): drop it
            self._eids.pop(eid, None)
        return None

    # -- equivalence cross-check ------------------------------------------

    def _scan(self) -> Iterator[Element]:
        """Every element of the model, walked without the read hook (the
        oracle's scan: checking an answer must not add to a read set)."""
        for root in self.model.roots:
            yield from walk(root)

    def _verify_instances(self, metaclass: MetaClass, exact: bool,
                          answer: List[Element]) -> None:
        if exact:
            expected = [e for e in self._scan() if e.meta is metaclass]
        else:
            expected = [e for e in self._scan()
                        if e.meta.conforms_to(metaclass)]
        if sorted(map(id, answer)) != sorted(map(id, expected)):
            raise IndexDivergence(
                f"instances_of({metaclass.name}, exact={exact}) diverged: "
                f"index returned {len(answer)} element(s), "
                f"scan found {len(expected)}")

    def verify(self) -> List[str]:
        """Compare against a full scan; return a list of discrepancies."""
        problems: List[str] = []
        scanned: Dict[int, Element] = {}
        for element in self._scan():
            scanned[id(element)] = element
        for key, element in scanned.items():
            if key not in self._ids:
                problems.append(f"missing from index: {element!r}")
        for key, element in self._ids.items():
            if key not in scanned:
                problems.append(f"stale in index: {element!r}")
        for metaclass, bucket in self._extent.items():
            for element in bucket.values():
                if element.meta is not metaclass:
                    problems.append(
                        f"{element!r} filed under {metaclass.name}, "
                        f"typed {element.meta.name}")
        for eid, element in self._eids.items():
            if element._eid != eid:
                problems.append(
                    f"eid entry {eid!r} points at element with "
                    f"eid {element._eid!r}")
        for root, elements, metas in self._preorders.values():
            if not any(candidate is root for candidate in self.model.roots):
                problems.append(f"preorder kept for a non-root: {root!r}")
            elif list(map(id, elements)) != list(map(id, walk(root))):
                problems.append(f"stale preorder of {root!r}")
            if metas != list(map(_META, elements)):
                problems.append(f"preorder metaclasses of {root!r} are "
                                f"out of step with its elements")
        return problems

    def stats(self) -> Dict[str, int]:
        return {
            "elements": len(self._ids),
            "metaclasses": len(self._extent),
            "eids": len(self._eids),
            "hits": self.hits,
            "eid_scans": self.eid_scans,
            "rebuilds": self.rebuilds,
        }

    def __repr__(self) -> str:
        return (f"<ModelIndex {self.model.uri} elements={len(self._ids)} "
                f"metaclasses={len(self._extent)}>")
