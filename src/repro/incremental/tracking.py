"""Read tracking and the dependency index for incremental revalidation.

The kernel funnels every feature read through ``_get_value`` (descriptor
access, ``eget``, dynamic attribute lookup, ``contents()``) and reports
container walks under the pseudo-feature
:data:`~repro.mof.kernel.CONTAINER_KEY`, and an instance query over a
model root as one *extent read*, ``(metaclass, EXTENT_KEY)`` (see
:data:`~repro.mof.kernel.EXTENT_KEY`).  :func:`collect_reads` taps
that stream for the duration of one check, giving the engine the exact
read set — ``(object, feature_name)`` pairs — of every invariant,
well-formedness rule and lint rule it runs; :func:`untracked` mutes the
innermost tap for checks whose dependencies the engine knows without
them.  :class:`DependencyGraph` inverts those read sets into a ``read
key -> reader units`` index so a change notification maps to the units
it invalidates in O(readers).

Two dependencies stay out of the index.  A structural unit that reports
nothing records no read of its element, and an OCL invariant finds
its element's root with one recorded read, the element's own container,
not one per ancestor.  The engine dirties those units from notifications and
membership transitions instead (see :mod:`repro.incremental.engine`).

The index has one edge per (unit, key) pair, a few per element, so it
is kept compact: each distinct key is interned once as an integer slot,
a unit's reads are one tuple of slots, and a slot's readers are a tuple
while few (nearly every key has one to four) and a set past a fixed
size.  A rerun whose reads did not change, which is nearly every rerun,
is recognised by set operations in C against the unit's stored keys,
without a lookup in the key index.  A slot whose last reader leaves is
freed for reuse and its key released, so the key's element can be
garbage-collected.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import itemgetter
from typing import (Any, Collection, Container, Dict, FrozenSet, Iterator,
                    List, Optional, Sequence, Set, Tuple)

from ..mof import kernel
from ..mof.kernel import CONTAINER_KEY, EXTENT_KEY  # noqa: F401  (re-exported)

#: One observed read: ``(object, feature_name)``.  Objects are compared by
#: identity (elements and metaclasses define neither ``__eq__`` nor
#: ``__hash__``), and keeping the object itself in the key pins it against
#: garbage collection so ids cannot be recycled under a live index.
ReadKey = Tuple[Any, str]

_EMPTY: FrozenSet[Any] = frozenset()


@contextmanager
def collect_reads(into: Set[ReadKey]) -> Iterator[Set[ReadKey]]:
    """Route kernel read events into *into* for the duration of the block.

    Nestable: a previously installed hook keeps seeing every read, so an
    engine revalidating inside another engine's tracked run does not
    blind it.  The block also raises the kernel's tracking depth, which
    turns off every bulk fast path that would answer without those
    per-element reads.
    """
    previous = kernel.set_read_hook(None)
    if previous is None:
        def hook(obj: Any, name: str) -> None:
            into.add((obj, name))
    else:
        def hook(obj: Any, name: str) -> None:
            into.add((obj, name))
            previous(obj, name)
    hook.outer = previous       # what untracked() leaves listening
    kernel.set_read_hook(hook)
    kernel._TRACKING += 1
    try:
        yield into
    finally:
        kernel._TRACKING -= 1
        kernel.set_read_hook(previous)


@contextmanager
def untracked() -> Iterator[None]:
    """Keep the innermost :func:`collect_reads` block from recording the
    block's reads.

    Only that collector is muted: the hooks it chains to (an outer
    engine's collector, the ``mof.reads`` counter) still see every read,
    so nesting stays as :func:`collect_reads` promises.  The kernel's
    tracking depth is left alone: the bulk fast paths stay off, so the
    block reads the same objects a tracked run would.  For checks whose
    dependencies the innermost engine learns without their reads (see
    ``StructuralUnit``).
    """
    hook = kernel.set_read_hook(None)
    kernel.set_read_hook(getattr(hook, "outer", hook))
    try:
        yield
    finally:
        kernel.set_read_hook(hook)


#: A key's readers are kept as a tuple while there are at most this many
#: and as a set past it: nearly every key has one to four readers, and a
#: tuple holds those at a fraction of a set's size.
_SMALL_READERS = 8


class DependencyGraph:
    """A bipartite index between check units and the read keys they touch.

    Keys are interned as integer slots (see the module docstring); unit,
    key and edge counts are maintained as the index changes, so reading
    them costs O(1).
    """

    def __init__(self) -> None:
        self._slots: Dict[ReadKey, int] = {}         # key -> slot
        self._keys: List[Optional[ReadKey]] = []     # slot -> key (None: free)
        self._readers: List[Any] = []                # slot -> tuple or set
        self._free: List[int] = []
        self._reads: Dict[Any, Tuple[int, ...]] = {}  # unit -> slots
        self._edges = 0

    def set_reads(self, unit: Any, keys: Set[ReadKey]) -> None:
        """Replace *unit*'s recorded read set with *keys*."""
        old = self._reads.get(unit, ())
        old_keys = self._keys_at(old)
        # the common rerun reads what it read last time: equal sizes plus
        # containment settle that in C, with no lookup in the key index
        if len(keys) == len(old) and keys.issuperset(old_keys):
            return
        held = dict(zip(old_keys, old))       # key -> slot, updated below
        for key in held.keys() - keys:
            self._remove_reader(held.pop(key), unit)
        readers_of = self._readers
        for key in keys.difference(held):
            slot = self._slots.get(key)
            if slot is None:
                slot = self._intern(key)
            readers = readers_of[slot]
            if type(readers) is set:
                readers.add(unit)
            elif len(readers) < _SMALL_READERS:
                readers_of[slot] = readers + (unit,)
            else:
                readers_of[slot] = {*readers, unit}
            held[key] = slot
        self._edges += len(held) - len(old)
        if held:
            self._reads[unit] = tuple(held.values())
        else:
            del self._reads[unit]

    def drop(self, unit: Any) -> None:
        """Forget *unit* entirely."""
        old = self._reads.pop(unit, ())
        for slot in old:
            self._remove_reader(slot, unit)
        self._edges -= len(old)

    def _keys_at(self, slots: Tuple[int, ...]) -> Sequence[ReadKey]:
        if len(slots) > 1:
            return itemgetter(*slots)(self._keys)
        # itemgetter returns a lone item unwrapped
        return [self._keys[slot] for slot in slots]

    def _intern(self, key: ReadKey) -> int:
        if self._free:
            slot = self._free.pop()
            self._keys[slot] = key
        else:
            slot = len(self._keys)
            self._keys.append(key)
            self._readers.append(())
        self._slots[key] = slot
        return slot

    def _remove_reader(self, slot: int, unit: Any) -> None:
        readers = self._readers[slot]
        if type(readers) is set:
            readers.discard(unit)
            if len(readers) <= _SMALL_READERS:
                self._readers[slot] = tuple(readers)
            return
        at = readers.index(unit)
        readers = self._readers[slot] = readers[:at] + readers[at + 1:]
        if not readers:
            # release the key so its object can be garbage-collected
            del self._slots[self._keys[slot]]
            self._keys[slot] = None
            self._free.append(slot)

    def readers(self, key: ReadKey) -> Collection[Any]:
        """The units whose last run read *key* (possibly empty)."""
        slot = self._slots.get(key)
        return _EMPTY if slot is None else self._readers[slot]

    def reads(self, unit: Any) -> FrozenSet[ReadKey]:
        return frozenset(self._keys_at(self._reads.get(unit, ())))

    def __len__(self) -> int:
        return len(self._reads)

    def key_count(self) -> int:
        return len(self._slots)

    def edge_count(self) -> int:
        return self._edges

    def verify(self, units: Container[Any]) -> List[str]:
        """Audit the index; return a list of discrepancies (empty when
        consistent).  *units* are the live units: reads recorded for any
        other unit are stale."""
        problems = [f"reads kept for a dropped unit: {unit!r}"
                    for unit in self._reads if unit not in units]
        keys, readers_of = self._keys, self._readers
        problems += [f"slot {slot} does not map back to {key!r}"
                     for key, slot in self._slots.items()
                     if keys[slot] is not key]
        free = [slot for slot, key in enumerate(keys) if key is None]
        if len(keys) - len(free) != len(self._slots):
            problems.append(f"{len(keys) - len(free)} slots hold keys, "
                            f"{len(self._slots)} keys are interned")
        if sorted(self._free) != free:
            problems.append("the free list differs from the empty slots")
        reads = {unit: set(slots) for unit, slots in self._reads.items()}
        held = 0
        for slot, key in enumerate(keys):
            readers = readers_of[slot]
            held += len(readers)
            if key is None:
                if readers:
                    problems.append(f"free slot {slot} has readers")
                continue
            if not readers:
                problems.append(f"slot {slot} kept without readers: {key!r}")
            elif (type(readers) is set) != (len(readers) > _SMALL_READERS):
                problems.append(f"slot {slot} holds {len(readers)} readers "
                                f"as a {type(readers).__name__}")
            problems += [f"{unit!r} is a reader of {key!r} but does not "
                         f"record it" for unit in readers
                         if slot not in reads.get(unit, ())]
        for unit, slots in reads.items():
            for slot in slots:
                if keys[slot] is None:
                    problems.append(f"{unit!r} records free slot {slot}")
                elif unit not in readers_of[slot]:
                    problems.append(f"{unit!r} records {keys[slot]!r} but "
                                    f"is not among its readers")
        recorded = sum(map(len, self._reads.values()))
        if not held == recorded == self._edges \
                or recorded != sum(map(len, reads.values())):
            problems.append(f"edge count {self._edges}: units record "
                            f"{recorded}, slots hold {held}")
        return problems

    def __repr__(self) -> str:
        return (f"<DependencyGraph units={len(self._reads)} "
                f"keys={len(self._slots)} edges={self._edges}>")
