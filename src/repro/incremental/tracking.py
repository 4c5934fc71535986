"""Read tracking and the dependency index for incremental revalidation.

The kernel funnels every feature read through ``_get_value`` (descriptor
access, ``eget``, dynamic attribute lookup, ``contents()``) and reports
container walks under the pseudo-feature
:data:`~repro.mof.kernel.CONTAINER_KEY`, and an instance query over a
model root as one *extent read*, ``(metaclass, EXTENT_KEY)`` (see
:data:`~repro.mof.kernel.EXTENT_KEY`).  A :class:`ReadCollector`
taps that stream for the duration of one check, giving the engine the
exact read set — ``(object, feature_name)`` pairs — of every invariant,
well-formedness rule and lint rule it runs; an engine runs all its
units through one collector, so entering it costs two hook swaps and
no allocation (:func:`collect_reads` makes one around a given set).
:class:`untracked` mutes the innermost tap.  :class:`DependencyGraph`
inverts those read sets into a ``read key -> reader units`` index so a
change notification maps to the units it invalidates in O(readers).

Two dependencies stay out of the index.  A structural unit that reports
nothing records no read of its element, and an OCL invariant finds
its element's root with one recorded read, the element's own container,
not one per ancestor.  The engine dirties those units from notifications and
membership transitions instead (see :mod:`repro.incremental.engine`).

The index has one edge per (unit, key) pair, a few per element, so it
is kept compact: each distinct key is interned once as an integer slot,
a unit's reads are one tuple of slots, and a slot's readers are the
one unit alone, a list while few (nearly every key has one to four)
or a set past a fixed size.  A unit's first run interns its keys in one
loop; a rerun whose reads did not change, which is nearly every rerun,
is recognised by set operations in C against the unit's stored keys,
without a lookup in the key index.  A slot whose last reader leaves is
freed for reuse and its key released, so the key's element can be
garbage-collected.
"""

from __future__ import annotations

from typing import (Any, Collection, Container, Dict, FrozenSet, List,
                    Optional, Set, Tuple)

from ..mof import kernel
from ..mof.kernel import CONTAINER_KEY, EXTENT_KEY  # noqa: F401  (re-exported)

#: One observed read: ``(object, feature_name)``.  Objects are compared by
#: identity (elements and metaclasses define neither ``__eq__`` nor
#: ``__hash__``), and keeping the object itself in the key pins it against
#: garbage collection so ids cannot be recycled under a live index.
ReadKey = Tuple[Any, str]

_EMPTY: FrozenSet[Any] = frozenset()


class ReadCollector:
    """A reusable tap on the kernel's read stream: inside ``with
    collector:`` every read lands in ``collector.reads``.

    Entering costs two hook swaps and no allocation: the hook is built
    once per collector, and ``reads`` is one set that its owner empties
    between uses, so an engine runs every unit through one collector.
    Nestable: a previously installed hook keeps seeing every read (the
    collector then chains a hook on to it for the block), so an engine
    revalidating inside another engine's tracked run does not blind it.
    The block also raises the kernel's tracking depth, which turns off
    every bulk fast path that would answer without those per-element
    reads.  Blocks of one collector may nest too; they share ``reads``.
    """

    __slots__ = ("reads", "_hook", "_outer")

    def __init__(self, into: Optional[Set[ReadKey]] = None) -> None:
        self.reads: Set[ReadKey] = set() if into is None else into
        self._hook = self._make_hook(None)
        self._outer: List[Any] = []     # the hook each open block replaced

    def _make_hook(self, outer: Any) -> Any:
        add = self.reads.add
        if outer is None:
            def hook(obj: Any, name: str) -> None:
                add((obj, name))
        else:
            def hook(obj: Any, name: str) -> None:
                add((obj, name))
                outer(obj, name)
        hook.outer = outer      # what untracked() leaves listening
        return hook

    def __enter__(self) -> Set[ReadKey]:
        previous = kernel._READ_HOOK
        self._outer.append(previous)
        # set as set_read_hook() sets it, without the call: a build
        # swaps the hook twice per tracked unit
        kernel._READ_HOOK = self._hook if previous is None \
            else self._make_hook(previous)
        kernel._TRACKING += 1
        return self.reads

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        kernel._TRACKING -= 1
        kernel._READ_HOOK = self._outer.pop()


def collect_reads(into: Set[ReadKey]) -> ReadCollector:
    """A :class:`ReadCollector` that routes the kernel's read events
    into *into* for the duration of a ``with`` block (which binds
    *into*)."""
    return ReadCollector(into)


class untracked:
    """``with untracked():`` keeps the innermost :class:`ReadCollector`
    from recording the block's reads.

    Only that collector is muted: the hooks it chains to (an outer
    engine's collector, the ``mof.reads`` counter) still see every read,
    so nesting stays as :class:`ReadCollector` promises.  The kernel's
    tracking depth is left alone: the bulk fast paths stay off, so the
    block reads the same objects a tracked run would.  A plain class,
    not a generator, so entering one allocates one small object.
    """

    __slots__ = ("_hook",)

    def __enter__(self) -> None:
        hook = self._hook = kernel._READ_HOOK
        kernel.set_read_hook(getattr(hook, "outer", hook))

    def __exit__(self, *exc_info: Any) -> None:
        kernel.set_read_hook(self._hook)


#: A key read by one unit holds that unit bare, and its readers are a
#: list while there are at most this many (a unit is hashable, so never
#: a list) and a set past it: nearly every key has one to four readers,
#: and a list holds those at a fraction of a set's size.
_SMALL_READERS = 8


_NO_SLOTS: Dict[Any, int] = {}


class DependencyGraph:
    """A bipartite index between check units and the read keys they touch.

    Keys are interned as integer slots (see the module docstring); unit,
    key and edge counts are maintained as the index changes, so reading
    them costs O(1).  Units are any hashable objects but ``None``.

    The index holds no object per key or per single reader that the
    cyclic garbage collector would track: a key is found by its feature
    name, then by its object, and kept as those two in the slot's
    columns, not as a tuple; a slot read by one unit holds that unit
    bare.  A build interns tens of thousands of keys, and every tracked
    object it keeps brings the collector's next full pass closer.
    """

    def __init__(self) -> None:
        self._slots: Dict[str, Dict[Any, int]] = {}   # name -> obj -> slot
        self._objects: List[Any] = []                 # slot -> obj
        self._names: List[Optional[str]] = []         # (None: free slot)
        # slot -> None (free), the one reader, a list of a few or a set
        self._readers: List[Any] = []
        self._free: List[int] = []
        self._reads: Dict[Any, Tuple[int, ...]] = {}  # unit -> slots
        self._edges = 0

    def set_reads(self, unit: Any, keys: Set[ReadKey]) -> None:
        """Replace *unit*'s recorded read set with *keys* (not kept: the
        caller may reuse the set)."""
        old = self._reads.get(unit)
        if old is None:
            # a first run, as every unit of a build: each key is new to
            # the unit, so it is interned with nothing to compare against
            if keys:
                slots = self._reads[unit] = tuple(self._add_readers(unit,
                                                                    keys))
                self._edges += len(slots)
            return
        old_keys = self._keys_at(old)
        # the common rerun reads what it read last time: equal sizes plus
        # containment settle that in C, with no lookup in the key index
        if len(keys) == len(old) and keys.issuperset(old_keys):
            return
        held = dict(zip(old_keys, old))       # key -> slot, updated below
        for key in held.keys() - keys:
            self._remove_reader(held.pop(key), unit)
        new = keys.difference(held)
        held.update(zip(new, self._add_readers(unit, new)))
        self._edges += len(held) - len(old)
        if held:
            self._reads[unit] = tuple(held.values())
        else:
            del self._reads[unit]

    def _add_readers(self, unit: Any, keys: Set[ReadKey]) -> List[int]:
        """Record *unit* as a reader of each of *keys*, none of which it
        reads yet; return their slots in the set's order."""
        slots_of, readers_of, free = self._slots, self._readers, self._free
        slots: List[int] = []
        for obj, name in keys:
            by_object = slots_of.get(name)
            if by_object is None:
                by_object = slots_of[name] = {}
            slot = by_object.get(obj)
            if slot is None:
                # a new key: its first reader is held bare
                if free:
                    slot = free.pop()
                    self._objects[slot] = obj
                    self._names[slot] = name
                    readers_of[slot] = unit
                else:
                    slot = len(readers_of)
                    self._objects.append(obj)
                    self._names.append(name)
                    readers_of.append(unit)
                by_object[obj] = slot
            else:
                readers = readers_of[slot]
                kind = type(readers)
                if kind is list:
                    if len(readers) < _SMALL_READERS:
                        readers.append(unit)
                    else:
                        readers_of[slot] = {*readers, unit}
                elif kind is set:
                    readers.add(unit)
                else:
                    readers_of[slot] = [readers, unit]
            slots.append(slot)
        return slots

    def drop(self, unit: Any) -> None:
        """Forget *unit* entirely."""
        old = self._reads.pop(unit, ())
        for slot in old:
            self._remove_reader(slot, unit)
        self._edges -= len(old)

    def _keys_at(self, slots: Tuple[int, ...]) -> List[ReadKey]:
        return list(zip(map(self._objects.__getitem__, slots),
                        map(self._names.__getitem__, slots)))

    def _remove_reader(self, slot: int, unit: Any) -> None:
        readers_of = self._readers
        readers = readers_of[slot]
        kind = type(readers)
        if kind is list:
            readers.remove(unit)
            if len(readers) == 1:
                readers_of[slot] = readers[0]
        elif kind is set:
            readers.discard(unit)
            if len(readers) <= _SMALL_READERS:
                readers_of[slot] = list(readers)
        else:
            # the last reader left: release the key so its object can be
            # garbage-collected
            del self._slots[self._names[slot]][self._objects[slot]]
            self._objects[slot] = self._names[slot] = None
            readers_of[slot] = None
            self._free.append(slot)

    def _readers_at(self, slot: int) -> Collection[Any]:
        readers = self._readers[slot]
        kind = type(readers)
        if kind is list or kind is set:
            return readers
        return _EMPTY if readers is None else (readers,)

    def readers(self, key: ReadKey) -> Collection[Any]:
        """The units whose last run read *key* (possibly empty)."""
        obj, name = key
        slot = self._slots.get(name, _NO_SLOTS).get(obj)
        return _EMPTY if slot is None else self._readers_at(slot)

    def reads(self, unit: Any) -> FrozenSet[ReadKey]:
        return frozenset(self._keys_at(self._reads.get(unit, ())))

    def __len__(self) -> int:
        return len(self._reads)

    def key_count(self) -> int:
        return len(self._objects) - len(self._free)

    def edge_count(self) -> int:
        return self._edges

    def verify(self, units: Container[Any]) -> List[str]:
        """Audit the index; return a list of discrepancies (empty when
        consistent).  *units* are the live units: reads recorded for any
        other unit are stale."""
        problems = [f"reads kept for a dropped unit: {unit!r}"
                    for unit in self._reads if unit not in units]
        objects, names = self._objects, self._names
        interned = 0
        for name, by_object in self._slots.items():
            interned += len(by_object)
            problems += [f"slot {slot} does not map back to {(obj, name)!r}"
                         for obj, slot in by_object.items()
                         if objects[slot] is not obj or names[slot] != name]
        free = [slot for slot, name in enumerate(names) if name is None]
        if len(names) - len(free) != interned:
            problems.append(f"{len(names) - len(free)} slots hold keys, "
                            f"{interned} keys are interned")
        if sorted(self._free) != free:
            problems.append("the free list differs from the empty slots")
        reads = {unit: set(slots) for unit, slots in self._reads.items()}
        held = 0
        for slot, name in enumerate(names):
            stored = self._readers[slot]
            readers = self._readers_at(slot)
            held += len(readers)
            if name is None:
                if stored is not None:
                    problems.append(f"free slot {slot} has readers")
                continue
            key = (objects[slot], name)
            if stored is None:
                problems.append(f"slot {slot} kept without readers: {key!r}")
            elif type(stored) is set and len(stored) <= _SMALL_READERS \
                    or type(stored) is list and not \
                    1 < len(stored) <= _SMALL_READERS:
                problems.append(f"slot {slot} holds {len(stored)} readers "
                                f"as a {type(stored).__name__}")
            problems += [f"{unit!r} is a reader of {key!r} but does not "
                         f"record it" for unit in readers
                         if slot not in reads.get(unit, ())]
        for unit, slots in reads.items():
            for slot in slots:
                if names[slot] is None:
                    problems.append(f"{unit!r} records free slot {slot}")
                elif unit not in self._readers_at(slot):
                    problems.append(f"{unit!r} records "
                                    f"{(objects[slot], names[slot])!r} but "
                                    f"is not among its readers")
        recorded = sum(map(len, self._reads.values()))
        if not held == recorded == self._edges \
                or recorded != sum(map(len, reads.values())):
            problems.append(f"edge count {self._edges}: units record "
                            f"{recorded}, slots hold {held}")
        return problems

    def __repr__(self) -> str:
        return (f"<DependencyGraph units={len(self._reads)} "
                f"keys={self.key_count()} edges={self._edges}>")
