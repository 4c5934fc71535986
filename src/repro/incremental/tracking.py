"""Read tracking and the dependency index for incremental revalidation.

The kernel funnels every feature read through ``_get_value`` (descriptor
access, ``eget``, dynamic attribute lookup, ``contents()``) and reports
container walks under the pseudo-feature
:data:`~repro.mof.kernel.CONTAINER_KEY`.  :func:`collect_reads` taps that
stream for the duration of one check, giving the engine the exact read
set — ``(element, feature_name)`` pairs — of every invariant,
well-formedness rule and lint rule it runs.  :class:`DependencyGraph`
inverts those read sets into a ``read key -> reader units`` index so a
change notification maps to the units it invalidates in O(readers).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, FrozenSet, Iterator, Set, Tuple

from ..mof import kernel
from ..mof.kernel import CONTAINER_KEY  # noqa: F401  (re-exported)

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
    kernel.set_read_hook(hook)
    kernel._TRACKING += 1
    try:
        yield into
    finally:
        kernel._TRACKING -= 1
        kernel.set_read_hook(previous)


class DependencyGraph:
    """A bipartite index between check units and the read keys they touch."""

    def __init__(self) -> None:
        self._reads: Dict[Any, Set[ReadKey]] = {}
        self._readers: Dict[ReadKey, Set[Any]] = {}

    def set_reads(self, unit: Any, keys: Set[ReadKey]) -> None:
        """Replace *unit*'s recorded read set with *keys*."""
        old = self._reads.get(unit, _EMPTY)
        for key in old - keys:
            readers = self._readers.get(key)
            if readers is not None:
                readers.discard(unit)
                if not readers:
                    # drop the empty entry so the key's object can be
                    # garbage-collected once nothing else reads it
                    del self._readers[key]
        for key in keys - old:
            self._readers.setdefault(key, set()).add(unit)
        if keys:
            self._reads[unit] = set(keys)
        else:
            self._reads.pop(unit, None)

    def drop(self, unit: Any) -> None:
        """Forget *unit* entirely."""
        self.set_reads(unit, set())

    def readers(self, key: ReadKey):
        """The units whose last run read *key* (possibly empty)."""
        return self._readers.get(key, _EMPTY)

    def reads(self, unit: Any) -> FrozenSet[ReadKey]:
        return frozenset(self._reads.get(unit, _EMPTY))

    def __len__(self) -> int:
        return len(self._reads)

    def key_count(self) -> int:
        return len(self._readers)

    def __repr__(self) -> str:
        return (f"<DependencyGraph units={len(self._reads)} "
                f"keys={len(self._readers)}>")
