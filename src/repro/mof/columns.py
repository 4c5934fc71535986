"""Opt-in columnar (struct-of-arrays) backing store per metaclass extent.

``Session.check`` over a large model is a per-object pointer chase: every
element is visited through ``eget`` (descriptor dispatch, hook tests,
``FeatureList`` wrappers) once per feature.  A :class:`ColumnStore`
re-materialises each **exact-metaclass extent** as one
:class:`ExtentColumns` block — per-feature columns over the extent's
elements, in extent (insertion) order:

* single-valued attribute → a list of *effective* values (the slot
  value, or the feature default);
* single-valued reference → a list of targets (``None`` when unset);
* many-valued reference  → a list of target tuples;
* many-valued attribute  → an ``array('l')`` of lengths (structural checks
  and ``->size()`` only need the counts).

The full pass reads them in two places: the structural suspect scan
(:meth:`ColumnStore.scan_structural`) and the invariant row plans of
:mod:`repro.ocl.columns`, both tight loops over contiguous columns
instead of per-object ``get()`` calls.

Freshness — the store is a **cache of the model index** and subscribes
to nothing:

* :attr:`ModelIndex.changes <repro.mof.index.ModelIndex.changes>` counts
  every notification (any write, link, containment change, move or
  rollback inverse on a model element) and root change the index sees.
  The store keeps the one count its blocks were built at; once the
  count has moved, its next read drops every block (so none keeps a
  deleted element alive) and builds the one asked for.  A full pass
  re-reads blocks only over an unchanged model.
* While dependency tracking is active, ``Model.column_store()`` answers
  ``None``, so callers take the per-object path the incremental engine
  can observe.  A counting read probe alone (such as
  ``repro.obs.enable()`` installs) does not switch the store off.

Columns hold **no authority**: the object slots stay the single source of
truth, a stale block is simply rebuilt from the extent on next read, and
:meth:`ColumnStore.verify` cross-checks every current column against the
per-object reads it replaced (the oracle the property tests use).
"""

from __future__ import annotations

import sys
from array import array
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from .kernel import Element, Feature, MetaClass, Reference

if TYPE_CHECKING:                                   # pragma: no cover
    from .repository import Model

_EMPTY: Tuple[Any, ...] = ()

#: column kinds, per feature shape
ATTR1 = "attr1"     # single-valued attribute: effective values
REF1 = "ref1"       # single-valued reference: target or None
REFN = "refN"       # many-valued reference: tuple of targets
LENN = "lenN"       # many-valued attribute: lengths only


def _raw_single(element: Element, feature: Feature, default: Any) -> Any:
    # the effective value _get_value would return, without firing hooks
    slots = element._slots
    name = feature.name
    if name in slots:
        return slots[name]
    return default


def _raw_items(element: Element, feature: Feature) -> Tuple[Any, ...]:
    slot = element._slots.get(feature.name)
    if slot is None:
        return _EMPTY
    return tuple(slot._items)


class ExtentColumns:
    """The struct-of-arrays image of one exact-metaclass extent."""

    __slots__ = ("meta", "elements", "columns", "kinds")

    def __init__(self, meta: MetaClass):
        self.meta = meta

    def build(self, elements: List[Element]) -> None:
        self.elements = elements
        columns: Dict[str, Any] = {}
        kinds: Dict[str, str] = {}
        for feature in self.meta.all_features().values():
            name = feature.name
            if feature.many:
                if isinstance(feature, Reference):
                    columns[name] = [_raw_items(e, feature)
                                     for e in elements]
                    kinds[name] = REFN
                else:
                    columns[name] = array(
                        "l", [len(_raw_items(e, feature))
                              for e in elements])
                    kinds[name] = LENN
            elif isinstance(feature, Reference):
                columns[name] = [_raw_single(e, feature, None)
                                 for e in elements]
                kinds[name] = REF1
            else:
                default = feature.default_value()
                columns[name] = [_raw_single(e, feature, default)
                                 for e in elements]
                kinds[name] = ATTR1
        self.columns = columns
        self.kinds = kinds

    def nbytes(self) -> int:
        """Approximate heap footprint of the columns (arrays exactly,
        pointer columns by their list header)."""
        total = 0
        for column in self.columns.values():
            if isinstance(column, array):
                total += column.itemsize * len(column) + 64
            else:
                total += sys.getsizeof(column)
        return total

    def __repr__(self) -> str:
        return f"<ExtentColumns {self.meta.name} rows={len(self.elements)}>"


class ColumnStore:
    """Per-extent columns over one :class:`~repro.mof.repository.Model`,
    rebuilt on read when the model index has changed since they were
    built.

    Created via ``Model.enable_columns()``; read through
    :meth:`scan_structural` (structural suspect scan) and the row plans
    of :mod:`repro.ocl.columns`."""

    def __init__(self, model: "Model"):
        self.model = model
        self._index = model.index()
        self._blocks: Dict[MetaClass, ExtentColumns] = {}
        #: the index's change count the blocks were built at
        self.changes = -1
        self.rebuilds = 0

    # -- block access ------------------------------------------------------

    def extent_metaclasses(self) -> List[MetaClass]:
        """Every exact metaclass with instances in the model, from the
        extent index."""
        return list(self._index._extent.keys())

    def block(self, meta: MetaClass) -> ExtentColumns:
        """The column block for *meta*'s exact extent, built first if
        the model changed since the blocks were built."""
        blocks = self._current()
        block = blocks.get(meta)
        if block is None:
            block = blocks[meta] = ExtentColumns(meta)
            block.build(self._index.instances_of(meta, exact=True))
            self.rebuilds += 1
        return block

    def _current(self) -> Dict[MetaClass, ExtentColumns]:
        """The blocks, after dropping them all if the model changed
        since they were built."""
        if self.changes != self._index.changes:
            self._blocks.clear()
            self.changes = self._index.changes
        return self._blocks

    # -- structural suspect scan ------------------------------------------

    def scan_structural(self) -> Dict[int, Element]:
        """Elements that *may* carry a structural diagnostic (multiplicity,
        opposite, containment), as ``{id(e): e}``.

        This is a sound over-approximation computed from columns alone:
        every element ``validate_element`` would flag is in the result, so
        an empty result proves the model structurally clean without a
        tree walk, and a non-empty one bounds the exact re-validation to
        the suspects."""
        flagged: Dict[int, Element] = {}
        for meta in self.extent_metaclasses():
            block = self.block(meta)
            elements = block.elements
            if not elements:
                continue
            for feature in meta.all_features().values():
                name = feature.name
                kind = block.kinds[name]
                column = block.columns[name]
                self._scan_multiplicity(feature, kind, column, elements,
                                        flagged)
                if isinstance(feature, Reference):
                    if feature.opposite is not None:
                        self._scan_opposites(feature, kind, column,
                                             elements, flagged)
                    if feature.containment:
                        self._scan_containment(kind, column, elements,
                                               flagged)
        return flagged

    @staticmethod
    def _scan_multiplicity(feature: Feature, kind: str, column: Any,
                           elements: List[Element],
                           flagged: Dict[int, Element]) -> None:
        multiplicity = feature.multiplicity
        if kind in (ATTR1, REF1):
            # a single slot holds 0 or 1 values and upper >= 1 always
            # accepts 1, so the only violation is None under lower >= 1
            if multiplicity.lower >= 1:
                for row, value in enumerate(column):
                    if value is None:
                        element = elements[row]
                        flagged[id(element)] = element
            return
        lower, upper = multiplicity.lower, multiplicity.upper
        if lower == 0 and upper is None:
            return
        if kind == REFN:
            for row, targets in enumerate(column):
                count = len(targets)
                if count < lower or (upper is not None and count > upper):
                    element = elements[row]
                    flagged[id(element)] = element
        else:
            for row, count in enumerate(column):
                if count < lower or (upper is not None and count > upper):
                    element = elements[row]
                    flagged[id(element)] = element

    @staticmethod
    def _scan_opposites(feature: Reference, kind: str, column: Any,
                        elements: List[Element],
                        flagged: Dict[int, Element]) -> None:
        opposite = feature.opposite
        opp_name = opposite.name
        opp_many = opposite.many
        if kind == REF1:
            rows = ((row, (target,)) for row, target in enumerate(column)
                    if target is not None)
        else:
            rows = enumerate(column)
        for row, targets in rows:
            element = elements[row]
            for target in targets:
                slot = target._slots.get(opp_name)
                if opp_many:
                    ok = slot is not None and element in slot._items
                else:
                    ok = slot is element
                if not ok:
                    flagged[id(element)] = element
                    break

    @staticmethod
    def _scan_containment(kind: str, column: Any, elements: List[Element],
                          flagged: Dict[int, Element]) -> None:
        if kind == REF1:
            for row, child in enumerate(column):
                if child is not None and child._container is not elements[row]:
                    element = elements[row]
                    flagged[id(element)] = element
        else:
            for row, children in enumerate(column):
                element = elements[row]
                for child in children:
                    if child._container is not element:
                        flagged[id(element)] = element
                        break

    # -- oracle + introspection -------------------------------------------

    def verify(self) -> List[str]:
        """Cross-check every current block against per-object reads;
        return a list of discrepancies (the property-test oracle)."""
        problems: List[str] = []
        for meta, block in self._current().items():
            expected = self._index.instances_of(meta, exact=True)
            if [id(e) for e in expected] != [id(e) for e in block.elements]:
                problems.append(
                    f"{meta.name}: row set diverged "
                    f"({len(block.elements)} rows vs {len(expected)} "
                    f"extent elements)")
                continue
            for feature in meta.all_features().values():
                name = feature.name
                kind = block.kinds[name]
                column = block.columns[name]
                for row, element in enumerate(block.elements):
                    value = element.eget(name)
                    if kind == LENN:
                        expected_value: Any = len(value)
                    elif kind == REFN:
                        expected_value = tuple(value)
                    else:
                        expected_value = value
                    got = column[row]
                    if not (got is expected_value or got == expected_value):
                        problems.append(
                            f"{meta.name}.{name}[{row}] ({element!r}): "
                            f"column holds {got!r}, object holds "
                            f"{expected_value!r}")
        return problems

    def stats(self) -> Dict[str, Any]:
        current = self._current().values()
        return {
            "enabled": True,
            "extents": len(current),
            "built": len(current),
            "bytes": sum(block.nbytes() for block in current),
            "rebuilds": self.rebuilds,
            "per_extent": {
                block.meta.name: {"rows": len(block.elements),
                                  "columns": len(block.columns),
                                  "bytes": block.nbytes()}
                for block in current},
        }

    def __repr__(self) -> str:
        return (f"<ColumnStore {self.model.uri} blocks={len(self._blocks)} "
                f"changes={self._index.changes}>")
