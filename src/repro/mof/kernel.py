"""The MOF-style metamodeling kernel (the M3 layer).

This module provides what the paper calls the Meta Object Facility: the
machinery with which metamodels (UML among them) are *defined* and through
which models are *reflected upon*.

Design
------
A metamodel is a set of :class:`MetaClass` objects grouped into
:class:`MetaPackage` namespaces.  Each metaclass owns typed features:
:class:`Attribute` (primitive/enum-typed) and :class:`Reference`
(metaclass-typed, optionally containment, optionally with an opposite).

Metamodels can be written in two equivalent styles:

* **static** — subclass :class:`Element` and declare features as class
  attributes; a Python metaclass (:class:`MofMeta`) harvests them into a
  ``MetaClass`` automatically, so the Python class hierarchy *is* the
  metamodel and instances are plain Python objects with full reflection;
* **dynamic** — build ``MetaClass`` objects at runtime (see
  ``repro.mof.dynamic`` and ``repro.mof.builder``) and instantiate
  :class:`DynamicElement`.

Both styles share one mutation protocol, implemented by the module-level
``_link``/``_unlink`` primitives, which atomically maintain the two
cross-object invariants of MOF models:

1. *opposite consistency* — ``a in b.f  <=>  b in a.f.opposite``;
2. *single container* — an element is contained by at most one containment
   slot at a time, containment is acyclic, and a root of a model is not
   contained at all.

Model loads build through the ``_load_*`` construction primitives
instead: the same writes and checks on elements no one can observe yet,
without the notifications (see "Construction primitives" below).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .. import faults as _faults
from .errors import (
    CompositionError,
    FrozenElementError,
    MetamodelError,
    MultiplicityError,
    TypeConformanceError,
    UnknownFeatureError,
)
from .notify import ChangeKind, Notification, ObserverMixin
from .types import (
    M_01,
    MReal,
    Multiplicity,
    PrimitiveType,
)

_id_counter = itertools.count(1)


# ---------------------------------------------------------------------------
# Read instrumentation
# ---------------------------------------------------------------------------

CONTAINER_KEY = "@container"
"""Pseudo-feature name under which container reads are reported to the
read hook.  ``element.container`` / ``element.root()`` walks are not
feature reads, but checkers depend on them all the same — an incremental
engine must re-run a check when an element it walked through is
reparented."""

EXTENT_KEY = "@extent"
"""Pseudo-feature name under which an instance query over a model root
is reported to the read hook, as ``(metaclass, EXTENT_KEY)``.  The
answer comes from the model index's cached preorder, not from a walk
(see :func:`repro.mof.query.instances_of`), so the query reads no
containment list; an incremental engine re-runs its readers when an
instance of the metaclass, or of a subclass, enters, leaves or moves."""

_READ_HOOK = None

#: Nesting depth of dependency-tracked reads, raised and lowered by
#: :class:`repro.incremental.tracking.ReadCollector`.  Bulk fast paths
#: (extent index, column store) answer without the per-element reads a
#: tracker must record, so the gates in :mod:`repro.mof.repository` test
#: this depth rather than :data:`_READ_HOOK`: a counting probe such as
#: the one ``repro.obs.enable()`` installs must not switch them off.
_TRACKING = 0

#: Features added to any metaclass so far; a one-sided reference that
#: found no partner naming it searches again once this has moved.
_FEATURES_ADDED = 0


def set_read_hook(hook):
    """Install *hook* as the kernel-wide read observer; return the old one.

    When a hook is installed, every feature read — descriptor access,
    ``eget``, dynamic attribute lookup, ``contents()`` — calls
    ``hook(element, feature_name)`` before returning the value.  Container
    walks report the pseudo-feature :data:`CONTAINER_KEY`.  This is the tap
    the incremental revalidation engine uses to learn what a check actually
    read; with no hook installed (``None``) reads pay a single global load
    and a falsy test.  Installing a hook does not by itself count as
    dependency tracking (see :data:`_TRACKING`).
    """
    global _READ_HOOK
    previous = _READ_HOOK
    _READ_HOOK = hook
    return previous


_WRITE_HOOK = None


def set_write_hook(hook):
    """Install *hook* as the kernel-wide write observer; return the old one.

    When a hook is installed, every high-level feature write — ``eset``,
    descriptor assignment, dynamic attribute store — calls
    ``hook(element, feature_name)`` before the mutation is applied.  This
    is the mutation-count tap used by :mod:`repro.obs`; with no hook
    installed (``None``) writes pay one global load and a falsy test.
    Structural side effects (opposite updates, containment moves) are
    observable through the notification hook instead, so a single logical
    write is counted once here however many slots it touches.
    """
    global _WRITE_HOOK
    previous = _WRITE_HOOK
    _WRITE_HOOK = hook
    return previous


# ---------------------------------------------------------------------------
# Packages and enumerations
# ---------------------------------------------------------------------------

class MetaPackage:
    """A namespace for metaclasses and enumerations, with an identifying URI."""

    def __init__(self, name: str, uri: Optional[str] = None,
                 parent: Optional["MetaPackage"] = None):
        self.name = name
        self.uri = uri or f"urn:repro:{name}"
        self.parent = parent
        self.classifiers: Dict[str, Union["MetaClass", "MetaEnum"]] = {}
        self.subpackages: Dict[str, "MetaPackage"] = {}
        if parent is not None:
            if name in parent.subpackages:
                raise MetamodelError(
                    f"package '{parent.name}' already has subpackage '{name}'"
                )
            parent.subpackages[name] = self

    @property
    def qualified_name(self) -> str:
        if self.parent is None:
            return self.name
        return f"{self.parent.qualified_name}.{self.name}"

    def register(self, classifier: Union["MetaClass", "MetaEnum"]) -> None:
        existing = self.classifiers.get(classifier.name)
        if existing is not None and existing is not classifier:
            raise MetamodelError(
                f"package '{self.name}' already defines classifier "
                f"'{classifier.name}'"
            )
        self.classifiers[classifier.name] = classifier
        classifier.package = self

    def classifier(self, name: str) -> Union["MetaClass", "MetaEnum"]:
        """Look up a classifier by simple name, raising ``KeyError`` if absent."""
        try:
            return self.classifiers[name]
        except KeyError:
            raise KeyError(
                f"package '{self.qualified_name}' has no classifier {name!r}"
            ) from None

    def metaclasses(self) -> List["MetaClass"]:
        return [c for c in self.classifiers.values() if isinstance(c, MetaClass)]

    def all_packages(self) -> Iterator["MetaPackage"]:
        """This package and all transitively nested subpackages, preorder."""
        yield self
        for sub in self.subpackages.values():
            yield from sub.all_packages()

    def __repr__(self) -> str:
        return f"<MetaPackage {self.qualified_name}>"


class MetaEnum:
    """A user-defined enumeration type for attributes.

    Values of an enum-typed attribute are the literal strings themselves,
    which keeps models trivially serializable.
    """

    def __init__(self, name: str, literals: Iterable[str],
                 package: Optional[MetaPackage] = None):
        self.name = name
        self.literals: Tuple[str, ...] = tuple(literals)
        if not self.literals:
            raise MetamodelError(f"enum '{name}' needs at least one literal")
        if len(set(self.literals)) != len(self.literals):
            raise MetamodelError(f"enum '{name}' has duplicate literals")
        self.package = package
        if package is not None:
            package.register(self)
        self.default = self.literals[0]

    def conforms(self, value: object) -> bool:
        if value is None:
            return True
        return isinstance(value, str) and value in self.literals

    def coerce(self, value: object) -> object:
        if self.conforms(value):
            return value
        raise ValueError(f"{value!r} is not a literal of enum {self.name}")

    def __contains__(self, value: object) -> bool:
        return value in self.literals

    def __repr__(self) -> str:
        return f"<MetaEnum {self.name} {self.literals!r}>"


# ---------------------------------------------------------------------------
# Features
# ---------------------------------------------------------------------------

class Feature:
    """Base class for structural features; doubles as a Python descriptor.

    The same object serves as M3 metadata (queried reflectively) and as the
    attribute-access implementation for statically declared elements.
    """

    is_reference = False

    def __init__(self, *, multiplicity: Multiplicity, ordered: bool = True,
                 derived: bool = False, doc: str = ""):
        self.name: str = ""            # assigned by __set_name__ / builder
        self.owner: Optional[MetaClass] = None
        self.multiplicity = multiplicity
        self.ordered = ordered
        self.derived = derived
        self.doc = doc

    @property
    def multiplicity(self) -> Multiplicity:
        return self._multiplicity

    @multiplicity.setter
    def multiplicity(self, multiplicity: Multiplicity) -> None:
        self._multiplicity = multiplicity
        # read on every kernel write and load: a plain attribute, kept
        # in step with the multiplicity it derives from
        self.many = multiplicity.is_many

    @property
    def required(self) -> bool:
        return self.multiplicity.is_required

    # -- descriptor protocol -------------------------------------------------

    def __set_name__(self, owner: type, name: str) -> None:
        if not self.name:
            self.name = name

    def __get__(self, obj: Optional["Element"], objtype=None):
        if obj is None:
            return self
        return _get_value(obj, self)

    def __set__(self, obj: "Element", value: Any) -> None:
        _set_value(obj, self, value)

    # -- to be specialised ----------------------------------------------------

    def check_type(self, value: Any) -> None:
        raise NotImplementedError

    def default_value(self) -> Any:
        raise NotImplementedError

    def type_name(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        owner = self.owner.name if self.owner else "?"
        return (f"<{type(self).__name__} {owner}.{self.name}: "
                f"{self.type_name()} [{self.multiplicity}]>")


class Attribute(Feature):
    """A primitive- or enum-typed feature."""

    def __init__(self, type: Union[PrimitiveType, MetaEnum],
                 default: Any = None, *,
                 multiplicity: Multiplicity = M_01,
                 ordered: bool = True, derived: bool = False, doc: str = ""):
        super().__init__(multiplicity=multiplicity, ordered=ordered,
                         derived=derived, doc=doc)
        self.type = type
        self._default = default

    def check_type(self, value: Any) -> None:
        if not self.type.conforms(value):
            raise TypeConformanceError(self.name, self.type_name(), value)

    def stored(self, value: Any) -> Any:
        """*value* as this attribute's slot holds it, once
        :meth:`check_type` accepts it: a Real attribute stores a
        ``float``, so a saved ``int`` reloads the same from both
        formats.  Every attribute write goes through here."""
        self.check_type(value)
        if self.type is MReal and value is not None:
            return float(value)
        return value

    def default_value(self) -> Any:
        if self._default is not None:
            return self._default
        if self.required:
            return self.type.default
        return None

    def type_name(self) -> str:
        return self.type.name


class Reference(Feature):
    """A metaclass-typed feature, optionally containment / bidirectional.

    ``target`` may be given as a ``MetaClass``, an ``Element`` subclass, or a
    string naming a metaclass in the owner's package (resolved lazily so that
    mutually referencing metaclasses can be declared in any order).
    ``opposite`` names the inverse feature declared on the target metaclass.
    """

    is_reference = True

    def __init__(self, target: Union["MetaClass", type, str], *,
                 containment: bool = False,
                 opposite: Optional[str] = None,
                 multiplicity: Multiplicity = M_01,
                 ordered: bool = True, derived: bool = False, doc: str = ""):
        super().__init__(multiplicity=multiplicity, ordered=ordered,
                         derived=derived, doc=doc)
        self._target_spec = target
        self.containment = containment
        self.opposite_name = opposite
        self._resolved_target: Optional[MetaClass] = None
        self._resolved_opposite: Optional["Reference"] = None
        #: the :data:`_FEATURES_ADDED` count at the last partner search
        #: that found none (see :meth:`_pair_with_declaring_partner`)
        self._unpaired_at = -1

    @property
    def target(self) -> "MetaClass":
        if self._resolved_target is None:
            self._resolve_target()
        assert self._resolved_target is not None
        return self._resolved_target

    def _resolve_target(self) -> None:
        spec = self._target_spec
        if isinstance(spec, MetaClass):
            self._resolved_target = spec
        elif isinstance(spec, type) and hasattr(spec, "_meta"):
            self._resolved_target = spec._meta
        elif isinstance(spec, str):
            if self.owner is None or self.owner.package is None:
                raise MetamodelError(
                    f"cannot resolve target {spec!r} of feature "
                    f"'{self.name}': owner has no package"
                )
            classifier = self.owner.package.classifiers.get(spec)
            if classifier is None:
                # search sibling/parent packages to be forgiving in layered
                # metamodels
                pkg = self.owner.package
                while pkg.parent is not None:
                    pkg = pkg.parent
                for candidate in pkg.all_packages():
                    if spec in candidate.classifiers:
                        classifier = candidate.classifiers[spec]
                        break
            if not isinstance(classifier, MetaClass):
                raise MetamodelError(
                    f"cannot resolve reference target {spec!r} for feature "
                    f"'{self.name}' of '{self.owner.name}'"
                )
            self._resolved_target = classifier
        else:
            raise MetamodelError(
                f"invalid reference target spec {spec!r} on '{self.name}'"
            )

    @property
    def opposite(self) -> Optional["Reference"]:
        if self._resolved_opposite is not None:
            return self._resolved_opposite
        if self.opposite_name is None:
            if self._unpaired_at == _FEATURES_ADDED \
                    or not self._pair_with_declaring_partner():
                return None
        if self._resolved_opposite is None:
            candidate = self.target.find_feature(self.opposite_name)
            if not isinstance(candidate, Reference):
                raise MetamodelError(
                    f"opposite '{self.opposite_name}' of "
                    f"'{self.owner.name if self.owner else '?'}.{self.name}' "
                    f"is not a reference on '{self.target.name}'"
                )
            self._resolved_opposite = candidate
            # make the pairing symmetric even if only one side declared it
            if candidate.opposite_name is None:
                candidate.opposite_name = self.name
            if candidate._resolved_opposite is None:
                candidate._resolved_opposite = self
        return self._resolved_opposite

    def _pair_with_declaring_partner(self) -> bool:
        """Pair this end, declared without ``opposite=``, with a reference
        on its target that names it as its opposite, as reading that
        partner's :attr:`opposite` first would; False when none does.

        Run on the first read, not at declaration, so string targets
        resolve only once both classes exist.  A miss is remembered
        until the next feature is added to any metaclass."""
        for feature in self.target.all_features().values():
            if isinstance(feature, Reference) and feature is not self \
                    and feature.opposite_name == self.name \
                    and feature.target.find_feature(self.name) is self:
                return feature.opposite is self
        self._unpaired_at = _FEATURES_ADDED
        return False

    def check_type(self, value: Any) -> None:
        if value is None:
            return
        if not isinstance(value, Element):
            raise TypeConformanceError(self.name, self.type_name(), value)
        if not value.meta.conforms_to(self.target):
            raise TypeConformanceError(self.name, self.type_name(), value)

    def default_value(self) -> Any:
        return None

    def type_name(self) -> str:
        if self._resolved_target is not None:
            return self._resolved_target.name
        spec = self._target_spec
        if isinstance(spec, str):
            return spec
        if isinstance(spec, MetaClass):
            return spec.name
        return getattr(spec, "__name__", repr(spec))


# ---------------------------------------------------------------------------
# MetaClass
# ---------------------------------------------------------------------------

class MetaClass:
    """An M2-level class: named, packaged, with features and superclasses.

    For statically declared metamodels ``python_class`` points back at the
    ``Element`` subclass; dynamic metaclasses have ``python_class is None``
    and instantiate :class:`DynamicElement`.
    """

    def __init__(self, name: str, *,
                 package: Optional[MetaPackage] = None,
                 superclasses: Iterable["MetaClass"] = (),
                 abstract: bool = False,
                 python_class: Optional[type] = None):
        self.name = name
        self.package: Optional[MetaPackage] = None
        self.superclasses: List[MetaClass] = list(superclasses)
        self.subclasses: List[MetaClass] = []
        self.abstract = abstract
        self.python_class = python_class
        self.own_features: Dict[str, Feature] = {}
        self.invariants: List[Any] = []   # populated by repro.ocl.invariants
        self._all_features_cache: Optional[Dict[str, Feature]] = None
        self._containment_cache: Optional[Tuple[Reference, ...]] = None
        self._all_superclasses_cache: Optional[List[MetaClass]] = None
        self._ancestor_ids: Optional[frozenset] = None
        self._all_subclasses_cache: Optional[List[MetaClass]] = None
        for sup in self.superclasses:
            sup.subclasses.append(self)
            sup._invalidate_cache()
        # a new subclass extends the extent of every transitive ancestor
        for ancestor in self.all_superclasses():
            ancestor._all_subclasses_cache = None
        if package is not None:
            package.register(self)

    # -- structure -------------------------------------------------------

    @property
    def qualified_name(self) -> str:
        if self.package is None:
            return self.name
        return f"{self.package.qualified_name}.{self.name}"

    def add_feature(self, feature: Feature) -> Feature:
        global _FEATURES_ADDED
        if not feature.name:
            raise MetamodelError("feature must be named before being added")
        if feature.name in self.own_features:
            raise MetamodelError(
                f"metaclass '{self.name}' already declares feature "
                f"'{feature.name}'"
            )
        inherited = self.find_feature(feature.name)
        if inherited is not None:
            raise MetamodelError(
                f"metaclass '{self.name}' would shadow inherited feature "
                f"'{feature.name}' from '{inherited.owner.name}'"
            )
        feature.owner = self
        self.own_features[feature.name] = feature
        _FEATURES_ADDED += 1
        self._invalidate_cache()
        return feature

    def _invalidate_cache(self) -> None:
        self._all_features_cache = None
        self._containment_cache = None
        self._all_superclasses_cache = None
        self._ancestor_ids = None
        self._all_subclasses_cache = None
        for sub in self.subclasses:
            sub._invalidate_cache()

    def all_superclasses(self) -> List["MetaClass"]:
        """All transitive superclasses, nearest first, without duplicates."""
        if self._all_superclasses_cache is None:
            seen: Dict[int, MetaClass] = {}
            stack = list(self.superclasses)
            order: List[MetaClass] = []
            while stack:
                sup = stack.pop(0)
                if id(sup) in seen:
                    continue
                seen[id(sup)] = sup
                order.append(sup)
                stack.extend(sup.superclasses)
            self._all_superclasses_cache = order
            self._ancestor_ids = frozenset(seen)
        return list(self._all_superclasses_cache)

    def all_subclasses(self) -> List["MetaClass"]:
        """All transitive subclasses (excluding self)."""
        if self._all_subclasses_cache is None:
            out: List[MetaClass] = []
            stack = list(self.subclasses)
            while stack:
                sub = stack.pop()
                if sub in out:
                    continue
                out.append(sub)
                stack.extend(sub.subclasses)
            self._all_subclasses_cache = out
        return list(self._all_subclasses_cache)

    def conforms_to(self, other: "MetaClass") -> bool:
        """True when instances of ``self`` are acceptable where ``other`` is
        expected (reflexive-transitive generalization)."""
        if self is other:
            return True
        if self._ancestor_ids is None:
            self.all_superclasses()
        return id(other) in self._ancestor_ids

    def all_features(self) -> Dict[str, Feature]:
        """Every feature, inherited ones first, in declaration order."""
        if self._all_features_cache is None:
            merged: Dict[str, Feature] = {}
            for sup in reversed(self.all_superclasses()):
                for name, feature in sup.own_features.items():
                    merged[name] = feature
            merged.update(self.own_features)
            self._all_features_cache = merged
        return self._all_features_cache

    def find_feature(self, name: str) -> Optional[Feature]:
        return self.all_features().get(name)

    def feature(self, name: str) -> Feature:
        found = self.find_feature(name)
        if found is None:
            raise UnknownFeatureError(self.name, name)
        return found

    def containment_features(self) -> Tuple[Reference, ...]:
        """The containment references, inherited ones first (cached)."""
        if self._containment_cache is None:
            self._containment_cache = tuple(
                f for f in self.all_features().values()
                if isinstance(f, Reference) and f.containment)
        return self._containment_cache

    # -- instantiation -----------------------------------------------------

    def instantiate(self, **kwargs: Any) -> "Element":
        """Create a new instance of this metaclass.

        Static metaclasses delegate to their Python class; dynamic ones
        build a :class:`DynamicElement`.
        """
        if self.abstract:
            raise MetamodelError(
                f"cannot instantiate abstract metaclass '{self.name}'"
            )
        if self.python_class is not None:
            return self.python_class(**kwargs)
        return DynamicElement(self, **kwargs)

    def __call__(self, **kwargs: Any) -> "Element":
        return self.instantiate(**kwargs)

    def __repr__(self) -> str:
        return f"<MetaClass {self.qualified_name}>"


# ---------------------------------------------------------------------------
# Managed collections for many-valued features
# ---------------------------------------------------------------------------

class FeatureList:
    """The live value of a many-valued feature.

    Mutations go through the kernel's link/unlink protocol so that opposites
    and containment stay consistent.  Values are unique (MOF default): adding
    a value already present is a no-op.
    """

    __slots__ = ("_owner", "_feature", "_items")

    def __init__(self, owner: "Element", feature: Feature):
        self._owner = owner
        self._feature = feature
        self._items: List[Any] = []

    # -- reading ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(list(self._items))

    def __contains__(self, value: Any) -> bool:
        # list containment tests identity first, then ``==``, in C
        return value in self._items

    def __getitem__(self, index):
        return self._items[index]

    def index(self, value: Any) -> int:
        return self._items.index(value)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FeatureList):
            return self._items == other._items
        if isinstance(other, (list, tuple)):
            return self._items == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"FeatureList({self._feature.name}, {self._items!r})"

    # -- mutation ----------------------------------------------------------

    def append(self, value: Any) -> None:
        self._insert(len(self._items), value)

    def add(self, value: Any) -> None:
        """Alias for :meth:`append` (set-flavoured call sites)."""
        self.append(value)

    def insert(self, index: int, value: Any) -> None:
        self._insert(index, value)

    def extend(self, values: Iterable[Any]) -> None:
        for value in values:
            self.append(value)

    def remove(self, value: Any) -> None:
        if value not in self:
            raise ValueError(f"{value!r} not in feature '{self._feature.name}'")
        if _faults.ACTIVE is not None:
            _faults.probe("kernel.write")
        if self._feature.is_reference:
            _unlink(self._owner, self._feature, value)
        else:
            _check_mutable(self._owner)
            index = self._items.index(value)
            self._items.pop(index)
            self._owner._notify(Notification(
                self._owner, self._feature, ChangeKind.REMOVE, old=value,
                position=index))

    def discard(self, value: Any) -> None:
        if value in self:
            self.remove(value)

    def pop(self, index: int = -1) -> Any:
        value = self._items[index]
        self.remove(value)
        return value

    def clear(self) -> None:
        for value in list(self._items):
            self.remove(value)

    def move(self, new_index: int, value: Any) -> None:
        """Reposition *value* within an ordered feature."""
        if _faults.ACTIVE is not None:
            _faults.probe("kernel.write")
        _check_mutable(self._owner)
        old_index = self._items.index(value)
        if old_index == new_index:
            return
        self._items.pop(old_index)
        self._items.insert(new_index, value)
        self._owner._notify(Notification(
            self._owner, self._feature, ChangeKind.MOVE,
            old=old_index, new=value, position=new_index))

    def set(self, values: Iterable[Any]) -> None:
        """Replace the whole content."""
        self.clear()
        self.extend(values)

    def _insert(self, index: int, value: Any) -> None:
        if value in self:
            return
        if _faults.ACTIVE is not None:
            _faults.probe("kernel.write")
        if self._feature.is_reference:
            self._feature.check_type(value)
        else:
            value = self._feature.stored(value)
        upper = self._feature.multiplicity.upper
        if upper is not None and len(self._items) >= upper:
            raise MultiplicityError(
                f"feature '{self._feature.name}' accepts at most {upper} "
                f"values"
            )
        if self._feature.is_reference:
            _link(self._owner, self._feature, value, position=index)
        else:
            _check_mutable(self._owner)
            self._items.insert(index, value)
            self._owner._notify(Notification(
                self._owner, self._feature, ChangeKind.ADD,
                new=value, position=index))


# ---------------------------------------------------------------------------
# The mutation protocol
# ---------------------------------------------------------------------------

def _check_mutable(obj: "Element") -> None:
    if getattr(obj, "_frozen", False):
        raise FrozenElementError(f"{obj!r} is frozen")


def _slot_list(obj: "Element", feature: Feature) -> FeatureList:
    slot = obj._slots.get(feature.name)
    if slot is None:
        slot = FeatureList(obj, feature)
        obj._slots[feature.name] = slot
    return slot


def _raw_remove(obj: "Element", feature: Feature, value: "Element") -> None:
    """Remove *value* from *obj*'s slot for *feature* without side effects."""
    if feature.many:
        items = _slot_list(obj, feature)._items
        for i, item in enumerate(items):
            if item is value:
                items.pop(i)
                break
    else:
        if obj._slots.get(feature.name) is value:
            obj._slots[feature.name] = None


def _raw_add(obj: "Element", feature: Feature, value: "Element",
             position: Optional[int] = None) -> None:
    """Add *value* to *obj*'s slot for *feature* without side effects."""
    if feature.many:
        items = _slot_list(obj, feature)._items
        if not any(item is value for item in items):
            if position is None:
                items.append(value)
            else:
                items.insert(position, value)
    else:
        obj._slots[feature.name] = value


def _ancestors(obj: "Element") -> Iterator["Element"]:
    current = obj
    while current is not None:
        yield current
        current = current._container


def _index_of(obj: "Element", feature: Reference,
              value: "Element") -> Optional[int]:
    slot = obj._slots.get(feature.name)
    if isinstance(slot, FeatureList):
        for i, item in enumerate(slot._items):
            if item is value:
                return i
    return None


def _unlink(source: "Element", feature: Reference, target: "Element",
            *, notify: bool = True) -> None:
    """Break the ``source --feature--> target`` link and its inverse."""
    if _faults.ACTIVE is not None:
        # Covers delete()/_detach(), which reach _unlink without passing a
        # FeatureList entry point — a fault mid-delete is the canonical
        # partial compound edit a transaction must be able to unwind.
        _faults.probe("kernel.write")
    _check_mutable(source)
    opposite = feature.opposite
    if opposite is not None:
        # the inverse slot mutates too; a frozen target must veto the whole
        # operation before either side changes
        _check_mutable(target)
    position = _index_of(source, feature, target) if feature.many else None
    opp_position = (_index_of(target, opposite, source)
                    if opposite is not None and opposite.many else None)
    _raw_remove(source, feature, target)
    if opposite is not None:
        _raw_remove(target, opposite, source)
    if feature.containment and target._container is source:
        target._container = None
        target._containing_feature = None
    if opposite is not None and opposite.containment \
            and source._container is target:
        source._container = None
        source._containing_feature = None
    if notify:
        kind = ChangeKind.REMOVE if feature.many else ChangeKind.UNSET
        source._notify(Notification(source, feature, kind, old=target,
                                    position=position))
        if opposite is not None:
            okind = ChangeKind.REMOVE if opposite.many else ChangeKind.UNSET
            target._notify(Notification(target, opposite, okind, old=source,
                                        position=opp_position))


def _check_containable(container: "Element", child: "Element") -> None:
    """Refuse to put *child* into *container*: it may be neither an
    ancestor of *container* (a cycle) nor a root of a model, unless that
    model gives contained roots up (``Model.releases_contained_roots``;
    :func:`_link` then takes *child* out of it first).  As
    ``Model.add_root`` admits only container-less elements, a model root
    never has a container, so an element's root changes only when it
    enters or leaves a model (the model index's transitions)."""
    if child is container or any(a is child for a in _ancestors(container)):
        raise CompositionError(
            f"containment cycle: {child!r} already (transitively) "
            f"contains {container!r}"
        )
    if child._model is not None \
            and not child._model.releases_contained_roots:
        raise CompositionError(
            f"{child!r} is a root of {child._model!r}; a model root "
            f"cannot be contained")


def _link(source: "Element", feature: Reference, target: "Element",
          *, position: Optional[int] = None) -> None:
    """Establish ``source --feature--> target`` and its inverse atomically;
    refused (:func:`_check_containable`) before anything is written."""
    _check_mutable(source)
    feature.check_type(target)
    opposite = feature.opposite
    if opposite is not None:
        # linking writes the target's inverse slot as well
        _check_mutable(target)

    if feature.containment:
        _check_containable(source, target)
    if opposite is not None and opposite.containment:
        _check_containable(target, source)
    # a root that may be contained leaves its model before it is
    if feature.containment and target._model is not None:
        target._model.remove_root(target)
    if opposite is not None and opposite.containment \
            and source._model is not None:
        source._model.remove_root(source)

    # Displace current occupants of single-valued ends.
    if not feature.many:
        current = source._slots.get(feature.name)
        if current is target:
            return
        if current is not None:
            _unlink(source, feature, current)
    if opposite is not None and not opposite.many:
        holder = target._slots.get(opposite.name)
        if holder is not None and holder is not source:
            # holder --feature--> target must be broken from holder's side
            _unlink(holder, feature, target)

    # An element enters a new containment slot: leave the old one first.
    if feature.containment and target._container is not None:
        target._detach()
    if opposite is not None and opposite.containment \
            and source._container is not None:
        source._detach()

    _raw_add(source, feature, target, position)
    if opposite is not None:
        _raw_add(target, opposite, source)
    if feature.containment:
        target._container = source
        target._containing_feature = feature
    if opposite is not None and opposite.containment:
        source._container = target
        source._containing_feature = opposite

    kind = ChangeKind.ADD if feature.many else ChangeKind.SET
    source._notify(Notification(source, feature, kind, new=target,
                                position=position))
    if opposite is not None:
        okind = ChangeKind.ADD if opposite.many else ChangeKind.SET
        # The inverse slot always appends, but rollback needs the actual
        # index to restore ordered opposite lists faithfully.
        opp_position = (_index_of(target, opposite, source)
                        if opposite.many else None)
        target._notify(Notification(target, opposite, okind, new=source,
                                    position=opp_position))


def _get_value(obj: "Element", feature: Feature) -> Any:
    if _READ_HOOK is not None:
        _READ_HOOK(obj, feature.name)
    if feature.many:
        return _slot_list(obj, feature)
    if feature.name in obj._slots:
        return obj._slots[feature.name]
    return feature.default_value()


def _value_count(obj: "Element", feature: Feature) -> int:
    """How many values a read of *feature* would see, read as
    :func:`_get_value` reads it (the read hook included) but storing no
    empty list for a many-valued feature never written."""
    if not feature.many:
        return 0 if _get_value(obj, feature) is None else 1
    if _READ_HOOK is not None:
        _READ_HOOK(obj, feature.name)
    slot = obj._slots.get(feature.name)
    return 0 if slot is None else len(slot)


def _set_value(obj: "Element", feature: Feature, value: Any) -> None:
    if _WRITE_HOOK is not None:
        _WRITE_HOOK(obj, feature.name)
    if _faults.ACTIVE is not None and not feature.many:
        # Many-valued assignment decomposes into per-item inserts/removes
        # which each carry their own probe; probing here too would double
        # the firing count for one logical write.
        _faults.probe("kernel.write")
    if feature.many:
        current = _slot_list(obj, feature)
        if value is current:
            return
        if not isinstance(value, (list, tuple, FeatureList)):
            raise TypeConformanceError(
                feature.name, f"collection of {feature.type_name()}", value)
        current.set(list(value))
        return
    if isinstance(feature, Reference):
        if value is None:
            current = obj._slots.get(feature.name)
            if current is not None:
                _unlink(obj, feature, current)
            return
        _link(obj, feature, value)
        return
    # single-valued attribute
    _check_mutable(obj)
    value = feature.stored(value)
    # The *effective* old value is what a reader would have seen, which is
    # the default when the slot was never written — comparing against the
    # raw slot would report ``old=None`` on a first set and emit a spurious
    # notification when assigning a value equal to the default.
    if feature.name in obj._slots:
        old = obj._slots[feature.name]
    else:
        old = feature.default_value()
    if old is value or old == value:
        obj._slots[feature.name] = value
        return
    obj._slots[feature.name] = value
    kind = ChangeKind.SET if value is not None else ChangeKind.UNSET
    obj._notify(Notification(obj, feature, kind, old=old, new=value))


# ---------------------------------------------------------------------------
# Construction primitives (model loads, see repro.xmi.builder)
# ---------------------------------------------------------------------------
#
# The slot writes of the edit protocol above, with every check it makes
# on the same write in the same order (the ``kernel.write`` fault probe,
# type conformance, the upper bound) but no notification.  Where
# :func:`_link` would move, displace or unlink something, the link
# primitives refuse the write before probing, and the caller takes the
# edit protocol instead.

def _load_set(obj: "Element", feature: Attribute, value: Any) -> None:
    """Set single-valued attribute *feature* of *obj* to *value*.

    Precondition of every ``_load_*`` primitive: each element it writes
    was instantiated by the running load, and the only model holding it
    is the one that load builds, which has no index, column store,
    observer or repository before the load returns.  No one can have
    seen such an element, so the write makes no notification."""
    if _faults.ACTIVE is not None:
        _faults.probe("kernel.write")
    obj._slots[feature.name] = feature.stored(value)


def _load_extend(obj: "Element", feature: Attribute,
                 values: Iterable[Any]) -> None:
    """Append *values* to many-valued attribute *feature* of *obj*,
    creating its (possibly empty) list; a value already present is
    skipped, as :meth:`FeatureList.append` skips it.  Precondition as
    :func:`_load_set`."""
    items = _slot_list(obj, feature)._items
    upper = feature.multiplicity.upper
    for value in values:
        if value in items:
            continue
        if _faults.ACTIVE is not None:
            _faults.probe("kernel.write")
        value = feature.stored(value)
        if upper is not None and len(items) >= upper:
            raise MultiplicityError(
                f"feature '{feature.name}' accepts at most {upper} values")
        items.append(value)


def _load_link(source: "Element", feature: Reference,
               target: "Element") -> bool:
    """Link ``source --feature--> target`` and its opposite as
    :func:`_link` would, appending to a many-valued end, and return True.

    Return False, having probed and written nothing, where :func:`_link`
    would move, displace or unlink something: a containment or container
    reference, a single-valued *feature* of *source* already held, or a
    single-valued opposite of *target* held by another element.  A
    many-valued *feature* must not hold *target* yet.  Precondition as
    :func:`_load_set`, for both ends."""
    if feature.containment:
        return False
    return _load_write(source, feature, target)


def _load_adopt(parent: "Element", feature: Reference,
                child: "Element") -> bool:
    """Put *child* into containment *feature* of *parent*: the slot, the
    child's container and containing feature, and the containment
    opposite; return False as :func:`_load_link` does.

    Precondition as :func:`_load_set`; besides, *child* has never been
    contained or linked, so it is in no list and cannot be an ancestor
    of *parent*: nothing to detach, no cycle."""
    if not _load_write(parent, feature, child):
        return False
    object.__setattr__(child, "_container", parent)
    object.__setattr__(child, "_containing_feature", feature)
    return True


def _load_write(source: "Element", feature: Reference,
                target: "Element") -> bool:
    """The body :func:`_load_link` and :func:`_load_adopt` share."""
    many = feature.many
    if not many and source._slots.get(feature.name) is not None:
        return False
    opposite = feature.opposite
    if opposite is not None:
        if opposite.containment:
            return False
        opposite_many = opposite.many
        if not opposite_many:
            holder = target._slots.get(opposite.name)
            if holder is not None and holder is not source:
                return False
    if _faults.ACTIVE is not None:
        _faults.probe("kernel.write")
    feature.check_type(target)
    if many:
        items = _slot_list(source, feature)._items
        upper = feature.multiplicity.upper
        if upper is not None and len(items) >= upper:
            raise MultiplicityError(
                f"feature '{feature.name}' accepts at most {upper} values")
        items.append(target)
    else:
        source._slots[feature.name] = target
    if opposite is not None:
        if opposite_many:
            back = _slot_list(target, opposite)._items
            if source not in back:
                back.append(source)
        else:
            target._slots[opposite.name] = source
    return True


def _load_order(obj: "Element", feature: Reference,
                values: List["Element"]) -> None:
    """Move *values*, all in *obj*'s list for *feature*, to the front
    in the given order, as successive :meth:`FeatureList.move` calls
    would (opposites may have filled the list in another order).
    Precondition as :func:`_load_set`."""
    items = obj._slots[feature.name]._items
    for position, value in enumerate(values):
        if items[position] is not value:
            if _faults.ACTIVE is not None:
                _faults.probe("kernel.write")
            items.pop(items.index(value))
            items.insert(position, value)


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

class MofMeta(type):
    """Python metaclass that turns ``Element`` subclasses into metaclasses.

    Declared :class:`Feature` class attributes are harvested (in declaration
    order) into a :class:`MetaClass`, registered in the package named by the
    ``_mof_package`` class attribute (inherited if unset).
    """

    def __new__(mcls, name, bases, namespace, **kwargs):
        cls = super().__new__(mcls, name, bases, namespace, **kwargs)
        if namespace.get("_mof_kernel_root", False):
            return cls
        package = namespace.get("_mof_package")
        if package is None:
            for base in cls.__mro__[1:]:
                package = getattr(base, "_mof_package", None)
                if package is not None:
                    break
        supers = []
        for base in bases:
            base_meta = base.__dict__.get("_meta") or getattr(base, "_meta", None)
            if base_meta is not None and base_meta not in supers:
                supers.append(base_meta)
        meta = MetaClass(
            name,
            package=package,
            superclasses=supers,
            abstract=bool(namespace.get("_mof_abstract", False)),
            python_class=cls,
        )
        for attr_name, attr_value in namespace.items():
            if isinstance(attr_value, Feature):
                attr_value.name = attr_name
                meta.add_feature(attr_value)
        cls._meta = meta
        return cls


class Element(ObserverMixin, metaclass=MofMeta):
    """Base class of every model element (static style).

    Provides slot storage, containment bookkeeping, reflection (``eget``,
    ``eset``...), containment-tree traversal and observer support.
    """

    _mof_kernel_root = True
    _meta: MetaClass = None  # type: ignore[assignment]

    def __init__(self, **kwargs: Any):
        object.__setattr__(self, "_slots", {})
        object.__setattr__(self, "_container", None)
        object.__setattr__(self, "_containing_feature", None)
        object.__setattr__(self, "_observers", None)
        object.__setattr__(self, "_frozen", False)
        object.__setattr__(self, "_eid", None)
        object.__setattr__(self, "_model", None)
        if self._meta is not None and self._meta.abstract:
            raise MetamodelError(
                f"cannot instantiate abstract metaclass '{self._meta.name}'"
            )
        for name, value in kwargs.items():
            feature = self.meta.find_feature(name)
            if feature is None:
                raise UnknownFeatureError(self.meta.name, name)
            _set_value(self, feature, value)

    # -- identity ----------------------------------------------------------

    @property
    def eid(self) -> str:
        """A stable per-process identifier, lazily assigned."""
        if self._eid is None:
            object.__setattr__(self, "_eid", f"e{next(_id_counter)}")
        return self._eid

    def set_eid(self, eid: str) -> None:
        """Force a specific identifier (used by deserializers)."""
        object.__setattr__(self, "_eid", eid)

    # -- reflection ----------------------------------------------------------

    @property
    def meta(self) -> MetaClass:
        return self._meta

    def eget(self, name: str) -> Any:
        return _get_value(self, self.meta.feature(name))

    def eset(self, name: str, value: Any) -> None:
        _set_value(self, self.meta.feature(name), value)

    def eunset(self, name: str) -> None:
        feature = self.meta.feature(name)
        if feature.many:
            _get_value(self, feature).clear()
        elif isinstance(feature, Reference):
            _set_value(self, feature, None)
        else:
            # the slot goes, so the attribute reads its default and
            # eis_set is false, as after a reload; a rollback restores old
            if _WRITE_HOOK is not None:
                _WRITE_HOOK(self, feature.name)
            if _faults.ACTIVE is not None:
                _faults.probe("kernel.write")
            _check_mutable(self)
            if feature.name in self._slots:
                old = self._slots.pop(feature.name)
                self._notify(Notification(self, feature, ChangeKind.UNSET,
                                          old=old,
                                          new=feature.default_value()))

    def eis_set(self, name: str) -> bool:
        feature = self.meta.feature(name)
        if _READ_HOOK is not None:
            _READ_HOOK(self, feature.name)
        slot = self._slots.get(feature.name)
        if feature.many:
            return bool(slot is not None and len(slot) > 0)
        return slot is not None

    def isinstance_of(self, metaclass: MetaClass) -> bool:
        return self.meta.conforms_to(metaclass)

    # -- containment tree ----------------------------------------------------

    @property
    def container(self) -> Optional["Element"]:
        if _READ_HOOK is not None:
            _READ_HOOK(self, CONTAINER_KEY)
        return self._container

    @property
    def containing_feature(self) -> Optional[Reference]:
        if _READ_HOOK is not None:
            _READ_HOOK(self, CONTAINER_KEY)
        return self._containing_feature

    def root(self) -> "Element":
        current = self
        if _READ_HOOK is not None:
            _READ_HOOK(current, CONTAINER_KEY)
        while current._container is not None:
            current = current._container
            if _READ_HOOK is not None:
                _READ_HOOK(current, CONTAINER_KEY)
        return current

    def contents(self) -> List["Element"]:
        """Directly contained elements, in feature/declaration order."""
        out: List[Element] = []
        for feature in self.meta.containment_features():
            value = _get_value(self, feature)
            if feature.many:
                out.extend(value)
            elif value is not None:
                out.append(value)
        return out

    def all_contents(self) -> Iterator["Element"]:
        """All transitively contained elements, preorder.

        An explicit stack instead of nested generators; each element's
        ``contents()`` is still taken only after it has been yielded."""
        stack = self.contents()
        stack.reverse()
        while stack:
            child = stack.pop()
            yield child
            children = child.contents()
            if children:
                children.reverse()
                stack.extend(children)

    def _detach(self) -> None:
        """Remove this element from its current container slot, if any."""
        container = self._container
        feature = self._containing_feature
        if container is not None and feature is not None:
            _unlink(container, feature, self)

    def delete(self) -> None:
        """Remove from the container and break all incoming/outgoing links
        reachable through this element's own references."""
        self._detach()
        for feature in self.meta.all_features().values():
            if not isinstance(feature, Reference):
                continue
            value = _get_value(self, feature)
            if feature.many:
                for other in list(value):
                    _unlink(self, feature, other)
            elif value is not None:
                _unlink(self, feature, value)

    # -- freezing --------------------------------------------------------

    def freeze(self, recursive: bool = True) -> None:
        """Make the element (and optionally its contents) read-only."""
        object.__setattr__(self, "_frozen", True)
        if recursive:
            for child in self.contents():
                child.freeze(recursive=True)

    def unfreeze(self, recursive: bool = True) -> None:
        object.__setattr__(self, "_frozen", False)
        if recursive:
            for child in self.contents():
                child.unfreeze(recursive=True)

    # -- notification forwarding ---------------------------------------------

    def _notification_sink(self, notification: Notification) -> None:
        model = getattr(self.root(), "_model", None)
        if model is not None:
            model._element_changed(notification)

    # -- misc --------------------------------------------------------------

    def __repr__(self) -> str:
        label = ""
        name_feature = self.meta.find_feature("name") if self.meta else None
        if name_feature is not None and not name_feature.many:
            if _READ_HOOK is not None:
                # diagnostics embed reprs; a rename must invalidate them
                _READ_HOOK(self, "name")
            value = self._slots.get("name")
            if isinstance(value, str) and value:
                label = f" '{value}'"
        return f"<{self.meta.name if self.meta else type(self).__name__}{label}>"


class DynamicElement(Element):
    """An instance of a runtime-defined :class:`MetaClass`.

    Feature access works through plain attribute syntax, resolved against
    the dynamic metaclass.
    """

    _mof_kernel_root = True

    def __init__(self, meta: MetaClass, **kwargs: Any):
        object.__setattr__(self, "_dynamic_meta", meta)
        super().__init__(**kwargs)

    @property
    def meta(self) -> MetaClass:
        return self._dynamic_meta

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        meta = self.__dict__.get("_dynamic_meta")
        feature = meta.find_feature(name) if meta is not None else None
        if feature is None:
            raise AttributeError(
                f"'{meta.name if meta else '?'}' object has no feature {name!r}"
            )
        return _get_value(self, feature)

    def __setattr__(self, name: str, value: Any) -> None:
        if name.startswith("_"):
            object.__setattr__(self, name, value)
            return
        meta = self.__dict__.get("_dynamic_meta")
        feature = meta.find_feature(name) if meta is not None else None
        if feature is None:
            raise UnknownFeatureError(meta.name if meta else "?", name)
        _set_value(self, feature, value)

    def __repr__(self) -> str:
        label = ""
        if self.meta.find_feature("name") is not None:
            if _READ_HOOK is not None:
                _READ_HOOK(self, "name")
            value = self._slots.get("name")
            if isinstance(value, str) and value:
                label = f" '{value}'"
        return f"<dyn:{self.meta.name}{label}>"
