"""Metamodel-driven random model generation — the corpus engine core.

Following the metamodel-instance-generation literature (Wu, Monahan &
Power's systematic review), generators here are *derived from the
metamodel itself*: :class:`ModelGenerator` introspects a
:class:`~repro.mof.kernel.MetaPackage` for concrete metaclasses, their
containment features and attribute types, then grows a random
containment tree that respects multiplicity upper bounds and the
single-container discipline.  :class:`EditFuzzer` produces random *edit
sequences* over a generated model: attribute set/unset, reference
add/remove, reorder, reparent, delete and create.

Lower multiplicity bounds are governed by ``violate_lower_bounds``:

* ``violate_lower_bounds=True`` (the constructor default, and what the
  fuzzer-profile helpers :func:`demo_generator`/:func:`uml_generator`
  use) leaves lower bounds to chance — validators need unsatisfied
  models too, and every property suite seeded before this flag existed
  replays byte-identically;
* ``violate_lower_bounds=False`` (what :mod:`repro.generate.corpus` and
  the ``python -m repro generate`` verb pass) runs a post-growth pass
  that fills every unsatisfied lower bound — attributes get values,
  containments get freshly instantiated children, cross-references get
  in-tree targets — so generated corpora start structurally valid and
  the repair loop only has invariants left to chase.

Everything is seeded — the same ``(seed, size)`` always produces the
same model and the same edits — so property-test failures replay
exactly.  Any suite can import this module as a fixture library; the
incremental-engine property suite was the first consumer.
"""

from __future__ import annotations

import random
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..mof import (
    Attribute,
    CompositionError,
    Element,
    MBoolean,
    MInteger,
    MReal,
    MString,
    M_01,
    M_0N,
    MetaClass,
    MetaEnum,
    MetaPackage,
    MultiplicityError,
    Reference,
    TypeConformanceError,
    add_attribute,
    add_reference,
    define_class,
    define_enum,
    define_package,
)

if TYPE_CHECKING:
    from .coverage import CoverageMap

#: The *typed kernel errors* a random mutation may legitimately provoke
#: (the kernel rejecting an edit for composition, multiplicity or type
#: reasons).  Deliberately narrow: a bare ``ValueError`` (or any other
#: exception) escaping a mutation is a real bug in the kernel or the
#: generator and must surface, not be absorbed as "mutation rejected".
_MUTATION_ERRORS = (CompositionError, MultiplicityError,
                    TypeConformanceError)


def _resolve_metaclass(package: MetaPackage,
                       spec: Union[str, MetaClass, type]) -> MetaClass:
    if isinstance(spec, MetaClass):
        return spec
    if isinstance(spec, type) and hasattr(spec, "_meta"):
        return spec._meta
    for pkg in package.all_packages():
        classifier = pkg.classifiers.get(spec)
        if isinstance(classifier, MetaClass):
            return classifier
    raise KeyError(f"no metaclass {spec!r} in package '{package.name}'")


class ModelGenerator:
    """Grows random instance trees of an arbitrary metamodel.

    ``classes`` restricts generation to a subset of metaclass names
    (useful to keep clear of helper classifiers a metamodel exposes but
    a test does not want populated); ``root_class`` picks the tree root
    (defaulting to the concrete class with the most containment
    features).  ``attr_probability`` is the chance a non-required
    attribute gets an explicit value.  ``violate_lower_bounds`` keeps
    the historic leave-lower-bounds-to-chance behaviour when true (the
    default, relied on by the fuzzer profiles); when false,
    :meth:`generate` finishes with :meth:`satisfy_lower_bounds`.
    """

    def __init__(self, package: MetaPackage, *, seed: int = 0,
                 classes: Optional[Sequence[Union[str, MetaClass]]] = None,
                 root_class: Union[str, MetaClass, type, None] = None,
                 attr_probability: float = 0.8,
                 reference_probability: float = 0.4,
                 violate_lower_bounds: bool = True):
        self.package = package
        self.rng = random.Random(seed)
        self.attr_probability = attr_probability
        self.reference_probability = reference_probability
        self.violate_lower_bounds = violate_lower_bounds
        #: when attached (see :mod:`repro.generate.coverage`), every
        #: instantiation and reference link is recorded as it happens
        self.coverage: Optional["CoverageMap"] = None

        if classes is not None:
            allowed = [_resolve_metaclass(package, c) for c in classes]
        else:
            allowed = [mc for pkg in package.all_packages()
                       for mc in pkg.metaclasses()]
        self.classes: List[MetaClass] = [mc for mc in allowed
                                         if not mc.abstract]
        if not self.classes:
            raise ValueError(f"package '{package.name}' offers no "
                             f"concrete metaclasses")

        # containment index: metaclass -> [(feature, instantiable targets)]
        self.containments: Dict[MetaClass,
                                List[Tuple[Reference, List[MetaClass]]]] = {}
        for metaclass in self.classes:
            slots = []
            for feature in metaclass.all_features().values():
                if not (isinstance(feature, Reference)
                        and feature.containment and not feature.derived):
                    continue
                targets = [c for c in self.classes
                           if c.conforms_to(feature.target)]
                if targets:
                    slots.append((feature, targets))
            if slots:
                self.containments[metaclass] = slots

        if root_class is not None:
            self.root_class = _resolve_metaclass(package, root_class)
        else:
            self.root_class = max(
                self.classes,
                key=lambda mc: len(self.containments.get(mc, [])))

    # -- generation --------------------------------------------------------

    def generate(self, n_elements: int) -> Element:
        """A random containment tree of roughly *n_elements* elements."""
        root = self.instantiate(self.root_class)
        elements = [root]
        parents = [root] if root.meta in self.containments else []
        attempts = 0
        while (len(elements) < n_elements and parents
               and attempts < n_elements * 25):
            attempts += 1
            parent = self.rng.choice(parents)
            child = self.grow_child(parent)
            if child is None:
                continue
            elements.append(child)
            if child.meta in self.containments:
                parents.append(child)
        self.sprinkle_references(elements)
        if not self.violate_lower_bounds:
            self.satisfy_lower_bounds(elements)
        return root

    # The two choice points coverage-directed generation overrides; the
    # base implementations consume the rng exactly as the historic
    # generator did, keeping every seeded suite replayable.

    def _choose_slot(self, parent: Element,
                     slots: List[Tuple[Reference, List[MetaClass]]]
                     ) -> Tuple[Reference, List[MetaClass]]:
        return self.rng.choice(slots)

    def _choose_target(self, feature: Reference,
                       targets: List[MetaClass]) -> MetaClass:
        return self.rng.choice(targets)

    def grow_child(self, parent: Element) -> Optional[Element]:
        """Attach one new random child under *parent* (None if full)."""
        slots = self.containments.get(parent.meta)
        if not slots:
            return None
        feature, targets = self._choose_slot(parent, slots)
        if feature.many:
            upper = feature.multiplicity.upper
            if upper is not None and len(parent.eget(feature.name)) >= upper:
                return None
        elif parent.eget(feature.name) is not None:
            return None
        child = self.instantiate(self._choose_target(feature, targets))
        try:
            if feature.many:
                parent.eget(feature.name).append(child)
            else:
                parent.eset(feature.name, child)
        except _MUTATION_ERRORS:
            return None
        if self.coverage is not None:
            self.coverage.record_end(feature)
        return child

    def instantiate(self, metaclass: MetaClass) -> Element:
        element = metaclass.instantiate()
        if self.coverage is not None:
            self.coverage.record_metaclass(metaclass)
        for feature in metaclass.all_features().values():
            if not isinstance(feature, Attribute) or feature.derived:
                continue
            if feature.many:
                for _ in range(self.rng.randint(0, 2)):
                    try:
                        element.eget(feature.name).append(
                            self.attribute_value(feature))
                    except _MUTATION_ERRORS:
                        break
            elif (feature.required
                  or self.rng.random() < self.attr_probability):
                element.eset(feature.name, self.attribute_value(feature))
        return element

    def attribute_value(self, feature: Attribute) -> Any:
        rng = self.rng
        ftype = feature.type
        if isinstance(ftype, MetaEnum):
            return rng.choice(ftype.literals)
        if ftype is MBoolean:
            return rng.random() < 0.5
        if ftype is MInteger:
            return rng.randint(-5, 40)
        if ftype is MReal:
            return round(rng.uniform(-5.0, 40.0), 3)
        return f"{feature.name}_{rng.randrange(1000)}"

    def _link(self, element: Element, feature: Reference,
              target: Element) -> bool:
        """Add one cross-reference link, recording coverage on success."""
        try:
            if feature.many:
                slot = element.eget(feature.name)
                if target in slot:
                    return False
                slot.append(target)
            else:
                element.eset(feature.name, target)
        except _MUTATION_ERRORS:
            return False
        if self.coverage is not None:
            self.coverage.record_end(feature)
        return True

    def cross_reference_features(self, metaclass: MetaClass
                                 ) -> List[Reference]:
        """The non-derived, non-containment references of *metaclass*
        whose inverse is not a containment (linking those reparents)."""
        out = []
        for feature in metaclass.all_features().values():
            if (not isinstance(feature, Reference) or feature.derived
                    or feature.containment):
                continue
            try:
                opposite = feature.opposite
            except Exception:
                continue
            if opposite is not None and opposite.containment:
                continue
            out.append(feature)
        return out

    def sprinkle_references(self, elements: Sequence[Element]) -> None:
        """Fill non-containment references between the given elements."""
        # candidate pools depend only on the feature's target metaclass,
        # so memoise them — rebuilding per element is O(n^2) at corpus
        # sizes.  rng consumption is untouched (same pools, same order).
        pools: Dict[int, List[Element]] = {}
        features_of: Dict[MetaClass, List[Reference]] = {}
        for element in elements:
            features = features_of.get(element.meta)
            if features is None:
                features = self.cross_reference_features(element.meta)
                features_of[element.meta] = features
            for feature in features:
                candidates = pools.get(id(feature.target))
                if candidates is None:
                    candidates = [c for c in elements
                                  if c.meta.conforms_to(feature.target)]
                    pools[id(feature.target)] = candidates
                if not candidates:
                    continue
                if feature.many:
                    for _ in range(self.rng.randint(0, 2)):
                        try:
                            element.eget(feature.name).append(
                                self.rng.choice(candidates))
                        except _MUTATION_ERRORS:
                            break
                        if self.coverage is not None:
                            self.coverage.record_end(feature)
                elif (feature.required
                      or self.rng.random() < self.reference_probability):
                    try:
                        element.eset(feature.name,
                                     self.rng.choice(candidates))
                    except _MUTATION_ERRORS:
                        pass
                    else:
                        if self.coverage is not None:
                            self.coverage.record_end(feature)

    def satisfy_lower_bounds(self, elements: Sequence[Element]) -> None:
        """Fill every unsatisfied lower multiplicity bound in place.

        Attributes get generated values, containment features get fresh
        conforming children (which join the worklist so their own lower
        bounds are filled too), cross-references get existing in-tree
        targets.  Bounds that cannot be filled (no conforming target
        anywhere) are left for the repair loop to prune.
        """
        worklist = list(elements)
        index = 0
        while index < len(worklist):
            element = worklist[index]
            index += 1
            for feature in element.meta.all_features().values():
                if feature.derived or feature.multiplicity.lower < 1:
                    continue
                value = element.eget(feature.name)
                count = (len(value) if feature.many
                         else (0 if value is None else 1))
                needed = feature.multiplicity.lower - count
                if needed <= 0:
                    continue
                for _ in range(needed):
                    if not self._fill_one(element, feature, worklist):
                        break

    def _fill_one(self, element: Element, feature: Any,
                  worklist: List[Element]) -> bool:
        """Add one value to *feature* of *element*; True on success."""
        if isinstance(feature, Attribute):
            value = self.attribute_value(feature)
            try:
                if feature.many:
                    element.eget(feature.name).append(value)
                else:
                    element.eset(feature.name, value)
            except _MUTATION_ERRORS:
                return False
            return True
        if feature.containment:
            targets = [c for c in self.classes
                       if c.conforms_to(feature.target)]
            if not targets:
                return False
            child = self.instantiate(self._choose_target(feature, targets))
            try:
                if feature.many:
                    element.eget(feature.name).append(child)
                else:
                    element.eset(feature.name, child)
            except _MUTATION_ERRORS:
                return False
            if self.coverage is not None:
                self.coverage.record_end(feature)
            worklist.append(child)
            return True
        try:
            opposite = feature.opposite
        except Exception:
            opposite = None
        if opposite is not None and opposite.containment:
            return False              # linking would reparent the target
        candidates = [c for c in worklist
                      if c.meta.conforms_to(feature.target)
                      and c is not element]
        if not candidates:
            return False
        return self._link(element, feature, self.rng.choice(candidates))


# ---------------------------------------------------------------------------
# Random edits
# ---------------------------------------------------------------------------

class EditFuzzer:
    """Applies random, always-legal edits to a generated model.

    Edits touch only elements currently inside the tree rooted at
    ``root`` (the membership any scoped checker agrees on), except in
    the ``detached`` profile, whose ops also reach elements the fuzzer
    took out of the tree.  Every op returns a human-readable description
    (for failure replay) or None when it could not find an applicable
    target; :meth:`random_edit` retries across ops until one applies.
    """

    #: op weights: mutation-heavy, with enough structure churn to stress
    #: membership sync, but growing slightly more than deleting
    OPS = (("set_attr", 5), ("unset_attr", 2), ("add_ref", 3),
           ("remove_ref", 2), ("move", 1), ("reparent", 2),
           ("create", 2), ("delete", 1))

    #: named weight tables.  "destructive" leans on the operations whose
    #: inverses are hardest to replay (subtree deletes, removals from the
    #: middle of ordered lists); "shuffle" churns ordering and ownership
    #: without net growth.  Both exist to stress transaction rollback.
    PROFILES: Dict[str, Tuple[Tuple[str, int], ...]] = {
        "default": OPS,
        "destructive": (("set_attr", 1), ("unset_attr", 2),
                        ("add_ref", 1), ("remove_ref", 4), ("move", 3),
                        ("reparent", 3), ("create", 1), ("delete", 5)),
        "shuffle": (("set_attr", 1), ("unset_attr", 1), ("add_ref", 2),
                    ("remove_ref", 2), ("move", 6), ("reparent", 5),
                    ("create", 1), ("delete", 1)),
        # elements out of the tree but still referenced: "detach" takes
        # one out of its containment list, without deleting it, while a
        # one-way reference from the tree points at it; "write_detached"
        # writes its attributes and references; "reattach" puts it back
        # under a legal container.  These are the writes a scoped
        # checker sees only through the references that reach them.
        "detached": (("set_attr", 2), ("add_ref", 3), ("remove_ref", 1),
                     ("create", 1), ("detach", 3), ("write_detached", 5),
                     ("reattach", 2)),
    }

    def __init__(self, root: Element, *, seed: int = 0,
                 generator: Optional[ModelGenerator] = None,
                 profile: str = "default"):
        self.root = root
        self.rng = random.Random(seed)
        self.generator = generator
        if profile not in self.PROFILES:
            raise KeyError(f"unknown fuzz profile {profile!r}; expected "
                           f"one of {sorted(self.PROFILES)}")
        self.profile = profile
        self._ops = [name for name, weight in self.PROFILES[profile]
                     for _ in range(weight)]
        #: elements the "detach" op took out of the tree and no
        #: "reattach" has put back
        self.detached: List[Element] = []

    def elements(self) -> List[Element]:
        return [self.root] + list(self.root.all_contents())

    def apply_random_edits(self, count: int) -> List[str]:
        done = []
        for _ in range(count):
            description = self.random_edit()
            if description is not None:
                done.append(description)
        return done

    def random_edit(self) -> Optional[str]:
        for _ in range(40):
            op = self.rng.choice(self._ops)
            description = getattr(self, f"_op_{op}")()
            if description is not None:
                return description
        return None

    # -- individual ops ----------------------------------------------------

    def _pick(self, items: Sequence[Any]) -> Any:
        return self.rng.choice(list(items))

    def _attributes(self, element: Element) -> List[Attribute]:
        return [f for f in element.meta.all_features().values()
                if isinstance(f, Attribute) and not f.derived]

    def _op_set_attr(self) -> Optional[str]:
        return self._set_attr(self._pick(self.elements()))

    def _set_attr(self, element: Element) -> Optional[str]:
        attributes = self._attributes(element)
        if not attributes or self.generator is None:
            return None
        feature = self._pick(attributes)
        value = self.generator.attribute_value(feature)
        try:
            if feature.many:
                slot = element.eget(feature.name)
                if value in slot:
                    slot.remove(value)
                else:
                    slot.append(value)
            else:
                element.eset(feature.name, value)
        except _MUTATION_ERRORS:
            return None
        return f"set {element.meta.name}.{feature.name}={value!r}"

    def _op_unset_attr(self) -> Optional[str]:
        element = self._pick(self.elements())
        attributes = [f for f in self._attributes(element)
                      if element.eis_set(f.name)]
        if not attributes:
            return None
        feature = self._pick(attributes)
        element.eunset(feature.name)
        return f"unset {element.meta.name}.{feature.name}"

    def _cross_references(self, element: Element) -> List[Reference]:
        out = []
        for feature in element.meta.all_features().values():
            if (not isinstance(feature, Reference) or feature.derived
                    or feature.containment):
                continue
            try:
                opposite = feature.opposite
            except Exception:
                continue
            if opposite is not None and opposite.containment:
                continue
            out.append(feature)
        return out

    def _op_add_ref(self) -> Optional[str]:
        everything = self.elements()
        return self._add_ref(self._pick(everything), everything)

    def _add_ref(self, element: Element,
                 targets: List[Element]) -> Optional[str]:
        """Link *element* to one of *targets* by a cross-reference."""
        references = self._cross_references(element)
        if not references:
            return None
        feature = self._pick(references)
        candidates = [c for c in targets
                      if c.meta.conforms_to(feature.target)]
        if not candidates:
            return None
        target = self._pick(candidates)
        try:
            if feature.many:
                if target in element.eget(feature.name):
                    return None
                element.eget(feature.name).append(target)
            else:
                if element.eget(feature.name) is target:
                    return None
                element.eset(feature.name, target)
        except _MUTATION_ERRORS:
            return None
        return (f"link {element.meta.name}.{feature.name} -> "
                f"{target.meta.name}")

    def _op_remove_ref(self) -> Optional[str]:
        return self._remove_ref(self._pick(self.elements()))

    def _remove_ref(self, element: Element) -> Optional[str]:
        settable = []
        for feature in self._cross_references(element):
            value = element.eget(feature.name)
            if feature.many:
                if len(value):
                    settable.append(feature)
            elif value is not None:
                settable.append(feature)
        if not settable:
            return None
        feature = self._pick(settable)
        try:
            if feature.many:
                slot = element.eget(feature.name)
                slot.remove(self._pick(list(slot)))
            else:
                element.eset(feature.name, None)
        except _MUTATION_ERRORS:
            return None
        return f"unlink {element.meta.name}.{feature.name}"

    def _op_move(self) -> Optional[str]:
        for element in self.rng.sample(self.elements(),
                                       min(8, len(self.elements()))):
            for feature in element.meta.all_features().values():
                if not (feature.many and feature.ordered):
                    continue
                slot = element.eget(feature.name)
                if len(slot) >= 2:
                    value = self._pick(list(slot))
                    index = self.rng.randrange(len(slot))
                    try:
                        slot.move(index, value)
                    except _MUTATION_ERRORS:
                        continue
                    return (f"move {element.meta.name}."
                            f"{feature.name}[{index}]")
        return None

    def _op_reparent(self) -> Optional[str]:
        if self.generator is None:
            return None
        everything = self.elements()
        movable = [e for e in everything if e.container is not None]
        if not movable:
            return None
        child = self._pick(movable)
        subtree = {id(child)} | {id(e) for e in child.all_contents()}
        for parent in self.rng.sample(everything, min(10, len(everything))):
            if id(parent) in subtree:
                continue
            for feature, targets in \
                    self.generator.containments.get(parent.meta, []):
                if not child.meta.conforms_to(feature.target):
                    continue
                try:
                    if feature.many:
                        parent.eget(feature.name).append(child)
                    else:
                        parent.eset(feature.name, child)
                except _MUTATION_ERRORS:
                    continue
                return (f"reparent {child.meta.name} under "
                        f"{parent.meta.name}.{feature.name}")
        return None

    def _op_create(self) -> Optional[str]:
        if self.generator is None:
            return None
        # grow with the *fuzzer's* rng so edit sequences stay independent
        # of how many elements generation itself consumed
        self.generator.rng = self.rng
        for parent in self.rng.sample(self.elements(),
                                      min(10, len(self.elements()))):
            child = self.generator.grow_child(parent)
            if child is not None:
                return (f"create {child.meta.name} under "
                        f"{parent.meta.name}")
        return None

    def _op_delete(self) -> Optional[str]:
        deletable = [e for e in self.elements() if e.container is not None]
        if not deletable:
            return None
        element = self._pick(deletable)
        name = element.meta.name
        element.delete()
        return f"delete {name}"

    def _op_detach(self) -> Optional[str]:
        everything = self.elements()
        inside = {id(element) for element in everything}
        referenced: Dict[int, Element] = {}
        for element in everything:
            for feature in self._cross_references(element):
                if feature.opposite is not None:
                    continue
                value = element.eget(feature.name)
                for target in (value if feature.many else [value]):
                    if target is not None and id(target) in inside \
                            and target.container is not None:
                        referenced[id(target)] = target
        if not referenced:
            return None
        element = self._pick(referenced.values())
        container, feature = element.container, element.containing_feature
        try:
            if feature.many:
                container.eget(feature.name).remove(element)
            else:
                container.eset(feature.name, None)
        except _MUTATION_ERRORS:
            return None
        self.detached.append(element)
        return (f"detach {element.meta.name} from "
                f"{container.meta.name}.{feature.name}")

    def _op_write_detached(self) -> Optional[str]:
        if not self.detached:
            return None
        element = self._pick(self.detached)
        kind = self.rng.randrange(3)
        if kind == 0:
            described = self._set_attr(element)
        elif kind == 1:
            described = self._add_ref(element, self.elements())
        else:
            described = self._remove_ref(element)
        return None if described is None else f"{described} (detached)"

    def _op_reattach(self) -> Optional[str]:
        if not self.detached or self.generator is None:
            return None
        element = self._pick(self.detached)
        everything = self.elements()
        for parent in self.rng.sample(everything, min(10, len(everything))):
            for feature, _targets in \
                    self.generator.containments.get(parent.meta, []):
                if not element.meta.conforms_to(feature.target) or (
                        not feature.many
                        and parent.eget(feature.name) is not None):
                    continue
                try:
                    if feature.many:
                        parent.eget(feature.name).append(element)
                    else:
                        parent.eset(feature.name, element)
                except _MUTATION_ERRORS:
                    continue
                self.detached.remove(element)
                return (f"reattach {element.meta.name} under "
                        f"{parent.meta.name}.{feature.name}")
        return None


# ---------------------------------------------------------------------------
# A self-contained demo metamodel (library domain) with OCL invariants
# ---------------------------------------------------------------------------

_DEMO: Optional[MetaPackage] = None


def demo_package() -> MetaPackage:
    """A small dynamic metamodel with registered invariants, built once.

    Shaped so random instances actually exercise every checker: default
    attribute values, enums, multi-valued attributes, cross-references,
    an opposite pair and invariants that flip between holding, violated
    and *raising* (``null`` arithmetic) as the fuzzer edits.
    """
    global _DEMO
    if _DEMO is not None:
        return _DEMO
    from ..ocl.invariants import Invariant

    pkg = define_package("genlib", "urn:test:genlib")
    define_enum(pkg, "Color", ["red", "green", "blue"])
    color = pkg.classifier("Color")

    named = define_class(pkg, "GNamed", abstract=True)
    add_attribute(named, "name", MString)

    library = define_class(pkg, "GLibrary", superclasses=[named])
    shelf = define_class(pkg, "GShelf", superclasses=[named])
    book = define_class(pkg, "GBook", superclasses=[named])
    author = define_class(pkg, "GAuthor", superclasses=[named])

    add_reference(library, "shelves", shelf, containment=True,
                  multiplicity=M_0N, opposite="library")
    add_reference(shelf, "library", library)
    add_reference(library, "staff", author, containment=True,
                  multiplicity=M_0N)
    add_reference(library, "featured", book, multiplicity=M_01)
    add_attribute(shelf, "capacity", MInteger, 3)
    add_reference(shelf, "books", book, containment=True,
                  multiplicity=M_0N, opposite="shelf")
    add_reference(book, "shelf", shelf)
    add_attribute(book, "pages", MInteger, 100)
    add_attribute(book, "color", color)
    add_attribute(book, "tags", MString, multiplicity=M_0N)
    add_reference(book, "authors", author, multiplicity=M_0N)
    add_reference(book, "sequel", book)

    Invariant(book, "positive-pages", "self.pages >= 0",
              message="page counts are natural numbers").register()
    Invariant(shelf, "within-capacity",
              "self.books->size() <= self.capacity",
              message="shelf holds more books than it fits").register()
    Invariant(book, "sequel-not-self",
              "self.sequel.oclIsUndefined() or self.sequel <> self"
              ).register()
    Invariant(author, "staff-named",
              "not self.name.oclIsUndefined()").register()

    _DEMO = pkg
    return pkg


def demo_generator(seed: int = 0, **kwargs: Any) -> ModelGenerator:
    """A generator over the demo metamodel, rooted at ``GLibrary``.

    A *fuzzer profile*: lower-bound violation stays on unless the caller
    opts out (``violate_lower_bounds=False``).
    """
    return ModelGenerator(demo_package(), seed=seed, root_class="GLibrary",
                          **kwargs)


# ---------------------------------------------------------------------------
# A curated slice of the UML metamodel
# ---------------------------------------------------------------------------

#: Classes safe for blind random generation: structural and behavioural
#: UML without the relationship classifiers whose cycles the checkers
#: themselves chase (Generalization) and without interactions (their
#: rules need hand-shaped pairings to be interesting).
UML_SAFE_CLASSES = (
    "UmlModel", "Package", "Clazz", "Interface", "Property", "Operation",
    "Parameter", "Comment", "UseCase",
    "StateMachine", "Region", "State", "FinalState", "Pseudostate",
    "Transition",
    "Activity", "ActionNode", "InitialNode", "ActivityFinalNode",
    "DecisionNode", "MergeNode", "ForkNode", "JoinNode", "ActivityEdge",
)


def uml_generator(seed: int = 0, **kwargs: Any) -> ModelGenerator:
    """A generator over the (curated) UML metamodel, rooted at UmlModel.

    A *fuzzer profile*: lower-bound violation stays on unless the caller
    opts out (``violate_lower_bounds=False``).
    """
    from ..uml import UML
    return ModelGenerator(UML, seed=seed, classes=UML_SAFE_CLASSES,
                          root_class="UmlModel", **kwargs)
