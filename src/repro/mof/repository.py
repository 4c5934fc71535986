"""Models and the model repository.

A :class:`Model` groups root elements under a URI; a :class:`Repository`
holds many models and supports the global queries OCL needs
(``allInstances``) plus cross-model element resolution by ``uri#id``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional

from . import kernel as _kernel
from .errors import RepositoryError
from .kernel import Element, MetaClass
from .notify import Notification

if TYPE_CHECKING:                                   # pragma: no cover
    from .columns import ColumnStore
    from .index import ModelIndex


_ROOT_HOOK = None


def set_root_hook(hook):
    """Install *hook* as the repository-wide root-change observer; return
    the previous one.

    Root attachment is not a feature write, so it never reaches the
    notification stream — but a transaction must still be able to undo
    ``add_root``/``remove_root``.  When installed, the hook is called as
    ``hook(model, element, added)`` after every root-list change; with no
    hook (``None``) the paths pay one global load and a falsy test.
    """
    global _ROOT_HOOK
    previous = _ROOT_HOOK
    _ROOT_HOOK = hook
    return previous


class Model:
    """A named collection of root elements forming one model document."""

    #: whether a link may contain one of this model's roots, which then
    #: leaves the model first (``kernel._check_containable``).  A model
    #: document keeps its roots; the private model a
    #: :class:`~repro.session.Session` makes over elements that share no
    #: model holds them only to check them, and gives them up.
    releases_contained_roots = False

    def __init__(self, uri: str, name: Optional[str] = None):
        self.uri = uri
        self.name = name or uri.rsplit("/", 1)[-1]
        self.roots: List[Element] = []
        self.repository: Optional["Repository"] = None
        self._observers: List[Callable[[Notification], None]] = []
        self._index: Optional["ModelIndex"] = None
        self._columns: Optional["ColumnStore"] = None

    def add_root(self, element: Element) -> Element:
        """Attach a (container-less) element as a root of this model.

        While it is a root, the kernel refuses to contain it
        (``CompositionError`` from ``kernel._link``).  A root belongs to
        one model: it leaves one that :attr:`releases_contained_roots`,
        and a root of any other model is refused."""
        if element.container is not None:
            raise RepositoryError(
                f"{element!r} is contained by {element.container!r}; only "
                f"container-less elements can be model roots"
            )
        owner = element._model
        if owner is self:
            return element
        if owner is not None:
            if not owner.releases_contained_roots:
                raise RepositoryError(
                    f"{element!r} is a root of {owner!r}; a root belongs "
                    f"to one model")
            owner.remove_root(element)
        self.roots.append(element)
        object.__setattr__(element, "_model", self)
        # root attachment emits no notification; tell the index directly
        if self._index is not None:
            self._index.root_added(element)
        if _ROOT_HOOK is not None:
            _ROOT_HOOK(self, element, True)
        return element

    def remove_root(self, element: Element) -> None:
        self.roots.remove(element)
        object.__setattr__(element, "_model", None)
        if self._index is not None:
            self._index.root_removed(element)
        if _ROOT_HOOK is not None:
            _ROOT_HOOK(self, element, False)

    def index(self) -> "ModelIndex":
        """The model's extent/eid index, built lazily on first use and
        maintained incrementally from change notifications."""
        if self._index is None:
            from .index import ModelIndex
            self._index = ModelIndex(self)
        return self._index

    def enable_columns(self) -> "ColumnStore":
        """Turn on the columnar extent store for this model (idempotent).

        The store is a cache of the extent index: a block is rebuilt on
        read when the index's change count moved since it was built —
        see :mod:`repro.mof.columns`."""
        if self._columns is None:
            from .columns import ColumnStore
            self._columns = ColumnStore(self)
        return self._columns

    def column_store(self) -> Optional["ColumnStore"]:
        """The model's :class:`~repro.mof.columns.ColumnStore`, or ``None``
        when columns are not enabled or dependency tracking is active
        (incremental tracking must observe the per-element reads a bulk
        scan would hide, as in :meth:`instances_of`)."""
        if _kernel._TRACKING:
            return None
        return self._columns

    def all_elements(self) -> Iterator[Element]:
        """Every element in the model: the roots and all their contents."""
        for root in self.roots:
            yield root
            yield from root.all_contents()

    def instances_of(self, metaclass: MetaClass,
                     exact: bool = False) -> List[Element]:
        """All elements conforming to *metaclass* (or exactly typed by it).

        Answered O(answer) from the extent index unless dependency
        tracking is active (incremental tracking needs to see the
        per-element reads a scan performs — see :mod:`repro.mof.index`).
        """
        if not _kernel._TRACKING:
            return self.index().instances_of(metaclass, exact=exact)
        if exact:
            return [e for e in self.all_elements() if e.meta is metaclass]
        return [e for e in self.all_elements()
                if e.meta.conforms_to(metaclass)]

    def size(self) -> int:
        return sum(1 for _ in self.all_elements())

    def observe(self, observer: Callable[[Notification], None]) -> None:
        """Observe every change to any element in this model."""
        self._observers.append(observer)

    def unobserve(self, observer: Callable[[Notification], None]) -> None:
        if observer in self._observers:
            self._observers.remove(observer)

    def _element_changed(self, notification: Notification) -> None:
        # snapshot + live-membership check: observers detached while the
        # dispatch is in flight must not be called (see ObserverMixin._notify)
        observers = self._observers
        for observer in tuple(observers):
            if observer in observers:
                observer(notification)

    def __repr__(self) -> str:
        return f"<Model {self.uri} roots={len(self.roots)}>"


class Repository:
    """A set of models addressable by URI.

    The repository supplies ``allInstances`` semantics for OCL and resolves
    ``uri#eid`` references for the XMI reader.
    """

    def __init__(self) -> None:
        self.models: Dict[str, Model] = {}

    def create_model(self, uri: str, name: Optional[str] = None) -> Model:
        if uri in self.models:
            raise RepositoryError(f"repository already holds model {uri!r}")
        model = Model(uri, name)
        model.repository = self
        self.models[uri] = model
        return model

    def add_model(self, model: Model) -> Model:
        if model.uri in self.models and self.models[model.uri] is not model:
            raise RepositoryError(f"repository already holds model {model.uri!r}")
        model.repository = self
        self.models[model.uri] = model
        return model

    def model(self, uri: str) -> Model:
        try:
            return self.models[uri]
        except KeyError:
            raise RepositoryError(f"no model with uri {uri!r}") from None

    def remove_model(self, uri: str) -> None:
        model = self.model(uri)
        model.repository = None
        del self.models[uri]

    def all_elements(self) -> Iterator[Element]:
        for model in self.models.values():
            yield from model.all_elements()

    def all_instances(self, metaclass: MetaClass,
                      exact: bool = False) -> List[Element]:
        out: List[Element] = []
        for model in self.models.values():
            out.extend(model.instances_of(metaclass, exact=exact))
        return out

    def resolve(self, reference: str) -> Element:
        """Resolve a ``uri#eid`` string to an element.

        Answered from the model's eid index (O(1) when warm, with a
        staleness cross-check and repairing scan fallback — eids are
        assigned lazily) unless dependency tracking is active.
        """
        if "#" not in reference:
            raise RepositoryError(
                f"element reference {reference!r} must look like 'uri#eid'"
            )
        uri, eid = reference.split("#", 1)
        model = self.model(uri)
        if not _kernel._TRACKING:
            element = model.index().resolve_eid(eid)
            if element is not None:
                return element
        else:
            for element in model.all_elements():
                if element._eid == eid:
                    return element
        raise RepositoryError(f"no element {eid!r} in model {uri!r}")

    def __repr__(self) -> str:
        return f"<Repository models={sorted(self.models)}>"
