"""``repro.mof`` — the MOF-style metamodeling kernel (M3 layer).

Public surface:

* metamodel definition: :class:`MetaPackage`, :class:`MetaClass`,
  :class:`MetaEnum`, :class:`Attribute`, :class:`Reference`,
  :class:`Element`, :class:`DynamicElement`, the ``dynamic`` helpers and
  :class:`PackageBuilder`;
* types: ``MString``/``MInteger``/``MReal``/``MBoolean`` and
  :class:`Multiplicity` (with ``M_01``, ``M_11``, ``M_0N``, ``M_1N``);
* models: :class:`Model`, :class:`Repository`;
* validation: :func:`validate_element`, :func:`validate_tree`,
  :func:`validate_invariants`;
* queries: see :mod:`repro.mof.query`;
* change notification: :class:`Notification`, :class:`ChangeRecorder`;
* transactions: :func:`transaction`, :class:`Transaction`,
  :func:`current_transaction` (see :mod:`repro.mof.txn`).
"""

from .builder import ClassBuilder, PackageBuilder
from .compare import DiffKind, DiffResult, Difference, compare
from .dynamic import (
    add_attribute,
    add_reference,
    define_class,
    define_enum,
    define_package,
)
from .errors import (
    CompositionError,
    FrozenElementError,
    MetamodelError,
    MofError,
    MultiplicityError,
    RepositoryError,
    TransactionError,
    TypeConformanceError,
    UnknownFeatureError,
)
from .kernel import (
    CONTAINER_KEY,
    EXTENT_KEY,
    Attribute,
    DynamicElement,
    Element,
    Feature,
    FeatureList,
    MetaClass,
    MetaEnum,
    MetaPackage,
    Reference,
    set_read_hook,
    set_write_hook,
)
from .columns import ColumnStore, ExtentColumns
from .index import IndexDivergence, ModelIndex
from .notify import ChangeKind, ChangeRecorder, Notification, set_notify_hook
from .query import (
    all_contents,
    closure,
    cross_references,
    find_by_name,
    instances_of,
    navigate,
    path,
    referenced_elements,
    select,
)
from .repository import Model, Repository, set_root_hook
from .txn import (
    RootChange,
    Savepoint,
    Transaction,
    current_transaction,
    in_transaction,
    transaction,
)
from .types import (
    M_01,
    M_0N,
    M_11,
    M_1N,
    MBoolean,
    MInteger,
    MReal,
    MString,
    Multiplicity,
    PrimitiveType,
    UNBOUNDED,
    primitive_by_name,
)
from .validate import (
    Diagnostic,
    Severity,
    ValidationReport,
    model_path,
    validate_element,
    validate_invariants,
    validate_tree,
)

__all__ = [
    "Attribute", "CONTAINER_KEY", "EXTENT_KEY", "set_read_hook",
    "set_write_hook",
    "set_notify_hook",
    "DiffKind", "DiffResult", "Difference", "compare", "ChangeKind", "ChangeRecorder", "ClassBuilder",
    "ColumnStore", "ExtentColumns",
    "CompositionError", "Diagnostic", "DynamicElement", "Element",
    "Feature", "FeatureList", "FrozenElementError", "IndexDivergence",
    "M_01", "M_0N",
    "M_11", "M_1N", "MBoolean", "MInteger", "MReal", "MString",
    "MetaClass", "MetaEnum", "MetaPackage", "MetamodelError", "Model",
    "ModelIndex",
    "MofError", "Multiplicity", "MultiplicityError", "Notification",
    "PackageBuilder", "PrimitiveType", "Reference", "Repository",
    "RepositoryError", "RootChange", "Savepoint", "Severity",
    "Transaction", "TransactionError", "TypeConformanceError", "UNBOUNDED",
    "UnknownFeatureError", "ValidationReport", "add_attribute",
    "add_reference", "all_contents", "closure", "cross_references",
    "current_transaction", "define_class", "define_enum", "define_package",
    "find_by_name", "in_transaction",
    "instances_of", "model_path", "navigate", "path", "primitive_by_name",
    "referenced_elements", "select", "set_root_hook", "transaction",
    "validate_element",
    "validate_invariants", "validate_tree",
]
