"""Columnar row plans: evaluating invariants extent-wide over columns.

The ``invariant`` and ``constraint`` checker families evaluate one small
boolean expression against every conforming element.  With a
:class:`~repro.mof.columns.ColumnStore` active, this module compiles the
expression's AST into a **row plan** — a ``row -> value`` callable over
one exact-metaclass :class:`~repro.mof.columns.ExtentColumns` block that
reads attribute/reference columns positionally instead of going through
``Environment`` chains, ``element.root()`` walks and per-object ``eget``.

Row plans power a *suspect scan*: for each extent block, evaluate the
invariant over every row and collect the elements whose result is not
exactly ``True`` (violations **and** raisers).  The caller then re-runs
the ordinary per-element checker only over the suspects, in model order —
so the reported diagnostics are produced by the same code path as the
sequential run (byte-identical documents), while the common all-clean
case never touches a single element object.

The planner is deliberately conservative: any node it cannot prove
column-equivalent (navigation chains, iterator bodies over many-valued
features, names that could resolve to types, ``allInstances``) bails,
and the caller falls back to per-element ``Invariant.holds`` for that
(invariant, metaclass) pair — same cost as the sequential path, never
worse.  Where it does plan, every runtime primitive is the compiler's own
(``truthy``/``_equal``/``_compare``/``_arithmetic``/``_call_plain``), so
planned evaluation cannot diverge from compiled evaluation semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set

from ..mof.columns import ATTR1, LENN, REF1, REFN, ColumnStore, ExtentColumns
from ..mof.kernel import Element
from .ast import (
    ArrowCall,
    BinOp,
    Call,
    If,
    Ident,
    Let,
    Literal,
    Nav,
    SelfExpr,
    UnOp,
)
from .compile import (
    NUM_OPS,
    STR_OPS,
    _arithmetic,
    _call_plain,
    _compare,
    _equal,
)
from .evaluator import truthy

if TYPE_CHECKING:                                   # pragma: no cover
    from .invariants import Invariant

#: A planned node: row index in, value out.
RowPlan = Callable[[int], Any]


class _Bail(Exception):
    """Raised during planning for any construct the columns can't express."""


def _type_names(store: ColumnStore,
                extra_packages: List[Any]) -> Set[str]:
    """Every classifier name the invariant environments could resolve:
    identifiers colliding with these must not be planned as implicit-self
    features (the environment resolves types before self features)."""
    packages = []
    seen: Set[int] = set()
    for meta in store.extent_metaclasses():
        if meta.package is not None:
            packages.append(meta.package)
    packages.extend(p for p in extra_packages if p is not None)
    names: Set[str] = set()
    for package in packages:
        top = package
        while getattr(top, "parent", None) is not None:
            top = top.parent
        if id(top) in seen:
            continue
        seen.add(id(top))
        for pkg in top.all_packages():
            names.update(pkg.classifiers)
    return names


class _RowPlanner:
    """Compiles one invariant AST against one extent block."""

    def __init__(self, block: ExtentColumns, type_names: Set[str]):
        self.block = block
        self.meta = block.meta
        self.type_names = type_names

    def plan(self, node: Any,
             bindings: Dict[str, RowPlan]) -> RowPlan:
        method = getattr(self, f"_p_{type(node).__name__}", None)
        if method is None:
            raise _Bail
        return method(node, bindings)

    # -- leaves -----------------------------------------------------------

    def _p_Literal(self, node: Literal, bindings) -> RowPlan:
        value = node.value
        return lambda row: value

    def _p_SelfExpr(self, node: SelfExpr, bindings) -> RowPlan:
        elements = self.block.elements
        return lambda row: elements[row]

    def _p_Ident(self, node: Ident, bindings) -> RowPlan:
        name = node.name
        bound = bindings.get(name)
        if bound is not None:
            return bound
        # generic resolution order is vars -> types -> implicit self
        # feature; only plan as a feature when no type could shadow it
        if name in self.type_names:
            raise _Bail
        return self._feature_column(name)

    # -- navigation -------------------------------------------------------

    def _p_Nav(self, node: Nav, bindings) -> RowPlan:
        if not isinstance(node.source, SelfExpr):
            raise _Bail           # single self-hop only
        return self._feature_column(node.name)

    def _feature_column(self, name: str) -> RowPlan:
        feature = self.meta.find_feature(name)
        if feature is None:
            raise _Bail           # generic path would try object fallbacks
        kind = self.block.kinds.get(name)
        if kind in (ATTR1, REF1):
            column = self.block.columns[name]
            return lambda row: column[row]
        raise _Bail               # many-valued: only sizes are columnar

    def _many_lengths(self, node: Any) -> Optional[RowPlan]:
        """Lengths plan for a ``self.<many-feature>`` navigation, or None
        when *node* is not one."""
        if isinstance(node, Nav) and isinstance(node.source, SelfExpr):
            name = node.name
        elif isinstance(node, Ident) and node.name not in self.type_names:
            name = node.name
        else:
            return None
        feature = self.meta.find_feature(name)
        if feature is None or not feature.many:
            return None
        kind = self.block.kinds.get(name)
        column = self.block.columns[name]
        if kind == LENN:
            return lambda row: column[row]
        if kind == REFN:
            return lambda row: len(column[row])
        return None

    # -- calls ------------------------------------------------------------

    def _p_Call(self, node: Call, bindings) -> RowPlan:
        name = node.name
        if name == "oclIsUndefined":
            if node.args or node.source is None:
                raise _Bail
            source = self.plan(node.source, bindings)
            return lambda row: source(row) is None
        if name in ("allInstances", "oclIsKindOf", "oclIsTypeOf",
                    "oclAsType"):
            raise _Bail           # need the environment's type namespace
        if node.source is None:
            raise _Bail
        source = self.plan(node.source, bindings)
        args = [self.plan(arg, bindings) for arg in node.args]
        str_op = STR_OPS.get(name)
        num_op = NUM_OPS.get(name)

        def run(row: int) -> Any:
            return _call_plain(name, str_op, num_op, source(row),
                               [arg(row) for arg in args])
        return run

    def _p_ArrowCall(self, node: ArrowCall, bindings) -> RowPlan:
        if node.body is not None or node.args or node.source is None:
            raise _Bail
        lengths = self._many_lengths(node.source)
        if lengths is None:
            raise _Bail
        if node.name == "size":
            return lengths
        if node.name == "isEmpty":
            return lambda row: lengths(row) == 0
        if node.name == "notEmpty":
            return lambda row: lengths(row) != 0
        raise _Bail

    # -- operators --------------------------------------------------------

    def _p_UnOp(self, node: UnOp, bindings) -> RowPlan:
        operand = self.plan(node.operand, bindings)
        if node.op == "not":
            return lambda row: not truthy(operand(row))
        if node.op == "-":
            def run(row: int) -> Any:
                value = operand(row)
                if isinstance(value, bool) \
                        or not isinstance(value, (int, float)):
                    from .errors import OclTypeError
                    raise OclTypeError(
                        f"unary '-' needs a number, got {value!r}")
                return -value
            return run
        raise _Bail

    def _p_BinOp(self, node: BinOp, bindings) -> RowPlan:
        op = node.op
        left = self.plan(node.left, bindings)
        right = self.plan(node.right, bindings)
        if op == "and":
            return lambda row: truthy(left(row)) and truthy(right(row))
        if op == "or":
            return lambda row: truthy(left(row)) or truthy(right(row))
        if op == "implies":
            return lambda row: (not truthy(left(row))) or truthy(right(row))
        if op == "xor":
            def run_xor(row: int) -> Any:
                first = truthy(left(row))
                return first != truthy(right(row))
            return run_xor
        if op == "=":
            return lambda row: _equal(left(row), right(row))
        if op == "<>":
            return lambda row: not _equal(left(row), right(row))
        if op == "+":
            def run_plus(row: int) -> Any:
                lhs = left(row)
                rhs = right(row)
                if isinstance(lhs, str) or isinstance(rhs, str):
                    return str(lhs) + str(rhs)
                return _arithmetic("+", lhs, rhs)
            return run_plus
        if op in ("<", "<=", ">", ">="):
            return lambda row: _compare(op, left(row), right(row))
        return lambda row: _arithmetic(op, left(row), right(row))

    # -- control ----------------------------------------------------------

    def _p_If(self, node: If, bindings) -> RowPlan:
        condition = self.plan(node.condition, bindings)
        then_plan = self.plan(node.then_branch, bindings)
        else_plan = self.plan(node.else_branch, bindings)
        return lambda row: (then_plan(row) if truthy(condition(row))
                            else else_plan(row))

    def _p_Let(self, node: Let, bindings) -> RowPlan:
        value_plan = self.plan(node.value, bindings)
        cell: List[Any] = [None]
        child = dict(bindings)
        child[node.name] = lambda row: cell[0]
        body_plan = self.plan(node.body, child)

        def run(row: int) -> Any:
            # eager, like the compiled Let: a raising binding must raise
            # even when the body never reads it
            cell[0] = value_plan(row)
            return body_plan(row)
        return run


def compile_row_plan(ast: Any, block: ExtentColumns,
                     type_names: Set[str]) -> Optional[RowPlan]:
    """A ``row -> value`` plan of *ast* over *block*, or ``None`` when any
    sub-expression cannot be proven column-equivalent."""
    try:
        return _RowPlanner(block, type_names).plan(ast, {})
    except _Bail:
        return None


def _scan_block(plan: RowPlan, elements: List[Element],
                flagged: Dict[int, Element]) -> None:
    # holds() maps True -> ok and everything else (False, None, non-bool,
    # raise) to "needs a diagnostic"; the re-run reproduces which one
    for row, element in enumerate(elements):
        try:
            ok = plan(row) is True
        except Exception:
            ok = False
        if not ok:
            flagged[id(element)] = element


def flag_registered_suspects(store: ColumnStore) -> Dict[int, Element]:
    """Elements that *will* carry a diagnostic from the metaclass-registered
    invariants (the ``invariant`` family), as ``{id(e): e}``.

    Exact, not an over-approximation: planned invariants are evaluated
    over columns, unplannable ones per element over the extent — either
    way an element is flagged iff ``holds()`` is not ``True`` for some
    invariant in its metaclass chain."""
    flagged: Dict[int, Element] = {}
    type_names: Optional[Set[str]] = None
    for meta in store.extent_metaclasses():
        invariants = [inv
                      for metaclass in [meta] + meta.all_superclasses()
                      for inv in metaclass.invariants]
        if not invariants:
            continue
        block = store.block(meta)
        elements = block.elements
        if not elements:
            continue
        if type_names is None:
            type_names = _type_names(
                store, [inv.context.package for inv in invariants])
        for inv in invariants:
            plan = compile_row_plan(inv.ast, block, type_names)
            if plan is not None:
                _scan_block(plan, elements, flagged)
                continue
            for element in elements:
                try:
                    ok = inv.holds(element) is True
                except Exception:
                    ok = False
                if not ok:
                    flagged[id(element)] = element
    return flagged


def flag_constraint_suspects(inv: "Invariant",
                             store: ColumnStore) -> Optional[Set[int]]:
    """The ids of conforming elements needing a diagnostic for detached
    invariant *inv* (the ``constraint`` family), or ``None`` when any
    conforming extent block cannot be planned (caller falls back to the
    full candidate loop for this invariant)."""
    flagged: Dict[int, Element] = {}
    type_names = _type_names(store, [inv.context.package])
    for meta in [inv.context] + inv.context.all_subclasses():
        block = store.block(meta)
        if not block.elements:
            continue
        plan = compile_row_plan(inv.ast, block, type_names)
        if plan is None:
            return None
        _scan_block(plan, block.elements, flagged)
    return set(flagged)
