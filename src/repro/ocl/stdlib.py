"""Collection operations for the OCL-like evaluator.

Each operation receives the evaluator, the environment, the (already
evaluated) source collection, evaluated plain arguments, and — for iterator
operations — the iterator variable names plus the unevaluated body node.

Collections are represented as Python lists; ``Set`` semantics are applied
by deduplication (identity first, equality fallback) where OCL requires it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

from .errors import OclEvaluationError, OclTypeError


def _dedupe(items: Sequence[Any]) -> List[Any]:
    out: List[Any] = []
    for item in items:
        if not any(existing is item or existing == item for existing in out):
            out.append(item)
    return out


def _contains(items: Sequence[Any], value: Any) -> bool:
    return any(item is value or item == value for item in items)


def _as_number_list(items: Sequence[Any], op: str) -> List[float]:
    for item in items:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise OclTypeError(f"->{op}() needs numbers, got {item!r}")
    return list(items)


class CollectionOps:
    """Dispatcher for ``source->op(...)`` calls."""

    def __init__(self) -> None:
        self.plain: Dict[str, Callable] = {}
        self.iterating: Dict[str, Callable] = {}
        self._register_all()

    # -- plumbing ---------------------------------------------------------

    def _register_all(self) -> None:
        plain = self.plain
        plain["size"] = lambda ev, env, src, args: len(src)
        plain["isEmpty"] = lambda ev, env, src, args: len(src) == 0
        plain["notEmpty"] = lambda ev, env, src, args: len(src) > 0
        plain["first"] = lambda ev, env, src, args: src[0] if src else None
        plain["last"] = lambda ev, env, src, args: src[-1] if src else None
        plain["at"] = self._op_at
        plain["includes"] = (
            lambda ev, env, src, args: _contains(src, args[0]))
        plain["excludes"] = (
            lambda ev, env, src, args: not _contains(src, args[0]))
        plain["includesAll"] = (
            lambda ev, env, src, args:
            all(_contains(src, v) for v in args[0]))
        plain["excludesAll"] = (
            lambda ev, env, src, args:
            not any(_contains(src, v) for v in args[0]))
        plain["including"] = (
            lambda ev, env, src, args: list(src) + [args[0]])
        plain["excluding"] = (
            lambda ev, env, src, args:
            [v for v in src if v is not args[0] and v != args[0]])
        plain["count"] = (
            lambda ev, env, src, args:
            sum(1 for v in src if v is args[0] or v == args[0]))
        plain["sum"] = (
            lambda ev, env, src, args: sum(_as_number_list(src, "sum")))
        plain["max"] = (
            lambda ev, env, src, args:
            max(_as_number_list(src, "max")) if src else None)
        plain["min"] = (
            lambda ev, env, src, args:
            min(_as_number_list(src, "min")) if src else None)
        plain["avg"] = self._op_avg
        plain["asSet"] = lambda ev, env, src, args: _dedupe(src)
        plain["asSequence"] = lambda ev, env, src, args: list(src)
        plain["asBag"] = lambda ev, env, src, args: list(src)
        plain["asOrderedSet"] = lambda ev, env, src, args: _dedupe(src)
        plain["union"] = (
            lambda ev, env, src, args: _dedupe(list(src) + list(args[0])))
        plain["intersection"] = (
            lambda ev, env, src, args:
            [v for v in _dedupe(src) if _contains(args[0], v)])
        plain["symmetricDifference"] = self._op_symmetric_difference
        plain["append"] = lambda ev, env, src, args: list(src) + [args[0]]
        plain["prepend"] = lambda ev, env, src, args: [args[0]] + list(src)
        plain["flatten"] = self._op_flatten
        plain["reverse"] = lambda ev, env, src, args: list(reversed(src))
        plain["indexOf"] = self._op_index_of
        plain["subSequence"] = (
            lambda ev, env, src, args: list(src)[args[0] - 1:args[1]])

        iterating = self.iterating
        iterating["select"] = self._it_select
        iterating["reject"] = self._it_reject
        iterating["collect"] = self._it_collect
        iterating["collectNested"] = self._it_collect_nested
        iterating["forAll"] = self._it_for_all
        iterating["exists"] = self._it_exists
        iterating["one"] = self._it_one
        iterating["any"] = self._it_any
        iterating["isUnique"] = self._it_is_unique
        iterating["sortedBy"] = self._it_sorted_by
        iterating["closure"] = self._it_closure

    # -- plain op bodies that need statements ------------------------------

    @staticmethod
    def _op_at(ev, env, src, args):
        index = args[0]
        if not isinstance(index, int) or isinstance(index, bool):
            raise OclTypeError(f"->at() index must be an Integer, "
                               f"got {index!r}")
        if not 1 <= index <= len(src):
            raise OclEvaluationError(
                f"->at({index}) out of range for collection of "
                f"size {len(src)} (OCL indices are 1-based)")
        return src[index - 1]

    @staticmethod
    def _op_avg(ev, env, src, args):
        numbers = _as_number_list(src, "avg")
        return sum(numbers) / len(numbers) if numbers else None

    @staticmethod
    def _op_symmetric_difference(ev, env, src, args):
        other = args[0]
        left = [v for v in _dedupe(src) if not _contains(other, v)]
        right = [v for v in _dedupe(other) if not _contains(src, v)]
        return left + right

    @staticmethod
    def _op_flatten(ev, env, src, args):
        out: List[Any] = []
        for item in src:
            if isinstance(item, list):
                out.extend(item)
            else:
                out.append(item)
        return out

    @staticmethod
    def _op_index_of(ev, env, src, args):
        for i, item in enumerate(src):
            if item is args[0] or item == args[0]:
                return i + 1
        raise OclEvaluationError(f"->indexOf: {args[0]!r} not found")

    # -- iterator op bodies --------------------------------------------------

    @staticmethod
    def _bind(env, iterators: Sequence[str], values: Sequence[Any]):
        child = env.child()
        for name, value in zip(iterators, values):
            child.define(name, value)
        return child

    def _each(self, ev, env, src, iterators, body):
        """Yield (element, evaluated-body) pairs for single-iterator ops."""
        for item in src:
            child = self._bind(env, iterators[:1], [item])
            yield item, ev.eval(body, child)

    def _it_select(self, ev, env, src, iterators, body):
        return [item for item, value in self._each(ev, env, src, iterators,
                                                   body) if ev.truthy(value)]

    def _it_reject(self, ev, env, src, iterators, body):
        return [item for item, value in self._each(ev, env, src, iterators,
                                                   body)
                if not ev.truthy(value)]

    def _it_collect(self, ev, env, src, iterators, body):
        out: List[Any] = []
        for _item, value in self._each(ev, env, src, iterators, body):
            if isinstance(value, list):
                out.extend(value)           # collect flattens one level
            elif value is not None:
                out.append(value)
        return out

    def _it_collect_nested(self, ev, env, src, iterators, body):
        return [value for _item, value
                in self._each(ev, env, src, iterators, body)]

    def _it_for_all(self, ev, env, src, iterators, body):
        if len(iterators) > 1:
            # forAll(x, y | ...) iterates the cartesian product
            for x in src:
                for y in src:
                    child = self._bind(env, iterators[:2], [x, y])
                    if not ev.truthy(ev.eval(body, child)):
                        return False
            return True
        return all(ev.truthy(value) for _item, value
                   in self._each(ev, env, src, iterators, body))

    def _it_exists(self, ev, env, src, iterators, body):
        if len(iterators) > 1:
            for x in src:
                for y in src:
                    child = self._bind(env, iterators[:2], [x, y])
                    if ev.truthy(ev.eval(body, child)):
                        return True
            return False
        return any(ev.truthy(value) for _item, value
                   in self._each(ev, env, src, iterators, body))

    def _it_one(self, ev, env, src, iterators, body):
        count = sum(1 for _item, value
                    in self._each(ev, env, src, iterators, body)
                    if ev.truthy(value))
        return count == 1

    def _it_any(self, ev, env, src, iterators, body):
        for item, value in self._each(ev, env, src, iterators, body):
            if ev.truthy(value):
                return item
        return None

    def _it_is_unique(self, ev, env, src, iterators, body):
        seen: List[Any] = []
        for _item, value in self._each(ev, env, src, iterators, body):
            if _contains(seen, value):
                return False
            seen.append(value)
        return True

    def _it_sorted_by(self, ev, env, src, iterators, body):
        keyed = [(value, item) for item, value
                 in self._each(ev, env, src, iterators, body)]
        try:
            keyed.sort(key=lambda pair: pair[0])
        except TypeError as exc:
            raise OclTypeError(f"->sortedBy keys not comparable: {exc}")
        return [item for _value, item in keyed]

    def _it_closure(self, ev, env, src, iterators, body):
        out: List[Any] = []
        frontier = list(src)
        while frontier:
            current = frontier.pop(0)
            child = self._bind(env, iterators[:1], [current])
            step = ev.eval(body, child)
            neighbours = step if isinstance(step, list) else (
                [] if step is None else [step])
            for neighbour in neighbours:
                if not _contains(out, neighbour):
                    out.append(neighbour)
                    frontier.append(neighbour)
        return out

    # -- dispatch ----------------------------------------------------------

    def run(self, ev, env, name: str, source: Any,
            args: Sequence[Any], iterators: Sequence[str],
            body) -> Any:
        if source is None:
            source = []
        if not isinstance(source, list):
            source = [source]     # OCL: arrow ops on a scalar wrap it
        if body is not None:
            op = self.iterating.get(name)
            if op is None:
                raise OclEvaluationError(f"unknown iterator operation "
                                         f"->{name}()")
            return op(ev, env, source, iterators, body)
        op = self.plain.get(name)
        if op is None:
            raise OclEvaluationError(f"unknown collection operation "
                                     f"->{name}()")
        return op(ev, env, source, list(args))


COLLECTION_OPS = CollectionOps()
