"""``repro.parallel`` — multi-core sharded full-pass checking.

A full :meth:`repro.session.Session.check` walks every element several
times (structural features, registered invariants, detached constraint
sets).  Those walks are embarrassingly parallel over the element list —
but diagnostics must come back *in the sequential report order*, and
the notification/transaction/index protocols are process-local state
that must never be touched from another process.

So the sharding protocol is:

* the parent flattens the check into **partitions**: the per-root
  preorder element list, cut into one contiguous slice per worker, plus
  (for the ``constraint`` family) the per-invariant candidate lists,
  each cut the same way;
* workers are ``fork()`` children (:func:`multiprocessing.get_context`
  with the ``fork`` start method), so they inherit the live object
  graph read-only and nothing is ever pickled *into* a worker — on
  platforms without ``fork`` the caller falls back to the sequential
  path;
* each worker checks only its slices and sends back plain-data
  **diagnostic records** (:func:`diagnostic_to_record`) over its own
  pipe, then ``os._exit``\\ s without running any teardown;
* the parent concatenates the records slice-by-slice in worker order —
  contiguous slices make that exactly the sequential order — and
  rebuilds :class:`~repro.mof.validate.Diagnostic` values
  (:func:`record_to_diagnostic`) whose ``str``/``render``/JSON forms
  are byte-identical to the sequential run's;
* a worker that dies without reporting (the ``parallel.worker`` chaos
  site, an OOM kill, a crash) degrades, not fails: the parent re-checks
  that worker's partition in-process and emits a
  :class:`RuntimeWarning`.

Because workers only ever *read* the model, the parent's model is
untouched afterwards: columns, extent index, incremental engines and
transactions all keep their state, and parallel runs compose with the
incremental engine exactly like any other full pass.
"""

from __future__ import annotations

import os
import warnings
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import faults as _faults
from .mof.kernel import Element
from .mof.validate import (
    Diagnostic,
    Severity,
    ValidationReport,
    _check_invariants,
    validate_element,
)
from .obs import metrics as _metrics
from .obs import trace as _trace
from .ocl.errors import OclError

#: The Session families this module can shard.  The remaining families
#: (``wellformed``, ``lint``, ``consistency``) run whole-model passes
#: with cross-element state and stay in the parent.
SHARDABLE_FAMILIES: Tuple[str, ...] = ("structural", "invariant",
                                       "constraint")


def available_workers() -> int:
    """How many workers this process can actually run concurrently
    (the scheduler affinity mask when available, else the CPU count)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):                 # pragma: no cover
        return os.cpu_count() or 1


def _fork_context() -> Optional[Any]:
    """The ``fork`` multiprocessing context, or ``None`` where the
    platform cannot fork (then callers run sequentially)."""
    import multiprocessing
    try:
        return multiprocessing.get_context("fork")
    except ValueError:                                # pragma: no cover
        return None


# ---------------------------------------------------------------------------
# Diagnostic records: the wire form of a Diagnostic
#
# Workers cannot send Diagnostic objects — element references don't
# survive pickling (and must not: the parent's graph is the only live
# one).  A record carries every piece of a diagnostic's *rendered*
# identity instead; the rebuilt Diagnostic holds lightweight proxies
# whose repr()/name reproduce the original strings exactly.
# ---------------------------------------------------------------------------

class _ReprToken:
    """Stands in for a remote element: ``repr()`` replays the original."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return self.text


class _FeatureToken:
    """Stands in for a remote feature: only ``.name`` is ever rendered."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:                        # pragma: no cover
        return f"<feature {self.name}>"


def diagnostic_to_record(diagnostic: Diagnostic) -> Dict[str, Any]:
    """The plain-data form of *diagnostic* a worker ships to the parent."""
    record: Dict[str, Any] = {
        "severity": diagnostic.severity.value,
        "code": diagnostic.code,
        "message": diagnostic.message,
        "path": diagnostic.path,
        "hint": diagnostic.hint,
        "element": repr(diagnostic.element),
    }
    if diagnostic.feature is not None:
        record["feature"] = diagnostic.feature.name
    if diagnostic.related is not None:
        record["related"] = repr(diagnostic.related)
        record["related_path"] = diagnostic.related_path
    return record


def record_to_diagnostic(record: Dict[str, Any]) -> Diagnostic:
    """Rebuild a :class:`Diagnostic` whose ``str()``, ``render()`` and
    JSON serialization are byte-identical to the worker-side original."""
    related = record.get("related")
    feature = record.get("feature")
    return Diagnostic(
        severity=Severity(record["severity"]),
        element=_ReprToken(record["element"]),
        message=record["message"],
        feature=_FeatureToken(feature) if feature is not None else None,
        code=record["code"],
        path=record["path"],
        hint=record["hint"],
        related=_ReprToken(related) if related is not None else None,
        related_path=record.get("related_path", ""),
    )


# ---------------------------------------------------------------------------
# Partitioning and the per-partition work function
# ---------------------------------------------------------------------------

#: One constraint-family unit: an invariant plus its full candidate
#: list, in the exact order ``ConstraintSet.evaluate`` would iterate.
ConstraintGroup = Tuple[Any, List[Element]]


def _slice_bounds(total: int, workers: int) -> List[Tuple[int, int]]:
    """*workers* contiguous ``(start, stop)`` ranges covering ``total``
    items, sizes differing by at most one."""
    base, extra = divmod(total, workers)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for index in range(workers):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _constraint_records(invariant: Any,
                        candidates: Sequence[Element]) -> List[Dict[str, Any]]:
    # mirrors the diagnostic construction in ConstraintSet.evaluate —
    # OclError becomes an invariant-error record, any other exception
    # propagates (crashing the worker, which the parent degrades from,
    # re-raising on the in-process re-check)
    report = ValidationReport()
    for element in candidates:
        try:
            ok = invariant.holds(element)
        except OclError as exc:
            report.add(Severity.ERROR, element,
                       f"invariant '{invariant.name}' raised: {exc}",
                       code="invariant-error")
            continue
        if not ok:
            report.add(invariant.severity, element,
                       f"invariant '{invariant.name}' violated"
                       + (f": {invariant.message}"
                          if invariant.message else ""),
                       code="invariant")
    return [diagnostic_to_record(d) for d in report.diagnostics]


def _check_partition(families: Sequence[str], elements: Sequence[Element],
                     groups: Sequence[Tuple[Any, Sequence[Element]]]
                     ) -> Dict[str, Any]:
    """Check one partition; runs inside a worker, or in the parent when
    degrading.  *groups* carries each constraint group already reduced
    to this partition's candidate slice.  The internal ``tree`` family
    is ``validate_tree``'s per-element interleaving of structure and
    invariants (used by :func:`parallel_validate_tree`)."""
    out: Dict[str, Any] = {}
    if "structural" in families:
        records: List[Dict[str, Any]] = []
        for element in elements:
            records.extend(
                diagnostic_to_record(d) for d in
                validate_element(element, check_invariants=False)
                .diagnostics)
        out["structural"] = records
    if "invariant" in families:
        report = ValidationReport()
        for element in elements:
            _check_invariants(element, report)
        out["invariant"] = [diagnostic_to_record(d)
                            for d in report.diagnostics]
    if "tree" in families:
        records = []
        for element in elements:
            records.extend(
                diagnostic_to_record(d) for d in
                validate_element(element, check_invariants=True)
                .diagnostics)
        out["tree"] = records
    if "constraint" in families:
        out["constraint"] = [_constraint_records(invariant, candidates)
                             for invariant, candidates in groups]
    return out


# ---------------------------------------------------------------------------
# The fan-out
# ---------------------------------------------------------------------------

def _fan_out(roots: Sequence[Element], families: Sequence[str],
             constraint_groups: Sequence[ConstraintGroup],
             workers: int) -> Optional[Dict[str, List[Diagnostic]]]:
    from .mof import kernel as _kernel
    if _kernel._TRACKING:
        # dependency tracking must observe every per-element read in
        # this process; a forked worker's reads are invisible to it
        return None
    elements: List[Element] = []
    for root in roots:
        elements.append(root)
        elements.extend(root.all_contents())
    workers = min(int(workers), len(elements) or 1)
    if workers <= 1:
        return None
    ctx = _fork_context()
    if ctx is None:                                   # pragma: no cover
        return None

    element_bounds = _slice_bounds(len(elements), workers)
    group_bounds = [_slice_bounds(len(candidates), workers)
                    for _, candidates in constraint_groups]

    def partition(index: int) -> Tuple[List[Element],
                                       List[Tuple[Any, Sequence[Element]]]]:
        start, stop = element_bounds[index]
        sliced_groups = [
            (invariant, candidates[bounds[index][0]:bounds[index][1]])
            for (invariant, candidates), bounds
            in zip(constraint_groups, group_bounds)]
        return elements[start:stop], sliced_groups

    def worker_body(sender: Any, index: int, doomed: bool) -> None:
        # forked child: inherits the graph; must never run the parent's
        # atexit/teardown machinery, hence os._exit on every path.  Its
        # spans would die with it, and finishing one writes to a sink
        # (file buffer, lock) shared with the parent: tracing goes off
        _trace.ON = False
        status = 1
        try:
            if doomed:
                return            # die unreported: parent degrades
            part_elements, part_groups = partition(index)
            sender.send(
                _check_partition(families, part_elements, part_groups))
            sender.close()
            status = 0
        finally:
            os._exit(status)

    procs: List[Tuple[Any, Any]] = []
    span = (_trace.span("parallel.check", workers=str(workers),
                        families=",".join(families))
            if _trace.ON else _trace.NULL_SPAN)
    with span:
        for index in range(workers):
            # the chaos site fires in the parent so ordinals stay
            # deterministic (one firing per worker launch, in launch
            # order); a scheduled fault dooms that worker to die
            # unreported, exercising the degradation path below
            doomed = False
            if _faults.ACTIVE is not None:
                try:
                    _faults.probe("parallel.worker")
                except _faults.InjectedFault:
                    doomed = True
            receiver, sender = ctx.Pipe(duplex=False)
            process = ctx.Process(target=worker_body,
                                  args=(sender, index, doomed),
                                  daemon=True)
            process.start()
            sender.close()
            procs.append((process, receiver))

        merged: List[Dict[str, Any]] = []
        degraded = 0
        for index, (process, receiver) in enumerate(procs):
            try:
                payload = receiver.recv()
            except EOFError:
                payload = None
            receiver.close()
            process.join()
            if payload is None:
                degraded += 1
                warnings.warn(
                    f"parallel check worker {index} exited without "
                    f"reporting; re-checking its partition "
                    f"single-process", RuntimeWarning, stacklevel=3)
                part_elements, part_groups = partition(index)
                payload = _check_partition(families, part_elements,
                                           part_groups)
            merged.append(payload)

    if _trace.ON:
        _metrics.REGISTRY.counter(
            "parallel.checks", help="sharded full-pass check runs",
            workers=str(workers)).inc()
        if degraded:
            _metrics.REGISTRY.counter(
                "parallel.worker_degraded",
                help="dead workers degraded to in-process re-checks"
            ).inc(degraded)

    out: Dict[str, List[Diagnostic]] = {}
    for family in families:
        if family == "constraint":
            records = [record
                       for group_index in range(len(constraint_groups))
                       for payload in merged
                       for record in payload["constraint"][group_index]]
        else:
            records = [record for payload in merged
                       for record in payload[family]]
        out[family] = [record_to_diagnostic(r) for r in records]
    return out


def parallel_check(roots: Sequence[Element], families: Sequence[str],
                   constraint_groups: Sequence[ConstraintGroup] = (), *,
                   workers: int) -> Optional[Dict[str, List[Diagnostic]]]:
    """Run the shardable *families* over *roots* with *workers* forked
    processes; return ``{family: diagnostics}`` in sequential report
    order — or ``None`` when sharding isn't possible here (one worker,
    a fork-less platform, a near-empty model) and the caller should use
    the sequential path.

    Dead workers degrade: their partitions are re-checked in-process
    and a :class:`RuntimeWarning` is emitted.
    """
    families = [f for f in families if f in SHARDABLE_FAMILIES]
    if not families:
        return {}
    return _fan_out(roots, families, constraint_groups, workers)


def parallel_validate_tree(root: Element, *,
                           workers: int) -> Optional[ValidationReport]:
    """A sharded ``validate_tree(root)`` — per-element interleaving of
    structural checks and invariants preserved — for the quality
    report's structural section; ``None`` when sharding isn't possible
    and the caller should validate sequentially."""
    shards = _fan_out([root], ("tree",), (), workers)
    if shards is None:
        return None
    return ValidationReport(diagnostics=shards["tree"])
