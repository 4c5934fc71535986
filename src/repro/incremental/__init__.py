"""``repro.incremental`` — change-driven incremental revalidation.

The engine subscribes to :mod:`repro.mof.notify` change notifications,
records what each check actually reads (through the kernel read hook),
and on every edit re-runs only the affected (check, element) pairs; see
:mod:`repro.incremental.engine` for the full story.

Public surface:

* :class:`IncrementalEngine` — the engine, built and primed by
  :meth:`repro.session.Session.watch`;
* :class:`DependencyGraph` / :func:`collect_reads` — the read-tracking
  substrate, reusable by other caching layers;
* :func:`diagnostic_key` / :func:`report_signature` — order-insensitive
  report comparison, the oracle interface of the property suite.
"""

from .engine import (
    EngineStats,
    IncrementalEngine,
    QuarantineEntry,
    diagnostic_key,
    report_signature,
)
from .tracking import (CONTAINER_KEY, EXTENT_KEY, DependencyGraph, ReadKey,
                       collect_reads)

__all__ = [
    "CONTAINER_KEY",
    "DependencyGraph",
    "EXTENT_KEY",
    "EngineStats",
    "IncrementalEngine",
    "QuarantineEntry",
    "ReadKey",
    "collect_reads",
    "diagnostic_key",
    "report_signature",
]
