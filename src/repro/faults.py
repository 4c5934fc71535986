"""``repro.faults`` — deterministic seeded fault injection.

Robustness claims need an adversary.  This module supplies one: a
:class:`FaultPlan` armed process-wide decides, per *probe point*, whether
the instrumented operation raises :class:`InjectedFault` before doing its
work.  Probe points sit at the layer boundaries the transaction and
recovery machinery protects:

``kernel.write``
    every high-level model mutation (attribute/reference set, collection
    insert/remove/move), fired *before* the mutation applies;
``transform.rule``
    each rule application in the transformation engine's create phase
    (and each bind), the "rule that throws halfway" scenario;
``checker.run``
    each (check, element) unit executed by the incremental engine — the
    "checker that crashes mid-watch" scenario;
``io.write`` / ``io.write.partial`` / ``io.replace``
    the staged file-IO protocol in :mod:`repro.xmi.persist`;
    ``io.write.partial`` fires after half the payload is on disk, so an
    armed plan leaves a torn temp file behind — exactly the crash an
    atomic save must survive;
``wal.append``
    each write-ahead-log append in :mod:`repro.server.durability`,
    fired before the record's bytes reach the file — the append fails,
    the edit transaction rolls back, and the log must be truncated to
    its pre-append length so disk and memory agree;
``wal.replay``
    each recovered transaction re-applied during server-start WAL
    recovery — a failed recovery must be retryable and idempotent;
``net.read`` / ``net.write``
    each socket receive/send on the server side of the TCP transport
    (:mod:`repro.server.transport`) — the connection dies, the server
    keeps serving, and a retrying client converges anyway.

Determinism: a plan is seeded, and every decision consumes the plan's
own RNG in probe-firing order, so the same (seed, workload) always
injects the same faults — chaos runs replay exactly.  With no plan
armed, a probe costs one module-attribute load and a falsy test, the
same budget as the kernel's read/write hooks.

This module deliberately imports nothing from the rest of ``repro`` so
any layer (including the MOF kernel) can probe it without cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class InjectedFault(RuntimeError):
    """The exception a firing probe raises.  Deliberately *not* a
    :class:`~repro.mof.errors.MofError`: fault handling code must treat
    it like any foreign exception escaping a layer."""

    def __init__(self, site: str, ordinal: int):
        self.site = site
        self.ordinal = ordinal
        super().__init__(f"injected fault #{ordinal} at probe {site!r}")


class FaultPlan:
    """A seeded schedule of failures over the probe sites.

    Parameters
    ----------
    seed:
        Seeds the plan's private RNG; identical seeds replay identical
        fault schedules for identical probe-firing sequences.
    rate:
        Probability in ``[0, 1]`` that an armed probe firing raises.
    sites:
        Site prefixes the plan arms (``None`` = every site).  A probe
        matches when its name equals a prefix or extends it past a dot,
        so ``"io"`` arms ``io.write`` and ``io.replace`` but not a
        hypothetical ``iostats``.
    at:
        Explicit firing ordinals (1-based, per site) that must fail, as
        ``{site: [n, ...]}`` — deterministic point faults for regression
        tests, applied on top of *rate*.
    max_faults:
        Stop injecting after this many faults (``None`` = unbounded).
    """

    def __init__(self, seed: int = 0, rate: float = 0.0, *,
                 sites: Optional[Sequence[str]] = None,
                 at: Optional[Dict[str, Sequence[int]]] = None,
                 max_faults: Optional[int] = None):
        import random
        self.seed = seed
        self.rate = rate
        self.sites = tuple(sites) if sites is not None else None
        self.at = {site: set(ordinals)
                   for site, ordinals in (at or {}).items()}
        self.max_faults = max_faults
        self._rng = random.Random(seed)
        self.firings: Dict[str, int] = {}
        self.injected: List[Tuple[str, int]] = []

    # -- bookkeeping -------------------------------------------------------

    @property
    def fault_count(self) -> int:
        return len(self.injected)

    def armed(self, site: str) -> bool:
        if self.sites is None:
            return True
        return any(site == prefix or site.startswith(prefix + ".")
                   for prefix in self.sites)

    def should_fail(self, site: str) -> bool:
        """Count the firing; decide (deterministically) whether to raise."""
        ordinal = self.firings.get(site, 0) + 1
        self.firings[site] = ordinal
        if not self.armed(site):
            return False
        if self.max_faults is not None \
                and len(self.injected) >= self.max_faults:
            return False
        scheduled = ordinal in self.at.get(site, ())
        if not scheduled and self.rate > 0.0:
            scheduled = self._rng.random() < self.rate
        if scheduled:
            self.injected.append((site, ordinal))
        return scheduled

    def __repr__(self) -> str:
        return (f"<FaultPlan seed={self.seed} rate={self.rate} "
                f"sites={self.sites} injected={len(self.injected)}>")


#: The armed plan, or None.  Probe call sites read this module attribute
#: directly (``if faults.ACTIVE is not None: faults.probe(site)``) so the
#: disarmed fast path costs one load and a falsy test.
ACTIVE: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Arm *plan* process-wide; return the previously armed plan."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = plan
    return previous


def uninstall() -> None:
    """Disarm fault injection."""
    install(None)


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm *plan* for the duration of the block, restoring the previous
    plan (usually None) afterwards."""
    previous = install(plan)
    try:
        yield plan
    finally:
        install(previous)


def probe(site: str) -> None:
    """Fire the probe at *site*: raise :class:`InjectedFault` when the
    armed plan schedules a failure here, else return immediately."""
    plan = ACTIVE
    if plan is not None and plan.should_fail(site):
        raise InjectedFault(site, plan.fault_count)
