"""Workload generators shared by the experiment benchmarks.

Deterministic (seeded) synthetic model populations standing in for the
proprietary industrial models of the paper's setting — same code paths,
reproducible sizes.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import Callable, List, NamedTuple, Tuple

from repro.profiles import Task
from repro.uml import Clazz, ModelFactory, StateMachine
from repro.validation import Collaboration

#: ``REPRO_BENCH_QUICK=1`` (the CI smoke) runs every experiment at reduced
#: sizes and round counts.
QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: the families E14 and E15 time their views over: every default family
#: but the cross-diagram consistency rules
VIEW_FAMILIES = ("structural", "invariant", "wellformed", "lint")


class Spread(NamedTuple):
    """The median of one side's timed rounds with its quartiles, in
    milliseconds; prints as ``median [Q1, Q3]``."""

    median: float
    q1: float
    q3: float

    @classmethod
    def of(cls, seconds: List[float]) -> "Spread":
        q1, _, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
        return cls(statistics.median(seconds) * 1e3, q1 * 1e3, q3 * 1e3)

    def __str__(self) -> str:
        return f"{self.median:.3f} [{self.q1:.3f}, {self.q3:.3f}]"


def paired_medians(a: Callable[[], object], b: Callable[[], object],
                   rounds: int) -> Tuple[Spread, Spread]:
    """The :class:`Spread` of *rounds* timed calls of *a* and of *b*.

    The two are interleaved, and which goes first alternates each round,
    so a slow phase of the host or a cache effect hits both sides
    instead of deciding a ratio gate.  Each side runs once untimed
    first, to warm both paths.  Gates compare the medians."""
    a()
    b()
    a_times: List[float] = []
    b_times: List[float] = []
    for index in range(rounds):
        order = [(a, a_times), (b, b_times)]
        if index % 2:
            order.reverse()
        for fn, bucket in order:
            started = time.perf_counter()
            fn()
            bucket.append(time.perf_counter() - started)
    return Spread.of(a_times), Spread.of(b_times)


def make_oo_design(n_classes: int, seed: int = 7) -> ModelFactory:
    """A plausibly modular OO design: small clusters, shallow taxonomy,
    a few operations per class sharing attributes."""
    rng = random.Random(seed)
    factory = ModelFactory(f"oo_{n_classes}")
    classes: List[Clazz] = []
    for index in range(n_classes):
        cls = factory.clazz(f"C{index}",
                            attrs={f"a{index}_0": "Integer",
                                   f"a{index}_1": "String"})
        for op_index in range(rng.randint(2, 4)):
            factory.operation(cls, f"op{op_index}",
                              body=f"a{index}_0 := a{index}_0 + 1")
        classes.append(cls)
    # shallow inheritance: ~20% of classes specialise an earlier one
    for cls in classes[1:]:
        if rng.random() < 0.2:
            cls.add_super(rng.choice(classes[:classes.index(cls)]))
    # sparse coupling: each class knows ~2 collaborators
    for cls in classes:
        for _ in range(2):
            other = rng.choice(classes)
            if other is not cls and not cls.attribute(
                    f"to_{other.name.lower()}"):
                factory.associate(cls, other,
                                  end_b=f"to_{other.name.lower()}")
    return factory


def make_functional_design(n_classes: int, seed: int = 7) -> ModelFactory:
    """The use-case-driven anti-design of the paper's §1: single-function
    classes in one deep inheritance chain, near-total coupling."""
    rng = random.Random(seed)
    factory = ModelFactory(f"functional_{n_classes}")
    classes: List[Clazz] = []
    previous = None
    for index in range(n_classes):
        supers = [previous] if previous is not None else []
        cls = factory.clazz(f"Step{index}", supers=supers)
        factory.operation(cls, "execute")
        classes.append(cls)
        previous = cls
    for cls in classes:
        for other in classes:
            if cls is not other:
                factory.associate(cls, other,
                                  end_b=f"to_{other.name.lower()}")
    return factory


def make_sized_pim(n_classes: int, *, machines_every: int = 4,
                   seed: int = 11) -> ModelFactory:
    """A PIM with *n_classes* classes, associations, and a state machine
    on every ``machines_every``-th class — the transformation-engine and
    serialization workload."""
    rng = random.Random(seed)
    factory = ModelFactory(f"pim_{n_classes}")
    classes: List[Clazz] = []
    for index in range(n_classes):
        cls = factory.clazz(
            f"Block{index}",
            attrs={"level": "Integer", "label": "String",
                   "rate": "Real"},
            is_active=(index % 3 == 0))
        factory.operation(cls, "poll", body="level := level + 1")
        classes.append(cls)
        if index % machines_every == 0:
            machine = StateMachine(name=f"Block{index}SM")
            cls.owned_behaviors.append(machine)
            cls.classifier_behavior = machine
            region = machine.main_region()
            initial = region.add_initial()
            idle = region.add_state("Idle")
            busy = region.add_state("Busy")
            region.add_transition(initial, idle)
            region.add_transition(idle, busy, trigger="work",
                                  effect="level := level + 1")
            region.add_transition(busy, idle, trigger="done")
    for index, cls in enumerate(classes[:-1]):
        factory.associate(cls, classes[index + 1],
                          end_b=f"next{index}")
    return factory


def make_interacting_pim(n_classes: int, *, interactions_every: int = 8,
                         seed: int = 11) -> ModelFactory:
    """:func:`make_sized_pim` plus interactions: every
    ``interactions_every``-th pair of chain-associated classes gets a
    scenario whose messages resolve to real operations and reachable
    triggers — the cross-diagram consistency workload, clean by
    construction."""
    from repro.uml.interactions import Interaction

    factory = make_sized_pim(n_classes, seed=seed)
    # exact Clazz: behaviours (state machines) subclass Clazz in UML
    classes = [cls for cls in factory.model.all_contents()
               if type(cls) is Clazz]
    for index in range(0, len(classes) - 1, interactions_every):
        caller, callee = classes[index], classes[index + 1]
        scenario = Interaction(name=f"scenario{index}")
        factory.model.add(scenario)
        lc = scenario.add_lifeline("caller", caller)
        le = scenario.add_lifeline("callee", callee)
        scenario.add_message(lc, le, "poll")
        if callee.classifier_behavior is not None:
            scenario.add_message(lc, le, "work")
            scenario.add_message(lc, le, "done")
    return factory


def make_task_set(n_tasks: int, utilization: float,
                  seed: int = 3) -> List[Task]:
    """A task set with the requested total utilisation (UUniFast-ish)."""
    rng = random.Random(seed)
    remaining = utilization
    shares: List[float] = []
    for index in range(n_tasks - 1):
        next_remaining = remaining * rng.random() ** (
            1.0 / (n_tasks - index - 1))
        shares.append(remaining - next_remaining)
        remaining = next_remaining
    shares.append(remaining)
    tasks = []
    for index, share in enumerate(shares):
        period = rng.choice([5, 10, 20, 50, 100, 200])
        tasks.append(Task(f"t{index}", period_ms=float(period),
                          wcet_ms=max(share * period, 1e-6)))
    return tasks


def make_token_ring(k: int) -> Tuple[ModelFactory, Collaboration]:
    """k machines passing a token around a ring — the model-checking
    scaling workload (state space grows with k and interleavings)."""
    factory = ModelFactory(f"ring_{k}")
    node = factory.clazz("Node", attrs={"seen": "Integer"},
                         is_active=True)
    factory.associate(node, node, end_b="next", end_a="prev")
    machine = StateMachine(name="NodeSM")
    node.owned_behaviors.append(machine)
    node.classifier_behavior = machine
    region = machine.main_region()
    initial = region.add_initial()
    idle = region.add_state("Idle")
    holding = region.add_state("Holding")
    region.add_transition(initial, idle)
    region.add_transition(idle, holding, trigger="token",
                          guard="seen < 2",
                          effect="seen := seen + 1")
    region.add_transition(holding, idle, trigger="pass_on",
                          effect="send next.token()")
    region.add_transition(idle, idle, trigger="token",
                          guard="seen >= 2", kind="internal")

    collab = Collaboration(f"ring{k}")
    names = [f"n{i}" for i in range(k)]
    for name in names:
        collab.create_object(name, node)
    for index, name in enumerate(names):
        collab.link(name, "next", names[(index + 1) % k])
    return factory, collab


def ring_stimuli(k: int) -> List[Tuple[str, str]]:
    """Initial token injection plus pass commands for every node."""
    stimuli = [("n0", "token")]
    for index in range(k):
        stimuli.append((f"n{index}", "pass_on"))
    return stimuli
