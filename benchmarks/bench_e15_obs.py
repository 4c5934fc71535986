"""E15 — observability must be nearly free when disabled.

Claim: an instrumentation layer the team is afraid to ship is worthless.
Every instrumented call site in the toolchain gates on one module-level
flag, so with tracing off the public entry points must stay within 5%
of their uninstrumented ``_impl`` bodies; with tracing on, one pipeline
pass must yield spans and metric families covering every engine layer.

Measured: paired interleaved samples of the gated public wrappers
against their ``_impl`` bodies on the E14 workload (disabled overhead),
then a fully traced validate → transform → generate → edit pass counting
the span names and metric families recorded (instrumentation coverage).

Set ``REPRO_BENCH_QUICK=1`` (CI smoke) to run a reduced size/round count.
"""

import random

from repro import obs
from repro.incremental import IncrementalEngine
from repro.session import Session
from workloads import QUICK, VIEW_FAMILIES, make_sized_pim, paired_medians

N_CLASSES = 40 if QUICK else 200
N_ROUNDS = 30 if QUICK else 100
N_EDITS = 6 if QUICK else 16
MAX_OVERHEAD = 1.05          # public gated path <= 105% of _impl path
EPSILON_MS = 0.05            # absolute slack for sub-millisecond medians


def test_e15_disabled_overhead_under_5_percent():
    assert not obs.is_enabled()
    root = make_sized_pim(N_CLASSES).model
    engine = IncrementalEngine(Session(root), VIEW_FAMILIES)
    engine.revalidate()
    rng = random.Random(15)
    editable = [element for element in [root] + list(root.all_contents())
                if element.meta.find_feature("name") is not None
                and not element.meta.feature("name").many
                and isinstance(element.eget("name"), str)]
    rng.shuffle(editable)
    editable = editable[:N_EDITS]

    def edit_then(revalidate):
        for element in editable:
            element.eset("name", element.eget("name") + "~")
        revalidate()
        for element in editable:
            element.eset("name", element.eget("name")[:-1])
        revalidate()

    rows = []
    try:
        public, impl = paired_medians(
            lambda: edit_then(engine.revalidate),
            lambda: edit_then(engine._revalidate_impl),
            N_ROUNDS)
        rows.append(("incremental.revalidate", public, impl))
    finally:
        engine.detach()

    from repro.codegen import lower_model
    from repro.codegen.lower import _lower_model_impl
    public, impl = paired_medians(
        lambda: lower_model(root),
        lambda: _lower_model_impl(root, None),
        max(10, N_ROUNDS // 2))
    rows.append(("codegen.lower_model", public, impl))

    print("\nE15: disabled-path overhead (public gated vs _impl), "
          "ms median [Q1, Q3]; the gate compares medians")
    print(f"{'entry point':<24} {'public':>25} {'impl':>25} {'ratio':>7}")
    for name, public, impl in rows:
        public_ms, impl_ms = public.median, impl.median
        ratio = public_ms / impl_ms if impl_ms else 1.0
        print(f"{name:<24} {str(public):>25} {str(impl):>25} "
              f"{ratio:>6.3f}x")
        assert public_ms <= impl_ms * MAX_OVERHEAD + EPSILON_MS, (
            f"{name}: disabled overhead {ratio:.3f}x exceeds "
            f"{MAX_OVERHEAD}x (+{EPSILON_MS}ms slack)")


EXPECTED_SPANS = {
    "session.check", "session.check.structural", "session.check.invariant",
    "session.check.wellformed", "session.check.lint",
    "session.check.constraint", "ocl.invariant",
    "transform.run", "transform.create", "transform.bind",
    "codegen.lower", "codegen.print", "incremental.revalidate",
    "analysis.lint",
}

EXPECTED_METRIC_FAMILIES = {
    "mof.reads", "mof.mutations", "mof.notifications",
    "ocl.invariant.evals", "ocl.invariant.seconds",
    "transform.runs", "transform.elements.visited",
    "transform.rule.applies", "transform.rule.match.seconds",
    "transform.rule.apply.seconds",
    "codegen.lower.structs", "codegen.lower.functions",
    "codegen.print.files", "codegen.print.lines",
    "incremental.revalidations", "incremental.units.rerun",
    "incremental.units.cached",
    "analysis.lint.elements", "analysis.lint.findings",
    "session.checks", "session.diagnostics",
}


def test_e15_enabled_instrumentation_covers_every_layer():
    from repro.codegen import generate_c, lower_model
    from repro.ocl import ConstraintSet
    from repro.platforms import make_pim_to_psm, posix_platform
    from repro.uml import Clazz, StateMachine

    constraints = ConstraintSet("e15")
    constraints.add(Clazz, "named", "name <> ''")

    root = make_sized_pim(20 if QUICK else 60).model
    # seed one defect so the per-finding counters have something to count
    defect = Clazz(name="E15Defect")
    machine = StateMachine(name="sm")
    defect.owned_behaviors.append(machine)
    region = machine.main_region()
    alive = region.add_state("Alive")
    region.add_transition(region.add_initial(), alive)
    region.add_state("Limbo")                 # unreachable -> SM001
    root.add(defect)
    obs.REGISTRY.reset()
    sink = obs.MemorySink()
    obs.enable(sink)
    try:
        session = Session(root, constraint_sets=[constraints])
        session.check()

        platform = posix_platform()
        result = make_pim_to_psm(platform).run(root, platform=platform)
        psm = result.target_model(uri="urn:e15.psm")
        for psm_root in psm.roots:
            generate_c(lower_model(psm_root))

        engine = session.watch()
        try:
            element = next(iter(root.all_contents()))
            element.eset("name", (element.eget("name") or "") + "~")
            engine.revalidate()
        finally:
            engine.detach()
    finally:
        obs.disable()
        obs.remove_sink(sink)

    def walk(span):
        yield span.name
        for child in span.children:
            yield from walk(child)

    span_names = {name for root in sink.roots for name in walk(root)}
    families = set(obs.REGISTRY.families())

    missing_spans = EXPECTED_SPANS - span_names
    missing_metrics = EXPECTED_METRIC_FAMILIES - families
    print(f"\nE15: instrumentation coverage — {sink.span_count} spans "
          f"({len(span_names)} distinct names), "
          f"{len(families)} metric families")
    print("  spans  : " + ", ".join(sorted(span_names)))
    print("  metrics: " + ", ".join(sorted(families)))
    obs.REGISTRY.reset()
    assert not missing_spans, f"span names never recorded: {missing_spans}"
    assert not missing_metrics, \
        f"metric families never populated: {missing_metrics}"
