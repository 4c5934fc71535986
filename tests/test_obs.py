"""Tests for the observability layer: spans, sinks, metrics, probes."""

import contextlib
import io
import json
import threading

import pytest

from repro import obs
from repro.obs import trace as trace_mod


@pytest.fixture
def tracing():
    """Enable tracing with a fresh MemorySink; guarantee teardown."""
    sink = obs.MemorySink()
    obs.enable(sink)
    try:
        yield sink
    finally:
        obs.disable()
        obs.remove_sink(sink)
        obs.REGISTRY.reset()


@pytest.fixture
def registry():
    obs.REGISTRY.reset()
    try:
        yield obs.REGISTRY
    finally:
        obs.REGISTRY.reset()


class TestSpans:
    def test_disabled_span_is_shared_null(self):
        assert not trace_mod.ON
        assert obs.span("anything", x=1) is obs.NULL_SPAN
        with obs.span("anything") as sp:
            assert sp.duration == 0.0
            sp.tag(extra=2)          # no-op, no error

    def test_nesting_builds_a_tree(self, tracing):
        with obs.span("root", kind="demo"):
            with obs.span("child-a"):
                with obs.span("leaf"):
                    pass
            with obs.span("child-b"):
                pass
        assert tracing.span_count == 4
        assert len(tracing.roots) == 1
        root = tracing.roots[0]
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert [c.name for c in root.children[0].children] == ["leaf"]
        assert root.children[0].parent_id == root.span_id
        assert root.duration >= sum(c.duration for c in root.children)
        assert root.self_time >= 0.0

    def test_tags_and_late_tagging(self, tracing):
        with obs.span("op", static="yes") as sp:
            sp.tag(result=42)
        assert tracing.roots[0].tags == {"static": "yes", "result": 42}

    def test_thread_local_stacks(self, tracing):
        done = threading.Event()

        def worker():
            with obs.span("worker-span"):
                done.wait(1)

        with obs.span("main-span"):
            thread = threading.Thread(target=worker, name="w0")
            thread.start()
            done.set()
            thread.join()
        names = {s.name for s in tracing.roots}
        # the worker's span is a root of its own thread, not a child of
        # the main thread's open span
        assert names == {"main-span", "worker-span"}
        main = next(s for s in tracing.roots if s.name == "main-span")
        assert main.children == []

    def test_traced_decorator(self, tracing):
        @obs.traced()
        def slow_helper():
            return 7

        @obs.traced("custom.name", layer="test")
        def other():
            return 8

        assert slow_helper() == 7 and other() == 8
        names = [s.name for s in tracing.roots]
        assert names == ["test_obs.slow_helper", "custom.name"]
        assert tracing.roots[1].tags == {"layer": "test"}

    def test_traced_decorator_passthrough_when_off(self):
        @obs.traced()
        def f(x):
            return x * 2

        assert f(3) == 6

    def test_jsonl_sink(self, registry):
        buffer = io.StringIO()
        sink = obs.JsonlSink(buffer)
        obs.enable(sink)
        try:
            with obs.span("outer", model="m"):
                with obs.span("inner"):
                    pass
        finally:
            obs.disable()
            obs.remove_sink(sink)
            sink.close()
        lines = [json.loads(line) for line in
                 buffer.getvalue().strip().splitlines()]
        assert [rec["name"] for rec in lines] == ["inner", "outer"]
        inner, outer = lines
        assert inner["parent"] == outer["id"]
        assert inner["depth"] == 1 and outer["depth"] == 0
        assert outer["tags"] == {"model": "m"}
        assert inner["ms"] >= 0.0 and inner["thread"]

    def test_render_tree_and_top_table(self, tracing):
        with obs.span("pipeline"):
            with obs.span("stage", n=1):
                pass
        text = obs.render_tree(tracing.roots)
        assert "pipeline" in text and "stage n=1" in text
        assert "100.0%" in text.splitlines()[0]
        table = obs.top_table(tracing.roots, n=5)
        assert table.splitlines()[0].split() == [
            "self", "ms", "total", "ms", "calls", "name"]
        assert any("pipeline" in line for line in table.splitlines())

    def test_aggregate_folds_repeated_names(self, tracing):
        for _ in range(3):
            with obs.span("repeated"):
                pass
        rows = obs.aggregate(tracing.roots)
        assert rows[0]["name"] == "repeated" and rows[0]["calls"] == 3


class TestMetrics:
    def test_counter_gauge_histogram(self, registry):
        counter = registry.counter("t.counter", help="h")
        counter.inc()
        counter.inc(2)
        assert registry.get("t.counter").value == 3

        gauge = registry.gauge("t.gauge")
        gauge.set(4.5)
        gauge.dec(0.5)
        assert registry.get("t.gauge").value == 4.0

        histogram = registry.histogram("t.hist", buckets=(1, 10))
        for value in (0.5, 5, 50):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(55.5)
        assert histogram.counts == [1, 1, 1]
        assert histogram.mean == pytest.approx(18.5)

    def test_labels_create_distinct_series(self, registry):
        registry.counter("t.labeled", rule="a").inc()
        registry.counter("t.labeled", rule="b").inc(5)
        assert registry.get("t.labeled", rule="a").value == 1
        assert registry.get("t.labeled", rule="b").value == 5
        assert registry.get("t.labeled", rule="c") is None

    def test_kind_mismatch_raises(self, registry):
        registry.counter("t.kind")
        with pytest.raises(ValueError):
            registry.gauge("t.kind")

    def test_prometheus_export(self, registry):
        registry.counter("ocl.invariant.evals", help="evals").inc(2)
        registry.gauge("engine.units").set(7)
        registry.histogram("lat.seconds", buckets=(0.1, 1.0)).observe(0.05)
        text = registry.render_prometheus()
        assert "# TYPE repro_ocl_invariant_evals_total counter" in text
        assert "repro_ocl_invariant_evals_total 2" in text
        assert "repro_engine_units 7" in text
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_lat_seconds_count 1" in text

    def test_json_export_and_snapshot(self, registry):
        registry.counter("t.c", k="v").inc()
        registry.histogram("t.h", buckets=(1,)).observe(2)
        doc = registry.to_json()
        assert doc["t.c"]["series"][0]["labels"] == {"k": "v"}
        snap = registry.snapshot()
        assert snap['t.c{k="v"}'] == 1
        assert snap["t.h.count"] == 1
        parsed = json.loads(registry.render_json())
        assert "t.c" in parsed

    def test_reset_clears_everything(self, registry):
        registry.counter("t.gone").inc()
        registry.reset()
        assert registry.get("t.gone") is None


class TestKernelProbes:
    @pytest.fixture
    def dyn_element(self):
        from repro.mof import MString
        from repro.mof.dynamic import add_attribute, define_class, \
            define_package

        pkg = define_package("probe_pkg")
        cls = define_class(pkg, "Thing")
        add_attribute(cls, "name", MString)
        return cls.instantiate()

    def test_probes_count_reads_writes_notifications(self, registry,
                                                     dyn_element):
        obs.enable()
        try:
            dyn_element.eset("name", "a")
            dyn_element.eset("name", "b")
            dyn_element.eget("name")
        finally:
            obs.disable()
        assert registry.get("mof.mutations").value >= 2
        assert registry.get("mof.reads").value >= 1
        assert registry.get("mof.notifications", kind="set").value >= 2

    def test_disable_restores_hooks(self, dyn_element):
        from repro.mof import kernel, notify

        assert kernel._READ_HOOK is None
        obs.enable()
        assert kernel._READ_HOOK is not None
        assert kernel._WRITE_HOOK is not None
        obs.disable()
        assert kernel._READ_HOOK is None
        assert kernel._WRITE_HOOK is None
        assert notify._NOTIFY_HOOK is None
        obs.REGISTRY.reset()

    def test_chained_read_hook_still_called(self, registry, dyn_element):
        from repro.mof import kernel

        seen = []
        prev = kernel.set_read_hook(lambda el, feat: seen.append(feat))
        assert prev is None
        obs.enable()
        try:
            dyn_element.eget("name")
        finally:
            obs.disable()
            kernel.set_read_hook(None)
        assert "name" in seen
        assert registry.get("mof.reads").value >= 1

    def test_enable_is_idempotent(self):
        obs.enable()
        obs.enable()
        assert obs.is_enabled()
        obs.disable()
        assert not obs.is_enabled()
        obs.REGISTRY.reset()


class TestObservingKeepsFastPaths:
    """The counting read probe ``obs.enable()`` installs is not
    dependency tracking: the column store and the extent index stay in
    use with observability on, and only ``collect_reads`` refuses them."""

    @staticmethod
    def _columnar_check(context):
        from repro.generate import demo_generator
        from repro.mof import Model
        from repro.session import Session, canonical_check_document

        model = Model("urn:obs-fast-paths")
        model.add_root(demo_generator(7).generate(80))
        session = Session(model, columnar=True)
        with context():
            document = canonical_check_document(session.check().to_json())
        columns = model.column_store().stats()
        index = model.index().stats()
        counters = {
            "columns.built": columns["built"],
            "columns.rebuilds": columns["rebuilds"],
            "columns.bulk_reads": columns["bulk_reads"],
            "index.hits": index["hits"],
            "index.eid_scans": index["eid_scans"],
        }
        return document, counters

    @staticmethod
    @contextlib.contextmanager
    def _observed():
        obs.enable()
        try:
            yield
        finally:
            obs.disable()
            obs.REGISTRY.reset()

    def test_same_document_and_path_with_obs_on_and_off(self):
        plain, plain_counters = self._columnar_check(contextlib.nullcontext)
        observed, observed_counters = self._columnar_check(self._observed)
        assert observed == plain
        assert observed_counters == plain_counters
        assert plain_counters["columns.built"] > 0
        assert plain_counters["index.hits"] > 0

    def test_dependency_tracking_still_refuses_fast_paths(self):
        from repro.incremental.tracking import collect_reads

        plain, _ = self._columnar_check(contextlib.nullcontext)
        tracked, counters = self._columnar_check(
            lambda: collect_reads(set()))
        assert tracked == plain
        assert counters["columns.built"] == 0
        assert counters["columns.bulk_reads"] == 0
        assert counters["index.hits"] == 0


class TestInstrumentedLayers:
    def test_session_check_emits_spans_and_metrics(self, registry):
        from repro.generate import uml_generator
        from repro.session import Session

        root = uml_generator(3).generate(30)
        sink = obs.MemorySink()
        obs.enable(sink)
        try:
            Session(root).check()
        finally:
            obs.disable()
            obs.remove_sink(sink)
        names = {s.name for s in sink.roots}
        assert "session.check" in names
        child_names = {c.name for s in sink.roots for c in s.children}
        assert {"session.check.structural",
                "session.check.wellformed"} <= child_names
        assert registry.get("session.checks", family="lint").value == 1
