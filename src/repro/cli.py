"""Command-line interface: the toolchain over serialized models.

::

    python -m repro check     model.xmi --families lint,consistency
    python -m repro lint      model.xmi
    python -m repro watch     model.xmi
    python -m repro metrics   model.xmi
    python -m repro purity    model.xmi --platform posix
    python -m repro transform model.xmi --platform posix -o psm.xmi
    python -m repro generate  psm.xmi --lang c -o out/
    python -m repro generate  --size 10000 --seed 0 --repair -o corpus.xmi
    python -m repro schedule  model.xmi
    python -m repro diff      a.xmi b.xmi
    python -m repro convert   model.xmi -o model.json
    python -m repro profile   model.xmi --pipeline check,transform,generate
    python -m repro stats     model.xmi --format prom
    python -m repro serve     --port 8765 --load main=model.xmi
    python -m repro rpc       check --connect localhost:8765 --repo main

Model files are the XMI-style XML (``.xmi``/``.xml``) or JSON (``.json``)
dialects of :mod:`repro.xmi`; all bundled profiles are available for
stereotype resolution.

``check`` is *the* checking verb — one meaning everywhere: the CLI, the
:meth:`repro.session.Session.check` facade and the model server's wire
protocol all run the same family-filtered check and serialize the same
document (the old pollution check is now ``purity``).

Contracts shared by every verb: exit code 0 means clean, 1 means
findings were reported, 2 means usage or model-load error; ``--trace
FILE`` appends the verb's span tree as JSONL; every diagnostic-emitting
verb (``check``/``lint``/``watch``/``report``, and ``rpc check`` over
the wire) accepts ``--format text|json`` and a ``--severity`` floor,
rendered by the one shared renderer
(:func:`repro.session.render_check_document`).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .analysis import DEFAULT_REGISTRY, LintConfig
from .codegen import generate_c, generate_java, generate_systemc, \
    lower_model
from .method import check_domain_purity
from .platforms.footprint import estimate_footprint
from .mof import compare
from .mof.repository import Model as MofModel
from .platforms import (
    baremetal_platform,
    make_pim_to_psm,
    middleware_platform,
    posix_platform,
)
from .profiles import ETSI_CS, QOS_FT, SPT, SYSML, TESTING, analyze_model
from .session import CheckResult, Session
from .uml import UML, StateMachine, class_diagram, statemachine_diagram
from .validation import (
    build_quality_report,
    compute_model_metrics,
    generate_transition_tests,
)
from .xmi import persist as _persist

ALL_PROFILES = [SPT, QOS_FT, TESTING, SYSML, ETSI_CS]

PLATFORMS = {
    "posix": posix_platform,
    "baremetal": baremetal_platform,
    "middleware": middleware_platform,
}

GENERATORS = {
    "c": generate_c,
    "java": generate_java,
    "systemc": generate_systemc,
}


def load_model(path: str) -> MofModel:
    """Read a model file, dispatching on extension.

    Goes through :mod:`repro.xmi.persist`, so digest-sealed files are
    verified and truncated/garbled input raises a recoverable
    :class:`~repro.xmi.CorruptModelError` (exit code 2 at the top
    level, with the ``.bak`` recovery hint in the message).  Both UML
    models and ``repro generate`` demo corpora resolve.
    """
    from .generate import demo_package
    return _persist.load_model(path, [UML, demo_package()],
                               profiles=ALL_PROFILES)


def save_model(model: MofModel, path: str) -> None:
    """Write a model file atomically (temp + fsync + rename, ``.bak``)."""
    _persist.save_model(model, path)


# -- the shared diagnostic emitter -------------------------------------------

def emit_check_result(result: CheckResult,
                      args: argparse.Namespace) -> None:
    """Print a :class:`~repro.session.CheckResult` per the shared CLI
    contract: ``--format text`` renders lint-style one-liners plus a
    summary; ``--format json`` renders the structured document."""
    print(result.render(getattr(args, "format", "text")))


def cmd_check(args: argparse.Namespace) -> int:
    from .session import FAMILIES

    families = None
    if args.families:
        families = tuple(f.strip() for f in args.families.split(",")
                         if f.strip())
        unknown = [f for f in families if f not in FAMILIES]
        if unknown:
            print(f"error: unknown check families {unknown}; expected a "
                  f"subset of {','.join(FAMILIES)}", file=sys.stderr)
            return 2
    session = Session(load_model(args.model),
                      columnar=getattr(args, "columnar", False))
    result = session.check(families=families, severity=args.severity)
    emit_check_result(result, args)
    clean = result.ok and not (getattr(args, "strict", False)
                               and result.warnings)
    return 0 if clean else 1


#: rule families `python -m repro lint --families` accepts
_LINT_FAMILIES = ("lint", "consistency")


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in sorted(DEFAULT_REGISTRY.all_rules(),
                           key=lambda r: r.code):
            print(f"{rule.code:<8}{rule.name:<28}{rule.target:<15}"
                  f"{rule.family:<13}{rule.severity.value}")
        return 0
    if not args.model:
        print("error: a model file is required (or --list-rules)",
              file=sys.stderr)
        return 2
    families = tuple(f.strip() for f in (args.families or "lint").split(",")
                     if f.strip())
    unknown = [f for f in families if f not in _LINT_FAMILIES]
    if unknown:
        print(f"error: unknown rule families {unknown}; expected a "
              f"subset of {','.join(_LINT_FAMILIES)}", file=sys.stderr)
        return 2
    config = LintConfig(disabled=set(args.disable or []),
                        enabled=set(args.enable or []))
    session = Session(load_model(args.model), lint_config=config)
    result = session.check(families=families, severity=args.severity)
    emit_check_result(result, args)
    clean = result.ok and not (args.strict and result.warnings)
    return 0 if clean else 1


def _watch_pass(model: MofModel, model_path: str, fmt: str = "text",
                severity: Optional[str] = None):
    """Build and prime a view of every default family over *model*,
    print its first report, and return the view and that report."""
    import time

    started = time.perf_counter()
    engine = Session(model).watch()
    report = engine.report()
    elapsed = (time.perf_counter() - started) * 1e3
    result = engine.check_result().filtered(severity)
    if fmt == "json":
        print(result.render("json"))
        return engine, report
    print(f"{model_path}: {len(report.errors)} error(s), "
          f"{len(report.warnings)} warning(s) across "
          f"{engine.unit_count()} check unit(s) in {elapsed:.1f} ms "
          f"[{engine.stats.summary()}]")
    for diagnostic in result.filtered(severity or "warning").diagnostics:
        print(f"  {diagnostic.render()}")
    quarantined = engine.quarantined()
    if quarantined:
        print(f"  {len(quarantined)} check unit(s) quarantined "
              f"(crashed checkers, retrying with backoff):")
        for line in engine.quarantine_report():
            print(f"    {line}")
    return engine, report


def _watch_bench(engine, edits: int) -> int:
    import statistics
    import time

    renamable = [element for element in engine.model.all_elements()
                 if "name" in element.meta.all_features()
                 and not element.meta.feature("name").many]
    if not renamable:
        print("error: model has no renamable elements to edit",
              file=sys.stderr)
        return 2
    full_times = []
    for _ in range(3):
        started = time.perf_counter()
        engine.recompute_from_scratch()
        full_times.append(time.perf_counter() - started)
    full = statistics.median(full_times)
    timings = []
    for index in range(edits):
        element = renamable[index % len(renamable)]
        old = element.eget("name")
        element.eset("name", (old or "") + "~")
        started = time.perf_counter()
        engine.revalidate()
        engine.report()
        timings.append(time.perf_counter() - started)
        element.eset("name", old)
        engine.revalidate()
    median = statistics.median(timings)
    print(f"watch bench: {edits} single-element rename round-trips")
    print(f"  full revalidation  : {full * 1e3:9.2f} ms")
    print(f"  incremental median : {median * 1e3:9.2f} ms")
    print(f"  speedup            : {full / max(median, 1e-9):9.1f}x")
    print(f"  engine: {engine.stats.summary()}")
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    import time

    engine, report = _watch_pass(load_model(args.model), args.model,
                                 args.format, args.severity)
    if args.bench:
        code = _watch_bench(engine, args.bench)
        engine.detach()
        return code
    if args.once:
        quarantined = engine.quarantined()
        engine.detach()
        if args.strict and quarantined:
            return 2
        return 0 if not report.errors else 1
    rendered = {d.render() for d in report.diagnostics}
    print(f"watching {args.model} (interval {args.interval}s, "
          f"ctrl-C to stop)")
    last_mtime = os.path.getmtime(args.model)
    try:
        while True:
            time.sleep(args.interval)
            try:
                mtime = os.path.getmtime(args.model)
            except OSError:
                continue           # file vanished mid-save; retry
            if mtime == last_mtime:
                continue
            last_mtime = mtime
            engine.detach()
            try:
                model = load_model(args.model)
            except Exception as exc:
                print(f"  reload failed: {exc}")
                continue
            engine, report = _watch_pass(model, args.model, args.format,
                                         args.severity)
            now = {d.render() for d in report.diagnostics}
            for line in sorted(now - rendered):
                print(f"  + {line}")
            for line in sorted(rendered - now):
                print(f"  - {line}")
            rendered = now
    except KeyboardInterrupt:
        engine.detach()
        return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    for root in model.roots:
        metrics = compute_model_metrics(root)
        print(metrics.summary())
        if args.per_class:
            print(f"{'class':<24}{'CBO':>5}{'DIT':>5}{'NOC':>5}"
                  f"{'WMC':>5}{'LCOM':>6}")
            for record in metrics.classes.values():
                print(f"{record.name:<24}{record.cbo:>5}{record.dit:>5}"
                      f"{record.noc:>5}{record.wmc:>5}{record.lcom:>6}")
    return 0


def cmd_purity(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    platforms = [PLATFORMS[name]() for name in (args.platform or [])]
    dirty = 0
    for root in model.roots:
        report = check_domain_purity(root, platforms)
        if report.clean:
            print(f"{root!r}: clean "
                  f"({report.elements_scanned} elements scanned)")
        else:
            dirty += len(report.findings)
            print(f"{root!r}: {len(report.findings)} pollution finding(s)")
            for finding in report.findings:
                print(f"  {finding}")
    return 1 if dirty else 0


def cmd_transform(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    platform = PLATFORMS[args.platform]()
    transformation = make_pim_to_psm(platform)
    result = transformation.run(model.roots, platform=platform)
    print(f"{transformation.name}: {len(result.trace)} trace links, "
          f"{result.elements_visited} elements visited, "
          f"{result.elapsed_seconds * 1e3:.1f} ms")
    psm_model = result.target_model(uri=f"{model.uri}.psm")
    save_model(psm_model, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_generate_corpus(args: argparse.Namespace) -> int:
    """The model-generation mode of ``repro generate`` (``--size``)."""
    import json as _json

    from .generate import generate_model

    if args.model:
        print("error: --size generates a fresh model; drop the MODEL "
              "argument (it belongs to PSM->code generation)",
              file=sys.stderr)
        return 2
    if args.lang:
        print("error: --lang belongs to PSM->code generation and "
              "cannot be combined with --size", file=sys.stderr)
        return 2
    result = generate_model(
        args.package, size=args.size, seed=args.seed,
        repair=args.repair, directed=args.directed)
    fmt = args.format
    if fmt is None:
        fmt = ("json" if args.output and args.output.endswith(".json")
               else "xmi")
    to_stdout = not args.output
    summary_stream = sys.stderr if to_stdout else sys.stdout
    print(result.summary(), file=summary_stream)
    print(result.coverage_report().render(), file=summary_stream)
    if args.coverage_report:
        with open(args.coverage_report, "w", encoding="utf-8") as handle:
            _json.dump(result.coverage_report().to_json(), handle,
                       indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote coverage report {args.coverage_report}",
              file=summary_stream)
    if to_stdout:
        sys.stdout.write(_persist.serialize_model(result.model, format=fmt))
    else:
        _persist.save_model(result.model, args.output,
                            format="json" if fmt == "json" else "xml")
        print(f"wrote {args.output}", file=summary_stream)
    if args.repair and result.repair is not None \
            and not result.repair.converged:
        print(f"error: repair did not converge "
              f"({len(result.repair.remaining)} error(s) remain)",
              file=sys.stderr)
        return 1
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.size is not None:
        return _cmd_generate_corpus(args)
    if not args.model or not args.lang or not args.output:
        print("error: PSM->code generation needs MODEL, --lang and "
              "-o OUTPUT (or pass --size N to generate a model corpus)",
              file=sys.stderr)
        return 2
    model = load_model(args.model)
    generator = GENERATORS[args.lang]
    os.makedirs(args.output, exist_ok=True)
    total = 0
    for root in model.roots:
        code = lower_model(root)
        for filename, text in generator(code).items():
            path = os.path.join(args.output, filename)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            lines = text.count("\n")
            total += lines
            print(f"wrote {path} ({lines} lines)")
    print(f"total: {total} lines of {args.lang}")
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    worst_exit = 0
    for root in model.roots:
        report = analyze_model(root)
        print(report.summary())
        for analysis in report.tasks:
            verdict = "ok" if analysis.schedulable else "MISS"
            print(f"  {analysis.task.name:<20} "
                  f"T={analysis.task.period_ms:g}ms "
                  f"C={analysis.task.wcet_ms:g}ms "
                  f"R={analysis.response_ms:g}ms {verdict}")
        if not report.schedulable:
            worst_exit = 1
    return worst_exit


def cmd_report(args: argparse.Namespace) -> int:
    import json as _json

    model = load_model(args.model)
    platforms = [PLATFORMS[name]() for name in (args.platform or [])]
    all_passed = True
    documents = []
    for root in model.roots:
        report = build_quality_report(
            root, platforms=platforms,
            include_traceability=args.traceability,
            severity=args.severity)
        if args.format == "json":
            documents.append(report.to_json())
        else:
            print(report.render())
        all_passed = all_passed and report.passed
    if args.format == "json":
        print(_json.dumps(documents[0] if len(documents) == 1
                          else documents, indent=2))
    return 0 if all_passed else 1


def cmd_footprint(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    platform = PLATFORMS[args.platform]()
    worst_exit = 0
    for root in model.roots:
        report = estimate_footprint(root, platform)
        print(report.summary())
        for footprint in report.classes.values():
            print(f"  {footprint.name:<28} instance={footprint.instance_bytes:>6}B "
                  f"stack={footprint.stack_bytes:>7}B "
                  f"queue={footprint.queue_bytes:>7}B")
        if not report.fits:
            worst_exit = 1
    return worst_exit


def cmd_diff(args: argparse.Namespace) -> int:
    left = load_model(args.left)
    right = load_model(args.right)
    if len(left.roots) != len(right.roots):
        print(f"root count differs: {len(left.roots)} vs "
              f"{len(right.roots)}")
        return 1
    identical = True
    for left_root, right_root in zip(left.roots, right.roots):
        result = compare(left_root, right_root)
        print(result.summary())
        if not result.identical:
            identical = False
            print(result)
    return 0 if identical else 1


def cmd_testgen(args: argparse.Namespace) -> int:
    from .uml import Clazz
    model = load_model(args.model)
    found = False
    for root in model.roots:
        for element in [root] + list(root.all_contents()):
            if not isinstance(element, Clazz):
                continue
            if args.clazz and element.name != args.clazz:
                continue
            if element.state_machine() is None:
                continue
            found = True
            result = generate_transition_tests(
                element, max_depth=args.depth)
            print(f"{element.name}: {result.summary()}")
            for test in result.tests:
                print(f"  {test}")
    if not found:
        print("no matching classes with state machines",
              file=sys.stderr)
        return 1
    return 0


def cmd_diagram(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    for root in model.roots:
        if args.kind == "class":
            print(class_diagram(root))
        else:
            machines = [e for e in root.all_contents()
                        if isinstance(e, StateMachine)]
            if args.name:
                machines = [m for m in machines if m.name == args.name]
            if not machines:
                print("no matching state machines", file=sys.stderr)
                return 1
            for machine in machines:
                print(statemachine_diagram(machine))
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    save_model(model, args.output)
    print(f"wrote {args.output}")
    return 0


PIPELINE_STAGES = ("check", "lint", "transform", "generate")


def _run_pipeline(args: argparse.Namespace, stages) -> Session:
    """Execute the requested toolchain stages over ``args.model`` with
    the observability layer already enabled (the caller owns it);
    returns the session the checking stages ran through."""
    from . import obs

    with obs.span("cli.load", model=args.model):
        model = load_model(args.model)
    session = Session(model, columnar=getattr(args, "columnar", False))
    psm_model = None
    for stage in stages:
        if stage == "check":
            session.check(families=("structural", "invariant",
                                    "wellformed"))
        elif stage == "lint":
            session.check(families=("lint",))
        elif stage == "transform":
            platform = PLATFORMS[args.platform]()
            transformation = make_pim_to_psm(platform)
            result = transformation.run(model.roots, platform=platform)
            psm_model = result.target_model(uri=f"{model.uri}.psm")
        elif stage == "generate":
            source = psm_model if psm_model is not None else model
            generator = GENERATORS[args.lang]
            for root in source.roots:
                generator(lower_model(root))
    return session


def _parse_stages(pipeline: str):
    stages = [s.strip() for s in pipeline.split(",") if s.strip()]
    unknown = [s for s in stages if s not in PIPELINE_STAGES]
    if unknown:
        print(f"error: unknown pipeline stage(s) {unknown}; expected a "
              f"subset of {','.join(PIPELINE_STAGES)}", file=sys.stderr)
        return None
    return stages


def cmd_profile(args: argparse.Namespace) -> int:
    from . import obs

    stages = _parse_stages(args.pipeline)
    if stages is None:
        return 2
    sink = obs.MemorySink()
    obs.enable(sink)
    try:
        with obs.span("cli.profile", model=args.model,
                      pipeline=args.pipeline):
            _run_pipeline(args, stages)
    finally:
        obs.disable()
        obs.remove_sink(sink)
    print(obs.render_tree(sink.roots, min_fraction=args.min_fraction))
    print()
    print(obs.top_table(sink.roots, n=args.top))
    print(f"\n{sink.span_count} span(s) recorded; "
          f"run `python -m repro stats {args.model}` for the counters")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    import json as _json

    from . import obs
    from .ocl.compile import cache_stats
    from .session import runtime_stats

    session = None
    if args.model:
        stages = _parse_stages(args.pipeline)
        if stages is None:
            return 2
        obs.enable()
        try:
            with obs.span("cli.stats", model=args.model):
                session = _run_pipeline(args, stages)
        finally:
            obs.disable()
    for stat, value in cache_stats().items():
        obs.REGISTRY.gauge(
            "ocl.compile.cache.state",
            help="OCL parse/compile cache sizes and hit/miss totals",
            stat=stat).set(value)
    if args.format == "prom":
        print(obs.REGISTRY.render_prometheus())
    else:
        # the same document Session.stats() returns and the model
        # server's `stats` verb sends over the wire
        document = (session.stats() if session is not None
                    else runtime_stats())
        print(_json.dumps(document, indent=2, sort_keys=True))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .server import PROTOCOL_VERSION, ModelServer, TcpServer

    server = ModelServer(max_frame=args.max_frame, wal_dir=args.wal_dir)
    for repo in server.recovered:
        state = server.repos[repo]
        print(f"recovered repository {repo!r} from write-ahead log "
              f"(epoch {state.epoch}, {state.edits_applied} txns "
              f"replayed)")
    for spec in args.load or []:
        name, _, path = spec.partition("=")
        if not name or not path:
            print(f"error: --load expects NAME=PATH, got {spec!r}",
                  file=sys.stderr)
            return 2
        if name in server.repos:
            print(f"repository {name!r} already recovered; "
                  f"ignoring --load {spec}")
            continue
        server.attach(name, Session(load_model(path)))
        print(f"loaded repository {name!r} from {path}")
    tcp = TcpServer(server, args.host, args.port)
    host, port = tcp.address
    print(f"repro model server (protocol v{PROTOCOL_VERSION}) "
          f"listening on {host}:{port}; ctrl-C to stop, "
          f"SIGTERM to drain", flush=True)

    def on_sigterm(_signum, _frame):
        print("draining: stopped accepting; finishing inflight "
              "requests and flushing write-ahead logs", flush=True)
        stats = tcp.drain(timeout=args.drain_timeout)
        print(f"drained (cancelled={stats['cancelled']}, "
              f"interrupted={stats['interrupted']})", flush=True)
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        tcp.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        tcp.shutdown()
    return 0


def cmd_rpc(args: argparse.Namespace) -> int:
    import json as _json

    from .server import RemoteError, RetryPolicy, TcpClient, TransportError
    from .session import render_check_document

    host, _, port_text = args.connect.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print(f"error: --connect expects HOST:PORT, got "
              f"{args.connect!r}", file=sys.stderr)
        return 2
    params = {}
    if args.params:
        try:
            params = _json.loads(args.params)
        except ValueError as exc:
            print(f"error: --params is not valid JSON: {exc}",
                  file=sys.stderr)
            return 2
        if not isinstance(params, dict):
            print("error: --params must be a JSON object",
                  file=sys.stderr)
            return 2
    if args.repo:
        params.setdefault("repo", args.repo)
    if args.severity and args.verb == "check":
        params.setdefault("severity", args.severity)
    retry = RetryPolicy(attempts=args.retries + 1) if args.retries \
        else None
    try:
        with TcpClient(host or "127.0.0.1", port, retry=retry) as client:
            result = client.request(args.verb, **params)
    except RemoteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.data:
            print(_json.dumps(exc.data, indent=2, sort_keys=True),
                  file=sys.stderr)
        return 1
    except (TransportError, OSError, ConnectionError) as exc:
        print(f"error: cannot reach {args.connect}: {exc}",
              file=sys.stderr)
        return 2
    if args.verb == "check" and args.format == "text":
        print(render_check_document(result, "text"))
    else:
        print(_json.dumps(result, indent=2, sort_keys=True))
    if args.verb == "check":
        return 0 if not result.get("errors") else 1
    return 0


# -- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UML/MDA toolchain (reproduction of Oliver, DATE'05)",
        epilog="exit codes: 0 = clean, 1 = findings reported "
               "(validation errors, lint errors, pollution, missed "
               "deadlines, model differences), 2 = usage or model "
               "load error")
    sub = parser.add_subparsers(dest="command", required=True)

    trace_parent = argparse.ArgumentParser(add_help=False)
    trace_parent.add_argument(
        "--trace", metavar="FILE",
        help="append this invocation's span tree to FILE as JSONL")

    diag_parent = argparse.ArgumentParser(add_help=False)
    diag_parent.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="diagnostic output format (default text)")
    diag_parent.add_argument(
        "--severity", choices=["info", "warning", "error"], default=None,
        help="only report diagnostics at or above this severity")

    p = sub.add_parser(
        "check", help="run the checker families over a model (the one "
                      "checking verb: CLI, Session and server agree)",
        parents=[trace_parent, diag_parent],
        description="Run Session.check over the model: any subset of "
                    "the structural, invariant, wellformed, lint, "
                    "consistency and constraint families (default: all "
                    "but constraint).  The same verb with the same "
                    "document shape is exposed by repro.session.Session"
                    ".check and by the model server's wire protocol.",
        epilog="exit codes: 0 = clean, 1 = errors found (or warnings "
               "with --strict), 2 = usage/load error")
    p.add_argument("model")
    p.add_argument("--families", metavar="LIST",
                   help="comma-separated checker families to run "
                        "(default: structural,invariant,wellformed,"
                        "lint,consistency)")
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as failures")
    p.add_argument("--columnar", action="store_true",
                   help="enable the columnar extent store "
                        "(repro.mof.columns) so the structural and "
                        "invariant families scan contiguous columns")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "lint", help="static analysis: OCL type checking, dead code, "
                     "conflicts",
        parents=[trace_parent, diag_parent],
        description="Run the model lint engine: static OCL type "
                    "checking of invariants and guards, dead-state and "
                    "dead-transition detection, nondeterministic "
                    "transition conflicts, and fork/join imbalance.",
        epilog="exit codes: 0 = clean, 1 = lint errors (or warnings "
               "with --strict), 2 = usage/load error")
    p.add_argument("model", nargs="?",
                   help="model file (.xmi/.xml/.json)")
    p.add_argument("--disable", action="append", metavar="CODE",
                   help="disable a rule by code or name (repeatable)")
    p.add_argument("--enable", action="append", metavar="CODE",
                   help="enable an opt-in rule (repeatable)")
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as failures")
    p.add_argument("--families", metavar="LIST", default="lint",
                   help="comma-separated rule families to run: any of "
                        "lint,consistency (default lint; consistency = "
                        "the cross-diagram XD rules)")
    p.add_argument("--list-rules", action="store_true",
                   help="list registered rules and exit")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "watch", help="continuous incremental revalidation",
        parents=[trace_parent, diag_parent],
        description="Validate a model through the incremental "
                    "revalidation engine (structure, invariants, UML "
                    "well-formedness, lint, cross-diagram consistency) "
                    "and keep watching the file: each re-save prints the "
                    "diagnostic delta.  In-process callers get true "
                    "incrementality via Session.watch; --bench "
                    "demonstrates it on the loaded model with "
                    "single-element rename edits.",
        epilog="exit codes (with --once): 0 = clean, 1 = errors found, "
               "2 = usage/load error, or quarantined checkers under "
               "--strict")
    p.add_argument("model", help="model file (.xmi/.xml/.json)")
    p.add_argument("--interval", type=float, default=1.0,
                   help="poll interval in seconds (default 1.0)")
    p.add_argument("--once", action="store_true",
                   help="print one report and exit")
    p.add_argument("--strict", action="store_true",
                   help="with --once: exit 2 if any check unit is "
                        "quarantined (its checker crashed)")
    p.add_argument("--bench", type=int, metavar="N",
                   help="apply N single-element edits in-process and "
                        "report incremental vs full revalidation timings")
    p.set_defaults(fn=cmd_watch)

    p = sub.add_parser("metrics", help="design metrics",
                       parents=[trace_parent])
    p.add_argument("model")
    p.add_argument("--per-class", action="store_true")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser(
        "purity", help="domain/platform pollution check",
        parents=[trace_parent],
        description="Scan PIM packages for platform pollution "
                    "(formerly `repro check`; `check` is now the "
                    "unified checker-family verb).",
        epilog="exit codes: 0 = clean, 1 = pollution found, "
               "2 = usage/load error")
    p.add_argument("model")
    p.add_argument("--platform", action="append",
                   choices=sorted(PLATFORMS))
    p.set_defaults(fn=cmd_purity)

    p = sub.add_parser("transform", help="PIM -> PSM for a platform",
                       parents=[trace_parent])
    p.add_argument("model")
    p.add_argument("--platform", required=True, choices=sorted(PLATFORMS))
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser(
        "generate",
        help="PSM -> source code, or (with --size) a seeded model corpus",
        parents=[trace_parent],
        description="Two modes.  PSM -> code: `repro generate MODEL "
                    "--lang c -o DIR`.  Model corpus: `repro generate "
                    "--size N [--seed S] [--package demo|uml] "
                    "[--repair] [--directed] [-o FILE]` generates a "
                    "seeded random model (constraint-repaired to zero "
                    "error diagnostics with --repair) and writes "
                    "digest-sealed XMI or JSON to FILE or stdout.",
        epilog="exit codes: 0 = generated, 1 = --repair did not "
               "converge, 2 = usage/load error")
    p.add_argument("model", nargs="?",
                   help="PSM model file (codegen mode only)")
    p.add_argument("--lang", choices=sorted(GENERATORS),
                   help="target language (codegen mode)")
    p.add_argument("-o", "--output",
                   help="output directory (codegen) or model file "
                        "(--size mode; default stdout)")
    p.add_argument("--size", type=int, metavar="N",
                   help="generate a fresh seeded model of ~N elements "
                        "instead of code")
    p.add_argument("--seed", type=int, default=0,
                   help="generation seed (default 0); the same "
                        "(--package, --size, --seed) reproduces the "
                        "model byte-identically")
    p.add_argument("--package", choices=("demo", "uml"), default="demo",
                   help="generation profile (default demo: the genlib "
                        "metamodel with registered OCL invariants)")
    p.add_argument("--repair", action="store_true",
                   help="run the constraint-guided repair loop until "
                        "Session.check reports zero errors")
    p.add_argument("--directed", action="store_true",
                   help="coverage-directed generation (steer toward "
                        "uncovered metaclasses/ends/branches)")
    p.add_argument("--coverage-report", metavar="FILE",
                   help="also write the coverage report as JSON to FILE")
    p.add_argument("--format", choices=("xmi", "json"),
                   help="serialization format in --size mode "
                        "(default: from -o extension, else xmi)")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("schedule", help="SPT schedulability analysis",
                       parents=[trace_parent])
    p.add_argument("model")
    p.set_defaults(fn=cmd_schedule)

    p = sub.add_parser("report", help="one-page quality report",
                       parents=[trace_parent, diag_parent])
    p.add_argument("model")
    p.add_argument("--platform", action="append",
                   choices=sorted(PLATFORMS))
    p.add_argument("--traceability", action="store_true")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("footprint", help="memory footprint vs platform "
                                         "budget",
                       parents=[trace_parent])
    p.add_argument("model")
    p.add_argument("--platform", required=True, choices=sorted(PLATFORMS))
    p.set_defaults(fn=cmd_footprint)

    p = sub.add_parser("diff", help="compare two models",
                       parents=[trace_parent])
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("testgen", help="derive transition-coverage "
                                       "tests from state machines",
                       parents=[trace_parent])
    p.add_argument("model")
    p.add_argument("--class", dest="clazz", help="restrict to one class")
    p.add_argument("--depth", type=int, default=12)
    p.set_defaults(fn=cmd_testgen)

    p = sub.add_parser("diagram", help="emit Graphviz DOT",
                       parents=[trace_parent])
    p.add_argument("model")
    p.add_argument("--kind", choices=["class", "statemachine"],
                   default="class")
    p.add_argument("--name", help="state machine name filter")
    p.set_defaults(fn=cmd_diagram)

    p = sub.add_parser("convert", help="convert between XML and JSON",
                       parents=[trace_parent])
    p.add_argument("model")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser(
        "profile", help="run a pipeline under the tracer, print the "
                        "span tree",
        parents=[trace_parent],
        description="Enable the observability layer, run the requested "
                    "toolchain stages over the model, and print the "
                    "recorded span tree plus the top-N self-time table.",
        epilog="exit codes: 0 = profiled, 2 = usage/load error")
    p.add_argument("model")
    p.add_argument("--pipeline", default="check,transform,generate",
                   metavar="STAGES",
                   help="comma-separated subset of "
                        f"{','.join(PIPELINE_STAGES)} "
                        "(default check,transform,generate)")
    p.add_argument("--platform", default="posix",
                   choices=sorted(PLATFORMS),
                   help="platform for the transform stage")
    p.add_argument("--lang", default="c", choices=sorted(GENERATORS),
                   help="language for the generate stage")
    p.add_argument("--top", type=int, default=10,
                   help="rows in the self-time table (default 10)")
    p.add_argument("--min-fraction", type=float, default=0.0,
                   help="hide spans below this fraction of total time")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "stats", help="dump the metrics registry (Prometheus or JSON)",
        parents=[trace_parent],
        description="Print every counter, gauge and histogram in the "
                    "process-wide metrics registry.  With a model "
                    "argument, first runs the given pipeline stages "
                    "instrumented so the registry is populated.",
        epilog="exit codes: 0 = printed, 2 = usage/load error")
    p.add_argument("model", nargs="?",
                   help="optional model to run --pipeline over first")
    p.add_argument("--pipeline", default="check",
                   metavar="STAGES",
                   help="stages to run when a model is given "
                        "(default check)")
    p.add_argument("--platform", default="posix",
                   choices=sorted(PLATFORMS))
    p.add_argument("--lang", default="c", choices=sorted(GENERATORS))
    p.add_argument("--format", choices=["prom", "json"], default="prom",
                   help="export format (default prom; json prints the "
                        "same document Session.stats() returns and the "
                        "model server's stats verb serves)")
    p.add_argument("--columnar", action="store_true",
                   help="run the pipeline with the columnar extent "
                        "store enabled; the model block then reports "
                        "per-extent column counts, bytes and rebuilds")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "serve", help="run the multi-tenant model server",
        parents=[trace_parent],
        description="Host models as named repositories behind the "
                    "line-oriented JSON wire protocol (see "
                    "repro.server).  Clients connect over TCP and speak "
                    "the verbs load, generate, check, edit-txn, watch, "
                    "stats, close; `repro rpc` is the matching thin "
                    "client.",
        epilog="exit codes: 0 = clean shutdown, 2 = usage/load error")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8765,
                   help="TCP port (default 8765; 0 = ephemeral)")
    p.add_argument("--load", action="append", metavar="NAME=PATH",
                   help="pre-load a model file as repository NAME "
                        "(repeatable)")
    p.add_argument("--max-frame", type=int, default=None, metavar="BYTES",
                   help="per-frame byte ceiling (default 8 MiB)")
    p.add_argument("--wal-dir", metavar="DIR",
                   help="write-ahead log directory: every committed "
                        "edit-txn is fsynced there before it is "
                        "acknowledged, and pending logs are replayed "
                        "on start (crash recovery)")
    p.add_argument("--drain-timeout", type=float, default=5.0,
                   metavar="SECONDS",
                   help="on SIGTERM, wait this long for inflight "
                        "requests before closing (default 5)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "rpc", help="send one verb to a running model server",
        parents=[trace_parent, diag_parent],
        description="Thin client for `repro serve`: send VERB with "
                    "--params JSON (plus --repo as shorthand for the "
                    "repo param) and print the result.  `rpc check` "
                    "renders the response through the same renderer as "
                    "`repro check`, so local and remote output match.",
        epilog="exit codes: 0 = ok (check: clean), 1 = server error "
               "response (check: errors found), 2 = usage/connection "
               "error")
    p.add_argument("verb", help="protocol verb (e.g. check, stats, "
                                "edit-txn, load, generate)")
    p.add_argument("--connect", default="127.0.0.1:8765",
                   metavar="HOST:PORT",
                   help="server address (default 127.0.0.1:8765)")
    p.add_argument("--params", metavar="JSON",
                   help="verb params as a JSON object")
    p.add_argument("--repo", help="shorthand for the repo param")
    p.add_argument("--retries", type=int, default=0, metavar="N",
                   help="retry the request up to N times with jittered "
                        "backoff on conflict/deadline-exceeded/draining "
                        "responses and transient network failures "
                        "(default 0 = no retry)")
    p.set_defaults(fn=cmd_rpc)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    sink = None
    if getattr(args, "trace", None):
        from . import obs
        sink = obs.JsonlSink(args.trace)
        obs.enable(sink)
    try:
        if sink is not None:
            from .obs import trace as _trace
            with _trace.span(f"cli.{args.command}"):
                return args.fn(args)
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream closed the pipe (e.g. `| head`) — exit quietly;
        # point stdout at devnull so interpreter shutdown can't re-raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:            # surface tool errors tersely
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if sink is not None:
            from . import obs
            obs.disable()
            obs.remove_sink(sink)
            sink.close()


if __name__ == "__main__":
    sys.exit(main())
