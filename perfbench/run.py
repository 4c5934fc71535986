"""The repository benchmark: ``edit-check`` and ``full-check``.

Usage::

    python3 perfbench/run.py --workload edit-check --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload full-check --steadiness 10 --seed 1

Run from the root of a checkout.  ``--seconds`` scales each workload's
fixed op count, so a given value always means the same op script: a run
performs that many operations, not a wall-clock interval.  The last
line of standard output is the result object; with ``--trace 0`` its
metrics are the gated end-to-end ones, with ``--trace 1`` the per-layer
ones of a separate traced pass.
``--steadiness N`` runs the workload N times in fresh processes on
seeds ``--seed`` .. ``--seed + N - 1`` and prints each metric's median,
quartiles and (Q3 - Q1) / median.  README.md describes the workloads,
the metrics and the layer map.
"""

import argparse
import collections
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import full_check  # noqa: E402
import server_load  # noqa: E402
from common import (  # noqa: E402
    ROOT,
    SRC,
    Run,
    host_stamp,
    latency_summary,
    percentile,
)

Workload = collections.namedtuple("Workload", "shape ops")

#: ``--seconds`` of a full run (``run_seconds`` in BENCHMARK.json): on
#: the measuring host the set-ups and timed ops of a run at this value
#: take 45-60 s
SECONDS = 50

#: op count of a run at :data:`SECONDS` (rounds of ``edit-check``).
#: These keep the sample rules (a p90 needs 100 samples of its verb) and
#: make every ``edit-check`` run cross one WAL compaction, which the
#: server runs inside every 256th ``edit-txn``.
WORKLOADS = {
    "edit-check": Workload("demo", 260),
    "full-check": Workload("uml", 100),
}

#: set-ups of an untraced run; ``setup_s`` is their median.  The first
#: starts the timed pass, the others run between its ops.
SETUPS = 4

#: per-layer metrics; every traced run reports each, 0 where the
#: workload does not reach the layer
PER_LAYER = (
    [f"check.{name}" for name in (
        "transport.wait_ms", "transport.write_ms", "protocol.decode_ms",
        "protocol.encode_ms", "protocol.response_kb", "dispatch.self_ms",
        "incremental.revalidate_ms", "incremental.sync_ms",
        "incremental.report_ms", "session.to_json_ms", "xmi.load_ms",
        "columns.build_ms", "columns.scan_ms", "ocl.columns.flag_ms",
        "family.structural_ms", "family.invariant_ms",
        "family.wellformed_ms", "family.lint_ms", "family.consistency_ms",
        "session.self_ms", "layers_share", "trace_overhead_ms")]
    + [f"edit.{name}" for name in (
        "transport.wait_ms", "transport.write_ms", "protocol.decode_ms",
        "protocol.encode_ms", "dispatch.self_ms", "txn.apply_ms",
        "wal.append_ms", "incremental.revalidate_ms", "incremental.sync_ms",
        "incremental.report_ms", "layers_share", "trace_overhead_ms")]
    + ["wal.compact_ms", "wal.compactions_count", "wal.bytes_per_txn",
       "incremental.notifications_per_edit",
       "incremental.units_rerun_per_check",
       "incremental.invalidations_per_edit", "incremental.syncs_per_check",
       "ocl.cache.hit_ratio"])

#: units of the per-layer metrics that are neither times (``*_ms``)
#: nor counts
UNITS = {"check.protocol.response_kb": "KiB", "wal.bytes_per_txn": "bytes",
         "check.layers_share": "ratio", "edit.layers_share": "ratio",
         "ocl.cache.hit_ratio": "ratio"}

#: the traced layers whose self time is what is left of a request once
#: the wrapped layers are taken out; ``*.layers_share`` is the rest
RESIDUAL = ("dispatch", "session.self")

#: metric verb -> wire verb
VERBS = {"check": "check", "edit": "edit-txn"}


def _unit(name):
    return "ms" if name.endswith("_ms") else UNITS.get(name, "count")


def _stem(layer):
    """Metric stem of a traced layer name."""
    if layer == "dispatch":
        return "dispatch.self"
    if layer.startswith("check."):
        return "family." + layer[len("check."):]
    return layer


def _pass(workload, corpus, workdir, ops, reference, trace, extra_setups):
    """One timed pass; returns a ``common.Run``."""
    if workload == "full-check":
        return full_check.full_check(corpus.path, ops, reference, workdir,
                                     extra_setups, trace)
    trace_file = os.path.join(workdir, "server-trace.json") if trace \
        else None
    try:
        run = server_load.edit_check(corpus, workdir, ops, extra_setups,
                                     trace_file)
    except (OSError, server_load.WorkloadError,
            server_load.RemoteFailure) as exc:
        run = Run()
        run.fail(1, f"the server did not come up: {exc}")
        return run
    if trace and run.rss_mb is not None:
        with open(trace_file) as handle:
            run.trace = json.load(handle)
    return run


def _end_to_end(run):
    check, edit = run.latencies["check"], run.latencies["edit"]
    values = {
        "setup_s": (statistics.median(run.setup_times), "s"),
        "rss_mb": (run.rss_mb, "MiB"),
        "check_p90_ms": (percentile(check, 90) * 1e3, "ms"),
        "edit_p50_ms": (percentile(edit, 50) * 1e3, "ms"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def _delta(counters, *keys):
    """``after - before`` of one counter of a server pass."""
    values = []
    for side in ("after", "before"):
        value = counters[side]
        for key in keys:
            value = (value or {}).get(key)
        values.append(value or 0)
    return values[0] - values[1]


def _per_layer(workload, traced, untraced):
    """Per-layer metrics from the traced pass and its untraced twin."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    verbs = (traced.trace or {}).get("verbs", {})
    for verb, wire_verb in VERBS.items():
        client = traced.latencies[verb]
        if not client:
            continue
        twin = untraced.latencies[verb]
        out[f"{verb}.trace_overhead_ms"] = (
            percentile(client[:len(twin)], 50) - percentile(twin, 50)) * 1e3
        entry = verbs.get(wire_verb)
        if not entry:
            continue
        count = entry["count"]
        mean_client = statistics.mean(client)
        residual = 0.0
        for layer, seconds in entry["layers"].items():
            key = f"{verb}.{_stem(layer)}_ms"
            if key in out:
                out[key] = seconds / count * 1e3
            if layer in RESIDUAL:
                residual += seconds / count
        if workload != "full-check":
            out[f"{verb}.transport.wait_ms"] = (
                mean_client - entry["seconds"] / count) * 1e3
        out[f"{verb}.layers_share"] = 1 - residual / mean_client
        if entry["layers"].get("wal.compact"):
            out["wal.compact_ms"] = (entry["layers"]["wal.compact"]
                                     / entry["calls"]["wal.compact"] * 1e3)
    sizes = traced.response_bytes["check"]
    if sizes:
        out["check.protocol.response_kb"] = statistics.mean(sizes) / 1024
    counters = traced.counters
    if workload == "full-check":
        cache = counters["ocl_cache"]
        hits = sum(v for k, v in cache.items() if k.endswith("_hits"))
        misses = sum(v for k, v in cache.items() if k.endswith("_misses"))
        out["ocl.cache.hit_ratio"] = hits / max(1, hits + misses)
        return out
    edits = len(traced.latencies["edit"])
    checks = len(traced.latencies["check"])
    out["wal.compactions_count"] = _delta(counters, "wal.compactions")
    out["wal.bytes_per_txn"] = (_delta(counters, "server.wal.bytes")
                                / max(1, _delta(counters, "wal.appended")))
    for key, name, per in (
            ("notifications", "notifications_per_edit", edits),
            ("unit_runs", "units_rerun_per_check", checks),
            ("invalidations", "invalidations_per_edit", edits),
            ("syncs", "syncs_per_check", checks)):
        out[f"incremental.{name}"] = (_delta(counters, "engine", key)
                                      / max(1, per))
    return out


def _print_trace(workload, traced, values):
    for verb, wire_verb in VERBS.items():
        entry = (traced.trace or {}).get("verbs", {}).get(wire_verb)
        client = traced.latencies[verb]
        if not entry or not client:
            continue
        mean_client = statistics.mean(client) * 1e3
        print(f"{verb}: client mean {mean_client:.2f} ms over "
              f"{len(client)} requests; self time per request by layer:")
        rows = sorted(((seconds / entry["count"] * 1e3, layer)
                       for layer, seconds in entry["layers"].items()),
                      reverse=True)
        if workload != "full-check":
            rows.insert(0, (values[f"{verb}.transport.wait_ms"],
                            "transport.wait (client - server)"))
        for ms, layer in rows:
            print(f"  {layer:<34} {ms:9.3f} ms  {ms / mean_client:6.1%}")
        print(f"  named layers cover {values[f'{verb}.layers_share']:.1%} "
              f"of client latency; tracing overhead "
              f"{values[f'{verb}.trace_overhead_ms']:+.2f} ms at p50")


def run_once(args):
    import corpus as corpus_mod
    workload = WORKLOADS[args.workload]
    ops = max(2, round(workload.ops * args.seconds / SECONDS))
    base = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=base)
    report = {"workload": args.workload, "seed": args.seed, "ops": ops,
              "trace": args.trace, "host": host_stamp()}
    try:
        corpus = corpus_mod.build(workload.shape, args.seed, workdir)
        problems = corpus_mod.pin_problems(corpus, workdir)
        reference = None
        if args.workload == "full-check":
            reference = full_check.reference_document(corpus.path)
        metrics = None
        if args.trace:
            # the untraced twin only gives the p50s the overhead is
            # measured against, so it runs half the op script
            runs = [_pass(args.workload, corpus, workdir, count, reference,
                          trace, 0)
                    for count, trace in ((max(2, ops // 2), False),
                                         (ops, True))]
            if all(run.rss_mb is not None for run in runs):
                values = _per_layer(args.workload, runs[1], runs[0])
                metrics = {name: {"value": values[name],
                                  "unit": _unit(name)}
                           for name in PER_LAYER}
        else:
            runs = [_pass(args.workload, corpus, workdir, ops, reference,
                          False, SETUPS - 1)]
            report["setup_s"] = runs[0].setup_times
            if runs[0].rss_mb is not None:
                metrics = _end_to_end(runs[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    diagnostics = runs[0].diagnostics
    report["corpus"] = {"shape": workload.shape, "seed": args.seed,
                        "sha256": corpus.sha256,
                        "elements": corpus.elements,
                        "diagnostics": diagnostics}
    print(f"corpus {workload.shape} seed={args.seed}: "
          f"sha256={corpus.sha256} elements={corpus.elements} "
          f"diagnostics={diagnostics}")
    for problem in problems:
        print(f"PINNED INPUT CHANGED: {problem}")
    for run in runs:
        for verb, latencies in run.latencies.items():
            if latencies:
                print(f"{verb}: {latency_summary(latencies)}")
        for note in run.notes:
            print(note)
    failed = sum(run.failed for run in runs)
    if metrics is None:
        print(f"the run ended early after {failed} failed op(s); "
              f"no result", file=sys.stderr)
        return 1
    if args.trace:
        _print_trace(args.workload, runs[1], values)
    report["counters"] = runs[-1].counters
    report["notes"] = [note for run in runs for note in run.notes]
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": sum(run.attempted for run in runs), "failed": failed,
        "metrics": metrics}))
    return 0


def steadiness(args):
    """Run the workload N times in fresh processes; print the spread."""
    values = {}
    for seed in range(args.seed, args.seed + args.steadiness):
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
        started = time.perf_counter()
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(completed.stdout[-2000:] + completed.stderr[-2000:])
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: {time.perf_counter() - started:.1f}s "
              f"correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{name}={metric['value']:.4g}"
                         for name, metric in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':<16}{'median':>12}{'Q1':>12}{'Q3':>12}"
          f"{'(Q3-Q1)/med':>14}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        print(f"{name:<16}{median:>12.4g}{q1:>12.4g}{q3:>12.4g}"
              f"{(q3 - q1) / median:>14.3f}")
    return 0


def _exit(signum, frame):
    sys.exit(128 + signum)


def main(argv=None):
    # a SIGTERM unwinds the run, so its cleanup stops the server or
    # worker it started
    signal.signal(signal.SIGTERM, _exit)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="run N times on consecutive seeds and print "
                             "each metric's spread")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.steadiness:
        return steadiness(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
