"""The ``full-check`` workload: the path ``repro check --columnar`` takes.

Each op is ``load_model`` -> ``Session(model, columnar=True)`` ->
``check()`` -> ``to_json()`` on the corpus file, repeated in one warm
worker process that did not generate the corpus.  There is no server,
WAL or incremental engine: time goes to the XMI reader, the column
stores and the wellformed, lint and consistency families.

The parent side (:func:`full_check`) spawns the worker and drives it
in a closed loop: it writes one line to the worker's standard input per
op and reads one JSON line back.  The worker side runs when this file is
executed: ``python full_check.py CORPUS REFERENCE [trace]``, where
REFERENCE is the serial reference document written by
``canonical_check_document``, or ``-`` for none.  It reports its totals
and exits when its standard input closes.
"""

import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    ROOT,
    Run,
    child_env,
    drop_one_diagnostic,
    spread,
    vm_hwm_mb,
)


def identical(document, reference):
    """Whether two check documents are byte-identical once written by
    ``canonical_check_document``.

    That function writes a document's dicts with sorted keys and fixed
    separators, and check documents hold only strings, integers,
    booleans, null, lists and dicts, so equal documents (``==``) and
    equal canonical bytes are the same thing.  Comparing in place keeps
    a 300 KB serialization per op out of the worker, where its garbage
    would shift the collector's work into the timed ops.
    """
    return document == reference


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------

def _worker(corpus_path, reference_path, traced):
    from repro.cli import load_model
    from repro.ocl.compile import cache_stats
    from repro.session import Session
    clock = None
    if traced:
        from layers import CHECK_LAYERS, LayerClock
        clock = LayerClock()
        clock.install(CHECK_LAYERS)

    def op():
        started = time.perf_counter()
        model = load_model(corpus_path)
        loaded = time.perf_counter()
        document = Session(model, columnar=True).check().to_json()
        done = time.perf_counter()
        return model, document, loaded - started, done - started

    model, document, _, _ = op()
    print(json.dumps({"ready": True}), flush=True)
    reference = None
    if reference_path != "-":
        with open(reference_path) as handle:
            reference = json.load(handle)
    print(json.dumps({"identical": identical(document, reference)}),
          flush=True)
    for _ in sys.stdin:
        model = document = None        # the previous op's objects go first
        if clock is not None:
            with clock.request("check", "session.self"):
                model, document, load_s, check_s = op()
        else:
            model, document, load_s, check_s = op()
        print(json.dumps({"load_s": load_s, "check_s": check_s,
                          "identical": identical(document, reference)}),
              flush=True)
    columns = model.column_store().stats()
    columns.pop("per_extent")
    print(json.dumps({"rss_mb": vm_hwm_mb(os.getpid()),
                      "columns": columns, "ocl_cache": cache_stats(),
                      "trace": clock.to_json() if clock else None}),
          flush=True)


# ---------------------------------------------------------------------------
# Parent
# ---------------------------------------------------------------------------

class WorkerDied(Exception):
    pass


class _Worker:
    def __init__(self, corpus_path, reference_path="-", trace=False):
        command = [sys.executable, os.path.abspath(__file__), corpus_path,
                   reference_path]
        if trace:
            command.append("trace")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def request(self):
        """Ask for one op; its line is read with :meth:`read`."""
        try:
            self.process.stdin.write("\n")
            self.process.stdin.flush()
        except BrokenPipeError:
            pass                        # read() reports the dead worker

    def finish(self):
        """No more ops: the worker writes its totals and exits."""
        try:
            self.process.stdin.close()
        except BrokenPipeError:
            pass

    def read(self):
        line = self.process.stdout.readline()
        if not line:
            self.close()
            raise WorkerDied(f"full-check worker exited early "
                             f"(status {self.process.returncode})")
        return json.loads(line)

    def close(self):
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except BrokenPipeError:
                pass


def reference_document(corpus_path):
    """One object-backed serial check of the corpus, outside timing."""
    from repro.cli import load_model
    from repro.session import Session
    return Session(load_model(corpus_path)).check().to_json()


def _setup_time(corpus_path):
    """One set-up: spawn a worker and wait for its first complete
    document (interpreter start, imports, a cold load and check)."""
    worker = _Worker(corpus_path)
    try:
        worker.read()
        return time.perf_counter() - worker.started
    finally:
        worker.close()


def full_check(corpus_path, ops, reference, workdir, extra_setups=0,
               trace=False):
    """Time *ops* warm ops in one worker; returns a :class:`Run`.

    *extra_setups* more set-ups of fresh workers run between ops,
    spread evenly through the loop and outside its timing, so that
    ``setup_s`` samples the same stretch of the host as the ops.
    """
    from repro.session import canonical_check_document
    run = Run()
    reference_path = os.path.join(workdir, "reference.json")
    with open(reference_path, "w") as handle:
        handle.write(canonical_check_document(reference))
    worker = _Worker(corpus_path, reference_path, trace)
    try:
        worker.read()
        run.setup_times.append(time.perf_counter() - worker.started)
        run.attempted += 1
        if not worker.read()["identical"]:
            run.fail(1, "cold document differs from the serial reference")
        mismatches = 0
        for setups in spread(ops, extra_setups):
            for _ in range(setups):
                run.setup_times.append(_setup_time(corpus_path))
            run.attempted += 1
            worker.request()
            line = worker.read()
            run.latencies["check"].append(line["check_s"])
            run.latencies["edit"].append(line["load_s"])
            mismatches += not line["identical"]
        worker.finish()
        done = worker.read()
    except WorkerDied as exc:
        run.fail(1, str(exc))
        return run
    finally:
        worker.close()
    if mismatches:
        run.fail(mismatches, "columnar document differs from the "
                             "object-backed serial reference")
    run.notes.append(f"{ops - mismatches}/{ops} columnar documents "
                     f"byte-identical to the serial reference")
    if identical(drop_one_diagnostic(reference), reference):
        run.fail(1, "gate self-check: a document missing one diagnostic "
                    "passed the gate")
    else:
        run.notes.append("gate self-check: a document missing one "
                         "diagnostic is counted as failed")
    run.diagnostics = sum(reference[key]
                          for key in ("errors", "warnings", "infos"))
    run.rss_mb = done["rss_mb"]
    run.counters = {"columns": done["columns"],
                    "ocl_cache": done["ocl_cache"]}
    run.trace = done["trace"]
    return run


if __name__ == "__main__":
    _worker(sys.argv[1], sys.argv[2], sys.argv[3:] == ["trace"])
