"""Helpers shared by the workloads: percentiles, gates, host stamp."""

import collections
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

#: the root of the checkout (the parent of this directory)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def percentile(values, q):
    """The *q*-th percentile (0 < q < 100) by the inclusive method."""
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_summary(values):
    """One line: sample count and percentiles, in ms."""
    marks = [10, 50, 90] + ([99] if len(values) >= 1000 else [])
    return f"n={len(values)} " + " ".join(
        f"p{q}={percentile(values, q) * 1e3:.2f}" for q in marks) \
        + f" max={max(values) * 1e3:.2f} ms"


class Run:
    """Outcome of one timed pass: per-verb latencies and reply sizes,
    counters, failures and notes for the report."""

    def __init__(self):
        self.latencies = {"check": [], "edit": []}
        self.response_bytes = {"check": [], "edit": []}
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.counters = {}
        self.setup_times = []
        self.rss_mb = None
        self.diagnostics = None
        self.trace = None

    def fail(self, count, why):
        self.failed += count
        self.notes.append(f"FAILED x{count}: {why}")


def spread(ops, count):
    """How many of *count* extra set-ups run before each op of a loop of
    *ops*: a list indexed by op, the set-ups spaced evenly."""
    before = [0] * ops
    for index in range(count):
        before[ops * (index + 1) // (count + 1)] += 1
    return before


def diagnostic_records(document):
    """The multiset of (family, record) pairs of a check document."""
    return collections.Counter(
        (family, json.dumps(record, sort_keys=True))
        for family, records in document["families"].items()
        for record in records)


def ordered_records(document):
    return [(family, json.dumps(record, sort_keys=True))
            for family, records in document["families"].items()
            for record in records]


def documents_agree(served, reference):
    """The correctness gate of ``edit-check``: equal severity counts
    and the same diagnostic records as a multiset."""
    return (all(served[key] == reference[key]
                for key in ("errors", "warnings", "infos"))
            and diagnostic_records(served) == diagnostic_records(reference))


def drop_one_diagnostic(document):
    """A copy of *document* with its first diagnostic removed."""
    copy = json.loads(json.dumps(document))
    for records in copy["families"].values():
        if records:
            records.pop(0)
            return copy
    raise ValueError("document has no diagnostics to drop")


def _source_digest():
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(os.path.join(SRC, "repro")):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def host_stamp():
    """Host cores, Python version and the code's identity."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "implementation": sys.implementation.name,
            "git_sha": sha, "source_sha256": _source_digest()}


def vm_hwm_mb(pid):
    """Peak resident set size (``VmHWM``) of process *pid*, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_env():
    """The environment for a process that imports ``repro`` from
    the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env
