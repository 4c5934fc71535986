"""Live server smoke: `repro serve` + 4 concurrent editors, clean SIGINT.

CI drives the real CLI surface end to end, the way a team would:

1. start `python -m repro serve` as a subprocess on an ephemeral port,
   pre-loading a generated corpus;
2. pipeline BURST `check` frames over one raw connection in one write
   and require BURST `ok` replies in request order;
3. check three other family selections and watch a fourth, and require
   the repository's `stats` to report one view: a selection is a filter
   of the repository's one incremental view, not a view of its own;
4. race 4 concurrent TCP editors on the same epoch, each committing
   EDITS edit-txns through a RetryPolicy (jittered backoff replaying
   conflicts with a refreshed base_epoch) — assert nothing is lost
   (final epoch == total applied, zero failures);
5. verify over `rpc`-style requests that check/stats still answer, that
   the editors' checks all rode one shared view of the repository, and
   that a connection which never checked still sees that view's
   `engine` block in `stats`;
6. SIGINT the server and require a clean "shutting down" exit 0.

Exits non-zero (with a reason on stderr) on any violation.
"""

import collections
import json
import re
import signal
import socket
import subprocess
import sys
import threading
import time

EDITORS = 4
EDITS = 5
BURST = 200
#: the family selections step 3 checks, and the one it watches
SELECTIONS = (["structural"], ["lint", "invariant"],
              ["consistency", "wellformed"])
WATCHED = ["lint"]


def fail(reason):
    print(f"server_smoke: FAIL: {reason}", file=sys.stderr)
    sys.exit(1)


def pipelined_burst(host, port):
    """Send BURST checks in one write; every reply must be `ok`, and
    the replies must come back in request order."""
    payload = b"".join(
        (json.dumps({"id": n, "verb": "check", "params": {"repo": "main"}})
         + "\n").encode() for n in range(1, BURST + 1))
    with socket.create_connection((host, port), timeout=60) as sock:
        sock.sendall(payload)
        reader = sock.makefile("rb")
        replies = []
        for _ in range(BURST):
            line = reader.readline()
            if not line:
                fail(f"pipelined burst: connection closed after "
                     f"{len(replies)} of {BURST} replies")
            replies.append(json.loads(line))
    outcomes = collections.Counter(
        "ok" if reply.get("ok") else reply["error"]["code"]
        for reply in replies)
    if outcomes["ok"] != BURST:
        fail(f"pipelined burst of {BURST} checks: {dict(outcomes)}")
    if [reply["id"] for reply in replies] != list(range(1, BURST + 1)):
        fail("pipelined burst: replies out of request order")
    print(f"server_smoke: {BURST} pipelined checks answered ok, in order")


def selections_share_one_view(host, port):
    """Check SELECTIONS and watch WATCHED; each check must list exactly
    its families, and the repository must still hold one view."""
    from repro.server import TcpClient

    with TcpClient(host, port) as client:
        for families in SELECTIONS:
            document = client.request("check", repo="main",
                                      families=families)
            if sorted(document["families"]) != sorted(families):
                fail(f"check of {families} listed "
                     f"{list(document['families'])}")
        client.request("watch", repo="main", families=WATCHED)
        views = client.request("stats")["server"]["repos"]["main"]["views"]
    if views != 1:
        fail(f"{views} views of main after checks of {len(SELECTIONS)} "
             f"selections and a watch of another; want one view")
    print(f"server_smoke: {len(SELECTIONS)} checked selections and a "
          f"watched one share one view")


def main():
    import random

    from repro.server import RetryPolicy, TcpClient
    from repro.session import Session
    from repro.xmi import write_xml

    corpus = "smoke_corpus.xmi"
    session = Session.generate("demo", size=400, seed=7, repair=True)
    with open(corpus, "w", encoding="utf-8") as handle:
        handle.write(write_xml(session.model))

    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         "--load", f"main={corpus}"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        match = None
        for _ in range(10):  # --load progress lines precede the banner
            banner = proc.stdout.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", banner)
            if match or not banner:
                break
        if not match:
            fail(f"no listen banner, got: {banner!r}")
        host, port = match.group(1), int(match.group(2))
        print(f"server_smoke: serving on {host}:{port}")

        with TcpClient(host, port) as probe:
            probe.request("check", repo="main")
            stats = probe.request("stats", repo="main")
        # eids are emitted as XMI doc ids and reassigned on load, so the
        # local corpus scan names the same elements the server hosts
        eids = []
        for root in session.model.roots:
            for element in [root] + list(root.all_contents()):
                feature = element.meta.all_features().get("name")
                if feature is not None and not feature.many:
                    eids.append(element.eid)
        if stats["model"]["elements"] != session.model.size():
            fail("stats element count mismatch")
        pipelined_burst(host, port)
        selections_share_one_view(host, port)

        failures = []
        replays = []
        barrier = threading.Barrier(EDITORS)

        def editor(tag):
            try:
                policy = RetryPolicy(attempts=32, base_delay=0.01,
                                     max_delay=0.25,
                                     rng=random.Random(hash(tag) & 0xFF))
                with TcpClient(host, port, retry=policy) as client:
                    epoch = client.request("check", repo="main")["epoch"]
                    barrier.wait()
                    for index in range(EDITS):
                        ops = [{"op": "set",
                                "element": eids[(hash(tag) + index)
                                                % len(eids)],
                                "feature": "name",
                                "value": f"{tag}-{index}"}]
                        # conflicts are replayed by the policy, which
                        # refreshes base_epoch from the error itself
                        epoch = client.request(
                            "edit-txn", repo="main",
                            base_epoch=epoch, ops=ops)["epoch"]
                    client.request("check", repo="main")
                    replays.append(policy.retried)
            except Exception as error:  # noqa: BLE001 — report, don't hang
                failures.append(f"{tag}: {error!r}")

        threads = [threading.Thread(target=editor, args=(f"w{n}",))
                   for n in range(EDITORS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        if failures:
            fail("; ".join(failures))

        with TcpClient(host, port) as probe:      # never checks
            summary = probe.request("stats")["server"]["repos"]["main"]
            repo_stats = probe.request("stats", repo="main")
        if summary.get("views") != 1:
            fail(f"{summary.get('views')} views of main after {EDITORS} "
                 f"editors checked; want one shared view")
        if "engine" not in repo_stats:
            fail("stats repo=main from a connection that never checked "
                 "has no engine block")
        expected = EDITORS * EDITS
        if summary["epoch"] != expected:
            fail(f"epoch {summary['epoch']} != {expected} applied edits")
        if summary["edits_applied"] != expected:
            fail(f"edits_applied {summary['edits_applied']} != {expected}")
        print(f"server_smoke: {expected} edit-txns applied, "
              f"{summary['edits_rejected']} conflicts replayed "
              f"({sum(replays)} client retries), "
              f"epoch {summary['epoch']}")

        proc.send_signal(signal.SIGINT)
        output, _ = proc.communicate(timeout=30)
        if proc.returncode != 0:
            fail(f"server exited {proc.returncode}: {output!r}")
        if "shutting down" not in output:
            fail(f"no clean shutdown banner: {output!r}")
        print("server_smoke: clean shutdown — OK")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    main()
