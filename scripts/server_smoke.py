#!/usr/bin/env python3
"""CI smoke test for the serving subsystem, driven entirely through the CLI.

Scenario (what the CI job runs)::

    PYTHONPATH=src python scripts/server_smoke.py

1. ``repro store init`` a journal directory from a small base;
2. start ``repro serve`` on a unix socket as a subprocess and wait for its
   readiness banner;
3. start ``repro client subscribe`` (another subprocess) on a salary query
   and wait until it printed the initial answers;
4. ``repro client apply`` a raise — the subscriber must print exactly one
   answer-diff JSON line and exit 0;
5. ``repro client tx`` an optimistic transaction with a read footprint;
6. ``repro client log`` must show the three revisions; a bad revision
   reference must exit non-zero with a clean message; ``repro client
   --target STORE log`` reads the live server's journal directory
   read-only: the same tags, and not one journal byte changed;
7. terminate the server (graceful drain) and check the journal kept the
   transaction (``repro client --target STORE log``);
8. restart, commit once more, then SIGKILL the server: every
   acknowledged journal byte must survive the crash, ``repro store
   verify`` must pass, and a restarted server must replay the journal
   byte-identically and serve the full history;
9. replication failover: attach a ``repro replica serve`` follower,
   SIGKILL the primary mid-subscription, ``repro replica promote
   --takeover`` the follower onto the dead primary's socket — the
   follower's journal must hold every acknowledged byte as an identical
   prefix, the reconnecting subscriber must receive exactly one
   coalesced ``lagged`` resync, and writes must resume on the old
   socket at the new fencing epoch.
10. sharded cluster: ``repro cluster init`` a 2-shard layout, ``repro
    cluster launch`` both shards, commit a single-host program to each
    shard through the ``cluster:`` router, scatter-gather a cross-shard
    query, check ``repro top --target cluster:...`` shows every shard as
    a primary; then attach a replica to one
    shard, SIGKILL that shard's primary, promote the replica, and verify
    the router (with the shard spelled ``primary|replica``) fails over
    and still returns the full, correct answer set.

Exits 0 when every step holds; prints the failing step and exits 1
otherwise.  No external dependencies beyond the repo itself.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PYTHON = sys.executable

BASE = """
phil.isa -> empl.  phil.sal -> 4000.
bob.isa -> empl.   bob.sal -> 4200.  bob.boss -> phil.
"""

RAISE = "raise: mod[phil].sal -> (S, S2) <= phil.sal -> S, S2 = S + 100.\n"
RAISE_BOB = "raise_bob: mod[bob].sal -> (S, S2) <= bob.sal -> S, S2 = S + 50.\n"

# For the cluster step: under 2 shards, henry hashes to shard 0 and phil
# to shard 1 (crc32 placement — process-stable), so these two hosts pin
# one single-host commit to each shard and make the salary query a true
# scatter-gather read.
CLUSTER_BASE = """
phil.isa -> empl.  phil.sal -> 4000.
henry.isa -> empl. henry.sal -> 4200.
"""
RAISE_HENRY = (
    "raise_henry: mod[henry].sal -> (S, S2) <= henry.sal -> S, "
    "S2 = S + 50.\n"
)


def cli(*args: str, check: bool = True, timeout: float = 60.0):
    """Run one repro CLI invocation to completion."""
    result = subprocess.run(
        [PYTHON, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=REPO,
    )
    if check and result.returncode != 0:
        fail(
            f"`repro {' '.join(args)}` exited {result.returncode}\n"
            f"stdout: {result.stdout}\nstderr: {result.stderr}"
        )
    return result


def tags(log: str) -> list[str]:
    """The tag column of ``repro client log`` output."""
    return [line[7:].split()[0] for line in log.splitlines() if line.strip()]


def fail(message: str) -> None:
    print(f"SMOKE FAILURE: {message}", file=sys.stderr)
    raise SystemExit(1)


def read_lines_background(stream, sink: list, done: threading.Event) -> None:
    for line in stream:
        sink.append(line.rstrip("\n"))
    done.set()


def wait_for(predicate, what: str, timeout: float = 30.0) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    fail(f"timed out waiting for {what}")


def start_server(store_dir: Path, socket_path: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [PYTHON, "-m", "repro", "serve", "--dir", str(store_dir),
         "--socket", str(socket_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO,
    )


def start_shard(
    store_dir: Path, socket_path: Path, shard: int, count: int
) -> subprocess.Popen:
    return subprocess.Popen(
        [PYTHON, "-m", "repro", "serve", "--dir", str(store_dir),
         "--socket", str(socket_path),
         "--shard-id", str(shard), "--shard-count", str(count)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO,
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        base_file = scratch / "world.ob"
        base_file.write_text(BASE, encoding="utf-8")
        raise_file = scratch / "raise.upd"
        raise_file.write_text(RAISE, encoding="utf-8")
        raise_bob_file = scratch / "raise_bob.upd"
        raise_bob_file.write_text(RAISE_BOB, encoding="utf-8")
        store_dir = scratch / "store"
        socket_path = scratch / "repro.sock"

        print("1. store init")
        cli("store", "init", "--dir", str(store_dir), "--base", str(base_file))

        print("2. starting repro serve")
        server = start_server(store_dir, socket_path)
        try:
            wait_for(socket_path.exists, "the server socket")
            assert cli("client", "--socket", str(socket_path), "ping").stdout.startswith("pong")

            print("3. starting a subscriber")
            subscriber = subprocess.Popen(
                [PYTHON, "-m", "repro", "client", "--socket", str(socket_path),
                 "subscribe", "E.isa -> empl, E.sal -> S",
                 "--pushes", "1", "--timeout", "30"],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                cwd=REPO,
            )
            lines: list[str] = []
            finished = threading.Event()
            threading.Thread(
                target=read_lines_background,
                args=(subscriber.stdout, lines, finished),
                daemon=True,
            ).start()
            # the initial answer set (two rows) prints before any push
            wait_for(lambda: len(lines) >= 2, "the subscriber's initial answers")
            if "S = 4000" not in lines[0] + lines[1]:
                fail(f"unexpected initial answers: {lines[:2]}")

            print("4. applying a raise; expecting one answer diff")
            cli("client", "--socket", str(socket_path), "apply",
                "--program", str(raise_file), "--tag", "smoke-raise")
            wait_for(finished.is_set, "the subscriber to receive its diff")
            if subscriber.wait(timeout=30) != 0:
                fail(f"subscriber exited {subscriber.returncode}: "
                     f"{subscriber.stderr.read()}")
            diff = json.loads(lines[-1])
            if diff["push"] != "diff" or diff["tag"] != "smoke-raise":
                fail(f"unexpected push message: {diff}")
            if diff["added"] != [{"E": "phil", "S": 4100}]:
                fail(f"unexpected answer diff: {diff['added']}")
            if diff["removed"] != [{"E": "phil", "S": 4000}]:
                fail(f"unexpected answer diff: {diff['removed']}")

            print("5. optimistic transaction with a read footprint")
            transaction = cli(
                "client", "--socket", str(socket_path), "tx",
                "--program", str(raise_bob_file),
                "--read", "bob.sal -> S", "--tag", "smoke-tx",
            )
            if "committed revision 2" not in transaction.stderr:
                fail(f"unexpected tx outcome: {transaction.stderr}")

            print("6. log and error handling")
            log = cli("client", "--socket", str(socket_path), "log").stdout
            for expected in ("initial", "smoke-raise", "smoke-tx"):
                if expected not in log:
                    fail(f"revision {expected!r} missing from log:\n{log}")
            bad = cli("client", "--socket", str(socket_path), "as-of", "nope",
                      check=False)
            if bad.returncode == 0 or "error:" not in bad.stderr:
                fail("bad revision reference did not fail cleanly")
            journal_file = store_dir / "journal.jsonl"
            live_bytes = journal_file.read_bytes()
            local = cli("client", "--target", str(store_dir), "log").stdout
            if tags(local) != tags(log):
                fail(f"the directory and the server disagree on the log:\n"
                     f"{local}\nvs\n{log}")
            if journal_file.read_bytes() != live_bytes:
                fail("reading the live server's directory changed its journal")

            print("7. durability: restart replays the journal")
            server.terminate()
            server.wait(timeout=30)
            log_output = cli("client", "--target", str(store_dir), "log").stdout
            if "smoke-tx" not in log_output:
                fail(f"journal lost the transaction:\n{log_output}")

            print("8. crash safety: SIGKILL, verify, byte-identical replay")
            server = start_server(store_dir, socket_path)
            # the crashed socket file may linger, so readiness is a ping
            wait_for(
                lambda: cli("client", "--socket", str(socket_path), "ping",
                            check=False).returncode == 0,
                "the restarted server",
            )
            cli("client", "--socket", str(socket_path), "apply",
                "--program", str(raise_file), "--tag", "smoke-crash")
            acknowledged = journal_file.read_bytes()
            server.kill()  # SIGKILL: no drain, no goodbye
            server.wait(timeout=30)
            if journal_file.read_bytes() != acknowledged:
                fail("SIGKILL lost or mangled acknowledged journal bytes")
            audit = cli("store", "verify", "--dir", str(store_dir))
            if "ok" not in audit.stdout:
                fail(f"journal failed verification after SIGKILL:\n"
                     f"{audit.stdout}")
            server = start_server(store_dir, socket_path)
            wait_for(
                lambda: cli("client", "--socket", str(socket_path), "ping",
                            check=False).returncode == 0,
                "the server after the crash",
            )
            log = cli("client", "--socket", str(socket_path), "log").stdout
            for expected in ("initial", "smoke-raise", "smoke-tx",
                             "smoke-crash"):
                if expected not in log:
                    fail(f"revision {expected!r} lost in the crash:\n{log}")
            server.terminate()
            server.wait(timeout=30)
            if journal_file.read_bytes() != acknowledged:
                fail("replaying after the crash rewrote the journal")

            print("9. replica failover: follower, SIGKILL, promote, takeover")
            replica_dir = scratch / "replica"
            replica_sock = scratch / "replica.sock"
            server = start_server(store_dir, socket_path)
            wait_for(
                lambda: cli("client", "--socket", str(socket_path), "ping",
                            check=False).returncode == 0,
                "the primary before replication",
            )
            replica = subprocess.Popen(
                [PYTHON, "-m", "repro", "replica", "serve",
                 "--dir", str(replica_dir),
                 "--primary", f"unix:{socket_path}",
                 "--socket", str(replica_sock),
                 "--heartbeat-interval", "0.2"],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                cwd=REPO,
            )
            try:
                wait_for(
                    lambda: cli("client", "--socket", str(replica_sock),
                                "ping", check=False).returncode == 0,
                    "the replica to bootstrap and serve",
                )
                denied = cli("client", "--socket", str(replica_sock),
                             "apply", "--program", str(raise_file),
                             check=False)
                if denied.returncode == 0:
                    fail("a replica accepted a write before promotion")

                subscriber = subprocess.Popen(
                    [PYTHON, "-m", "repro", "client",
                     "--socket", str(socket_path), "--retry", "30",
                     "subscribe", "E.isa -> empl, E.sal -> S",
                     "--pushes", "2", "--timeout", "60"],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    cwd=REPO,
                )
                lines = []
                finished = threading.Event()
                threading.Thread(
                    target=read_lines_background,
                    args=(subscriber.stdout, lines, finished),
                    daemon=True,
                ).start()
                wait_for(lambda: len(lines) >= 2,
                         "the failover subscriber's initial answers")
                cli("client", "--socket", str(socket_path), "apply",
                    "--program", str(raise_file), "--tag", "smoke-replicated")
                wait_for(lambda: len(lines) >= 3,
                         "the pre-failover answer diff")
                replica_journal = replica_dir / "journal.jsonl"
                wait_for(
                    lambda: replica_journal.exists()
                    and replica_journal.read_bytes()
                    == journal_file.read_bytes(),
                    "the replica to catch up byte-for-byte",
                )
                acknowledged = journal_file.read_bytes()

                server.kill()  # SIGKILL: the replica's heartbeats notice
                server.wait(timeout=30)
                promote = cli("replica", "promote",
                              "--socket", str(replica_sock))
                if "promoted at epoch" not in promote.stderr:
                    fail(f"unexpected promote outcome: {promote.stderr}")

                # a write the disconnected subscriber misses: it lands on
                # the promoted replica while the old socket is still dead
                cli("client", "--socket", str(replica_sock), "apply",
                    "--program", str(raise_file), "--tag", "smoke-failover")

                # now claim the dead primary's socket; the reconnecting
                # subscriber lands on the promoted replica and catches up
                # with exactly one coalesced lagged resync
                takeover = cli("replica", "promote",
                               "--socket", str(replica_sock),
                               "--takeover", str(socket_path))
                if "taking over" not in takeover.stderr:
                    fail(f"unexpected takeover outcome: {takeover.stderr}")
                wait_for(finished.is_set,
                         "the subscriber to ride the failover",
                         timeout=60)
                if subscriber.wait(timeout=30) != 0:
                    fail(f"failover subscriber exited "
                         f"{subscriber.returncode}: "
                         f"{subscriber.stderr.read()}")
                resync = json.loads(lines[-1])
                if not resync.get("lagged"):
                    fail(f"expected one coalesced lagged resync, got: "
                         f"{resync}")
                if not resync["added"] or not resync["removed"]:
                    fail(f"the lagged resync carried no catch-up diff: "
                         f"{resync}")

                # writes resume on the dead primary's socket, now served
                # by the promoted replica at the new fencing epoch
                cli("client", "--socket", str(socket_path), "apply",
                    "--program", str(raise_file), "--tag", "smoke-resumed")
                promoted_bytes = replica_journal.read_bytes()
                if not promoted_bytes.startswith(acknowledged):
                    fail("the promoted journal is not a byte-identical "
                         "superset of the acknowledged history")
                if len(promoted_bytes) <= len(acknowledged):
                    fail("the post-failover write never reached the "
                         "promoted journal")
                audit = cli("store", "verify", "--dir", str(replica_dir))
                if "ok" not in audit.stdout or "epoch" not in audit.stdout:
                    fail(f"promoted journal failed verification:\n"
                         f"{audit.stdout}")
            finally:
                if replica.poll() is None:
                    replica.terminate()
                    replica.wait(timeout=15)

            print("10. sharded cluster: init, launch, scatter-gather reads")
            cluster_dir = scratch / "cluster"
            cluster_base = scratch / "cluster_world.ob"
            cluster_base.write_text(CLUSTER_BASE, encoding="utf-8")
            raise_henry_file = scratch / "raise_henry.upd"
            raise_henry_file.write_text(RAISE_HENRY, encoding="utf-8")
            cli("cluster", "init", "--dir", str(cluster_dir),
                "--base", str(cluster_base), "--shards", "2")
            launcher = subprocess.Popen(
                [PYTHON, "-m", "repro", "cluster", "launch",
                 "--dir", str(cluster_dir)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                cwd=REPO,
            )
            try:
                cluster_target = launcher.stdout.readline().strip()
                if not cluster_target.startswith("cluster:"):
                    fail(f"cluster launch printed no target: "
                         f"{cluster_target!r}")
                wait_for(
                    lambda: cli("client", "--target", cluster_target,
                                "ping", check=False).returncode == 0,
                    "the cluster router to answer",
                )
                # one single-host commit per shard, through the router
                cli("client", "--target", cluster_target, "apply",
                    "--program", str(raise_file), "--tag", "cluster-phil")
                cli("client", "--target", cluster_target, "apply",
                    "--program", str(raise_henry_file),
                    "--tag", "cluster-henry")
                scatter = cli("client", "--target", cluster_target, "query",
                              "E.isa -> empl, E.sal -> S").stdout
                if ("E = phil, S = 4100" not in scatter
                        or "E = henry, S = 4250" not in scatter):
                    fail(f"scatter read lost a shard's answers:\n{scatter}")
                gather = cli("client", "--target", cluster_target, "query",
                             "henry.sal -> T, phil.sal -> S").stdout
                if "S = 4100, T = 4250" not in gather:
                    fail(f"cross-shard gather join went wrong:\n{gather}")
                status = cli("top", "--target", cluster_target,
                             "--iterations", "1").stdout
                if status.count("primary") < 2:
                    fail(f"cluster dashboard missing shard rows:\n{status}")
            finally:
                if launcher.poll() is None:
                    launcher.terminate()
                    launcher.wait(timeout=30)

            print("11. shard failover behind the cluster router")
            shard0_sock = scratch / "c0.sock"
            shard1_sock = scratch / "c1.sock"
            shard0 = start_shard(cluster_dir / "shard-0", shard0_sock, 0, 2)
            shard1 = start_shard(cluster_dir / "shard-1", shard1_sock, 1, 2)
            shard0_replica_dir = scratch / "shard0-replica"
            shard0_replica_sock = scratch / "c0r.sock"
            shard0_replica = subprocess.Popen(
                [PYTHON, "-m", "repro", "replica", "serve",
                 "--dir", str(shard0_replica_dir),
                 "--primary", f"unix:{shard0_sock}",
                 "--socket", str(shard0_replica_sock),
                 "--heartbeat-interval", "0.2"],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                cwd=REPO,
            )
            try:
                failover_target = (
                    f"cluster:unix:{shard0_sock}|unix:{shard0_replica_sock},"
                    f"unix:{shard1_sock}"
                )
                wait_for(
                    lambda: cli("client", "--socket", str(shard1_sock),
                                "ping", check=False).returncode == 0,
                    "shard 1 to serve",
                )
                shard0_journal = cluster_dir / "shard-0" / "journal.jsonl"
                replica_journal = shard0_replica_dir / "journal.jsonl"
                wait_for(
                    lambda: replica_journal.exists()
                    and replica_journal.read_bytes()
                    == shard0_journal.read_bytes(),
                    "the shard-0 replica to catch up byte-for-byte",
                )
                # the router accepts the primary|replica shard spelling
                cli("client", "--target", failover_target, "apply",
                    "--program", str(raise_file), "--tag", "cluster-phil-2")

                shard0.kill()  # SIGKILL shard 0's primary: no goodbye
                shard0.wait(timeout=30)
                promote = cli("replica", "promote",
                              "--socket", str(shard0_replica_sock))
                if "promoted at epoch" not in promote.stderr:
                    fail(f"shard-0 promote went wrong: {promote.stderr}")

                # writes and scatter reads keep working through the router
                cli("client", "--target", failover_target, "apply",
                    "--program", str(raise_henry_file),
                    "--tag", "cluster-failover")
                scatter = cli("client", "--target", failover_target, "query",
                              "E.isa -> empl, E.sal -> S").stdout
                if ("E = phil, S = 4200" not in scatter
                        or "E = henry, S = 4300" not in scatter):
                    fail(f"post-failover scatter answers are wrong:\n"
                         f"{scatter}")
                status = cli("top", "--target", failover_target,
                             "--iterations", "1").stdout
                if status.count("primary") < 2:
                    fail(f"post-failover cluster dashboard went wrong:\n"
                         f"{status}")
            finally:
                for process in (shard0, shard1, shard0_replica):
                    if process.poll() is None:
                        process.terminate()
                for process in (shard0, shard1, shard0_replica):
                    try:
                        process.wait(timeout=15)
                    except subprocess.TimeoutExpired:
                        process.kill()
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10)

    print("server smoke test OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
