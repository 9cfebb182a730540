#!/usr/bin/env python3
"""Replicated serving: followers, failover, and epoch fencing, end to end.

One primary serves a journalled store over a unix socket; two
:class:`repro.replication.Follower` replicas bootstrap from it, tail its
committed journal lines (appended **byte-identically**, CRC-checked),
and serve reads locally.  A ``replset:`` client connection rides the
whole lifecycle:

* reads go to the primary, and to whichever member answers while there
  is none — no promotion needed;
* a write token (``min_revision``) gives read-your-writes against a
  lagging replica;
* when the primary dies, the freshest follower is promoted at a bumped
  **fencing epoch** — the replica-set client rediscovers it and
  mutations resume, while the promoted journal provably contains every
  acknowledged commit as a byte-identical prefix.

Everything runs in one process via :class:`repro.api.BackgroundServer`;
the same conversation works across machines via ``repro serve``,
``repro replica serve`` and ``repro replica promote``.

Run::

    PYTHONPATH=src python examples/replicated_serving.py
"""

import tempfile
import time
from pathlib import Path

import repro
from repro.api import BackgroundServer, StaleEpochError
from repro.replication import Follower
from repro.server.service import StoreService

BASE = """
    ada.isa -> empl.    ada.sal -> 4000.   ada.pos -> mgr.
    ben.isa -> empl.    ben.sal -> 3200.   ben.boss -> ada.
    cho.isa -> empl.    cho.sal -> 3500.   cho.boss -> ada.
"""

RAISE = """
    raise: mod[E].sal -> (S, S2) <= E.boss -> ada, E.sal -> S, S2 = S * 1.05.
"""


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError("replica never caught up")
        time.sleep(0.02)


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        service = StoreService.create(
            repro.parse_object_base(BASE), scratch / "primary", tag="day0"
        )
        with BackgroundServer(service, path=str(scratch / "p.sock")) as server:
            print(f"primary:  {server.address}")
            replicas = [
                Follower(
                    scratch / f"replica{i}", server.address,
                    heartbeat_interval=0.2,
                ).start()
                for i in (1, 2)
            ]
            for replica in replicas:
                print(f"replica:  {replica.directory.name} following "
                      f"{replica.primary} (from revision "
                      f"{replica.last_sync_from})")

            conn = repro.connect(server.target)
            revision = conn.apply(RAISE, tag="q1-raise")
            print(f"writer:   committed revision {revision.index} "
                  f"[{revision.tag}]")

            # read-your-writes on a replica: pin the read to the commit
            replica_conn = repro.connect(replicas[0].service)
            rows = replica_conn.query(
                "E.sal -> S", min_revision=revision.index
            )
            print(f"replica read (min_revision={revision.index}): "
                  f"{sorted(rows, key=str)}")
            lag = replica_conn.stats()["replication"]
            print(f"replica stats: role={lag['role']} lag={lag['lag']} "
                  f"last_index={lag['last_index']}")

            # journals are byte-identical prefixes — the whole invariant
            wait_until(lambda: all(
                len(r.service.store) == len(service.store) for r in replicas
            ))
            primary_text = (scratch / "primary" / "journal.jsonl").read_text()
            for replica in replicas:
                text = (replica.directory / "journal.jsonl").read_text()
                assert primary_text == text, "replica diverged!"
            print("journals: byte-identical on every member")

            acked = primary_text
            conn.close()

        # --- the primary just died (context manager closed it abruptly)
        survivor = max(replicas, key=lambda r: len(r.service.store))
        epoch = survivor.promote()
        print(f"\nfailover: promoted {survivor.directory.name} "
              f"at fencing epoch {epoch}")

        promoted = repro.connect(survivor.service)
        revision = promoted.apply(RAISE, tag="post-failover")
        print(f"writer:   committed revision {revision.index} "
              f"[{revision.tag}] on the new primary")

        promoted_text = (survivor.directory / "journal.jsonl").read_text()
        assert promoted_text.startswith(acked), "acked history lost!"
        print("history:  every acknowledged byte survives as a prefix")

        # a write demanding a newer epoch than this node's is fenced off —
        # how a zombie primary is stopped from forking history
        try:
            survivor.service.check_epoch(epoch + 1)
        except StaleEpochError as error:
            print(f"fencing:  stale-epoch write rejected "
                  f"(retryable={error.retryable})")

        replica_conn.close()
        promoted.close()
        for replica in replicas:
            replica.close()


if __name__ == "__main__":
    main()
