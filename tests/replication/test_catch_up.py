"""Catch-up of any length travels in the ``repl-stream`` response.

A follower behind its primary by more revisions than a connection's
outbox may hold (``ServerLimits.outbox_hard``) must still catch up: the
backlog is the command's one response, and only later commits are pushed.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.api import BackgroundServer
from repro.lang.parser import parse_object_base
from repro.replication import Follower
from repro.server.protocol import encode
from repro.server.server import ServerLimits
from repro.server.service import StoreService
from repro.storage.serialize import JOURNAL_FILE

BASE = "henry.isa -> empl. henry.sal -> 250."
RAISE = "raise: mod[henry].sal -> (S, S2) <= henry.sal -> S, S2 = S + 50."

#: Far below the catch-up both tests need: 39 lines.
LIMITS = ServerLimits(outbox_soft=8, outbox_hard=16)


def _primary(directory, revisions: int) -> StoreService:
    service = StoreService.create(parse_object_base(BASE), directory, tag="seed")
    for index in range(1, revisions):
        service.apply(RAISE, tag=f"r{index}")
    return service


def _journal_lines(directory) -> list[str]:
    return (directory / JOURNAL_FILE).read_text().splitlines()


def test_repl_stream_answers_a_backlog_beyond_the_outbox_cap(tmp_path):
    service = _primary(tmp_path / "primary", 40)
    socket_path = str(tmp_path / "p.sock")

    async def request() -> dict:
        reader, writer = await asyncio.open_unix_connection(
            socket_path, limit=2**24
        )
        try:
            writer.write(encode({"id": 1, "cmd": "repl-stream", "from_index": 1}))
            await writer.drain()
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                assert line, "the server closed the link without answering"
                frame = json.loads(line)
                assert frame.get("push") != "closed", frame
                if frame.get("id") == 1:
                    return frame
        finally:
            writer.close()

    with BackgroundServer(service, path=socket_path, limits=LIMITS):
        response = asyncio.run(request())
    assert response["ok"] is True
    assert [entry["index"] for entry in response["entries"]] == list(range(1, 40))
    assert [entry["line"] for entry in response["entries"]] == _journal_lines(
        tmp_path / "primary"
    )[2:]  # the header line, then revision 0
    assert response["head"] == 39


def test_follower_catches_up_a_backlog_beyond_the_outbox_cap(tmp_path):
    """The follower's link goes down (retargeted at a socket nobody
    serves, which kicks the link), the primary commits more revisions than
    the outbox holds, and the redial after the link comes back brings the
    follower to the primary's head with a byte-identical journal."""
    service = _primary(tmp_path / "primary", 1)
    socket_path = str(tmp_path / "p.sock")
    with BackgroundServer(service, path=socket_path, limits=LIMITS) as server:
        with Follower(tmp_path / "f", server.address, heartbeat_interval=0.2) as fol:
            fol.start()
            fol.retarget(f"unix:{tmp_path / 'nobody.sock'}")
            deadline = time.monotonic() + 5
            while fol._info()["streaming"]:
                assert time.monotonic() < deadline, "the link never dropped"
                time.sleep(0.01)
            for index in range(1, 40):
                service.apply(RAISE, tag=f"r{index}")
            fol.retarget(server.address)
            deadline = time.monotonic() + 10
            while len(fol.service.store) < len(service.store):
                assert time.monotonic() < deadline, (
                    f"follower stuck at {len(fol.service.store) - 1} of "
                    f"{len(service.store) - 1}"
                )
                time.sleep(0.01)
            assert _journal_lines(tmp_path / "f") == _journal_lines(
                tmp_path / "primary"
            )
