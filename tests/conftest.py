"""Shared fixtures: the paper's example bases and programs, and the
socket-less protocol client."""

from __future__ import annotations

import itertools

import pytest

from repro import UpdateEngine
from repro.server.client import _raise_for
from repro.server.errors import ServerError
from repro.server.protocol import ClientState, Dispatcher
from repro.workloads import (
    ancestors_program,
    hypothetical_base,
    hypothetical_program,
    paper_example_base,
    paper_example_program,
    salary_raise_program,
)
from repro.workloads.genealogy import paper_family_base


@pytest.fixture()
def engine() -> UpdateEngine:
    return UpdateEngine()

@pytest.fixture()
def tracing_engine() -> UpdateEngine:
    return UpdateEngine(collect_trace=True, collect_snapshots=True)


@pytest.fixture()
def paper_base():
    return paper_example_base()


@pytest.fixture()
def paper_base_4100():
    return paper_example_base(bob_salary=4100)


@pytest.fixture()
def paper_program():
    return paper_example_program()


@pytest.fixture()
def raise_program():
    return salary_raise_program()


@pytest.fixture()
def whatif_base():
    return hypothetical_base()


@pytest.fixture()
def whatif_program():
    return hypothetical_program()


@pytest.fixture()
def family_base():
    return paper_family_base()


@pytest.fixture()
def family_program():
    return ancestors_program()


class ProtocolClient:
    """One protocol connection without a socket: the ``Dispatcher`` +
    ``ClientState`` pair ``ReproServer`` builds per connection, with the
    pushes collected in a list."""

    def __init__(self, service) -> None:
        self.service = service
        self.dispatcher = Dispatcher(service)
        self._pushes: list[dict] = []
        self.state = ClientState(self._pushes.append)
        self._ids = itertools.count(1)
        self._closed = False

    def request(self, cmd: str, **payload) -> dict:
        """One command in, the raw response dict out (inspect ``ok``)."""
        if self._closed:
            raise ServerError("client is closed")
        message = {"id": next(self._ids), "cmd": cmd}
        message.update(
            {key: value for key, value in payload.items() if value is not None}
        )
        return self.dispatcher.handle(message, self.state)

    def call(self, cmd: str, **payload) -> dict:
        """Like :meth:`request`, raising the typed error on ``ok: false``."""
        return _raise_for(self.request(cmd, **payload))

    def pushes(self) -> list[dict]:
        """Drain the pushes delivered since the last drain."""
        drained, self._pushes[:] = list(self._pushes), []
        return drained

    def close(self) -> None:
        if not self._closed:
            self.dispatcher.close(self.state)
            self._closed = True


@pytest.fixture()
def protocol_client():
    """``protocol_client(service)`` opens a :class:`ProtocolClient`; every
    one opened is closed at teardown."""
    opened: list[ProtocolClient] = []

    def connect(service) -> ProtocolClient:
        opened.append(ProtocolClient(service))
        return opened[-1]

    yield connect
    for client in opened:
        client.close()
