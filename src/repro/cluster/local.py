"""An in-process N-shard cluster for tests, examples and benchmarks.

:class:`LocalCluster` partitions a seed base with
:func:`~repro.api.partition.split_base`, stands up one
:class:`~repro.api.hosting.BackgroundServer` per shard (real servers,
real sockets — the exact transport the router speaks in production) and
exposes the composed ``cluster:`` target:

>>> import repro                                        # doctest: +SKIP
>>> from repro.cluster import LocalCluster              # doctest: +SKIP
>>> with LocalCluster(BASE, shards=3) as cluster:       # doctest: +SKIP
...     conn = repro.connect(cluster.target)            # doctest: +SKIP
...     conn.query("E.sal -> S")                        # doctest: +SKIP

Production deployments run one ``repro serve`` process per shard instead
(``repro cluster init`` / ``repro cluster launch``).
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from repro.api.hosting import BackgroundServer
from repro.api.partition import split_base
from repro.core.errors import ReproError
from repro.server.service import StoreService
from repro.storage.history import StoreOptions, VersionedStore

__all__ = ["LocalCluster"]


class LocalCluster:
    """``shards`` background servers over a hash-partitioned ``base``.

    ``base`` is an :class:`~repro.core.objectbase.ObjectBase` or
    concrete-syntax text; each shard serves its partition over a unix
    socket in a private scratch directory (removed on :meth:`close`).
    When ``directory`` is given, each shard journals durably under
    ``<directory>/shard-<i>`` instead of running in memory.
    """

    def __init__(
        self,
        base,
        *,
        shards: int,
        tag: str = "initial",
        options: StoreOptions | None = None,
        directory: str | Path | None = None,
    ) -> None:
        if shards < 1:
            raise ReproError("a cluster needs at least one shard")
        if isinstance(base, str):
            from repro.lang.parser import parse_object_base

            base = parse_object_base(base)
        self.count = shards
        self._scratch = Path(tempfile.mkdtemp(prefix="repro-cluster-"))
        self.servers: list[BackgroundServer] = []
        self.services: list[StoreService] = []
        try:
            for shard, piece in enumerate(split_base(base, shards)):
                if directory is None:
                    store = VersionedStore(
                        piece.copy(), tag=tag, options=options
                    )
                    service = StoreService(
                        store, shard_id=shard, shard_count=shards
                    )
                else:
                    service = StoreService.create(
                        piece.copy(), Path(directory) / f"shard-{shard}",
                        tag=tag, options=options,
                        shard_id=shard, shard_count=shards,
                    )
                self.services.append(service)
                self.servers.append(BackgroundServer(
                    service, path=str(self._scratch / f"shard-{shard}.sock")
                ))
        except Exception:
            self.close()
            raise
        self._closed = False

    @property
    def members(self) -> list[str]:
        """Per-shard connect targets, in shard order."""
        return [server.address for server in self.servers]

    @property
    def target(self) -> str:
        """The ``cluster:`` target for :func:`repro.connect`."""
        return "cluster:" + ",".join(self.members)

    def close(self) -> None:
        """Stop every shard server and remove the socket scratch dir."""
        self._closed = True
        for server in self.servers:
            try:
                server.close()
            except Exception:
                pass
        shutil.rmtree(self._scratch, ignore_errors=True)

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
