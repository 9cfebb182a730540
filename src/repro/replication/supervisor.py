"""``repro replicaset`` — an external health checker with auto-promote.

A :class:`ReplicaSet` watches one primary and N follower endpoints (each a
running ``repro serve`` / ``repro replica`` process) from the outside:

* every ``interval`` seconds it pings the primary; ``misses`` consecutive
  failures declare it dead;
* with ``auto_promote`` it then picks the follower whose
  ``stats()["replication"]["last_index"]`` is highest — the one that lost
  the least history — sends it ``repl-promote``, retargets the remaining
  followers at it (``repl-retarget``), and remembers the new epoch;
* if the old primary ever reappears it is fenced (``repl-fence`` at the
  promotion epoch), so its zombie writes raise ``StaleEpochError`` instead
  of forking the journal.

The supervisor holds no state the cluster does not: epochs live in the
journals, so a supervisor restart (or two racing supervisors) can only
push epochs forward — promotion is monotonic, never a rollback.
"""

from __future__ import annotations

import time

from repro.api.model import RetryPolicy
from repro.api.wire import WireConnection
from repro.core.errors import ReproError

__all__ = ["ReplicaSet"]


class ReplicaSet:
    """Supervise one primary and its followers (see the module doc)."""

    def __init__(
        self,
        primary: str,
        followers: list[str],
        *,
        interval: float = 1.0,
        misses: int = 3,
        auto_promote: bool = True,
        call_timeout: float = 5.0,
        report=None,
    ) -> None:
        if not followers:
            raise ReproError("a replica set needs at least one follower")
        self.primary = str(primary)
        self.followers = [str(follower) for follower in followers]
        self.interval = interval
        self.misses = misses
        self.auto_promote = auto_promote
        self.call_timeout = call_timeout
        self.report = report or (lambda message: None)
        self.missed = 0
        self.epoch = 0
        self.promotions = 0
        self.old_primary: str | None = None
        self._conns: dict[str, WireConnection] = {}

    # -- member plumbing ---------------------------------------------------
    def _call(self, target: str, cmd: str, **payload) -> dict:
        conn = self._conns.get(target)
        if conn is None or conn.closed:
            conn = WireConnection([target], call_timeout=self.call_timeout)
            self._conns[target] = conn
        try:
            return conn.call(cmd, **payload)
        except ReproError:
            self._conns.pop(target, None)
            try:
                conn.close()
            except Exception:
                pass
            raise

    def close(self) -> None:
        for conn in self._conns.values():
            try:
                conn.close()
            except Exception:
                pass
        self._conns.clear()

    # -- the health loop ---------------------------------------------------
    def poll_once(self) -> dict:
        """One health sweep; returns what it saw (and did)."""
        state = {"primary": self.primary, "alive": True, "promoted": None}
        try:
            pong = self._call(self.primary, "ping")
            self.missed = 0
            self.epoch = max(self.epoch, pong.get("epoch", 0))
        except ReproError:
            self.missed += 1
            state["alive"] = self.missed < self.misses
            if not state["alive"] and self.auto_promote:
                state["promoted"] = self.promote_best()
        if self.old_primary is not None:
            self._fence_if_back()
        return state

    def run(self, *, duration: float | None = None) -> None:
        """Poll until ``duration`` elapses (forever when ``None``)."""
        deadline = None if duration is None else time.monotonic() + duration
        while deadline is None or time.monotonic() < deadline:
            self.poll_once()
            time.sleep(self.interval)

    # -- promotion ---------------------------------------------------------
    def promote_best(self) -> str | None:
        """Promote the freshest reachable follower; returns its endpoint
        (``None`` when no follower answered — nothing changed)."""
        best: tuple[int, str] | None = None
        for follower in self.followers:
            try:
                stats = self._call(follower, "stats")["stats"]
            except ReproError:
                continue
            last_index = stats.get("replication", {}).get("last_index", -1)
            if best is None or last_index > best[0]:
                best = (last_index, follower)
        if best is None:
            self.report("no follower reachable; promotion deferred")
            return None
        chosen = best[1]
        response = self._call(chosen, "repl-promote", epoch=self.epoch + 1)
        self.epoch = max(self.epoch, response.get("epoch", 0))
        self.promotions += 1
        self.old_primary = self.primary
        self.primary = chosen
        self.missed = 0
        self.followers = [f for f in self.followers if f != chosen]
        self.report(
            f"promoted {chosen} at epoch {self.epoch} "
            f"(last_index {best[0]}); old primary fenced on reappearance"
        )
        for follower in self.followers:
            try:
                self._call(follower, "repl-retarget", primary=chosen)
            except ReproError:
                pass  # it will heartbeat-fail and can be retargeted later
        return chosen

    def _fence_if_back(self) -> None:
        """The old primary came back from the dead: fence it and demote it
        to a plain read target (operators re-seed it as a follower)."""
        try:
            self._call(self.old_primary, "repl-fence", epoch=self.epoch)
        except ReproError:
            return  # still dead; keep watching
        self.report(f"fenced returned primary {self.old_primary} at epoch {self.epoch}")
        self.old_primary = None
