"""One grammar for every ``repro.connect`` target string.

Historically each scheme (``serve:``/``unix:``/``tcp:``/``replset:``) was
parsed ad hoc inside :func:`repro.connect`; every new backend re-derived
the same splitting and the same failure wording.  :func:`parse_target` is
now the single entry: it classifies a target into a typed
:class:`ParsedTarget` and raises a clean
:class:`~repro.core.errors.ReproError` — never a traceback-only
``ValueError``/``IndexError`` — for every malformed form.

Schemes
-------

``memory:``
    An ephemeral in-process store.
``serve:<endpoint>`` / ``unix:<path>`` / ``tcp:<host>:<port>``
    One running server (a bare path naming a *live* unix socket also
    resolves here).
``replset:<endpoint>,<endpoint>,...``
    A replicated deployment: one served connection over every member —
    it fails over when the link dies and follows the primary.
``cluster:<shard>,<shard>,...``
    A hash-partitioned deployment (one shard per comma-separated spec, in
    shard-index order).  A spec may itself be a ``|``-separated member
    list, which makes that shard a replica set:
    ``cluster:unix:a.sock,unix:b1.sock|unix:b2.sock`` is a two-shard
    cluster whose second shard fails over between two members.
anything else
    A journal directory path.
"""

from __future__ import annotations

import stat
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.errors import ReproError

__all__ = ["ParsedTarget", "parse_target", "wire_endpoint", "dial_endpoint"]

#: Scheme prefixes that may never appear nested inside a member spec.
_NESTED_SCHEMES = ("memory:", "replset:", "cluster:")


@dataclass(frozen=True)
class ParsedTarget:
    """One classified connect target.

    ``scheme`` is one of ``"memory"``, ``"wire"``, ``"replset"``,
    ``"cluster"`` or ``"journal"``.  Exactly the fields of that scheme are
    populated: ``endpoint`` (wire kwargs: ``{"path": ...}`` or ``{"host":
    ..., "port": ...}``), ``members`` (replica-set endpoints), ``shards``
    (one member tuple per shard, shard-index order) or ``path`` (journal
    directory).
    """

    scheme: str
    text: str
    endpoint: dict | None = None
    members: tuple[str, ...] = ()
    shards: tuple[tuple[str, ...], ...] = field(default=())
    path: Path | None = None


def parse_target(target) -> ParsedTarget:
    """Classify ``target`` (a string or path; see the module doc).

    Malformed targets raise :class:`~repro.core.errors.ReproError` with a
    message naming the offending piece — the one failure surface every
    scheme shares.
    """
    if isinstance(target, Path):
        return ParsedTarget(scheme="journal", text=str(target), path=target)
    if not isinstance(target, str):
        raise ReproError(
            f"connect() needs a target string, path, StoreService or "
            f"VersionedStore, not {type(target).__name__}"
        )
    text = target
    if text == "memory:":
        return ParsedTarget(scheme="memory", text=text)
    if text.startswith("replset:"):
        members = _split_members(
            text[len("replset:"):], scheme="replset", what="member endpoint"
        )
        return ParsedTarget(scheme="replset", text=text, members=members)
    if text.startswith("cluster:"):
        return ParsedTarget(
            scheme="cluster", text=text, shards=_split_shards(text)
        )
    endpoint = wire_endpoint(text)
    if endpoint is not None:
        return ParsedTarget(scheme="wire", text=text, endpoint=endpoint)
    return ParsedTarget(scheme="journal", text=text, path=Path(text))


def _split_members(rest: str, *, scheme: str, what: str) -> tuple[str, ...]:
    members = tuple(part.strip() for part in rest.split(",") if part.strip())
    if not members:
        raise ReproError(
            f"{scheme}: target needs at least one {what} after the colon"
        )
    for member in members:
        _check_member(member, scheme=scheme)
    return members

def _split_shards(text: str) -> tuple[tuple[str, ...], ...]:
    shards: list[tuple[str, ...]] = []
    specs = [part.strip() for part in text[len("cluster:"):].split(",")]
    for position, spec in enumerate(specs):
        if not spec:
            if position == len(specs) - 1:
                continue  # a forgiving trailing comma, like replset:
            raise ReproError(
                f"cluster: shard {position} is empty — every "
                f"comma-separated spec must name at least one endpoint"
            )
        members = tuple(
            member.strip() for member in spec.split("|") if member.strip()
        )
        if not members:
            raise ReproError(
                f"cluster: shard {position} is empty — every "
                f"comma-separated spec must name at least one endpoint"
            )
        for member in members:
            _check_member(member, scheme="cluster")
        shards.append(members)
    if not shards:
        raise ReproError(
            "cluster: target needs at least one shard endpoint after the "
            "colon"
        )
    return tuple(shards)


def _check_member(member: str, *, scheme: str) -> None:
    for nested in _NESTED_SCHEMES:
        if member.startswith(nested):
            raise ReproError(
                f"{scheme}: members must be plain served endpoints "
                f"(serve:/unix:/tcp:/socket path), not {member!r}"
            )
    # Validate explicit wire schemes eagerly so a typo fails at connect
    # time; bare paths are left alone — a member may simply be down.
    if member.startswith(("serve:", "unix:", "tcp:")):
        wire_endpoint(member)


def wire_endpoint(text: str) -> dict | None:
    """Parse a served target into :class:`~repro.api.wire.WireConnection`
    kwargs, or ``None`` when the target is not a served endpoint."""
    if text.startswith("serve:"):
        rest = text[len("serve:"):]
        inner = wire_endpoint(rest)
        if inner is not None:
            return inner
        host_port = _host_port(rest)
        if host_port is not None:
            return host_port
        if not rest:
            raise ReproError("serve: target needs an endpoint after the colon")
        return {"path": rest}
    if text.startswith("unix:"):
        path = text[len("unix:"):]
        if not path:
            raise ReproError("unix: target needs a socket path")
        return {"path": path}
    if text.startswith("tcp:"):
        host_port = _host_port(text[len("tcp:"):])
        if host_port is None:
            raise ReproError(f"tcp: target needs host:port, got {text!r}")
        return host_port
    try:
        if stat.S_ISSOCK(Path(text).stat().st_mode):
            return {"path": text}
    except OSError:
        pass
    return None


def dial_endpoint(text: str) -> dict:
    """Dial kwargs (``path`` or ``host``/``port``) for one member endpoint.

    Unlike :func:`wire_endpoint`, a bare path that names no live socket is
    still a unix endpoint here: a replica-set member, a follower's primary
    or a supervised node may simply be down right now."""
    endpoint = wire_endpoint(text)
    return {"path": text} if endpoint is None else endpoint


def _host_port(text: str) -> dict | None:
    host, separator, port = text.rpartition(":")
    if separator and host and port.isdigit():
        return {"host": host, "port": int(port)}
    return None
