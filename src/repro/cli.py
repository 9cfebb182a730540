"""Command-line interface: run update-programs against object-base files.

Usage (installed as ``repro-updates``, also ``python -m repro``)::

    repro-updates apply --program update.upd --base world.ob [--trace]
    repro-updates stratify --program update.upd [--conditions abcd]
    repro-updates check --program update.upd
    repro-updates query --base world.ob "E.isa -> empl, E.sal -> S"
    repro-updates store init --dir STORE --base world.ob
    repro-updates store apply --dir STORE --program update.upd [--tag t]
    repro-updates store log --dir STORE
    repro-updates store diff --dir STORE OLDER NEWER
    repro-updates store as-of --dir STORE REVISION [--out new.ob]
    repro-updates store compact --dir STORE [--interval N]
    repro-updates store verify --dir STORE [--json]
    repro-updates serve --dir STORE --socket /tmp/repro.sock
    repro-updates serve --dir STORE --socket S --durability fsync
    repro-updates client --socket /tmp/repro.sock query "E.sal -> S"
    repro-updates client --socket /tmp/repro.sock subscribe "E.sal -> S" --pushes 1
    repro-updates client --socket /tmp/repro.sock tx --program update.upd
    repro-updates replica serve --dir R --primary unix:P.sock --socket R.sock
    repro-updates replica promote --socket R.sock [--takeover P.sock]
    repro-updates replicaset --primary unix:P.sock --follower unix:R.sock
    repro-updates serve --dir STORE --socket S --metrics
    repro-updates client --socket S metrics [--json]
    repro-updates client --socket S slowlog [--clear]
    repro-updates top --socket S [--interval 2] [--iterations N]
    repro-updates cluster init --dir C --base world.ob --shards 4
    repro-updates cluster launch --dir C [--supervise]
    repro-updates cluster status cluster:unix:C/shard-0.sock,unix:C/shard-1.sock
    repro-updates top --target cluster:unix:A,unix:B

``apply`` prints the new object base (``ob'``) to stdout, or writes it with
``--out``; ``--result-base`` dumps ``result(P)`` with all versions instead.
``store`` commands operate on a durable journal directory (JSONL delta log
plus periodic snapshots) holding a whole revision chain.  ``serve`` exposes
a journal directory over the concurrent JSON-lines protocol (MVCC sessions,
optimistic transactions, push-based live queries); ``client`` talks to it.

The ``store`` and ``client`` command groups run through the unified
connection facade (``repro.connect``) — the CLI is just another caller of
the public API, so journal directories and served sockets behave
identically here and in embedding code.

Every handler exits 0 on success and non-zero with a one-line ``error: …``
on stderr for expected failures (unknown tags/revisions, missing files,
corrupt journals, connection problems) — no tracebacks.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

from repro.core.engine import UpdateEngine
from repro.core.errors import ReproError
from repro.core.query import query_literals
from repro.core.safety import check_rule_safety
from repro.core.stratification import stratify
from repro.lang.parser import parse_body, parse_object_base, parse_program
from repro.lang.pretty import format_object_base

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-updates",
        description=(
            "Rule-based updates for object bases with version identities "
            "(Kramer/Lausen/Saake, VLDB 1992)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    apply_cmd = commands.add_parser("apply", help="run a program, print ob'")
    apply_cmd.add_argument("--program", required=True, type=Path)
    apply_cmd.add_argument("--base", required=True, type=Path)
    apply_cmd.add_argument(
        "--views",
        type=Path,
        help="derived-method rules (version-term heads) readable by the "
        "program's rule bodies (repro.ext.derived)",
    )
    apply_cmd.add_argument("--out", type=Path, help="write ob' here instead of stdout")
    apply_cmd.add_argument(
        "--trace", action="store_true", help="print the evaluation trace"
    )
    apply_cmd.add_argument(
        "--result-base",
        action="store_true",
        help="print result(P) (all versions) instead of ob'",
    )
    apply_cmd.add_argument(
        "--no-linearity-check",
        action="store_true",
        help="skip the Section 5 run-time check (a posteriori check still "
        "runs when building ob')",
    )

    stratify_cmd = commands.add_parser(
        "stratify", help="print the stratification and its justification"
    )
    stratify_cmd.add_argument("--program", required=True, type=Path)
    stratify_cmd.add_argument(
        "--conditions",
        default="abcd",
        help="subset of 'abcd' to apply (default: all, as in Section 4)",
    )

    check_cmd = commands.add_parser(
        "check", help="report safety and stratifiability per rule"
    )
    check_cmd.add_argument("--program", required=True, type=Path)
    check_cmd.add_argument(
        "--lint",
        action="store_true",
        help="also run the static diagnostics (repro.analysis.lint)",
    )

    query_cmd = commands.add_parser("query", help="answer a conjunctive query")
    query_cmd.add_argument("--base", required=True, type=Path)
    query_cmd.add_argument("body", help="query text, e.g. 'E.isa -> empl'")

    store_cmd = commands.add_parser(
        "store", help="manage a durable versioned-store journal directory"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)

    def _dir_arg(sub):
        sub.add_argument(
            "--dir", required=True, type=Path, dest="directory",
            help="journal directory",
        )

    init_cmd = store_sub.add_parser(
        "init", help="create a journal from an object-base file"
    )
    _dir_arg(init_cmd)
    init_cmd.add_argument("--base", required=True, type=Path)
    init_cmd.add_argument("--tag", default="initial")
    init_cmd.add_argument(
        "--snapshot-interval", type=int, default=None,
        help="materialize a full snapshot every N revisions",
    )

    store_apply_cmd = store_sub.add_parser(
        "apply", help="run a program against the head, append one revision"
    )
    _dir_arg(store_apply_cmd)
    store_apply_cmd.add_argument("--program", required=True, type=Path)
    store_apply_cmd.add_argument("--tag", default="")

    log_cmd = store_sub.add_parser("log", help="list the revision chain")
    _dir_arg(log_cmd)

    diff_cmd = store_sub.add_parser(
        "diff", help="added/removed facts between two revisions"
    )
    _dir_arg(diff_cmd)
    diff_cmd.add_argument("older", help="revision tag or index")
    diff_cmd.add_argument("newer", help="revision tag or index")
    diff_cmd.add_argument("--include-exists", action="store_true")

    asof_cmd = store_sub.add_parser(
        "as-of", help="print the base as of a revision"
    )
    _dir_arg(asof_cmd)
    asof_cmd.add_argument("revision", help="revision tag or index")
    asof_cmd.add_argument("--out", type=Path, help="write here instead of stdout")

    compact_cmd = store_sub.add_parser(
        "compact", help="rewrite the journal under a fresh snapshot interval"
    )
    _dir_arg(compact_cmd)
    compact_cmd.add_argument("--interval", type=int, default=None)

    verify_cmd = store_sub.add_parser(
        "verify",
        help="audit the journal without replaying it: per-line checksums, "
        "chain order, snapshot presence; non-zero exit on any damage",
    )
    _dir_arg(verify_cmd)
    verify_cmd.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )

    serve_cmd = commands.add_parser(
        "serve",
        help="serve a journal directory over the concurrent JSON-lines "
        "protocol (MVCC sessions, optimistic transactions, live queries)",
    )
    _dir_arg(serve_cmd)
    serve_cmd.add_argument(
        "--socket", type=Path, default=None,
        help="listen on a unix socket at this path",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=None,
        help="listen on TCP (0 picks a free port, printed on stderr)",
    )
    serve_cmd.add_argument(
        "--durability", choices=["none", "flush", "fsync"], default=None,
        help="journal write discipline for served commits (default: flush; "
        "fsync survives power loss, none is fastest)",
    )
    serve_cmd.add_argument(
        "--shutdown-deadline", type=float, default=None, metavar="SECONDS",
        help="on SIGTERM/SIGINT, stop accepting, finish in-flight work and "
        "flush outboxes for at most this long before cutting connections",
    )
    serve_cmd.add_argument(
        "--metrics", action="store_true",
        help="enable the observability registry for this process (same as "
        "REPRO_OBS=1): commit-phase/per-rule/wire histograms, readable via "
        "`repro client metrics` and `repro top`",
    )
    serve_cmd.add_argument(
        "--shard-id", type=int, default=None, metavar="I",
        help="declare this server shard I of a hash-partitioned cluster "
        "(routers verify the declared identity at connect time)",
    )
    serve_cmd.add_argument(
        "--shard-count", type=int, default=None, metavar="N",
        help="declare the cluster's shard count (with --shard-id)",
    )

    cluster_cmd = commands.add_parser(
        "cluster",
        help="manage a hash-partitioned shard cluster "
        "(init/launch/status; connect with cluster:a,b,...)",
    )
    cluster_sub = cluster_cmd.add_subparsers(
        dest="cluster_command", required=True
    )
    cluster_init = cluster_sub.add_parser(
        "init",
        help="partition an object-base file into N per-shard journal "
        "directories plus a cluster.json manifest",
    )
    cluster_init.add_argument(
        "--dir", required=True, type=Path, dest="directory",
        help="cluster directory (shard journals land under shard-<i>/)",
    )
    cluster_init.add_argument("--base", required=True, type=Path)
    cluster_init.add_argument(
        "--shards", required=True, type=int, metavar="N",
    )
    cluster_init.add_argument("--tag", default="initial")
    cluster_launch = cluster_sub.add_parser(
        "launch",
        help="start one `repro serve` process per shard of an initialized "
        "cluster directory; prints the cluster: connect target",
    )
    cluster_launch.add_argument(
        "--dir", required=True, type=Path, dest="directory",
    )
    cluster_launch.add_argument(
        "--supervise", action="store_true",
        help="restart a shard server that exits (until this process is "
        "stopped)",
    )
    cluster_launch.add_argument(
        "--metrics", action="store_true",
        help="launch every shard with the metrics registry enabled",
    )
    cluster_launch.add_argument(
        "--durability", choices=["none", "flush", "fsync"], default=None,
    )
    cluster_status = cluster_sub.add_parser(
        "status",
        help="ping every shard of a cluster: target and print the "
        "per-shard status table",
    )
    cluster_status.add_argument(
        "target", help="a cluster: target, e.g. cluster:unix:a,unix:b"
    )
    cluster_status.add_argument(
        "--json", action="store_true",
        help="print the composed stats document as JSON instead",
    )

    replica_cmd = commands.add_parser(
        "replica",
        help="run or control a journal-streaming read replica",
    )
    replica_sub = replica_cmd.add_subparsers(
        dest="replica_command", required=True
    )
    replica_serve = replica_sub.add_parser(
        "serve",
        help="bootstrap from a primary, tail its journal and serve reads "
        "(promotes on `repro replica promote` or --auto-promote)",
    )
    _dir_arg(replica_serve)
    replica_serve.add_argument(
        "--primary", required=True,
        help="the primary's endpoint (unix:PATH, tcp:HOST:PORT, serve:...)",
    )
    replica_serve.add_argument(
        "--socket", type=Path, default=None,
        help="serve this replica on a unix socket at this path",
    )
    replica_serve.add_argument("--host", default="127.0.0.1")
    replica_serve.add_argument(
        "--port", type=int, default=None,
        help="serve this replica on TCP (0 picks a free port)",
    )
    replica_serve.add_argument(
        "--durability", choices=["none", "flush", "fsync"], default=None,
        help="journal write discipline for replicated lines",
    )
    replica_serve.add_argument(
        "--heartbeat-interval", type=float, default=1.0, metavar="SECONDS",
    )
    replica_serve.add_argument(
        "--heartbeat-misses", type=int, default=3, metavar="N",
        help="consecutive failed pings before the primary is declared dead",
    )
    replica_serve.add_argument(
        "--auto-promote", action="store_true",
        help="promote this replica itself when the primary is declared dead",
    )
    replica_serve.add_argument(
        "--takeover", type=Path, default=None, metavar="SOCKET",
        help="after promotion, additionally bind the old primary's unix "
        "socket so reconnecting clients land here",
    )
    replica_serve.add_argument(
        "--metrics", action="store_true",
        help="enable the observability registry for this replica process "
        "(same as REPRO_OBS=1)",
    )
    replica_promote = replica_sub.add_parser(
        "promote",
        help="tell a running replica to stop replicating and become the "
        "writable primary (fences the old one)",
    )
    replica_promote.add_argument("--socket", type=Path, default=None)
    replica_promote.add_argument("--host", default="127.0.0.1")
    replica_promote.add_argument("--port", type=int, default=None)
    replica_promote.add_argument(
        "--epoch", type=int, default=None,
        help="promote at this fencing epoch (default: past everything seen)",
    )
    replica_promote.add_argument(
        "--takeover", type=Path, default=None, metavar="SOCKET",
        help="ask the replica to also bind this (dead primary's) socket",
    )

    replicaset_cmd = commands.add_parser(
        "replicaset",
        help="supervise a primary and its replicas: health-check pings, "
        "auto-promote the freshest follower on failure, fence zombies",
    )
    replicaset_cmd.add_argument("--primary", required=True)
    replicaset_cmd.add_argument(
        "--follower", action="append", required=True, metavar="TARGET",
        dest="followers", help="a follower endpoint (repeatable)",
    )
    replicaset_cmd.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
    )
    replicaset_cmd.add_argument(
        "--misses", type=int, default=3,
        help="consecutive failed pings before promoting",
    )
    replicaset_cmd.add_argument(
        "--no-auto-promote", action="store_true",
        help="observe and report only; never promote",
    )
    replicaset_cmd.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="stop after this long (default: run forever)",
    )

    client_cmd = commands.add_parser(
        "client", help="talk to a running `repro serve` instance"
    )
    client_cmd.add_argument("--socket", type=Path, default=None)
    client_cmd.add_argument("--host", default="127.0.0.1")
    client_cmd.add_argument("--port", type=int, default=None)
    client_cmd.add_argument(
        "--target", default=None, metavar="TARGET",
        help="connect to any target spec (serve:/tcp:/replset:/cluster:) "
        "instead of --socket/--port",
    )
    client_cmd.add_argument(
        "--retry", type=int, default=None, metavar="ATTEMPTS",
        help="reconnect across restarts and failovers, redialling up to "
        "this many times (live subscriptions resync with a lagged delta)",
    )
    client_sub = client_cmd.add_subparsers(dest="client_command", required=True)

    client_sub.add_parser("ping", help="liveness probe")
    client_query = client_sub.add_parser(
        "query", help="answer a conjunctive query at the server's head"
    )
    client_query.add_argument("body")
    client_apply = client_sub.add_parser(
        "apply", help="autocommit an update program on the server"
    )
    client_apply.add_argument("--program", required=True, type=Path)
    client_apply.add_argument("--tag", default="")
    client_subscribe = client_sub.add_parser(
        "subscribe",
        help="live query: print the initial answers, then answer diffs as "
        "JSON lines as commits arrive",
    )
    client_subscribe.add_argument("body")
    client_subscribe.add_argument(
        "--pushes", type=int, default=1,
        help="exit after this many answer diffs (default: %(default)s)",
    )
    client_subscribe.add_argument(
        "--timeout", type=float, default=30.0,
        help="give up waiting after this many seconds",
    )
    client_tx = client_sub.add_parser(
        "tx",
        help="run one optimistic transaction: begin, stage a program "
        "(validating any --read bodies), commit with retry on conflict",
    )
    client_tx.add_argument("--program", required=True, type=Path)
    client_tx.add_argument("--tag", default="")
    client_tx.add_argument(
        "--read", action="append", default=[], metavar="BODY",
        help="query to run at the pinned revision before staging "
        "(repeatable; joins the conflict footprint)",
    )
    client_tx.add_argument(
        "--retries", type=int, default=5,
        help="attempts before giving up on repeated conflicts",
    )
    client_sub.add_parser("log", help="print the server's revision chain")
    client_asof = client_sub.add_parser(
        "as-of", help="print the base as of a revision on the server"
    )
    client_asof.add_argument("revision")
    client_sub.add_parser("stats", help="print server counters as JSON")
    client_metrics = client_sub.add_parser(
        "metrics",
        help="print the server's metrics registry as Prometheus text "
        "(empty unless the server runs with --metrics / REPRO_OBS=1)",
    )
    client_metrics.add_argument(
        "--json", action="store_true",
        help="print the raw registry snapshot as JSON instead",
    )
    client_slowlog = client_sub.add_parser(
        "slowlog",
        help="print the server's slow-operation ring buffer as JSON",
    )
    client_slowlog.add_argument(
        "--clear", action="store_true",
        help="also reset the ring buffer after reading it",
    )
    client_script = client_sub.add_parser(
        "script",
        help="send raw JSONL requests from a file ('-' = stdin); print "
        "every response and push as JSON lines",
    )
    client_script.add_argument("file")

    top_cmd = commands.add_parser(
        "top",
        help="live text dashboard over a running server's stats/metrics "
        "(refreshes in place; Ctrl-C to exit)",
    )
    top_cmd.add_argument("--socket", type=Path, default=None)
    top_cmd.add_argument("--host", default="127.0.0.1")
    top_cmd.add_argument("--port", type=int, default=None)
    top_cmd.add_argument(
        "--target", default=None,
        help="any repro.connect target instead of --socket/--port — a "
        "cluster: target renders the aggregated multi-shard dashboard",
    )
    top_cmd.add_argument(
        "--dir", type=Path, default=None, dest="directory",
        help="render one snapshot from a local journal directory instead "
        "of a server",
    )
    top_cmd.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period (default: %(default)s)",
    )
    top_cmd.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="exit after N refreshes (default: run until Ctrl-C)",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    import json

    arguments = build_parser().parse_args(argv)
    try:
        handler = _HANDLERS[arguments.command]
        return handler(arguments)
    except ReproError as error:
        # Covers the whole library family, including the serving-layer
        # errors (ConflictError and friends derive from ReproError).
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        name = error.filename if error.filename is not None else error
        print(f"error: no such file: {name}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as error:
        print(f"error: malformed JSON input: {error}", file=sys.stderr)
        return 1
    except (ConnectionError, asyncio.TimeoutError) as error:
        detail = str(error) or error.__class__.__name__
        print(f"error: server connection failed: {detail}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def _cmd_apply(arguments) -> int:
    program = parse_program(arguments.program.read_text(encoding="utf-8"))
    base = parse_object_base(arguments.base.read_text(encoding="utf-8"))
    if arguments.views:
        from repro.ext.derived import DerivedUpdateEngine, parse_derived_program

        views = parse_derived_program(
            arguments.views.read_text(encoding="utf-8")
        )
        engine = DerivedUpdateEngine(
            views, check_linearity=not arguments.no_linearity_check
        )
    else:
        engine = UpdateEngine(
            collect_trace=arguments.trace,
            check_linearity=not arguments.no_linearity_check,
        )
    result = engine.apply(program, base)
    if arguments.trace:
        print(result.trace.render(), file=sys.stderr)
        print(file=sys.stderr)
    chosen = result.result_base if arguments.result_base else result.new_base
    text = format_object_base(chosen, include_exists=arguments.result_base)
    if arguments.out:
        arguments.out.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {arguments.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_stratify(arguments) -> int:
    program = parse_program(arguments.program.read_text(encoding="utf-8"))
    stratification = stratify(program, conditions=arguments.conditions)
    print(stratification.explain())
    return 0


def _cmd_check(arguments) -> int:
    program = parse_program(arguments.program.read_text(encoding="utf-8"))
    failures = 0
    for rule in program:
        try:
            check_rule_safety(rule)
            print(f"{rule.name}: safe")
        except ReproError as error:
            failures += 1
            print(f"{rule.name}: UNSAFE — {error}")
    try:
        stratification = stratify(program)
        print(f"stratification: {stratification.names()}")
    except ReproError as error:
        failures += 1
        print(f"stratification: FAILED — {error}")
    if arguments.lint:
        from repro.analysis import lint_program

        findings = lint_program(program)
        if findings:
            for finding in findings:
                print(finding)
        else:
            print("lint: clean")
    return 1 if failures else 0


def _cmd_query(arguments) -> int:
    base = parse_object_base(arguments.base.read_text(encoding="utf-8"))
    answers = query_literals(base, parse_body(arguments.body))
    if not answers:
        print("(no answers)")
        return 0
    for answer in answers:
        if answer:
            print(", ".join(f"{k} = {v}" for k, v in sorted(answer.items())))
        else:
            print("yes")
    return 0


def _cmd_serve(arguments) -> int:
    import signal

    from repro.server import ReproServer, StoreService
    from repro.storage import DurabilityOptions

    if arguments.socket is None and arguments.port is None:
        raise ReproError("serve needs --socket PATH or --port N")
    durability = (
        DurabilityOptions(mode=arguments.durability)
        if arguments.durability is not None
        else None
    )
    if arguments.metrics:
        from repro.obs import enable_metrics

        enable_metrics(True)
    if (arguments.shard_id is None) != (arguments.shard_count is None):
        raise ReproError("--shard-id and --shard-count go together")
    service = StoreService.open(
        arguments.directory, durability=durability,
        shard_id=arguments.shard_id, shard_count=arguments.shard_count,
    )

    async def run() -> None:
        server = ReproServer(
            service,
            path=str(arguments.socket) if arguments.socket else None,
            host=arguments.host,
            port=arguments.port if arguments.port is not None else 0,
        )
        await server.start()
        print(
            f"serving {arguments.directory} at {server.address} "
            f"({len(service.store)} revisions, head "
            f"[{service.store.head.tag}])",
            file=sys.stderr,
            flush=True,
        )
        # SIGTERM/SIGINT drain gracefully: stop accepting, let in-flight
        # commands finish, flush outboxes (bounded by the deadline), then
        # close sockets with the journal already clean on disk.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        serving = asyncio.ensure_future(server.serve_forever())
        waiting = asyncio.ensure_future(stop.wait())
        await asyncio.wait(
            [serving, waiting], return_when=asyncio.FIRST_COMPLETED
        )
        waiting.cancel()
        serving.cancel()
        await server.shutdown(deadline=arguments.shutdown_deadline)
        print("server stopped (drained)", file=sys.stderr)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("server stopped", file=sys.stderr)
    return 0


def _cmd_replica(arguments) -> int:
    handler = _REPLICA_HANDLERS[arguments.replica_command]
    return handler(arguments)


def _cmd_replica_serve(arguments) -> int:
    import signal

    from repro.replication import Follower
    from repro.server import ReproServer
    from repro.storage import DurabilityOptions

    if arguments.socket is None and arguments.port is None:
        raise ReproError("replica serve needs --socket PATH or --port N")
    durability = (
        DurabilityOptions(mode=arguments.durability)
        if arguments.durability is not None
        else None
    )
    if arguments.metrics:
        from repro.obs import enable_metrics

        enable_metrics(True)
    follower = Follower(
        arguments.directory,
        arguments.primary,
        durability=durability,
        heartbeat_interval=arguments.heartbeat_interval,
        heartbeat_misses=arguments.heartbeat_misses,
        auto_promote=arguments.auto_promote,
        takeover=str(arguments.takeover) if arguments.takeover else None,
    )
    follower.start()

    async def run() -> None:
        server = ReproServer(
            follower.service,
            path=str(arguments.socket) if arguments.socket else None,
            host=arguments.host,
            port=arguments.port if arguments.port is not None else 0,
        )
        await server.start()
        loop = asyncio.get_running_loop()
        takeover_servers: list[ReproServer] = []

        def bind_takeover(path: str) -> None:
            # Runs from whichever thread triggered the promotion (wire
            # handler, heartbeat); schedule the bind onto the serving loop
            # and do not wait — promotion must not block on it.
            async def bind() -> None:
                if any(s.address == f"unix:{path}" for s in takeover_servers):
                    return  # a repeated promote already claimed this path
                extra = ReproServer(follower.service, path=path)
                await extra.start()
                takeover_servers.append(extra)
                print(
                    f"promoted: also serving at {extra.address} "
                    f"(old primary's endpoint)",
                    file=sys.stderr, flush=True,
                )

            asyncio.run_coroutine_threadsafe(bind(), loop)

        follower.on_takeover = bind_takeover
        print(
            f"replica {arguments.directory} at {server.address} following "
            f"{follower.primary} ({len(follower.service.store)} revisions, "
            f"bootstrap from {follower.last_sync_from})",
            file=sys.stderr,
            flush=True,
        )
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        serving = asyncio.ensure_future(server.serve_forever())
        waiting = asyncio.ensure_future(stop.wait())
        await asyncio.wait(
            [serving, waiting], return_when=asyncio.FIRST_COMPLETED
        )
        waiting.cancel()
        serving.cancel()
        await server.shutdown()
        for extra in takeover_servers:
            await extra.shutdown()
        print("replica stopped", file=sys.stderr)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("replica stopped", file=sys.stderr)
    finally:
        follower.close()
    return 0


def _cmd_replica_promote(arguments) -> int:
    from repro.api import connect

    payload = {}
    if arguments.epoch is not None:
        payload["epoch"] = arguments.epoch
    if arguments.takeover is not None:
        payload["takeover"] = str(arguments.takeover)
    with connect(_client_target(arguments)) as conn:
        response = conn.call("repl-promote", **payload)
    print(
        f"promoted at epoch {response['epoch']}"
        + (f", taking over {arguments.takeover}" if arguments.takeover else ""),
        file=sys.stderr,
    )
    return 0


_REPLICA_HANDLERS = {
    "serve": _cmd_replica_serve,
    "promote": _cmd_replica_promote,
}


def _cmd_replicaset(arguments) -> int:
    from repro.replication import ReplicaSet

    supervisor = ReplicaSet(
        arguments.primary,
        arguments.followers,
        interval=arguments.interval,
        misses=arguments.misses,
        auto_promote=not arguments.no_auto_promote,
        report=lambda message: print(message, file=sys.stderr, flush=True),
    )
    print(
        f"supervising primary {supervisor.primary} with "
        f"{len(supervisor.followers)} follower(s), every "
        f"{supervisor.interval:g}s",
        file=sys.stderr,
        flush=True,
    )
    try:
        supervisor.run(duration=arguments.duration)
    except KeyboardInterrupt:
        print("supervisor stopped", file=sys.stderr)
    finally:
        supervisor.close()
    return 0


def _client_target(arguments) -> str:
    """The connect target a client command names: ``--target`` verbatim,
    else ``--socket`` / ``--host --port`` spelled in the target grammar."""
    if getattr(arguments, "target", None):
        return arguments.target
    if arguments.socket is not None:
        return f"unix:{arguments.socket}"
    if arguments.port is not None:
        return f"tcp:{arguments.host}:{arguments.port}"
    raise ReproError("client needs --socket PATH or --port N")


def _print_answers(answers) -> None:
    if not answers:
        print("(no answers)")
        return
    for answer in answers:
        if answer:
            print(", ".join(f"{k} = {v}" for k, v in sorted(answer.items())))
        else:
            print("yes")


def _cmd_client(arguments) -> int:
    """Every client subcommand runs through the unified connection facade
    (``repro.connect``) — the same surface embedders use — except
    ``script``, which is deliberately a raw protocol tool."""
    import json

    from repro.api import ConflictError, RetryPolicy, connect

    retry = (
        RetryPolicy(attempts=arguments.retry)
        if getattr(arguments, "retry", None)
        else None
    )
    command = arguments.client_command
    with connect(_client_target(arguments), retry=retry) as conn:
        if command == "ping":
            print(f"pong (protocol {conn.ping()['protocol']})")
        elif command == "query":
            _print_answers(conn.query(arguments.body))
        elif command == "apply":
            program = arguments.program.read_text(encoding="utf-8")
            revision = conn.apply(program, tag=arguments.tag)
            print(
                f"revision {revision.index} [{revision.tag}]: "
                f"+{revision.added} -{revision.removed} facts",
                file=sys.stderr,
            )
        elif command == "subscribe":
            stream = conn.subscribe(arguments.body)
            _print_answers(stream.answers)
            for received in range(max(0, arguments.pushes)):
                delta = stream.next(timeout=arguments.timeout)
                if delta is None:
                    # The connection is healthy — no commit touched the
                    # query in time.  Say that, don't blame the socket.
                    print(
                        f"error: no answer diff arrived within "
                        f"{arguments.timeout:g}s "
                        f"({received} of {arguments.pushes} received)",
                        file=sys.stderr,
                    )
                    return 1
                print(json.dumps(delta.as_push()), flush=True)
        elif command == "tx":
            return _run_client_tx(conn, arguments, ConflictError)
        elif command == "log":
            for revision in conn.log():
                marker = "*" if revision.snapshot else " "
                program = revision.program or "-"
                print(
                    f"{revision.index:>4} {marker} "
                    f"{revision.tag:<24} +{revision.added:<5} "
                    f"-{revision.removed:<5} {program}"
                )
        elif command == "as-of":
            # display-only: print the server's formatted text as-is (the
            # raw escape hatch) instead of parse+reformat round-tripping
            print(conn.call("as-of", revision=arguments.revision)["facts"])
        elif command == "stats":
            print(json.dumps(conn.stats(), indent=2, sort_keys=True))
        elif command == "metrics":
            response = conn.call("metrics")
            if arguments.json:
                print(json.dumps(response, indent=2, sort_keys=True))
            else:
                text = response.get("text", "")
                if text:
                    print(text, end="")
                if not response.get("enabled"):
                    print(
                        "(metrics disabled on the server — start it with "
                        "--metrics or REPRO_OBS=1)",
                        file=sys.stderr,
                    )
        elif command == "slowlog":
            payload = {"clear": True} if arguments.clear else {}
            response = conn.call("slowlog", **payload)
            print(json.dumps(response["slowlog"], indent=2, sort_keys=True))
        elif command == "script":
            if not hasattr(conn, "request"):
                raise ReproError(
                    "client script is a raw-protocol tool: it needs a "
                    "single served endpoint (--socket/--port), not a "
                    "routed target"
                )
            source = (
                sys.stdin.read()
                if arguments.file == "-"
                else Path(arguments.file).read_text(encoding="utf-8")
            )
            for line in source.splitlines():
                if not line.strip():
                    continue
                request = json.loads(line)
                response = conn.request(**_script_request(request))
                print(json.dumps(response), flush=True)
                for push in conn.drain_pushes():
                    print(json.dumps(push), flush=True)
        return 0


def _run_client_tx(conn, arguments, conflict_error) -> int:
    """One optimistic transaction with conflict retry.  The loop stays in
    the CLI (rather than `transaction(attempts=N)`) so every lost attempt
    prints its conflict notice — operators watch that stderr stream to
    spot contention."""
    program = arguments.program.read_text(encoding="utf-8")
    for attempt in range(1, max(1, arguments.retries) + 1):
        transaction = conn.transaction(tag=arguments.tag)
        try:
            with transaction:
                for body in arguments.read:
                    transaction.query(body)
                transaction.stage(program)
        except conflict_error as conflict:
            print(
                f"attempt {attempt}: conflict with revision "
                f"{conflict.conflicting_index} "
                f"[{conflict.conflicting_tag}], retrying",
                file=sys.stderr,
            )
            continue
        print(
            f"committed revision {transaction.result.revision.index} "
            f"(pinned {transaction.pinned}, attempt {attempt})",
            file=sys.stderr,
        )
        return 0
    print(f"error: gave up after {arguments.retries} conflicts", file=sys.stderr)
    return 1


def _cmd_cluster(arguments) -> int:
    handler = _CLUSTER_HANDLERS[arguments.cluster_command]
    return handler(arguments)


def _cmd_cluster_init(arguments) -> int:
    import json

    from repro.cluster.partition import split_base
    from repro.server.service import StoreService
    from repro.storage.serialize import JOURNAL_FILE

    if arguments.shards < 1:
        raise ReproError("a cluster needs at least one shard")
    base = parse_object_base(arguments.base.read_text(encoding="utf-8"))
    directory = arguments.directory
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / "cluster.json"
    if manifest_path.exists():
        raise ReproError(
            f"a cluster manifest already exists at {manifest_path}; "
            f"refusing to repartition over it — pick a fresh directory"
        )
    pieces = split_base(base, arguments.shards)
    for shard, piece in enumerate(pieces):
        shard_dir = directory / f"shard-{shard}"
        if (shard_dir / JOURNAL_FILE).exists():
            raise ReproError(
                f"a journal already exists under {shard_dir}; refusing to "
                f"overwrite its history"
            )
        StoreService.create(
            piece.copy(), shard_dir, tag=arguments.tag,
            shard_id=shard, shard_count=arguments.shards,
        )
        print(
            f"shard {shard}: {len(piece)} facts -> {shard_dir}",
            file=sys.stderr,
        )
    manifest = {
        "shards": arguments.shards,
        "tag": arguments.tag,
        "directories": [f"shard-{i}" for i in range(arguments.shards)],
    }
    manifest_path.write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"initialized {arguments.shards}-shard cluster under {directory} "
        f"({len(base)} facts partitioned by host OID)"
    )
    return 0


def _read_cluster_manifest(directory: Path) -> dict:
    import json

    manifest_path = directory / "cluster.json"
    if not manifest_path.exists():
        raise ReproError(
            f"no cluster manifest at {manifest_path}; run "
            f"`repro cluster init --dir {directory} ...` first"
        )
    return json.loads(manifest_path.read_text(encoding="utf-8"))


def _cmd_cluster_launch(arguments) -> int:
    """Spawn one ``repro serve`` process per shard; with ``--supervise``
    restart any shard that dies, forever (the cluster's crash recovery —
    a restarted shard replays its journal and followers reconnect)."""
    import signal
    import subprocess
    import time

    directory = arguments.directory
    manifest = _read_cluster_manifest(directory)
    count = int(manifest["shards"])
    sockets = [directory / f"shard-{shard}.sock" for shard in range(count)]

    def spawn(shard: int) -> subprocess.Popen:
        sockets[shard].unlink(missing_ok=True)
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--dir", str(directory / manifest["directories"][shard]),
            "--socket", str(sockets[shard]),
            "--shard-id", str(shard), "--shard-count", str(count),
        ]
        if arguments.metrics:
            command.append("--metrics")
        if arguments.durability is not None:
            command += ["--durability", arguments.durability]
        return subprocess.Popen(command)

    processes = {shard: spawn(shard) for shard in range(count)}
    stopping = False

    def stop(signum, frame):  # noqa: ARG001 - signal handler shape
        nonlocal stopping
        stopping = True

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    deadline = time.monotonic() + 30
    while not all(sock.exists() for sock in sockets):
        if stopping or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    target = "cluster:" + ",".join(f"unix:{sock}" for sock in sockets)
    print(target, flush=True)
    print(
        f"launched {count} shard servers under {directory} "
        f"(pids {', '.join(str(p.pid) for p in processes.values())})",
        file=sys.stderr, flush=True,
    )
    exit_code = 0
    try:
        while not stopping:
            time.sleep(0.2)
            for shard, process in list(processes.items()):
                if process.poll() is None:
                    continue
                if arguments.supervise:
                    print(
                        f"shard {shard} exited "
                        f"({process.returncode}); restarting",
                        file=sys.stderr, flush=True,
                    )
                    processes[shard] = spawn(shard)
                else:
                    print(
                        f"shard {shard} exited ({process.returncode}); "
                        f"stopping the cluster",
                        file=sys.stderr, flush=True,
                    )
                    stopping = True
                    exit_code = 1
                    break
    finally:
        for process in processes.values():
            if process.poll() is None:
                process.terminate()
        for process in processes.values():
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
        print("cluster stopped", file=sys.stderr)
    return exit_code


def _cmd_cluster_status(arguments) -> int:
    import json

    from repro.api import connect

    with connect(arguments.target) as conn:
        pong = conn.ping()
        stats = conn.stats()
    if arguments.json:
        print(json.dumps(stats, indent=2, default=str))
        return 0 if pong["pong"] else 1
    cluster = stats.get("cluster") or {}
    router = cluster.get("router") or {}
    print(
        f"cluster: {router.get('shards', 0)} shards, revision "
        f"{router.get('revision', 0)} ({router.get('vector', '')}), "
        f"head [{stats.get('head_tag', '-')}]"
    )
    print(
        "shard  role      revisions  commits  conflicts  lag  "
        "subs  endpoint"
    )
    for entry in cluster.get("shards", ()):
        print(
            f"{entry['shard']:>5}  {str(entry.get('role') or '-'):<8}  "
            f"{entry.get('revisions', 0):>9}  {entry.get('commits', 0):>7}  "
            f"{entry.get('conflicts', 0):>9}  {entry.get('lag', 0):>3}  "
            f"{entry.get('subscriptions', 0):>4}  {entry.get('target', '')}"
        )
    return 0 if pong["pong"] else 1


_CLUSTER_HANDLERS = {
    "init": _cmd_cluster_init,
    "launch": _cmd_cluster_launch,
    "status": _cmd_cluster_status,
}


def _cmd_top(arguments) -> int:
    """Curses-free live dashboard: redraw ``render_dashboard`` over the
    stats document every ``--interval`` seconds with an ANSI clear."""
    import time

    from repro.api import connect
    from repro.obs import render_dashboard

    if arguments.directory is not None:
        # One-shot local mode: stats of an unserved journal directory.
        with connect(arguments.directory, readonly=True) as conn:
            for line in render_dashboard(
                conn.stats(), target=str(arguments.directory)
            ):
                print(line)
        return 0

    if arguments.target is not None:
        target = arguments.target
    elif arguments.socket is not None:
        target = f"serve:{arguments.socket}"
    elif arguments.port is not None:
        target = f"tcp:{arguments.host}:{arguments.port}"
    else:
        raise ReproError(
            "top needs --target T, --socket PATH, --port N, or --dir DIR"
        )
    iterations = arguments.iterations
    interval = max(0.1, arguments.interval)
    with connect(target) as conn:
        count = 0
        while True:
            stats = conn.stats()
            frame = render_dashboard(stats, target=target)
            if count:
                # Clear screen + home, only between frames — a single
                # finite iteration stays pipe-friendly for tests.
                print("\x1b[2J\x1b[H", end="")
            print("\n".join(frame), flush=True)
            count += 1
            if iterations and count >= iterations:
                return 0
            time.sleep(interval)


def _script_request(request: dict) -> dict:
    """A raw script line becomes ``AsyncClient.request(cmd, **payload)``."""
    payload = dict(request)
    cmd = payload.pop("cmd", None)
    if not isinstance(cmd, str):
        raise ReproError(f"script line needs a string 'cmd' field: {request}")
    payload.pop("id", None)  # the client numbers its own requests
    return {"cmd": cmd, **payload}


def _cmd_store(arguments) -> int:
    handler = _STORE_HANDLERS[arguments.store_command]
    return handler(arguments)


def _cmd_store_init(arguments) -> int:
    from repro.api import connect
    from repro.storage import StoreOptions
    from repro.storage.serialize import JOURNAL_FILE

    base = parse_object_base(arguments.base.read_text(encoding="utf-8"))
    options = StoreOptions()
    if arguments.snapshot_interval is not None:
        options = StoreOptions(snapshot_interval=arguments.snapshot_interval)
    # connect() refuses to initialize over an existing journal, so history
    # cannot be overwritten from here.
    with connect(
        arguments.directory, base=base, tag=arguments.tag, options=options
    ) as conn:
        facts = len(conn.as_of(0))
    journal = arguments.directory / JOURNAL_FILE
    print(f"initialized {journal} ({facts} facts)", file=sys.stderr)
    return 0


def _cmd_store_apply(arguments) -> int:
    from repro.api import connect

    program = parse_program(arguments.program.read_text(encoding="utf-8"))
    program.name = arguments.program.stem
    # connect() opens the journal as a writer: a torn tail line is repaired
    # on disk, and the commit below is journalled automatically.
    with connect(arguments.directory) as conn:
        revision = conn.apply(program, tag=arguments.tag)
    print(
        f"revision {revision.index} [{revision.tag}]: "
        f"+{revision.added} -{revision.removed} facts",
        file=sys.stderr,
    )
    return 0


def _cmd_store_log(arguments) -> int:
    from repro.api import connect

    # readonly: metadata only, no journal repair, no cold snapshots parsed
    with connect(arguments.directory, readonly=True) as conn:
        for revision in conn.log():
            marker = "*" if revision.snapshot else " "
            program = revision.program or "-"
            print(
                f"{revision.index:>4} {marker} {revision.tag:<24} "
                f"+{revision.added:<5} -{revision.removed:<5} {program}"
            )
    return 0


def _cmd_store_diff(arguments) -> int:
    from repro.api import connect

    with connect(arguments.directory, readonly=True) as conn:
        added, removed = conn.diff(
            arguments.older,
            arguments.newer,
            include_exists=arguments.include_exists,
        )
    for fact in added:
        print(f"+ {fact}")
    for fact in removed:
        print(f"- {fact}")
    return 0


def _cmd_store_as_of(arguments) -> int:
    from repro.api import connect

    with connect(arguments.directory, readonly=True) as conn:
        text = format_object_base(conn.as_of(arguments.revision))
    if arguments.out:
        arguments.out.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {arguments.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_store_compact(arguments) -> int:
    from repro.storage import compact_journal

    store = compact_journal(
        arguments.directory, snapshot_interval=arguments.interval
    )
    snapshots = sum(
        1 for r in store.revisions() if store.has_snapshot(r.index)
    )
    print(
        f"compacted {arguments.directory}: {len(store)} revisions, "
        f"{snapshots} snapshots",
        file=sys.stderr,
    )
    return 0


def _cmd_store_verify(arguments) -> int:
    import json

    from repro.storage import verify_journal

    report = verify_journal(arguments.directory)
    if arguments.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"{arguments.directory}: {report['revisions']} revisions, "
            f"{report['checksummed']} checksummed, "
            f"{report['unchecksummed']} pre-checksum, "
            f"{report['snapshots']} snapshots, "
            f"epoch {report['max_epoch']}"
        )
        for problem in report["problems"]:
            print(
                f"  line {problem['line']} (byte {problem['offset']}): "
                f"{problem['error']}"
            )
        for name in report["missing_snapshots"]:
            print(f"  missing snapshot: {name}")
        print("ok" if report["ok"] else "DAMAGED")
    return 0 if report["ok"] else 1


_STORE_HANDLERS = {
    "init": _cmd_store_init,
    "apply": _cmd_store_apply,
    "log": _cmd_store_log,
    "diff": _cmd_store_diff,
    "as-of": _cmd_store_as_of,
    "compact": _cmd_store_compact,
    "verify": _cmd_store_verify,
}

_HANDLERS = {
    "apply": _cmd_apply,
    "stratify": _cmd_stratify,
    "check": _cmd_check,
    "query": _cmd_query,
    "store": _cmd_store,
    "serve": _cmd_serve,
    "cluster": _cmd_cluster,
    "replica": _cmd_replica,
    "replicaset": _cmd_replicaset,
    "client": _cmd_client,
    "top": _cmd_top,
}


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
