"""End-to-end observability: the registry threaded through the engine,
the journal, the service/server layers, and the CLI surfaces."""

from __future__ import annotations

import json
import time

import pytest

import repro
from repro.api import BackgroundServer
from repro.cli import main as cli_main
from repro.obs import metrics
from repro.obs.slowlog import slowlog

BASE = """
    phil.isa -> empl.   phil.sal -> 4000.
    bob.isa -> empl.    bob.sal -> 4200.   bob.boss -> phil.
"""

RAISE = """
    raise: mod[E].sal -> (S, S2) <= E.isa -> empl, E.sal -> S, S2 = S + 25.
"""


@pytest.fixture()
def enabled():
    metrics.enable_metrics(True)
    metrics.registry().reset()
    yield
    metrics.registry().reset()
    metrics.enable_metrics(None)


@pytest.fixture()
def clean_slowlog():
    log = slowlog()
    log.clear()
    yield log
    log._overrides.clear()
    log.clear()


def test_engine_records_per_rule_profile(enabled):
    with repro.connect("memory:", base=BASE, tag="seed") as conn:
        conn.apply(RAISE, tag="r1")
    snap = metrics.registry().snapshot()
    assert snap["engine_rule_fired"]["series"]["rule=raise"] == 2
    assert snap["engine_rule_matched"]["series"]["rule=raise"] >= 2
    assert snap["engine_rule_seconds"]["series"]["rule=raise"] > 0
    assert snap["engine_tp_rounds"]["series"][""] >= 1
    assert snap["engine_delta_size"]["kind"] == "histogram"


def test_engine_records_nothing_when_disabled(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    metrics.enable_metrics(None)
    metrics.registry().reset()
    with repro.connect("memory:", base=BASE, tag="seed") as conn:
        conn.apply(RAISE, tag="r1")
    assert "engine_rule_fired" not in metrics.registry().snapshot()


def test_journal_commit_records_phases_and_bytes(enabled, tmp_path):
    from repro.storage import DurabilityOptions

    with repro.connect(
        tmp_path / "j", base=BASE, tag="seed",
        durability=DurabilityOptions(mode="fsync"),
    ) as conn:
        conn.apply(RAISE, tag="r1")
    snap = metrics.registry().snapshot()
    phases = snap["commit_phase_seconds"]["series"]
    assert phases["phase=evaluate"]["count"] >= 1
    assert phases["phase=append"]["count"] >= 1
    assert phases["phase=fsync"]["count"] >= 1
    assert snap["journal_bytes"]["series"][""] > 0
    assert snap["server_commits"]["series"][""] >= 1


def test_stats_exposes_metrics_and_slowlog_sections(enabled, clean_slowlog):
    with repro.connect("memory:", base=BASE, tag="seed") as conn:
        conn.apply(RAISE, tag="r1")
        stats = conn.stats()
    assert set(stats["metrics"]) == {"enabled", "registry"}
    assert stats["metrics"]["enabled"] is True
    assert "engine_rule_fired" in stats["metrics"]["registry"]
    assert set(stats["slowlog"]) == {
        "entries", "dropped", "capacity", "thresholds_ms",
    }
    # gauges refreshed by stats(): the store's own shape
    registry = stats["metrics"]["registry"]
    assert registry["store_revisions"]["series"][""] == 2.0


def test_slow_commit_lands_in_the_slowlog(clean_slowlog):
    clean_slowlog.set_threshold("commit", 0.0)
    with repro.connect("memory:", base=BASE, tag="seed") as conn:
        conn.apply(RAISE, tag="slow-one")
        stats = conn.stats()
    kinds = {entry["kind"] for entry in stats["slowlog"]["entries"]}
    assert "commit" in kinds
    tags = {
        entry.get("tag") for entry in stats["slowlog"]["entries"]
        if entry["kind"] == "commit"
    }
    assert "slow-one" in tags


def test_wire_metrics_and_slowlog_commands(enabled, clean_slowlog, tmp_path):
    repro.connect(tmp_path / "served", base=BASE, tag="seed").close()
    socket_path = str(tmp_path / "obs.sock")
    with BackgroundServer(tmp_path / "served", path=socket_path):
        with repro.connect(f"serve:{socket_path}") as conn:
            conn.apply(RAISE, tag="r1")
            conn.query("E.sal -> S")
            response = conn.call("metrics")
            assert response["enabled"] is True
            names = set(response["metrics"])
            assert "engine_rule_fired" in names
            assert "server_command_seconds" in names
            assert "commit_phase_seconds" in names
            assert "repro_engine_rule_fired_total" in response["text"]
            # gauges set by the wire layer and record_gauges()
            assert "server_connections" in names
            assert "store_revisions" in names

            log = conn.call("slowlog")
            assert set(log["slowlog"]) == {
                "entries", "dropped", "capacity", "thresholds_ms",
            }
            cleared = conn.call("slowlog", clear=True)
            assert cleared["cleared"] is True


def test_wire_stats_tolerates_unknown_request_fields(tmp_path):
    """Wire v3 ignores unknown request fields — a newer client's extras
    must not break an older server (and vice versa)."""
    repro.connect(tmp_path / "served", base=BASE, tag="seed").close()
    socket_path = str(tmp_path / "tol.sock")
    with BackgroundServer(tmp_path / "served", path=socket_path):
        with repro.connect(f"serve:{socket_path}") as conn:
            stats = conn.request(
                cmd="stats", future_option=True, verbosity="high"
            )["stats"]
            assert "metrics" in stats and "slowlog" in stats
            response = conn.request(cmd="metrics", some_new_knob=1)
            assert "metrics" in response


def test_cli_top_one_shot_against_a_directory(enabled, tmp_path, capsys):
    with repro.connect(tmp_path / "j", base=BASE, tag="seed") as conn:
        conn.apply(RAISE, tag="r1")
    assert cli_main(["top", "--dir", str(tmp_path / "j")]) == 0
    out = capsys.readouterr().out
    assert "repro top" in out
    assert "revisions" in out


def test_cli_client_metrics_and_top_against_a_server(
    enabled, tmp_path, capsys
):
    repro.connect(tmp_path / "served", base=BASE, tag="seed").close()
    socket_path = str(tmp_path / "cli.sock")
    with BackgroundServer(tmp_path / "served", path=socket_path):
        with repro.connect(f"serve:{socket_path}") as conn:
            conn.apply(RAISE, tag="r1")
        assert cli_main(
            ["client", "--socket", socket_path, "metrics"]
        ) == 0
        text = capsys.readouterr().out
        assert "repro_engine_rule_fired_total" in text
        assert cli_main(
            ["client", "--socket", socket_path, "metrics", "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["enabled"] is True
        assert cli_main(
            ["client", "--socket", socket_path, "slowlog"]
        ) == 0
        log = json.loads(capsys.readouterr().out)
        assert set(log) == {"entries", "dropped", "capacity", "thresholds_ms"}
        assert cli_main(
            ["top", "--socket", socket_path, "--iterations", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "commit phases" in out


def test_follower_reports_lag_seconds(enabled, tmp_path):
    from repro.replication import Follower

    repro.connect(tmp_path / "primary", base=BASE, tag="seed").close()
    socket_path = str(tmp_path / "repl.sock")
    with BackgroundServer(tmp_path / "primary", path=socket_path) as server:
        follower = Follower(
            tmp_path / "replica", server.address, heartbeat_interval=0.1
        ).start()
        try:
            # r1 must arrive as a streamed line: a follower whose stream is
            # not open yet would fetch it through ``repl-sync`` instead and
            # never count a ``repl_streamed_lines_received``
            deadline = 50
            while not follower._info()["streaming"] and deadline:
                time.sleep(0.1)
                deadline -= 1
            assert follower._info()["streaming"]
            with repro.connect(f"serve:{socket_path}") as conn:
                conn.apply(RAISE, tag="r1")
            # wait for r1 itself: ``lag`` reads 0 until the follower has
            # *heard* of the commit, which is not yet "caught up"
            deadline = 50
            while len(follower.service.store) < 2 and deadline:
                time.sleep(0.1)
                deadline -= 1
            info = follower._info()
            assert info["lag"] == 0
            assert info["lag_seconds"] == 0.0
            replica_stats = follower.service.stats()
            registry = replica_stats["metrics"]["registry"]
            assert registry["repl_streamed_lines_received"]["series"][""] >= 1
            assert registry["repl_streamed_bytes"]["series"][""] > 0
        finally:
            follower.close()
