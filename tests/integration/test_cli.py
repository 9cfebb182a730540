"""CLI integration tests (python -m repro / repro-updates)."""

import json

import pytest

from repro.api import BackgroundServer
from repro.cli import build_parser, main
from repro.lang.parser import parse_object_base
from repro.lang.pretty import format_object_base

PROGRAM = """
rule1: mod[E].sal -> (S, S2) <=
    E.isa -> empl / pos -> mgr / sal -> S, S2 = S * 1.1 + 200.
rule2: mod[E].sal -> (S, S2) <=
    E.isa -> empl / sal -> S, not E.pos -> mgr, S2 = S * 1.1.
rule3: del[mod(E)].* <=
    mod(E).isa -> empl / boss -> B / sal -> SE,
    mod(B).isa -> empl / sal -> SB, SE > SB.
rule4: ins[mod(E)].isa -> hpe <=
    mod(E).isa -> empl / sal -> S, S > 4500,
    not del[mod(E)].isa -> empl.
"""

BASE = """
phil.isa -> empl.  phil.pos -> mgr.  phil.sal -> 4000.
bob.isa -> empl.   bob.sal -> 4200.  bob.boss -> phil.
"""


@pytest.fixture()
def files(tmp_path):
    program = tmp_path / "update.upd"
    base = tmp_path / "world.ob"
    program.write_text(PROGRAM, encoding="utf-8")
    base.write_text(BASE, encoding="utf-8")
    return program, base


class TestApply:
    def test_prints_new_base(self, files, capsys):
        program, base = files
        code = main(["apply", "--program", str(program), "--base", str(base)])
        assert code == 0
        out = capsys.readouterr().out
        assert "phil.isa -> hpe." in out
        assert "bob" not in out

    def test_out_file(self, files, tmp_path, capsys):
        program, base = files
        target = tmp_path / "new.ob"
        code = main([
            "apply", "--program", str(program), "--base", str(base),
            "--out", str(target),
        ])
        assert code == 0
        assert "phil.sal -> 4600.0." in target.read_text(encoding="utf-8")

    def test_result_base_includes_versions(self, files, capsys):
        program, base = files
        main([
            "apply", "--program", str(program), "--base", str(base),
            "--result-base",
        ])
        out = capsys.readouterr().out
        assert "mod(phil).sal -> 4600.0." in out
        assert "del(mod(bob)).exists -> bob." in out

    def test_trace_goes_to_stderr(self, files, capsys):
        program, base = files
        main(["apply", "--program", str(program), "--base", str(base), "--trace"])
        captured = capsys.readouterr()
        assert "stratum 0" in captured.err
        assert "stratum 0" not in captured.out

    def test_linearity_error_reported(self, tmp_path, capsys):
        program = tmp_path / "bad.upd"
        base = tmp_path / "world.ob"
        program.write_text(
            "m: mod[o].m -> (a, b) <= o.t -> yes.\n"
            "d: del[o].m -> a <= o.t -> yes.\n",
            encoding="utf-8",
        )
        base.write_text("o.m -> a. o.t -> yes.", encoding="utf-8")
        code = main(["apply", "--program", str(program), "--base", str(base)])
        assert code == 1
        assert "not linear" in capsys.readouterr().err


class TestStratify:
    def test_full_conditions(self, files, capsys):
        program, _ = files
        assert main(["stratify", "--program", str(program)]) == 0
        out = capsys.readouterr().out
        assert "stratum 0: {rule1, rule2}" in out
        assert "stratum 1: {rule3}" in out
        assert "stratum 2: {rule4}" in out

    def test_condition_subset(self, files, capsys):
        program, _ = files
        assert main(["stratify", "--program", str(program), "--conditions", "a"]) == 0
        out = capsys.readouterr().out
        assert "stratum 1: {rule3, rule4}" in out

    def test_unknown_condition_is_an_error(self, files, capsys):
        program, _ = files
        assert main(["stratify", "--program", str(program), "--conditions", "xyz"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown stratification condition(s) x, y, z")


class TestCheck:
    def test_safe_program(self, files, capsys):
        program, _ = files
        assert main(["check", "--program", str(program)]) == 0
        out = capsys.readouterr().out
        assert "rule1: safe" in out
        assert "stratification:" in out

    def test_unsafe_program(self, tmp_path, capsys):
        program = tmp_path / "unsafe.upd"
        program.write_text("r: ins[X].m -> Y <= X.a -> B.", encoding="utf-8")
        assert main(["check", "--program", str(program)]) == 1
        assert "UNSAFE" in capsys.readouterr().out


class TestQuery:
    def test_answers(self, files, capsys):
        _, base = files
        assert main(["query", "--base", str(base), "E.sal -> S, S > 4100"]) == 0
        out = capsys.readouterr().out
        assert "E = bob, S = 4200" in out

    def test_ground_yes(self, files, capsys):
        _, base = files
        main(["query", "--base", str(base), "phil.pos -> mgr"])
        assert "yes" in capsys.readouterr().out

    def test_no_answers(self, files, capsys):
        _, base = files
        main(["query", "--base", str(base), "E.isa -> robot"])
        assert "(no answers)" in capsys.readouterr().out

    def test_parse_error_exit_code(self, files, capsys):
        _, base = files
        assert main(["query", "--base", str(base), "E.sal -> "]) == 1


def client(target, *args):
    """``repro client --target TARGET ARGS...`` through ``main``."""
    return main(["client", "--target", str(target), *map(str, args)])


class TestStoreCli:
    @pytest.fixture()
    def journal(self, files, tmp_path):
        _, base = files
        directory = tmp_path / "store"
        assert main(["store", "init", "--dir", str(directory), "--base", str(base)]) == 0
        return directory

    def test_init_creates_journal(self, files, tmp_path, capsys):
        _, base = files
        directory = tmp_path / "fresh-store"
        code = main(["store", "init", "--dir", str(directory), "--base", str(base)])
        assert code == 0
        assert "initialized" in capsys.readouterr().err
        assert (directory / "journal.jsonl").exists()
        assert (directory / "snap-000000.json").exists()

    def test_apply_appends_and_logs(self, files, journal, capsys):
        program, _ = files
        code = client(journal, "apply", "--program", program, "--tag", "raise-q1")
        assert code == 0
        assert "revision 1 [raise-q1]" in capsys.readouterr().err
        assert client(journal, "log") == 0
        out = capsys.readouterr().out
        assert "raise-q1" in out
        assert "update" in out  # program name from the file stem

    def test_diff_and_as_of(self, files, journal, capsys):
        program, _ = files
        client(journal, "apply", "--program", program, "--tag", "upd")
        capsys.readouterr()
        assert client(journal, "diff", "initial", "upd") == 0
        out = capsys.readouterr().out
        assert "+ phil.isa -> hpe" in out
        assert "- bob.isa -> empl" in out
        assert client(journal, "as-of", "0") == 0
        out = capsys.readouterr().out
        assert "bob.sal -> 4200." in out
        assert client(journal, "as-of", "upd") == 0
        assert "bob" not in capsys.readouterr().out

    def test_compact(self, files, journal, capsys):
        program, _ = files
        for tag in ("one", "two", "three"):
            client(journal, "apply", "--program", program, "--tag", tag)
        assert main(["store", "compact", "--dir", str(journal),
                     "--interval", "2"]) == 0
        assert "compacted" in capsys.readouterr().err
        assert sorted(p.name for p in journal.glob("snap-*.json")) == [
            "snap-000000.json", "snap-000002.json",
        ]
        assert client(journal, "log") == 0
        assert "three" in capsys.readouterr().out

    def test_verify_clean_journal(self, files, journal, capsys):
        program, _ = files
        client(journal, "apply", "--program", program, "--tag", "one")
        assert main(["store", "verify", "--dir", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "2 revisions" in out and "ok" in out

    def test_verify_flags_corruption_with_location(self, journal, capsys):
        journal_file = journal / "journal.jsonl"
        with journal_file.open("a", encoding="utf-8") as handle:
            handle.write('{"broken": tru\n')
        assert main(["store", "verify", "--dir", str(journal)]) == 1
        out = capsys.readouterr().out
        assert "DAMAGED" in out
        assert "line 3" in out and "byte" in out

    def test_verify_json_report(self, journal, capsys):
        assert main(["store", "verify", "--dir", str(journal),
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True and report["revisions"] == 1

    def test_missing_journal_is_an_error(self, tmp_path, capsys):
        code = client(tmp_path / "nope", "log")
        assert code == 1
        assert "no journal" in capsys.readouterr().err

    def test_init_refuses_to_overwrite_existing_journal(
        self, files, journal, capsys
    ):
        _, base = files
        code = main(["store", "init", "--dir", str(journal), "--base", str(base)])
        assert code == 1
        assert "already exists" in capsys.readouterr().err
        assert (journal / "snap-000000.json").exists()  # history untouched


class TestCliErrorPolish:
    """Satellite: unknown tags/revisions, missing files and corrupt
    journals exit non-zero with a one-line stderr message — never a
    traceback."""

    @pytest.fixture()
    def journal(self, files, tmp_path):
        _, base = files
        directory = tmp_path / "store"
        assert main(["store", "init", "--dir", str(directory), "--base", str(base)]) == 0
        return directory

    def test_unknown_tag_and_index(self, journal, capsys):
        for target, args in (
            (journal, ["as-of", "nope"]),
            (journal, ["as-of", "99"]),
            (journal, ["diff", "init", "nope"]),
            (journal / "missing", ["log"]),
        ):
            assert client(target, *args) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert "Traceback" not in err

    def test_negative_index_is_rejected_not_resolved(self, journal, capsys):
        code = client(journal, "as-of", "--", "-1")
        assert code == 1
        assert "no revision -1" in capsys.readouterr().err

    def test_missing_program_and_base_files(self, files, tmp_path, capsys):
        program, base = files
        assert main(["apply", "--program", str(tmp_path / "nope.upd"),
                     "--base", str(base)]) == 1
        assert "no such file" in capsys.readouterr().err
        assert main(["apply", "--program", str(program),
                     "--base", str(tmp_path / "nope.ob")]) == 1
        assert "no such file" in capsys.readouterr().err

    def test_corrupt_journal_line(self, journal, capsys):
        journal_file = journal / "journal.jsonl"
        lines = journal_file.read_text(encoding="utf-8").splitlines()
        lines.insert(1, "garbage")
        journal_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert client(journal, "log") == 1
        err = capsys.readouterr().err
        assert "corrupt" in err and "Traceback" not in err

    def test_missing_snapshot_file(self, journal, capsys):
        (journal / "snap-000000.json").unlink()
        assert client(journal, "as-of", "0") == 1
        err = capsys.readouterr().err
        assert "snapshot" in err and "Traceback" not in err

    def test_client_without_server_is_an_error(self, tmp_path, capsys):
        code = main(["client", "--socket", str(tmp_path / "no.sock"), "ping"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")

    def test_client_without_a_target_is_an_error(self, capsys):
        assert main(["client", "ping"]) == 1
        assert "--target" in capsys.readouterr().err

    def test_serve_requires_an_endpoint(self, journal, capsys):
        assert main(["serve", "--dir", str(journal)]) == 1
        assert "--socket" in capsys.readouterr().err

    def test_raw_protocol_tools_refuse_a_directory(self, journal, capsys):
        script = journal.parent / "script.jsonl"
        script.write_text('{"cmd": "ping"}\n', encoding="utf-8")
        assert client(journal, "script", script) == 1
        assert "raw-protocol" in capsys.readouterr().err
        assert main(["replica", "promote", "--target", str(journal)]) == 1
        assert "raw-protocol" in capsys.readouterr().err


@pytest.fixture()
def metrics_on():
    from repro.obs import metrics

    metrics.enable_metrics(True)
    metrics.registry().reset()
    yield
    metrics.registry().reset()
    metrics.enable_metrics(None)


class TestClientOnEveryTarget:
    """``client`` reads through the ``Connection`` surface, so every
    subcommand works on every target kind."""

    @pytest.fixture()
    def journal(self, files, tmp_path):
        program, base = files
        directory = tmp_path / "store"
        assert main(["store", "init", "--dir", str(directory), "--base", str(base)]) == 0
        assert client(directory, "apply", "--program", program, "--tag", "upd") == 0
        return directory

    @pytest.fixture()
    def cluster(self):
        from repro.cluster import LocalCluster

        with LocalCluster(BASE, shards=2) as deployment:
            yield deployment.target

    @staticmethod
    def _check(command, target, capsys):
        capsys.readouterr()
        code = client(target, command, *(["0"] if command == "as-of" else []))
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "Traceback" not in captured.err
        if command == "as-of":
            expected = format_object_base(parse_object_base(BASE))
            assert captured.out == expected + "\n"
        elif command == "metrics":
            assert "# TYPE repro_store_revisions gauge" in captured.out
        else:
            assert set(json.loads(captured.out)) == {
                "entries", "dropped", "capacity", "thresholds_ms",
            }

    @pytest.mark.parametrize("command", ["as-of", "metrics", "slowlog"])
    def test_reads_on_a_directory(self, command, journal, metrics_on, capsys):
        self._check(command, journal, capsys)

    @pytest.mark.parametrize("command", ["as-of", "metrics", "slowlog"])
    def test_reads_on_a_cluster(self, command, cluster, metrics_on, capsys):
        self._check(command, cluster, capsys)

    def test_metrics_json_is_the_stats_section(self, journal, metrics_on, capsys):
        capsys.readouterr()
        assert client(journal, "metrics", "--json") == 0
        document = json.loads(capsys.readouterr().out)
        assert document["enabled"] is True
        assert "store_revisions" in document["registry"]

    def test_as_of_prints_the_same_bytes_over_a_socket(
        self, journal, tmp_path, capsys
    ):
        outputs = []
        for revision in ("initial", "upd"):
            assert client(journal, "as-of", revision) == 0
            outputs.append(capsys.readouterr().out)
        socket_path = str(tmp_path / "asof.sock")
        with BackgroundServer(journal, path=socket_path):
            for revision, expected in zip(("initial", "upd"), outputs):
                assert main(
                    ["client", "--socket", socket_path, "as-of", revision]
                ) == 0
                assert capsys.readouterr().out == expected

    def test_apply_names_the_program_after_its_file_over_the_wire(
        self, files, journal, tmp_path, capsys
    ):
        program, _ = files
        socket_path = str(tmp_path / "name.sock")
        with BackgroundServer(journal, path=socket_path):
            assert main(["client", "--socket", socket_path, "apply",
                         "--program", str(program), "--tag", "wire"]) == 0
            assert main(["client", "--socket", socket_path, "tx",
                         "--program", str(program), "--tag", "wire-tx"]) == 0
        capsys.readouterr()
        assert client(journal, "log") == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[-2].split()[-1] == "update"
        assert rows[-1].split()[-1] == "update"


class TestDirectoryReadsAreReadOnly:
    """A read through ``client --target DIR`` never repairs the journal:
    a live server may be in the middle of appending its final line."""

    TORN = '{"index": 2, "tag": "half-writ'

    @pytest.fixture()
    def torn(self, files, tmp_path):
        program, base = files
        directory = tmp_path / "store"
        assert main(["store", "init", "--dir", str(directory), "--base", str(base)]) == 0
        assert client(directory, "apply", "--program", program, "--tag", "upd") == 0
        journal_file = directory / "journal.jsonl"
        clean = journal_file.read_bytes()
        with journal_file.open("a", encoding="utf-8") as handle:
            handle.write(self.TORN)
        return directory, clean

    @pytest.mark.parametrize("args", [
        ["log"],
        ["query", "E.isa -> hpe"],
        ["diff", "initial", "upd"],
        ["as-of", "upd"],
        ["stats"],
    ], ids=lambda args: args[0])
    def test_reads_leave_the_torn_tail_alone(self, args, torn, capsys):
        directory, _ = torn
        journal_file = directory / "journal.jsonl"
        before = journal_file.read_bytes()
        assert client(directory, *args) == 0, capsys.readouterr().err
        assert journal_file.read_bytes() == before

    def test_top_leaves_the_torn_tail_alone(self, torn, capsys):
        directory, _ = torn
        journal_file = directory / "journal.jsonl"
        before = journal_file.read_bytes()
        assert main(["top", "--target", str(directory),
                     "--interval", "0.1", "--iterations", "2"]) == 0
        assert capsys.readouterr().out.count("repro top") == 1  # one frame
        assert journal_file.read_bytes() == before

    def test_apply_is_the_writer_and_repairs_the_tail(self, files, torn, capsys):
        program, _ = files
        directory, clean = torn
        assert client(directory, "apply", "--program", program, "--tag", "next") == 0
        assert "revision 2 [next]" in capsys.readouterr().err
        repaired = (directory / "journal.jsonl").read_bytes()
        assert repaired.startswith(clean)
        assert self.TORN.encode() not in repaired
        assert repaired.count(b"\n") == clean.count(b"\n") + 1


@pytest.mark.parametrize("argv", [
    ["store", "apply", "--dir", "D", "--program", "p.upd"],
    ["store", "log", "--dir", "D"],
    ["store", "diff", "--dir", "D", "initial", "t1"],
    ["store", "as-of", "--dir", "D", "t1"],
    ["cluster", "status", "cluster:unix:a,unix:b"],
    ["top", "--dir", "D"],
    ["replica", "serve", "--dir", "R", "--primary", "unix:P", "--socket",
     "R.sock", "--auto-promote"],
    ["replica", "serve", "--dir", "R", "--primary", "unix:P", "--socket",
     "R.sock", "--takeover", "P.sock"],
    ["client", "--socket", "S", "slowlog", "--clear"],
], ids=[
    "store-apply", "store-log", "store-diff", "store-as-of", "cluster-status",
    "top-dir", "replica-auto-promote", "replica-takeover", "slowlog-clear",
])
def test_deleted_spellings_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
