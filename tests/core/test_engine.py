"""Tests for the UpdateEngine facade and the query API."""

import pytest

from repro import (
    UpdateEngine,
    UpdateProgram,
    method_results,
    parse_object_base,
    parse_program,
    query,
    result_value,
)
from repro.core import evaluation
from repro.core.evaluation import evaluate
from repro.core.terms import Oid, UpdateKind, wrap

O = Oid

RAISE = "raise: mod[E].sal -> (S, S2) <= E.isa -> empl, E.sal -> S, S2 = S * 1.1."


def _count_stratify(monkeypatch) -> list:
    """The programs :func:`~repro.core.stratification.stratify` is called
    on from here on — once per compilation."""
    calls = []
    stratify = evaluation.stratify

    def counting(program):
        calls.append(program)
        return stratify(program)

    monkeypatch.setattr(evaluation, "stratify", counting)
    return calls


class TestEngineFacade:
    def test_apply_returns_everything(self, engine, paper_base, paper_program):
        result = engine.apply(paper_program, paper_base)
        assert result.new_base is not None
        assert result.result_base is not None
        assert result.final_versions[O("phil")] == wrap(
            UpdateKind.INSERT, wrap(UpdateKind.MODIFY, O("phil"))
        )
        assert len(result.stratification) == 3
        assert result.iterations > 0

    def test_evaluate_skips_new_base(self, engine, paper_base, paper_program):
        outcome = engine.evaluate(paper_program, paper_base)
        # result(P) retains the original facts
        assert query(outcome.result_base, "phil.sal -> S")[0]["S"] == 4000

    def test_engine_reusable(self, engine, paper_base, paper_program):
        first = engine.apply(paper_program, paper_base)
        second = engine.apply(paper_program, paper_base)
        assert first.new_base == second.new_base

    def test_option_passthrough(self):
        engine = UpdateEngine(max_iterations_per_stratum=7)
        assert engine.options.max_iterations_per_stratum == 7
        derived = engine.with_options(collect_trace=True)
        assert derived.options.max_iterations_per_stratum == 7
        assert derived.options.collect_trace


class TestCompiledPrograms:
    def test_compile_returns_cached_artifact(self, engine, paper_program):
        first = engine.compile(paper_program)
        assert engine.compile(paper_program) is first
        assert len(first.stratification) == 3

    def test_cache_hits_structurally_equal_programs(self, engine):
        text = "r: ins[a].m -> b <= a.t -> yes."
        assert engine.compile(parse_program(text)) is engine.compile(
            parse_program(text)
        )

    def test_compiled_reuse_gives_same_results(self, engine, paper_base, paper_program):
        cold = UpdateEngine().apply(paper_program, paper_base)
        engine.compile(paper_program)  # warm
        warm = engine.apply(paper_program, paper_base)
        assert warm.new_base == cold.new_base
        assert warm.result_base == cold.result_base

    def test_parsed_program_carries_its_artifact(self, engine):
        program = parse_program("r: ins[a].m -> b <= a.t -> yes.")
        assert program.compiled is not None
        assert engine.compile(program) is program.compiled
        # re-wrapping under a name keeps it
        assert engine.compile(UpdateProgram(program, "named")) is program.compiled

    def test_compile_rejects_invalid_programs_eagerly(self, engine):
        from repro.core.errors import SafetyError

        unsafe = parse_program("r: ins[a].m -> X <= a.t -> yes.")
        with pytest.raises(SafetyError):
            engine.compile(unsafe)

    def test_with_options_returns_the_same_artifact(self, engine, paper_program):
        paper_program = UpdateProgram(paper_program.rules)  # no artifact
        compiled = engine.compile(paper_program)
        derived = engine.with_options(check_linearity=False)
        assert derived.compile(paper_program) is compiled

    def test_direct_evaluate_reads_the_parsed_artifact(self, monkeypatch, paper_base):
        program = parse_program(RAISE)
        calls = _count_stratify(monkeypatch)
        evaluate(program, paper_base)
        assert calls == []

    def test_ast_program_compiles_once_across_engines(self, monkeypatch, paper_base):
        # the batch's per-round pattern: a fresh engine per application
        program = UpdateProgram(parse_program(RAISE).rules)
        calls = _count_stratify(monkeypatch)
        for _ in range(3):
            UpdateEngine().apply(program, paper_base)
        assert len(calls) == 1
        assert program.compiled is not None


class TestQueryApi:
    BASE = parse_object_base(
        """
        phil.isa -> empl.  phil.sal -> 4000.
        bob.isa -> empl.   bob.sal -> 4200.  bob.boss -> phil.
        """
    )

    def test_query_bindings_sorted(self):
        answers = query(self.BASE, "E.isa -> empl, E.sal -> S")
        assert answers == [
            {"E": "bob", "S": 4200},
            {"E": "phil", "S": 4000},
        ]

    def test_ground_query_yields_empty_binding(self):
        assert query(self.BASE, "phil.isa -> empl") == [{}]
        assert query(self.BASE, "phil.isa -> mgr") == []

    def test_query_with_negation_and_comparison(self):
        answers = query(self.BASE, "E.sal -> S, S > 4100, not E.boss -> E")
        assert answers == [{"E": "bob", "S": 4200}]

    def test_method_results_set_valued(self):
        base = parse_object_base("a.tag -> x. a.tag -> y.")
        assert method_results(base, "a", "tag") == {"x", "y"}

    def test_result_value_unique(self):
        assert result_value(self.BASE, "phil", "sal") == 4000
        assert result_value(self.BASE, "phil", "nothing") is None

    def test_result_value_rejects_set_valued(self):
        base = parse_object_base("a.tag -> x. a.tag -> y.")
        with pytest.raises(ValueError):
            result_value(base, "a", "tag")

    def test_query_version_hosts(self, engine, paper_base, paper_program):
        result = engine.apply(paper_program, paper_base)
        answers = query(result.result_base, "mod(E).sal -> S, S > 4500")
        assert {a["E"] for a in answers} == {"phil", "bob"}


class TestTraceRendering:
    def test_figure2_trace_mentions_versions(
        self, tracing_engine, paper_base, paper_program
    ):
        result = tracing_engine.apply(paper_program, paper_base)
        text = result.trace.render(objects=(O("phil"), O("bob")))
        assert "mod(phil): " in text
        assert "ins(mod(phil)): " in text
        assert "del(mod(bob)): " in text
        assert "rule3" in text

    def test_trace_statistics(self, tracing_engine, paper_base, paper_program):
        result = tracing_engine.apply(paper_program, paper_base)
        trace = result.trace
        assert trace.total_iterations >= len(result.stratification)
        created = {str(v) for v in trace.versions_created()}
        assert created == {
            "mod(phil)", "mod(bob)", "del(mod(bob))", "ins(mod(phil))"
        }
        assert trace.total_copies == 4  # one lazy copy per created version
