"""Unit tests for the precompiled join plans, the rule dependency
signatures and the delta machinery behind semi-naive evaluation."""

import pytest

from repro.core.codegen import match_rule_seeded_compiled
from repro.core.consequence import apply_tp, tp_step
from repro.core.errors import EvaluationError
from repro.core.evaluation import EvaluationOptions, compile_program
from repro.core.grounding import match_body, match_rule
from repro.core.objectbase import Delta, ObjectBase
from repro.core.plans import (
    FULL,
    GENERATE,
    SEED,
    SKIP,
    classify,
    compile_plan,
    rule_plan,
)
from repro.core.facts import Fact
from repro.core.query import prepare_query
from repro.core.rules import UpdateProgram
from repro.core.terms import Oid
from repro.lang.parser import parse_body, parse_object_base, parse_program
from repro.testing.reference import match_rule_dynamic


BASE = parse_object_base(
    """
    phil.isa -> empl.   phil.pos -> mgr.    phil.sal -> 4000.
    bob.isa -> empl.    bob.sal -> 4200.    bob.boss -> phil.
    ann.isa -> empl.    ann.sal -> 3000.    ann.boss -> phil.
    """
)

RULES = parse_program(
    """
    r1: mod[E].sal -> (S, S2) <= E.isa -> empl / sal -> S, S2 = S * 1.1.
    r2: ins[E].rich -> yes <= E.sal -> S, E.boss -> B, B.sal -> SB, S > SB.
    r3: del[mod(E)].* <= mod(E).sal -> S, S > 5000.
    r4: ins[mod(E)].hpe -> yes <= mod(E).sal -> S, S > 4500,
        not del[mod(E)].sal -> S.
    """
)


def bindings_set(bindings):
    return {frozenset(b.items()) for b in bindings}


class TestJoinPlans:
    def test_planned_equals_dynamic_on_every_rule(self):
        for rule in RULES:
            assert bindings_set(match_rule(rule, BASE)) == bindings_set(
                match_rule_dynamic(rule, BASE)
            ), rule.name

    def test_plan_compiles_and_counts_generators(self):
        plan = rule_plan(RULES[1]).full_plan  # r2: three generators
        generators = [s for s in plan.steps if s.action == GENERATE]
        assert len(generators) >= 2

    def test_version_atom_generators_skip_reverification(self):
        plan = rule_plan(RULES[0]).full_plan
        assert any(
            s.action == GENERATE and not s.verify for s in plan.steps
        )

    def test_single_generator_plans_have_no_duplicates(self):
        rule = RULES[0]
        results = list(match_rule(rule, BASE))
        keys = bindings_set(results)
        assert len(results) == len(keys)

    def test_unsafe_body_raises_a_typed_error_naming_the_rule(self):
        # A body the planner cannot order: only a negated literal.  The
        # error surfaces where the plan is built, not from inside a search.
        rules = parse_program("u1: ins[X].t -> 1 <= not X.isa -> empl.")
        with pytest.raises(EvaluationError, match="'u1'.*unsafe"):
            compile_plan(rules[0].body, name="u1")
        with pytest.raises(EvaluationError, match="'u1'.*unsafe"):
            compile_program(
                UpdateProgram(rules), EvaluationOptions(check_safety=False)
            )

    def test_unsafe_query_body_raises_a_typed_error_naming_the_query(self):
        text = "not X.isa -> empl"
        with pytest.raises(EvaluationError, match="'not X.isa -> empl'.*unsafe"):
            prepare_query(text)
        with pytest.raises(EvaluationError, match="'q7'.*unsafe"):
            prepare_query(text, name="q7")
        with pytest.raises(EvaluationError, match="'v1'.*unsafe"):
            match_body(parse_body(text), BASE, rule_name="v1")


class TestDelta:
    def test_apply_tp_returns_structured_delta(self):
        program = parse_program(
            "g1: mod[E].sal -> (S, S2) <= E.sal -> S, S2 = S + 1."
        )
        base = BASE.copy()
        step = tp_step(list(program), base)
        delta = apply_tp(base, step)
        assert delta  # truthy: the base changed
        assert any(f.method == "sal" for f in delta.added)
        assert ("sal", 0) in delta.added_index()
        # all new facts live on mod(..) versions
        assert set(delta.added_index()[("sal", 0)]) == {("mod",)}
        # re-applying the same step is idempotent: empty delta
        assert not apply_tp(base, step)

    def test_replace_state_diff_reports_exact_changes(self):
        base = ObjectBase()
        host = Oid("o")
        f1 = Fact(host, "a", (), Oid(1))
        f2 = Fact(host, "b", (), Oid(2))
        f3 = Fact(host, "c", (), Oid(3))
        base.add(f1), base.add(f2)
        added, removed = base.replace_state_diff(host, {f2, f3})
        assert added == {f3} and removed == {f1}
        assert base.replace_state_diff(host, {f2, f3}) == (frozenset(), frozenset())


class TestClassification:
    def _delta_with(self, fact):
        delta = Delta()
        delta.record([fact], [])
        return delta

    def test_base_level_rule_skips_on_version_level_delta(self):
        # r1 reads plain-object facts; a delta on mod(..) hosts cannot
        # re-enable it (plain variables never bind proper VIDs).
        sig = rule_plan(RULES[0]).signature
        from repro.core.terms import UpdateKind, VersionId

        mod_phil = VersionId(UpdateKind.MODIFY, Oid("phil"))
        delta = self._delta_with(Fact(mod_phil, "sal", (), Oid(4400)))
        assert classify(sig, delta) == (SKIP, ())

    def test_seed_mode_on_matching_shape(self):
        sig = rule_plan(RULES[0]).signature
        delta = self._delta_with(Fact(Oid("zoe"), "sal", (), Oid(1)))
        mode, positions = classify(sig, delta)
        assert mode == SEED and positions

    def test_negation_and_update_atoms_force_full(self):
        from repro.core.terms import UpdateKind, VersionId

        sig = rule_plan(RULES[3]).signature  # r4 has `not del[mod(E)].sal`
        mod_phil = VersionId(UpdateKind.MODIFY, Oid("phil"))
        delta = self._delta_with(Fact(mod_phil, "sal", (), Oid(1)))
        assert classify(sig, delta) == (FULL, ())

    def test_delete_all_head_is_volatile_for_matching_shapes(self):
        from repro.core.terms import UpdateKind, VersionId

        sig = rule_plan(RULES[2]).signature  # r3: del[mod(E)].*
        mod_phil = VersionId(UpdateKind.MODIFY, Oid("phil"))
        delta = self._delta_with(Fact(mod_phil, "anything", (), Oid(1)))
        assert classify(sig, delta) == (FULL, ())
        # ...but an ins(mod(..))-level delta is unreadable by r3 entirely.
        ins_mod = VersionId(UpdateKind.INSERT, mod_phil)
        delta2 = self._delta_with(Fact(ins_mod, "anything", (), Oid(1)))
        assert classify(sig, delta2) == (SKIP, ())

    def test_seeded_match_finds_only_delta_derived_bindings(self):
        rule = RULES[0]
        base = BASE.copy()
        new_fact = Fact(Oid("zoe"), "sal", (), Oid(100))
        base.add(new_fact)
        base.add(Fact(Oid("zoe"), "isa", (), Oid("empl")))
        base.ensure_exists()
        delta = Delta()
        delta.record([new_fact], [])
        mode, positions = classify(rule_plan(rule).signature, delta)
        assert mode == SEED
        seeded = bindings_set(
            match_rule_seeded_compiled(rule, base, delta, positions)
        )
        assert len(seeded) == 1
        full = bindings_set(match_rule(rule, base))
        assert seeded < full and len(full) == 4


class TestLazyCopies:
    def test_lazy_copy_equals_eager_copy(self):
        lazy = ObjectBase.from_fact_set(set(BASE))
        assert lazy == BASE
        assert lazy.facts_by_method("sal", 0) == BASE.facts_by_method("sal", 0)
        assert lazy.existing_versions() == BASE.existing_versions()

    def test_lazy_copy_is_independent(self):
        lazy = ObjectBase.from_fact_set(set(BASE))
        lazy.add(Fact(Oid("new"), "isa", (), Oid("empl")))
        assert len(lazy) == len(BASE) + 1
        assert Fact(Oid("new"), "isa", (), Oid("empl")) not in BASE

    def test_from_fact_set_adopts_without_indexes(self):
        facts = {Fact(Oid("a"), "m", (), Oid(1))}
        base = ObjectBase.from_fact_set(set(facts))
        assert set(base) == facts
        assert base.facts_by_host(Oid("a"))  # index rebuilt on demand
