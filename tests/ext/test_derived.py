"""Tests for derived methods (Section 6 "derived objects", E14)."""

import pytest

from repro import parse_object_base, parse_program, query
from repro.core.errors import (
    EvaluationLimitError,
    ProgramError,
    StratificationError,
    VersionDepthError,
)
from repro.ext.derived import (
    DerivedProgram,
    DerivedUpdateEngine,
    materialize,
    parse_derived_program,
)

# `?W.senior` makes the view *version-transparent*: it derives on every
# existing version, not just the base objects — the two Section 6
# extensions (derived methods + VID quantification) composing.
VIEWS = """
    senior: ?W.senior -> yes <= ?W.sal -> S, S > 4000.
    chain:  X.chainboss -> B <= X.boss -> B.
    chain2: X.chainboss -> C <= X.chainboss -> B, B.boss -> C.
"""

BASE = """
    phil.isa -> empl.  phil.sal -> 4000.
    bob.isa -> empl.   bob.sal -> 4200.  bob.boss -> phil.
    amy.isa -> empl.   amy.sal -> 3000.  amy.boss -> bob.
"""


@pytest.fixture()
def views():
    return parse_derived_program(VIEWS)


@pytest.fixture()
def base():
    return parse_object_base(BASE)


class TestMaterialize:
    def test_plain_view(self, views, base):
        enriched = materialize(base, views)
        assert {a["X"] for a in query(enriched, "X.senior -> yes")} == {"bob"}

    def test_recursive_view(self, views, base):
        enriched = materialize(base, views)
        bosses = {a["B"] for a in query(enriched, "amy.chainboss -> B")}
        assert bosses == {"bob", "phil"}

    def test_input_untouched(self, views, base):
        snapshot = base.copy()
        materialize(base, views)
        assert base == snapshot

    def test_views_on_version_hosts(self, views, base):
        # after a raise, the view re-derives on the mod(e) versions too
        from repro import UpdateEngine

        program = parse_program(
            "up: mod[E].sal -> (S, S2) <= E.isa -> empl, E.sal -> S, S2 = S + 600."
        )
        result = UpdateEngine().evaluate(program, base)
        enriched = materialize(result.result_base, views)
        seniors = {a["X"] for a in query(enriched, "mod(X).senior -> yes")}
        assert seniors == {"phil", "bob"}  # 4600 and 4800; amy at 3600 is not

    def test_stored_derived_method_rejected(self, views):
        poisoned = parse_object_base("a.senior -> yes.")
        with pytest.raises(ProgramError):
            materialize(poisoned, views)

    def test_negation_between_views(self, base):
        views = parse_derived_program(
            """
            senior: X.senior -> yes <= X.sal -> S, S > 4000.
            junior: X.junior -> yes <= X.sal -> S, not X.senior -> yes.
            """
        )
        enriched = materialize(base, views)
        juniors = {a["X"] for a in query(enriched, "X.junior -> yes")}
        assert juniors == {"phil", "amy"}

    def test_negative_self_recursion_rejected(self):
        with pytest.raises(StratificationError):
            parse_derived_program(
                "odd: X.odd -> yes <= X.n -> V, not X.odd -> yes."
            )

    def test_unsafe_head_rejected(self):
        with pytest.raises(ProgramError):
            parse_derived_program("bad: X.v -> Y <= X.m -> Z.")

    def test_exists_cannot_be_derived(self):
        with pytest.raises(ProgramError):
            parse_derived_program("bad: X.exists -> X <= X.m -> V.")

    def test_iteration_limit_names_the_diverging_stratum(self, base):
        views = parse_derived_program(
            """
            boss: X.isboss -> yes <= X.pos -> mgr.
            c0:   X.cnt -> 0 <= X.isa -> empl, not X.isboss -> yes.
            c1:   X.cnt -> M <= X.cnt -> N, M = N + 1.
            """
        )
        with pytest.raises(EvaluationLimitError) as caught:
            materialize(base, views, max_iterations=50)
        assert caught.value.stratum == 1  # c0/c1 sit above boss
        assert "stratum 1 " in str(caught.value)


class TestDerivedUpdateEngine:
    def test_update_rules_read_views(self, views, base):
        program = parse_program(
            "cut: mod[E].sal -> (S, S2) <= E.senior -> yes, E.sal -> S, "
            "S2 = S - 500."
        )
        engine = DerivedUpdateEngine(views)
        result = engine.apply(program, base)
        salaries = {a["E"]: a["S"] for a in query(result.new_base, "E.sal -> S")}
        assert salaries == {"phil": 4000, "bob": 3700, "amy": 3000}

    def test_views_never_stored(self, views, base):
        program = parse_program(
            "cut: mod[E].sal -> (S, S2) <= E.senior -> yes, E.sal -> S, "
            "S2 = S - 500."
        )
        engine = DerivedUpdateEngine(views)
        result = engine.apply(program, base)
        assert query(result.new_base, "X.senior -> V") == []
        assert query(result.result_base, "X.senior -> V") == []

    def test_view_recomputed_between_strata(self, views, base):
        """A second-stratum rule must see the view over the *updated*
        state: after the cut nobody is senior, so no bonus fires."""
        program = parse_program(
            """
            cut:   mod[E].sal -> (S, S2) <= E.senior -> yes, E.sal -> S,
                   S2 = S - 500.
            bonus: ins[mod(E)].bonus -> yes <= mod(E).senior -> yes.
            """
        )
        engine = DerivedUpdateEngine(views)
        result = engine.apply(program, base)
        assert query(result.new_base, "E.bonus -> yes") == []

    def test_view_sees_new_values_between_strata(self, views, base):
        """Symmetric case: a raise makes new seniors the view must see."""
        program = parse_program(
            """
            up:    mod[E].sal -> (S, S2) <= E.isa -> empl, E.sal -> S,
                   S2 = S + 1500.
            badge: ins[mod(E)].badge -> gold <= mod(E).senior -> yes.
            """
        )
        engine = DerivedUpdateEngine(views)
        result = engine.apply(program, base)
        badged = {a["E"] for a in query(result.new_base, "E.badge -> gold")}
        assert badged == {"phil", "bob", "amy"}  # all above 4000 now

    def test_updating_a_view_rejected(self, views, base):
        program = parse_program("bad: ins[E].senior -> yes <= E.sal -> S.")
        with pytest.raises(ProgramError):
            DerivedUpdateEngine(views).apply(program, base)

    def test_view_helper_on_new_base(self, views, base):
        program = parse_program(
            "up: mod[E].sal -> (S, S2) <= E.isa -> empl, E.sal -> S, S2 = S + 600."
        )
        engine = DerivedUpdateEngine(views)
        result = engine.apply(program, base)
        seniors = {
            a["X"] for a in query(engine.view(result.new_base), "X.senior -> yes")
        }
        assert seniors == {"phil", "bob"}

    def test_agrees_with_plain_engine_when_views_unused(self, views, base):
        from repro import UpdateEngine
        from repro.workloads import salary_raise_program

        program = salary_raise_program()
        plain = UpdateEngine().apply(program, base)
        derived = DerivedUpdateEngine(views).apply(program, base)
        assert plain.new_base == derived.new_base


class TestOneLoop:
    """The derived engine is the core ``T_P`` loop with a view overlay, so
    every evaluation option means what it means without views."""

    def test_trace_matches_plain_engine(self, views):
        from repro import UpdateEngine
        from repro.workloads import paper_example_base, paper_example_program

        program, base = paper_example_program(), paper_example_base()
        plain = UpdateEngine(collect_trace=True).apply(program, base)
        derived = DerivedUpdateEngine(views, collect_trace=True).apply(
            program, base
        )
        # A view overlay turns off semi-naive seeding, so later iterations
        # re-list old instances as fired; strata, rule names, iterations
        # and created versions are the plain engine's.
        def shape(trace):
            return [
                (stratum.index, stratum.rule_names,
                 [iteration.new_versions for iteration in stratum.iterations])
                for stratum in trace.strata
            ]

        assert derived.trace.render().startswith("stratum 0: {rule1, rule2}")
        assert shape(derived.trace) == shape(plain.trace)

    def test_max_version_depth_enforced(self, views):
        from repro.workloads import paper_example_base, paper_example_program

        engine = DerivedUpdateEngine(views, max_version_depth=1)
        with pytest.raises(VersionDepthError):
            engine.apply(paper_example_program(), paper_example_base())

    def test_version_variable_head_rejected_like_plain_engine(self, views, base):
        from repro import UpdateEngine

        program = parse_program("bad: ins[?W].tag -> x <= ?W.sal -> S.")
        with pytest.raises(ProgramError) as plain:
            UpdateEngine().apply(program, base)
        with pytest.raises(ProgramError) as derived:
            DerivedUpdateEngine(views).apply(program, base)
        assert type(derived.value) is type(plain.value)
        assert str(derived.value) == str(plain.value)

    def test_with_options_keeps_the_views(self, views, base):
        engine = DerivedUpdateEngine(views).with_options(check_linearity=False)
        assert isinstance(engine, DerivedUpdateEngine)
        assert not engine.options.check_linearity
        program = parse_program(
            "cut: mod[E].sal -> (S, S2) <= E.senior -> yes, E.sal -> S, "
            "S2 = S - 500."
        )
        result = engine.apply(program, base)
        salaries = {a["E"]: a["S"] for a in query(result.new_base, "E.sal -> S")}
        assert salaries == {"phil": 4000, "bob": 3700, "amy": 3000}


class TestDerivedProgramStructure:
    def test_auto_naming_and_duplicates(self):
        program = parse_derived_program("X.a -> yes <= X.m -> V.\nX.b -> yes <= X.m -> V.")
        assert [rule.name for rule in program] == ["view1", "view2"]
        with pytest.raises(ProgramError):
            DerivedProgram(list(program) + [list(program)[0]])

    def test_derived_methods_set(self):
        program = parse_derived_program(VIEWS)
        assert program.derived_methods == {"senior", "chainboss"}
