"""Stratification tests — the paper's Section 4 examples, pinned exactly.

These are reproduction experiment E5: the enterprise program stratifies as
``{rule1, rule2} < {rule3} < {rule4}`` under conditions (a)-(d) and as
``{rule1, rule2} < {rule3, rule4}`` under condition (a) alone; the
hypothetical program as four singleton strata (footnote 3); the recursive
ancestor program as a single stratum.
"""

import pytest

from repro import UpdateEngine, parse_program
from repro.core import caches
from repro.core.errors import ReproError, StratificationError
from repro.core.stratification import precedence_edges, stratify
from repro.workloads import (
    ancestors_program,
    hypothetical_program,
    paper_example_program,
)


class TestPaperExampleStrata:
    def test_full_conditions(self):
        strata = stratify(paper_example_program())
        assert strata.names() == [["rule1", "rule2"], ["rule3"], ["rule4"]]

    def test_condition_a_alone(self):
        strata = stratify(paper_example_program(), conditions="a")
        assert strata.names() == [["rule1", "rule2"], ["rule3", "rule4"]]

    def test_hypothetical_program(self):
        strata = stratify(hypothetical_program())
        assert strata.names() == [["rule1"], ["rule2"], ["rule3"], ["rule4"]]

    def test_ancestors_single_recursive_stratum(self):
        strata = stratify(ancestors_program())
        assert strata.names() == [["r1", "r2"]]

    def test_stratum_of_mapping(self):
        strata = stratify(paper_example_program())
        assert strata.stratum_of["rule1"] == 0
        assert strata.stratum_of["rule4"] == 2


class TestConditions:
    def test_condition_a_copy_before_extend(self):
        # ins[mod(E)] copies mod(E): the rule defining mod(E) is lower
        program = parse_program(
            """
            a: mod[E].m -> (V, V2) <= E.m -> V, V2 = V + 1.
            b: ins[mod(E)].t -> 1 <= E.m -> V.
            """
        )
        strata = stratify(program)
        assert strata.names() == [["a"], ["b"]]

    def test_condition_b_weak_allows_recursion(self):
        program = parse_program(
            """
            r1: ins[X].anc -> P <= X.parents -> P.
            r2: ins[X].anc -> P <= ins(X).anc -> A, A.parents -> P.
            """
        )
        assert len(stratify(program)) == 1

    def test_condition_c_negation_strict(self):
        program = parse_program(
            """
            pos: mod[X].t -> (V, V2) <= X.t -> V, V2 = V + 1.
            neg: ins[X].u -> 1 <= X.t -> V, not mod(X).t -> V.
            """
        )
        # condition (c) alone already forces the split
        strata = stratify(program, conditions="c")
        assert strata.names() == [["pos"], ["neg"]]

    def test_vid_granularity_is_coarser_than_datalog(self):
        """Version-id-terms play the role Datalog predicate names play
        ([Ull88] adaptation) — but they are *coarser*: a rule negating a
        method of the very version its own head creates is rejected even
        though the two methods differ.  The paper's rule 4 avoids this by
        negating del(mod(E)) while creating ins(mod(E))."""
        program = parse_program(
            """
            pos: ins[X].t -> 1 <= X.m -> V.
            neg: ins[X].u -> 1 <= X.m -> V, not ins(X).t -> 1.
            """
        )
        with pytest.raises(StratificationError):
            stratify(program)

    def test_condition_d_write_before_read(self):
        program = parse_program(
            """
            w: del[X].m -> V <= X.m -> V, X.kill -> yes.
            r: ins[del(X)].t -> 1 <= del(X).n -> V.
            """
        )
        strata = stratify(program)
        assert strata.stratum_of["w"] < strata.stratum_of["r"]

    def test_negative_self_recursion_rejected(self):
        program = parse_program(
            "r: ins[X].t -> 1 <= X.m -> V, not ins(X).t -> 1."
        )
        with pytest.raises(StratificationError) as excinfo:
            stratify(program)
        assert "r" in str(excinfo.value)

    def test_destructive_self_read_rejected(self):
        # a rule deleting from del(X) while reading del(X): (d) forces r < r
        program = parse_program(
            "r: del[X].m -> V <= del(X).n -> V."
        )
        with pytest.raises(StratificationError):
            stratify(program)

    def test_insert_self_read_allowed(self):
        # inserts are monotone: reading your own ins version is fine
        program = parse_program("r: ins[X].t -> V <= ins(X).m -> V.")
        assert len(stratify(program)) == 1


class TestEdgesAndExplain:
    def test_edges_carry_conditions(self):
        edges = precedence_edges(paper_example_program())
        conditions = {edge.condition for edge in edges}
        assert conditions == {"a", "b", "c", "d"}

    def test_strict_flags(self):
        edges = precedence_edges(paper_example_program())
        by_condition = {}
        for edge in edges:
            by_condition.setdefault(edge.condition, set()).add(edge.strict)
        assert by_condition["a"] == {True}
        assert by_condition["b"] == {False}
        assert by_condition["c"] == {True}
        assert by_condition["d"] == {True}

    def test_explain_mentions_all_strata(self):
        text = stratify(paper_example_program()).explain()
        assert "stratum 0: {rule1, rule2}" in text
        assert "stratum 2: {rule4}" in text
        assert "condition (a)" in text

    def test_conditions_match_case_insensitively(self):
        assert stratify(paper_example_program(), conditions="A").names() == [
            ["rule1", "rule2"],
            ["rule3", "rule4"],
        ]

    @pytest.mark.parametrize("conditions, named", [("xyz", "x, y, z"), ("abq", "q")])
    def test_unknown_condition_is_refused(self, conditions, named):
        # dropping every constraint must not pass for a stratification
        with pytest.raises(ReproError, match=rf"condition\(s\) {named} in"):
            stratify(paper_example_program(), conditions=conditions)

    def test_empty_conditions_are_refused(self):
        with pytest.raises(ReproError, match="no stratification condition"):
            precedence_edges(paper_example_program(), conditions="")

    def test_facts_only_program(self):
        program = parse_program("f: ins[o].m -> 1.")
        strata = stratify(program)
        assert strata.names() == [["f"]]
        assert strata.edges == ()

    def test_unifiability_respects_constants(self):
        # mod-heads on different constants do not constrain each other
        program = parse_program(
            """
            a: mod[x].m -> (1, 2) <= x.m -> 1.
            b: ins[mod(y)].t -> 1 <= y.m -> V.
            """
        )
        strata = stratify(program)
        # b copies mod(y); rule a writes mod(x) — x and y distinct constants
        assert strata.names() == [["a", "b"]]


SAME = "r: ins[a].q -> 1 <= not ins(a).p -> 1."
APART = "r: ins[a].q -> 1 <= not ins(b).p -> 1."


class TestWhetherConstantsAreEqual:
    """Stratification unifies ground terms, so two programs that differ
    only in whether two of their constants are equal can stratify
    differently.  That is why a parsed text's shape key carries which of
    its constants are equal (:mod:`repro.lang.shapes`)."""

    def test_equal_constants_form_a_strict_cycle(self):
        with pytest.raises(StratificationError) as excinfo:
            stratify(parse_program(SAME))
        assert excinfo.value.cycle == ("r", "r")

    def test_distinct_constants_stratify(self):
        assert stratify(parse_program(APART)).names() == [["r"]]

    @pytest.mark.parametrize("order", [(SAME, APART), (APART, SAME)])
    def test_each_text_keeps_its_outcome_in_either_order(self, order):
        caches.clear_caches()
        for text in order + order:
            program = parse_program(text)
            if text == SAME:
                with pytest.raises(StratificationError):
                    UpdateEngine().compile(program)
            else:
                compiled = UpdateEngine().compile(program)
                assert compiled.stratification.names() == [["r"]]
