"""Unit and differential tests for the rule matcher.

The matcher is an optimisation layer over the truth functions; the key
property is equivalence with the brute-force active-domain enumeration
(the paper's "∀-quantified over O" read literally).
"""

from hypothesis import given, settings, strategies as st

from repro import parse_object_base, parse_rule
from repro.core.grounding import match_rule
from repro.testing.reference import match_rule_bruteforce
from repro.core.objectbase import ObjectBase
from repro.core.terms import Oid, Var


def bindings_set(iterable):
    return {frozenset((v.name, o.value) for v, o in b.items()) for b in iterable}


BASE = parse_object_base(
    """
    phil.isa -> empl.  phil.pos -> mgr.  phil.sal -> 4000.
    bob.isa -> empl.   bob.sal -> 4200.  bob.boss -> phil.
    """
)


class TestBasicMatching:
    def test_single_atom(self):
        rule = parse_rule("ins[E].t -> 1 <= E.isa -> empl.")
        assert bindings_set(match_rule(rule, BASE)) == {
            frozenset({("E", "phil")}),
            frozenset({("E", "bob")}),
        }

    def test_join_through_shared_variable(self):
        rule = parse_rule("ins[E].t -> 1 <= E.boss -> B, B.pos -> mgr.")
        assert bindings_set(match_rule(rule, BASE)) == {
            frozenset({("E", "bob"), ("B", "phil")})
        }

    def test_negation_filters(self):
        rule = parse_rule("ins[E].t -> 1 <= E.isa -> empl, not E.pos -> mgr.")
        assert bindings_set(match_rule(rule, BASE)) == {frozenset({("E", "bob")})}

    def test_comparison_filters(self):
        rule = parse_rule("ins[E].t -> 1 <= E.sal -> S, S > 4100.")
        assert bindings_set(match_rule(rule, BASE)) == {
            frozenset({("E", "bob"), ("S", 4200)})
        }

    def test_equality_binds(self):
        rule = parse_rule("mod[E].sal -> (S, S2) <= E.sal -> S, S2 = S * 2.")
        results = bindings_set(match_rule(rule, BASE))
        assert frozenset({("E", "phil"), ("S", 4000), ("S2", 8000)}) in results

    def test_constant_positions_prune(self):
        rule = parse_rule("ins[E].t -> 1 <= E.sal -> 4000.")
        assert bindings_set(match_rule(rule, BASE)) == {frozenset({("E", "phil")})}

    def test_repeated_variable_within_atom(self):
        base = parse_object_base("a.likes -> a.  b.likes -> c.")
        rule = parse_rule("ins[X].t -> 1 <= X.likes -> X.")
        assert bindings_set(match_rule(rule, base)) == {frozenset({("X", "a")})}

    def test_no_duplicate_bindings(self):
        # two ways to derive the same binding must yield it once
        base = parse_object_base("a.m -> 1.  a.m -> 2.")
        rule = parse_rule("ins[X].t -> 1 <= X.m -> V1, X.m -> V2.")
        results = list(match_rule(rule, base))
        keys = [frozenset((v.name, o.value) for v, o in b.items()) for b in results]
        assert len(keys) == len(set(keys)) == 4

    def test_arithmetic_on_symbolic_fails_candidate_not_run(self):
        base = parse_object_base("a.m -> blue.  b.m -> 3.")
        rule = parse_rule("ins[X].t -> V2 <= X.m -> V, V2 = V + 1.")
        # 'blue' + 1 is a type error: that candidate dies, b survives
        assert bindings_set(match_rule(rule, base)) == {
            frozenset({("X", "b"), ("V", 3), ("V2", 4)})
        }

    def test_type_error_fails_a_negated_candidate_too(self):
        # not 5 = 'blue' + 1 does not succeed: the candidate dies either way
        base = parse_object_base("a.m -> blue. a.n -> 5.  b.m -> 3. b.n -> 5.")
        rule = parse_rule("ins[X].t -> 1 <= X.m -> V, X.n -> W, not W = V + 1.")
        assert bindings_set(match_rule(rule, base)) == {
            frozenset({("X", "b"), ("V", 3), ("W", 5)})
        }


class TestVersionPatternMatching:
    def test_var_host_never_matches_versions(self):
        from repro import UpdateEngine
        from repro.workloads import salary_raise_program

        result = UpdateEngine().evaluate(salary_raise_program(), BASE)
        # after the raise, matching E.sal -> S must still see only OIDs
        rule = parse_rule("ins[E].t -> 1 <= E.sal -> S.")
        hosts = {b[Var("E")] for b in match_rule(rule, result.result_base)}
        assert hosts == {Oid("phil"), Oid("bob")}

    def test_mod_pattern_matches_only_mod_versions(self):
        from repro import UpdateEngine
        from repro.workloads import salary_raise_program

        result = UpdateEngine().evaluate(salary_raise_program(), BASE)
        rule = parse_rule("ins[E].t -> 1 <= mod(E).sal -> S.")
        answers = bindings_set(match_rule(rule, result.result_base))
        assert answers == {
            frozenset({("E", "phil"), ("S", 4400.0)}),
            frozenset({("E", "bob"), ("S", 4620.0)}),
        }


class TestBodyUpdateTermGenerators:
    def _with_versions(self):
        from repro import UpdateEngine, parse_program

        program = parse_program(
            """
            m: mod[E].sal -> (S, S2) <= E.isa -> empl, E.sal -> S, S2 = S + 1.
            d: del[mod(E)].boss -> B <= mod(E).boss -> B.
            """
        )
        return UpdateEngine().evaluate(program, BASE).result_base

    def test_positive_mod_generator(self):
        base = self._with_versions()
        rule = parse_rule("ins[E].t -> S2 <= mod[E].sal -> (S, S2).")
        answers = bindings_set(match_rule(rule, base))
        assert answers == {
            frozenset({("E", "phil"), ("S", 4000), ("S2", 4001)}),
            frozenset({("E", "bob"), ("S", 4200), ("S2", 4201)}),
        }

    def test_positive_del_generator(self):
        base = self._with_versions()
        rule = parse_rule("ins[E].t -> 1 <= del[mod(E)].boss -> B.")
        answers = bindings_set(match_rule(rule, base))
        assert answers == {frozenset({("E", "bob"), ("B", "phil")})}

    def test_positive_ins_generator(self):
        from repro import UpdateEngine, parse_program

        program = parse_program("i: ins[E].tag -> yes <= E.isa -> empl.")
        base = UpdateEngine().evaluate(program, BASE).result_base
        rule = parse_rule("ins[X].t -> 1 <= ins[E].tag -> yes, E.boss -> X.")
        answers = bindings_set(match_rule(rule, base))
        assert answers == {frozenset({("E", "bob"), ("X", "phil")})}


# ----------------------------------------------------------------------
# differential testing against the brute-force reference
# ----------------------------------------------------------------------

RULES = [
    "ins[X].t -> 1 <= X.m -> Y.",
    "ins[X].t -> 1 <= X.m -> Y, Y.m -> Z.",
    "ins[X].t -> 1 <= X.m -> Y, not Y.m -> X.",
    "ins[X].t -> V2 <= X.m -> V, V2 = V + V, V2 > 2.",
    "ins[X].t -> 1 <= X.m -> Y, X.n -> Y.",
    "ins[X].t -> 1 <= X.m -> V, not X.n -> V.",
]

value_strategy = st.one_of(st.sampled_from(["a", "b", "c"]), st.integers(0, 3))
fact_strategy = st.tuples(
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(["m", "n"]),
    value_strategy,
)


@settings(max_examples=40, deadline=None)
@given(st.lists(fact_strategy, max_size=10), st.sampled_from(RULES))
def test_matcher_equals_bruteforce(facts, rule_text):
    base = ObjectBase.from_triples(facts)
    rule = parse_rule(rule_text)
    fast = bindings_set(match_rule(rule, base))
    slow = bindings_set(match_rule_bruteforce(rule, base))
    assert fast == slow
