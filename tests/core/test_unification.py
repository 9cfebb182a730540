"""Unit and property tests for sorted unification (docs/DESIGN.md D2).

The sort discipline is semantically load-bearing for the paper's examples
(stratification shapes, exactly-once updates), so it is pinned extensively.
"""

from hypothesis import given, strategies as st

from repro.core.terms import Oid, UpdateKind, Var, VersionId, VersionVar, wrap
from repro.core.unification import match_term, unifiable, unify, unify_terms

INS, DEL, MOD = UpdateKind.INSERT, UpdateKind.DELETE, UpdateKind.MODIFY

# -- term strategies ---------------------------------------------------------
oids = st.sampled_from(["a", "b", "phil", "bob"]).map(Oid)
variables = st.sampled_from(["X", "Y", "E"]).map(Var)
kinds = st.sampled_from(list(UpdateKind))


def wrap_random(draw_kinds, inner):
    term = inner
    for kind in draw_kinds:
        term = wrap(kind, term)
    return term


ground_terms = st.builds(wrap_random, st.lists(kinds, max_size=3), oids)
patterns = st.builds(wrap_random, st.lists(kinds, max_size=3), st.one_of(oids, variables))


class TestSortDiscipline:
    def test_var_unifies_with_oid(self):
        assert unify_terms(Var("X"), Oid("a")) == {Var("X"): Oid("a")}

    def test_var_unifies_with_var(self):
        result = unify_terms(Var("X"), Var("Y"))
        assert result in ({Var("X"): Var("Y")}, {Var("Y"): Var("X")})

    def test_var_never_takes_version(self):
        # E does not unify with mod(peter): footnote 3's stratification
        assert unify_terms(Var("E"), wrap(MOD, Oid("peter"))) is None
        assert unify_terms(wrap(MOD, Oid("peter")), Var("E")) is None

    def test_bare_var_vs_functored_pattern(self):
        # mod(E) does not unify with X: the ancestor program stays one stratum
        assert not unifiable(wrap(MOD, Var("E")), Var("X"))

    def test_same_functor_unifies_inside(self):
        result = unify_terms(wrap(MOD, Var("E")), wrap(MOD, Var("B")))
        assert result is not None

    def test_functor_mismatch(self):
        assert not unifiable(wrap(MOD, Var("E")), wrap(DEL, Var("E")))

    def test_nested(self):
        left = wrap(DEL, wrap(MOD, Var("E")))
        right = wrap(DEL, wrap(MOD, Oid("phil")))
        assert unify_terms(left, right) == {Var("E"): Oid("phil")}

    def test_depth_mismatch(self):
        assert not unifiable(wrap(MOD, Var("E")), wrap(MOD, wrap(MOD, Oid("o"))))

    def test_oids(self):
        assert unify_terms(Oid("a"), Oid("a")) == {}
        assert unify_terms(Oid("a"), Oid("b")) is None

    def test_shared_variable_consistency(self):
        # unify(mod(X), mod(Y)) then X with a: both bound consistently
        binding = unify_terms(wrap(MOD, Var("X")), wrap(MOD, Var("Y")))
        extended = unify_terms(Var("X"), Oid("a"), binding)
        assert extended is not None
        from repro.core.substitution import resolve

        assert resolve(Var("Y"), extended) == Oid("a")


class TestVersionVars:
    def test_binds_any_vid(self):
        target = wrap(INS, wrap(MOD, Oid("o")))
        assert unify_terms(VersionVar("W"), target) == {VersionVar("W"): target}

    def test_occurs_check(self):
        w = VersionVar("W")
        assert unify_terms(w, wrap(MOD, w)) is None

    def test_inside_functor(self):
        left = wrap(MOD, VersionVar("W"))
        right = wrap(MOD, wrap(DEL, Oid("o")))
        assert unify_terms(left, right) == {VersionVar("W"): wrap(DEL, Oid("o"))}


class TestMatchTerm:
    def test_pattern_var_takes_oid_only(self):
        assert match_term(Var("X"), Oid("a")) == {Var("X"): Oid("a")}
        # salary-raise applies exactly once: X never matches mod(phil)
        assert match_term(Var("X"), wrap(MOD, Oid("phil"))) is None

    def test_functor_walk(self):
        pattern = wrap(MOD, Var("E"))
        assert match_term(pattern, wrap(MOD, Oid("phil"))) == {Var("E"): Oid("phil")}
        assert match_term(pattern, wrap(DEL, Oid("phil"))) is None
        assert match_term(pattern, Oid("phil")) is None

    def test_existing_binding_respected(self):
        pattern = wrap(MOD, Var("E"))
        assert match_term(pattern, wrap(MOD, Oid("b")), {Var("E"): Oid("a")}) is None
        assert match_term(pattern, wrap(MOD, Oid("a")), {Var("E"): Oid("a")}) == {
            Var("E"): Oid("a")
        }

    def test_input_binding_not_mutated(self):
        binding = {}
        match_term(Var("X"), Oid("a"), binding)
        assert binding == {}

    def test_version_var_matches_whole_vid(self):
        ground = wrap(DEL, wrap(MOD, Oid("o")))
        assert match_term(VersionVar("W"), ground) == {VersionVar("W"): ground}

    @given(patterns, ground_terms)
    def test_match_implies_unifiable(self, pattern, ground):
        if match_term(pattern, ground) is not None:
            assert unifiable(pattern, ground)

    @given(patterns, ground_terms)
    def test_match_result_reproduces_ground(self, pattern, ground):
        from repro.core.substitution import apply_term

        binding = match_term(pattern, ground)
        if binding is not None:
            assert apply_term(pattern, binding) == ground


class TestUnifyPublicApi:
    def test_returns_substitution(self):
        subst = unify(wrap(MOD, Var("E")), wrap(MOD, Oid("phil")))
        assert subst is not None
        assert subst.apply(Var("E")) == Oid("phil")

    def test_failure_returns_none(self):
        assert unify(Oid("a"), Oid("b")) is None

    @given(patterns, patterns)
    def test_symmetry_of_unifiability(self, left, right):
        assert unifiable(left, right) == unifiable(right, left)

    @given(patterns)
    def test_reflexive(self, term):
        assert unifiable(term, term)
