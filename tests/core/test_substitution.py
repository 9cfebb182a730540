"""Unit and property tests for substitutions."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import TermError
from repro.core.substitution import Substitution, apply_term, resolve
from repro.core.terms import Oid, UpdateKind, Var, VersionId, VersionVar, wrap

names = st.sampled_from(["X", "Y", "Z", "E", "B"])
oids = st.one_of(
    st.sampled_from(["a", "b", "phil"]).map(Oid),
    st.integers(-5, 5).map(Oid),
)


class TestResolve:
    def test_follows_chains(self):
        binding = {Var("X"): Var("Y"), Var("Y"): Oid("a")}
        assert resolve(Var("X"), binding) == Oid("a")

    def test_unbound_stays(self):
        assert resolve(Var("X"), {}) == Var("X")

    def test_non_var_passthrough(self):
        assert resolve(Oid("a"), {Var("X"): Oid("b")}) == Oid("a")


class TestApplyTerm:
    def test_rebuilds_functors(self):
        term = wrap(UpdateKind.MODIFY, Var("E"))
        assert apply_term(term, {Var("E"): Oid("phil")}) == wrap(
            UpdateKind.MODIFY, Oid("phil")
        )

    def test_identity_when_unbound(self):
        term = wrap(UpdateKind.INSERT, Var("E"))
        assert apply_term(term, {}) is term  # no rebuild on no-op

    def test_version_var_value_is_substituted_recursively(self):
        # ?W -> mod(X), X -> a  ==>  ?W evaluates to mod(a)
        binding = {
            VersionVar("W"): wrap(UpdateKind.MODIFY, Var("X")),
            Var("X"): Oid("a"),
        }
        assert apply_term(VersionVar("W"), binding) == wrap(
            UpdateKind.MODIFY, Oid("a")
        )


class TestSubstitution:
    def test_sort_discipline(self):
        # plain variables cannot take version identities (docs/DESIGN.md D2)
        with pytest.raises(TermError):
            Substitution({Var("X"): wrap(UpdateKind.INSERT, Oid("a"))})

    def test_version_vars_may_take_vids(self):
        subst = Substitution({VersionVar("W"): wrap(UpdateKind.INSERT, Oid("a"))})
        assert subst[VersionVar("W")] == wrap(UpdateKind.INSERT, Oid("a"))

    def test_bind_returns_new(self):
        empty = Substitution()
        extended = empty.bind(Var("X"), Oid("a"))
        assert Var("X") not in empty
        assert extended[Var("X")] == Oid("a")

    def test_compose_applies_left_then_right(self):
        left = Substitution({Var("X"): Var("Y")})
        right = Substitution({Var("Y"): Oid("a")})
        composed = left.compose(right)
        assert composed.apply(Var("X")) == Oid("a")
        assert composed.apply(Var("Y")) == Oid("a")

    def test_equality_and_hash(self):
        one = Substitution({Var("X"): Oid("a")})
        two = Substitution({Var("X"): Oid("a")})
        assert one == two
        assert hash(one) == hash(two)

    @given(st.dictionaries(names.map(Var), oids, max_size=4))
    def test_apply_is_idempotent(self, binding):
        subst = Substitution(binding)
        for var in binding:
            once = subst.apply(var)
            assert subst.apply(once) == once
