"""Unit and property tests for the object base (indexes, exists, v*)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import FrozenBaseError, TermError
from repro.core.facts import EXISTS, Fact, exists_fact, make_fact
from repro.core.objectbase import ObjectBase
from repro.core.terms import Oid, UpdateKind, Var, wrap

INS, DEL, MOD = UpdateKind.INSERT, UpdateKind.DELETE, UpdateKind.MODIFY


def small_base() -> ObjectBase:
    return ObjectBase.from_triples(
        [
            ("phil", "isa", "empl"),
            ("phil", "sal", 4000),
            ("bob", "isa", "empl"),
            ("bob", "boss", "phil"),
        ]
    )


class TestConstruction:
    def test_from_triples_adds_exists(self):
        base = small_base()
        assert Fact(Oid("phil"), EXISTS, (), Oid("phil")) in base
        assert base.objects() == {Oid("phil"), Oid("bob")}

    def test_from_triples_with_args(self):
        base = ObjectBase.from_triples([("g", "dist", ("a", "b"), 7)])
        assert Fact(Oid("g"), "dist", (Oid("a"), Oid("b")), Oid(7)) in base

    def test_bad_tuple_length(self):
        with pytest.raises(TermError):
            ObjectBase.from_triples([("a", "b")])

    def test_non_ground_rejected(self):
        base = ObjectBase()
        with pytest.raises(TermError):
            base.add(Fact(Var("X"), "m", (), Oid(1)))


class TestMutation:
    def test_add_is_idempotent(self):
        base = ObjectBase()
        fact = make_fact(Oid("a"), "m", (), Oid(1))
        assert base.add(fact)
        assert not base.add(fact)
        assert len(base) == 1

    def test_discard(self):
        base = ObjectBase()
        fact = make_fact(Oid("a"), "m", (), Oid(1))
        base.add(fact)
        assert base.discard(fact)
        assert not base.discard(fact)
        assert fact not in base

    def test_discard_keeps_indexes_consistent(self):
        base = small_base()
        fact = make_fact(Oid("phil"), "sal", (), Oid(4000))
        base.discard(fact)
        assert base.facts_by_host_method(Oid("phil"), "sal", 0) == frozenset()
        assert fact not in base.facts_by_method("sal", 0)

    def test_exists_tracking_on_discard(self):
        base = ObjectBase()
        base.add_object("o")
        assert base.version_exists(Oid("o"))
        base.discard(exists_fact(Oid("o")))
        assert not base.version_exists(Oid("o"))

    def test_copy_is_independent(self):
        base = small_base()
        clone = base.copy()
        clone.add(make_fact(Oid("new"), "m", (), Oid(1)))
        assert len(clone) == len(base) + 1
        assert clone != base

    def test_equality(self):
        assert small_base() == small_base()


class TestFreezing:
    def test_freeze_rejects_mutation(self):
        base = small_base().freeze()
        assert base.frozen
        with pytest.raises(FrozenBaseError):
            base.add(make_fact(Oid("new"), "m", (), Oid(1)))
        with pytest.raises(FrozenBaseError):
            base.discard(make_fact(Oid("phil"), "sal", (), Oid(4000)))

    def test_noop_mutations_stay_cheap(self):
        # add of a present fact / discard of an absent one never mutate,
        # so they are answered before the frozen check fires
        base = small_base().freeze()
        assert not base.add(make_fact(Oid("phil"), "sal", (), Oid(4000)))
        assert not base.discard(make_fact(Oid("ghost"), "m", (), Oid(1)))

    def test_frozen_base_still_reads_and_indexes(self):
        facts = {f for f in small_base() if f.method != EXISTS}
        base = ObjectBase.from_fact_set(facts).freeze()
        assert base.facts_by_method("sal", 0)  # index built lazily, allowed
        assert base.version_exists(Oid("phil")) is False  # no exists facts

    def test_copy_of_frozen_is_mutable(self):
        base = small_base().freeze()
        clone = base.copy()
        assert not clone.frozen
        clone.add(make_fact(Oid("new"), "m", (), Oid(1)))
        assert len(clone) == len(base) + 1

    def test_ensure_exists_on_complete_frozen_base_is_a_noop(self):
        base = small_base()
        base.ensure_exists()
        assert base.freeze().ensure_exists() == 0


class TestApplyDelta:
    def test_apply_delta_shares_fact_objects(self):
        base = small_base().freeze()
        old = make_fact(Oid("phil"), "sal", (), Oid(4000))
        new = make_fact(Oid("phil"), "sal", (), Oid(4400))
        derived = base.apply_delta({new}, {old})
        assert not derived.frozen
        assert new in derived and old not in derived
        kept = next(f for f in base if f.method == "boss")
        assert next(f for f in derived if f.method == "boss") is kept

    def test_apply_delta_leaves_source_untouched(self):
        base = small_base()
        fact = make_fact(Oid("phil"), "sal", (), Oid(4000))
        derived = base.apply_delta((), {fact})
        assert fact in base
        assert fact not in derived
        assert len(derived) == len(base) - 1

    def test_apply_empty_delta_is_equal(self):
        base = small_base()
        assert base.apply_delta((), ()) == base


class TestReplaceState:
    def test_replaces_whole_state(self):
        base = small_base()
        version = wrap(MOD, Oid("phil"))
        state = {
            Fact(version, "isa", (), Oid("empl")),
            Fact(version, "sal", (), Oid(4600)),
            exists_fact(version),
        }
        assert base.replace_state(version, state)
        assert base.state_of(version) == frozenset(state)
        # replacing with the same state reports no change (fixpoint test)
        assert not base.replace_state(version, state)

    def test_replacement_removes_stale_facts(self):
        base = ObjectBase()
        version = wrap(DEL, Oid("o"))
        base.replace_state(version, {Fact(version, "m", (), Oid(1)), exists_fact(version)})
        base.replace_state(version, {exists_fact(version)})
        assert base.method_applications(version) == frozenset()
        assert base.version_exists(version)

    def test_wrong_host_rejected(self):
        base = ObjectBase()
        with pytest.raises(TermError):
            base.replace_state(wrap(MOD, Oid("o")), {make_fact(Oid("o"), "m", (), Oid(1))})


class TestAddState:
    VERSION = wrap(MOD, Oid("phil"))

    def _state(self) -> set[Fact]:
        return {
            exists_fact(self.VERSION),
            Fact(self.VERSION, "isa", (), Oid("empl")),
            Fact(self.VERSION, "sal", (), Oid(4600)),
        }

    def test_installs_the_whole_state(self):
        base = small_base()
        base.add_state(self.VERSION, self._state())
        assert base.state_of(self.VERSION) == self._state()
        assert base.version_exists(self.VERSION)
        assert base.facts_by_host_method(self.VERSION, "sal", 0) == {
            Fact(self.VERSION, "sal", (), Oid(4600))
        }
        assert Fact(self.VERSION, "isa", (), Oid("empl")) in base.facts_by_method("isa", 0)
        assert len(base) == len(small_base()) + 3

    def test_frozen_base_rejected(self):
        base = small_base().freeze()
        with pytest.raises(FrozenBaseError):
            base.add_state(self.VERSION, self._state())

    def test_host_with_a_state_rejected(self):
        base = small_base()
        base.add_state(self.VERSION, self._state())
        with pytest.raises(TermError, match="already has a state"):
            base.add_state(self.VERSION, self._state())

    def test_non_ground_host_rejected(self):
        host = wrap(MOD, Var("E"))
        with pytest.raises(TermError, match="ground"):
            small_base().add_state(host, {Fact(host, "isa", (), Oid("empl"))})

    def test_fact_of_another_host_rejected(self):
        with pytest.raises(TermError, match="different version"):
            small_base().add_state(self.VERSION, {Fact(Oid("bob"), "sal", (), Oid(1))})

    def test_column_index_built_before_or_after_agree(self):
        probes = [("sal", Oid(4600)), ("sal", Oid(4000)), ("isa", Oid("empl"))]
        before, after = small_base(), small_base()
        for method, value in probes:
            before.facts_by_arg(method, 0, -1, value)  # built, then maintained
        before.add_state(self.VERSION, self._state())
        after.add_state(self.VERSION, self._state())
        for method, value in probes:
            assert before.facts_by_arg(method, 0, -1, value) == after.facts_by_arg(
                method, 0, -1, value
            )
        assert before.facts_by_arg("sal", 0, -1, Oid(4600)) == {
            Fact(self.VERSION, "sal", (), Oid(4600))
        }


class TestVStar:
    def test_existing_version_is_its_own_v_star(self):
        base = small_base()
        assert base.v_star(Oid("phil")) == Oid("phil")

    def test_skipped_levels_fall_through(self):
        # del(mod(e)) when no modify ever ran: v* = e  (Section 3)
        base = small_base()
        target = wrap(DEL, wrap(MOD, Oid("phil")))
        assert base.v_star(target) == Oid("phil")

    def test_deepest_existing_wins(self):
        base = small_base()
        version = wrap(MOD, Oid("phil"))
        base.add(exists_fact(version))
        assert base.v_star(wrap(DEL, version)) == version

    def test_none_when_nothing_exists(self):
        base = small_base()
        assert base.v_star(wrap(MOD, Oid("ghost"))) is None


class TestLookups:
    def test_state_of_and_method_applications(self):
        base = small_base()
        state = base.state_of(Oid("phil"))
        assert len(state) == 3  # isa, sal, exists
        applications = base.method_applications(Oid("phil"))
        assert len(applications) == 2
        assert all(f.method != EXISTS for f in applications)

    def test_versions_of(self):
        base = small_base()
        version = wrap(MOD, Oid("phil"))
        base.add(exists_fact(version))
        assert base.versions_of(Oid("phil")) == {Oid("phil"), version}
        assert base.versions_of(Oid("bob")) == {Oid("bob")}

    def test_facts_by_method_respects_arity(self):
        base = ObjectBase.from_triples(
            [("a", "m", 1), ("b", "m", ("x",), 2)]
        )
        assert len(base.facts_by_method("m", 0)) == 1
        assert len(base.facts_by_method("m", 1)) == 1

    def test_oid_universe(self):
        base = small_base()
        universe = base.oid_universe()
        assert Oid("phil") in universe and Oid(4000) in universe

    def test_sorted_facts_stable(self):
        assert small_base().sorted_facts() == small_base().sorted_facts()


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.sampled_from(["m", "n"]),
            st.integers(0, 5),
        ),
        max_size=20,
    )
)
def test_indexes_agree_with_linear_scan(triples):
    base = ObjectBase.from_triples(triples)
    for fact in base:
        assert fact in base.facts_by_method(fact.method, len(fact.args))
        assert fact in base.facts_by_host(fact.host)
        assert fact in base.facts_by_host_method(fact.host, fact.method, len(fact.args))
    for host in {f.host for f in base}:
        expected = {f for f in base if f.host == host}
        assert base.facts_by_host(host) == expected
