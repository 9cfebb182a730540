"""Unit tests for the 3-step T_P operator (Section 3)."""

from repro import parse_object_base, parse_program
from repro.core.consequence import apply_tp, tp_step
from repro.core.facts import EXISTS, Fact, exists_fact
from repro.core.objectbase import ObjectBase
from repro.core.terms import Oid, UpdateKind, wrap

INS, DEL, MOD = UpdateKind.INSERT, UpdateKind.DELETE, UpdateKind.MODIFY
O = Oid


def step(program_text, base):
    program = parse_program(program_text)
    return tp_step(list(program), base, collect_fired=True)


class TestStepOne:
    def test_head_truth_filters(self):
        # a delete of information that does not exist must not enter T1
        base = parse_object_base("a.m -> 1.")
        result = step("d: del[X].m -> 2 <= X.m -> V.", base)
        assert result.pending.is_empty()

    def test_insert_enters_unconditionally(self):
        base = parse_object_base("a.m -> 1.")
        result = step("i: ins[X].t -> yes <= X.m -> V.", base)
        assert result.pending.inserts == {
            wrap(INS, O("a")): {("t", (), O("yes"))}
        }

    def test_delete_all_expansion(self):
        base = parse_object_base("a.m -> 1. a.n -> 2.")
        result = step("d: del[X].* <= X.m -> 1.", base)
        deletes = result.pending.deletes[wrap(DEL, O("a"))]
        assert deletes == {("m", (), O(1)), ("n", (), O(2))}

    def test_delete_all_never_touches_exists(self):
        base = parse_object_base("a.m -> 1.")
        result = step("d: del[X].* <= X.m -> 1.", base)
        for method, _args, _result in result.pending.deletes[wrap(DEL, O("a"))]:
            assert method != EXISTS

    def test_fired_instances_recorded(self):
        base = parse_object_base("a.m -> 1. b.m -> 2.")
        result = step("i: ins[X].t -> yes <= X.m -> V.", base)
        assert len(result.fired) == 2
        assert {f.rule_name for f in result.fired} == {"i"}


class TestStepTwo:
    def test_fresh_version_copies_v_star(self):
        base = parse_object_base("a.m -> 1. a.n -> 2.")
        result = step("i: ins[X].t -> yes <= X.m -> 1.", base)
        state = result.new_states[wrap(INS, O("a"))]
        assert Fact(wrap(INS, O("a")), "m", (), O(1)) in state
        assert Fact(wrap(INS, O("a")), "n", (), O(2)) in state

    def test_copy_includes_exists(self):
        base = parse_object_base("a.m -> 1.")
        result = step("i: ins[X].t -> yes <= X.m -> 1.", base)
        assert exists_fact(wrap(INS, O("a"))) in result.new_states[wrap(INS, O("a"))]

    def test_active_version_copies_itself(self):
        base = parse_object_base("a.m -> 1.")
        version = wrap(INS, O("a"))
        base.add(exists_fact(version))
        base.add(Fact(version, "t", (), O("old")))
        result = step("i: ins[X].t -> yes <= X.m -> 1.", base)
        state = result.new_states[version]
        # the active version keeps its own accumulated state...
        assert Fact(version, "t", (), O("old")) in state
        # ...and does NOT re-copy from v* = a
        assert Fact(version, "m", (), O(1)) not in state

    def test_copy_counter(self):
        base = parse_object_base("a.m -> 1.")
        result = step("i: ins[X].t -> yes <= X.m -> 1.", base)
        assert result.copies == 1  # fresh copy of a's state

    def test_skipped_level_copy(self):
        # del[mod(a)] with no mod version: copy from v* = a
        base = parse_object_base("a.m -> 1. a.n -> 2.")
        result = step("d: del[mod(X)].m -> 1 <= X.m -> 1.", base)
        version = wrap(DEL, wrap(MOD, O("a")))
        state = result.new_states[version]
        assert Fact(version, "n", (), O(2)) in state
        assert Fact(version, "m", (), O(1)) not in state  # deleted


class TestStepThree:
    def test_insert_union(self):
        base = parse_object_base("a.m -> 1.")
        result = step("i: ins[X].t -> yes <= X.m -> 1.", base)
        state = result.new_states[wrap(INS, O("a"))]
        assert Fact(wrap(INS, O("a")), "t", (), O("yes")) in state
        assert Fact(wrap(INS, O("a")), "m", (), O(1)) in state

    def test_delete_subtracts(self):
        base = parse_object_base("a.m -> 1. a.m -> 2.")
        result = step("d: del[X].m -> 1 <= X.m -> 1.", base)
        state = result.new_states[wrap(DEL, O("a"))]
        assert Fact(wrap(DEL, O("a")), "m", (), O(1)) not in state
        assert Fact(wrap(DEL, O("a")), "m", (), O(2)) in state

    def test_modify_replaces(self):
        base = parse_object_base("a.m -> 1.")
        result = step("m: mod[X].m -> (V, V2) <= X.m -> V, V2 = V + 10.", base)
        state = result.new_states[wrap(MOD, O("a"))]
        assert Fact(wrap(MOD, O("a")), "m", (), O(11)) in state
        assert Fact(wrap(MOD, O("a")), "m", (), O(1)) not in state

    def test_conflicting_modifies_are_set_valued(self):
        # two mod-updates of the same old value: both new values hold
        base = parse_object_base("a.m -> 1.")
        result = step(
            """
            m1: mod[X].m -> (1, 10) <= X.m -> 1.
            m2: mod[X].m -> (1, 20) <= X.m -> 1.
            """,
            base,
        )
        state = result.new_states[wrap(MOD, O("a"))]
        values = {f.result for f in state if f.method == "m"}
        assert values == {O(10), O(20)}

    def test_modify_keeps_untouched_values(self):
        base = parse_object_base("a.m -> 1. a.m -> 5.")
        result = step("m: mod[X].m -> (1, 10) <= X.m -> 1.", base)
        state = result.new_states[wrap(MOD, O("a"))]
        values = {f.result for f in state if f.method == "m"}
        assert values == {O(10), O(5)}


class TestApplyTp:
    def test_replacement_semantics(self):
        base = parse_object_base("a.m -> 1.")
        result = step("m: mod[X].m -> (V, V2) <= X.m -> V, V2 = V + 1.", base)
        assert apply_tp(base, result)
        version = wrap(MOD, O("a"))
        assert Fact(version, "m", (), O(2)) in base
        # second application reaches the fixpoint: nothing changes
        result2 = step("m: mod[X].m -> (V, V2) <= X.m -> V, V2 = V + 1.", base)
        assert not apply_tp(base, result2)

    def test_growing_deletes_within_iterations(self):
        """docs/DESIGN.md D1: a delete firing later must remove the fact copied
        earlier — union semantics would resurrect it."""
        base = parse_object_base("a.keep -> 1. a.m -> 1. a.trigger -> go.")
        program_text = """
            d1: del[X].m -> 1 <= X.trigger -> go.
            d2: del[X].keep -> 1 <= del[X].m -> 1.
        """
        result = step(program_text, base)
        apply_tp(base, result)
        version = wrap(DEL, O("a"))
        assert Fact(version, "m", (), O(1)) not in base
        assert Fact(version, "keep", (), O(1)) in base  # d2 not fired yet
        result2 = step(program_text, base)
        apply_tp(base, result2)
        assert Fact(version, "keep", (), O(1)) not in base  # now deleted

    def test_strict_mode_orphan_insert(self):
        base = ObjectBase()
        base.add_object("seed")
        program = "i: ins[ghost].t -> 1 <= seed.exists -> seed."
        result = step(program, base)
        apply_tp(base, result)
        version = wrap(INS, O("ghost"))
        # strict paper reading: the orphan state exists but carries no
        # exists fact (the object 'ghost' was never in ob)
        assert Fact(version, "t", (), O(1)) in base
        assert not base.version_exists(version)

    def test_create_missing_objects_mode(self):
        base = ObjectBase()
        base.add_object("seed")
        program = parse_program("i: ins[ghost].t -> 1 <= seed.exists -> seed.")
        result = tp_step(list(program), base, create_missing_objects=True)
        apply_tp(base, result)
        assert base.version_exists(wrap(INS, O("ghost")))
