"""Parser tests: grammar coverage and error reporting."""

import pytest

from repro import parse_body, parse_object_base, parse_program, parse_rule, parse_term
from repro.core.atoms import BuiltinAtom, UpdateAtom, VersionAtom
from repro.core.exprs import BinOp
from repro.core.facts import Fact
from repro.core.terms import Oid, UpdateKind, Var, VersionId, VersionVar, wrap
from repro.lang.errors import ParseError

O = Oid
INS, DEL, MOD = UpdateKind.INSERT, UpdateKind.DELETE, UpdateKind.MODIFY


class TestTerms:
    def test_case_convention(self):
        assert parse_term("phil") == O("phil")
        assert parse_term("E") == Var("E")
        assert parse_term("_tmp") == Var("_tmp")

    def test_numbers(self):
        assert parse_term("42") == O(42)
        assert parse_term("4.5") == O(4.5)
        assert parse_term("-3") == O(-3)

    def test_quoted(self):
        assert parse_term("'Phil Smith'") == O("Phil Smith")

    def test_version_terms(self):
        assert parse_term("mod(henry)") == wrap(MOD, O("henry"))
        assert parse_term("ins(del(mod(E)))") == wrap(
            INS, wrap(DEL, wrap(MOD, Var("E")))
        )

    def test_version_var(self):
        assert parse_term("?W") == VersionVar("W")
        assert parse_term("mod(?W)") == wrap(MOD, VersionVar("W"))

    def test_kind_names_usable_as_oids(self):
        # 'ins' not followed by '(' is an ordinary identifier
        assert parse_term("ins") == O("ins")

    def test_trailing_junk(self):
        with pytest.raises(ParseError):
            parse_term("phil extra")


class TestRules:
    def test_salary_rule_shape(self):
        rule = parse_rule(
            "raise: mod[E].sal -> (S, S2) <= E.isa -> empl, E.sal -> S, "
            "S2 = S * 1.1."
        )
        assert rule.name == "raise"
        head = rule.head
        assert head.kind is MOD
        assert head.result == Var("S") and head.result2 == Var("S2")
        assert len(rule.body) == 3
        assert isinstance(rule.body[2].atom, BuiltinAtom)

    def test_unlabelled_rule(self):
        rule = parse_rule("ins[o].m -> 1.")
        assert rule.name == ""
        assert not rule.body

    def test_path_shorthand_expands(self):
        rule = parse_rule(
            "r: del[mod(E)].* <= mod(E).isa -> empl / boss -> B / sal -> SE."
        )
        methods = [lit.atom.method for lit in rule.body]
        assert methods == ["isa", "boss", "sal"]
        hosts = {lit.atom.host for lit in rule.body}
        assert hosts == {wrap(MOD, Var("E"))}

    def test_delete_all_head(self):
        rule = parse_rule("r: del[mod(E)].* <= mod(E).m -> V.")
        assert rule.head.delete_all

    def test_delete_all_in_body_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("r: ins[X].t -> 1 <= del[X].*.")

    def test_delete_all_only_for_del(self):
        with pytest.raises(ParseError):
            parse_rule("r: ins[X].* <= X.m -> 1.")

    def test_update_terms_in_body(self):
        rule = parse_rule(
            "rule4: ins[mod(E)].isa -> hpe <= mod(E).sal -> S, "
            "not del[mod(E)].isa -> empl."
        )
        negated = rule.body[1]
        assert not negated.positive
        assert isinstance(negated.atom, UpdateAtom)
        assert negated.atom.kind is DEL

    def test_negation_spellings(self):
        for spelling in ("not E.pos -> mgr", "~E.pos -> mgr"):
            rule = parse_rule(f"r: ins[E].t -> 1 <= E.isa -> empl, {spelling}.")
            assert not rule.body[1].positive

    def test_negated_path_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("r: ins[E].t -> 1 <= not E.a -> 1 / b -> 2.")

    def test_conjunction_spellings(self):
        for sep in (",", "^"):
            rule = parse_rule(f"r: ins[E].t -> 1 <= E.a -> 1 {sep} E.b -> 2.")
            assert len(rule.body) == 2

    def test_method_arguments(self):
        rule = parse_rule("r: ins[G].dist@A,B -> D <= G.edge@A,B -> D.")
        assert rule.head.args == (Var("A"), Var("B"))
        assert rule.body[0].atom.args == (Var("A"), Var("B"))

    def test_le_spelling_hint(self):
        with pytest.raises(ParseError) as excinfo:
            parse_rule("r: ins[E].t -> 1 <= E.sal -> S, S <= 10.")
        assert "=<" in str(excinfo.value)

    def test_le_comparison(self):
        rule = parse_rule("r: ins[E].t -> 1 <= E.sal -> S, S =< 10.")
        assert rule.body[1].atom.op == "<="

    def test_exists_head_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("r: ins[E].exists -> E <= E.m -> 1.")

    def test_arithmetic_precedence(self):
        rule = parse_rule("r: ins[E].t -> V <= E.m -> S, V = S + 2 * 3.")
        expr = rule.body[1].atom.right
        assert isinstance(expr, BinOp) and expr.op == "+"
        assert isinstance(expr.right, BinOp) and expr.right.op == "*"

    def test_parenthesised_expression(self):
        rule = parse_rule("r: ins[E].t -> V <= E.m -> S, V = (S + 2) * 3.")
        expr = rule.body[1].atom.right
        assert expr.op == "*" and expr.left.op == "+"


class TestPrograms:
    def test_multi_rule_program(self, paper_program):
        assert [rule.name for rule in paper_program] == [
            "rule1", "rule2", "rule3", "rule4",
        ]

    def test_empty_program(self):
        assert len(parse_program("")) == 0

    def test_comments_between_rules(self):
        program = parse_program(
            """
            % first
            a: ins[o].m -> 1.
            # second
            b: ins[o].n -> 2.
            """
        )
        assert len(program) == 2


class TestBodiesAndBases:
    def test_parse_body(self):
        literals = parse_body("E.isa -> empl, E.sal -> S, S > 100")
        assert len(literals) == 3

    def test_object_base_with_paths(self):
        base = parse_object_base("bob.isa -> empl / sal -> 4200 / boss -> phil.")
        assert Fact(O("bob"), "sal", (), O(4200)) in base
        assert Fact(O("bob"), "boss", (), O("phil")) in base

    def test_object_base_exists_generated(self):
        base = parse_object_base("a.m -> 1.")
        assert base.version_exists(O("a"))

    def test_object_base_version_hosts(self):
        base = parse_object_base("mod(a).m -> 2.", ensure_exists=False)
        assert Fact(wrap(MOD, O("a")), "m", (), O(2)) in base

    def test_non_ground_fact_rejected(self):
        with pytest.raises(ParseError):
            parse_object_base("X.m -> 1.")

    def test_error_position_reported(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("r: ins[E].t -> 1 <= E.isa ->.")
        assert excinfo.value.line == 1
        assert excinfo.value.column > 20
