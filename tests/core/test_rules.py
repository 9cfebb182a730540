"""Unit tests for rules and programs."""

import pytest

from repro.core.atoms import Literal, UpdateAtom, VersionAtom
from repro.core.errors import ProgramError
from repro.core.rules import UpdateProgram, UpdateRule
from repro.core.terms import Oid, UpdateKind, Var, wrap

INS, DEL, MOD = UpdateKind.INSERT, UpdateKind.DELETE, UpdateKind.MODIFY


def _raise_rule() -> UpdateRule:
    return UpdateRule(
        UpdateAtom(MOD, Var("E"), "sal", (), Var("S"), Var("S2")),
        (
            Literal(VersionAtom(Var("E"), "isa", (), Oid("empl"))),
            Literal(VersionAtom(Var("E"), "sal", (), Var("S"))),
        ),
        "raise",
    )


class TestUpdateRule:
    def test_head_must_be_update_term(self):
        with pytest.raises(ProgramError):
            UpdateRule(VersionAtom(Var("E"), "m", (), Oid(1)))  # type: ignore[arg-type]

    def test_variables(self):
        assert _raise_rule().variables == {Var("E"), Var("S"), Var("S2")}

    def test_fact(self):
        fact = UpdateRule(UpdateAtom(INS, Oid("o"), "m", (), Oid(1)))
        assert not fact.body
        assert str(fact) == "ins[o].m -> 1."

    def test_substitution(self):
        ground = _raise_rule().substitute(
            {Var("E"): Oid("h"), Var("S"): Oid(1), Var("S2"): Oid(2)}
        )
        assert ground.head.is_ground()
        assert all(lit.is_ground() for lit in ground.body)

    def test_head_version_id_term_replaces_brackets(self):
        # Section 4: [V] is replaced by (V) for stratification
        rule = _raise_rule()
        assert rule.head_version_id_term() == wrap(MOD, Var("E"))

    def test_body_version_id_terms(self):
        rule = UpdateRule(
            UpdateAtom(INS, wrap(MOD, Var("E")), "isa", (), Oid("hpe")),
            (
                Literal(VersionAtom(wrap(MOD, Var("E")), "sal", (), Var("S"))),
                Literal(
                    UpdateAtom(DEL, wrap(MOD, Var("E")), "isa", (), Oid("empl")),
                    positive=False,
                ),
            ),
            "rule4",
        )
        terms = list(rule.body_version_id_terms())
        assert (wrap(MOD, Var("E")), True) in terms
        # the update-term contributes its created version del(mod(E))
        assert (wrap(DEL, wrap(MOD, Var("E"))), False) in terms


class TestUpdateProgram:
    def test_auto_naming(self):
        program = UpdateProgram(
            [
                UpdateRule(UpdateAtom(INS, Oid("o"), "m", (), Oid(1))),
                UpdateRule(UpdateAtom(INS, Oid("o"), "n", (), Oid(2))),
            ]
        )
        assert [rule.name for rule in program] == ["rule1", "rule2"]

    def test_explicit_names_kept(self):
        program = UpdateProgram([_raise_rule()])
        assert [rule.name for rule in program] == ["raise"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ProgramError):
            UpdateProgram([_raise_rule(), _raise_rule()])

    def test_iteration_and_indexing(self):
        program = UpdateProgram([_raise_rule()])
        assert len(program) == 1
        assert program[0].name == "raise"
        assert program.variables == {Var("E"), Var("S"), Var("S2")}
