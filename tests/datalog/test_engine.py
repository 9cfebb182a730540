"""Tests for the Datalog substrate: stratification, modes, built-ins."""

import pytest

from repro.core.atoms import BuiltinAtom
from repro.core.caches import clear_caches
from repro.core.errors import ProgramError, SafetyError, StratificationError
from repro.core.exprs import BinOp
from repro.core.terms import Oid, Var
from repro.datalog import (
    Database, DatalogEngine, DatalogProgram, parse_datalog, stratify_datalog,
)
from repro.datalog.ast import DatalogLiteral as L
from repro.datalog.ast import DatalogRule, PredicateAtom

A = DatalogEngine.atom


def tc_program(extra=()):
    return DatalogProgram(
        [
            DatalogRule(A("path", "X", "Y"), (L(A("edge", "X", "Y")),), "base"),
            DatalogRule(
                A("path", "X", "Z"),
                (L(A("path", "X", "Y")), L(A("edge", "Y", "Z"))),
                "step",
            ),
            *extra,
        ]
    )


CHAIN = Database.from_tuples(
    [("edge", "a", "b"), ("edge", "b", "c"), ("edge", "c", "d")]
)


class TestModes:
    @pytest.mark.parametrize("mode", ["naive", "seminaive", "inflationary"])
    def test_transitive_closure(self, mode):
        result = DatalogEngine(mode).run(tc_program(), CHAIN)
        assert DatalogEngine.query(result, "path", (None, None)) == [
            ("a", "b"), ("a", "c"), ("a", "d"),
            ("b", "c"), ("b", "d"), ("c", "d"),
        ]

    def test_modes_agree_on_stratified_program(self):
        program = tc_program(
            (
                DatalogRule(A("node", "X"), (L(A("edge", "X", "Y")),), "n1"),
                DatalogRule(A("node", "Y"), (L(A("edge", "X", "Y")),), "n2"),
                DatalogRule(
                    A("unreach", "X", "Y"),
                    (
                        L(A("node", "X")),
                        L(A("node", "Y")),
                        L(A("path", "X", "Y"), False),
                    ),
                    "un",
                ),
            )
        )
        naive = DatalogEngine("naive").run(program, CHAIN)
        seminaive = DatalogEngine("seminaive").run(program, CHAIN)
        assert naive == seminaive

    def test_edb_untouched(self):
        before = CHAIN.copy()
        DatalogEngine().run(tc_program(), CHAIN)
        assert CHAIN == before

    def test_unknown_mode(self):
        with pytest.raises(ProgramError):
            DatalogEngine("magic")


class TestBuiltins:
    def test_arithmetic_binding(self):
        program = DatalogProgram(
            [
                DatalogRule(
                    A("double", "X", "D"),
                    (
                        L(A("num", "X")),
                        L(BuiltinAtom("=", Var("D"), BinOp("*", Var("X"), Oid(2)))),
                    ),
                )
            ]
        )
        edb = Database.from_tuples([("num", 2), ("num", 5)])
        result = DatalogEngine().run(program, edb)
        assert DatalogEngine.query(result, "double", (None, None)) == [(2, 4), (5, 10)]

    def test_comparison_filter(self):
        program = DatalogProgram(
            [
                DatalogRule(
                    A("big", "X"),
                    (L(A("num", "X")), L(BuiltinAtom(">", Var("X"), Oid(3)))),
                )
            ]
        )
        edb = Database.from_tuples([("num", 2), ("num", 5)])
        result = DatalogEngine().run(program, edb)
        assert DatalogEngine.query(result, "big", (None,)) == [(5,)]

    @pytest.mark.parametrize("first, second", [("1", "1.0"), ("1.0", "1")])
    def test_an_integer_and_a_decimal_constant_keep_their_own_plans(
        self, first, second
    ):
        # ``Oid(1) == Oid(1.0)``, so both bodies share one plan-cache entry;
        # each must still compute with its own literal.
        def derived(constant):
            program, edb = parse_datalog(
                f"v(a, 2).\nw(X, Y) :- v(X, Z), Y = Z + {constant}."
            )
            result = DatalogEngine().run(program, edb)
            return repr(sorted(result.rows("w", 2)))

        clear_caches()
        answers = {constant: derived(constant) for constant in (first, second)}
        assert answers == {
            "1": "[(Oid('a'), Oid(3))]",
            "1.0": "[(Oid('a'), Oid(3.0))]",
        }


class TestStratification:
    def test_negation_strata(self):
        program = tc_program(
            (
                DatalogRule(
                    A("iso", "X"),
                    (L(A("edge", "X", "Y")), L(A("path", "Y", "X"), False)),
                    "iso",
                ),
            )
        )
        strat = stratify_datalog(program)
        assert strat.predicate_stratum[("path", 2)] < strat.predicate_stratum[("iso", 1)]

    def test_unstratified_rejected(self):
        program = DatalogProgram(
            [
                DatalogRule(A("win", "X"), (L(A("move", "X", "Y")), L(A("win", "Y"), False))),
            ]
        )
        with pytest.raises(StratificationError):
            DatalogEngine().run(program, Database())

    def test_inflationary_accepts_unstratified(self):
        # inflationary semantics has no stratification requirement [AV91]
        program = DatalogProgram(
            [
                DatalogRule(A("win", "X"), (L(A("move", "X", "Y")), L(A("win", "Y"), False))),
            ]
        )
        edb = Database.from_tuples([("move", "a", "b"), ("move", "b", "c")])
        result = DatalogEngine("inflationary").run(program, edb)
        # every position with a move to a (currently) non-winning position wins
        winners = {row[0] for row in DatalogEngine.query(result, "win", (None,))}
        assert "a" in winners and "b" in winners


class TestSafety:
    def test_unsafe_rule_rejected(self):
        program = DatalogProgram(
            [DatalogRule(A("p", "X", "Y"), (L(A("q", "X")),))]
        )
        with pytest.raises(SafetyError):
            DatalogEngine().run(program, Database())

    def test_negation_only_variable_rejected(self):
        program = DatalogProgram(
            [DatalogRule(A("p", "X"), (L(A("q", "X")), L(A("r", "Y"), False)))]
        )
        with pytest.raises(SafetyError):
            DatalogEngine().run(program, Database())


class TestDatabase:
    def test_add_remove(self):
        db = Database()
        assert db.add("p", (Oid(1),))
        assert not db.add("p", (Oid(1),))
        assert ("p", (Oid(1),)) in db
        assert db.remove("p", (Oid(1),))
        assert not db.remove("p", (Oid(1),))

    def test_position_index_lazily_built_and_maintained(self):
        db = Database.from_tuples([("e", "a", "b"), ("e", "a", "c"), ("e", "b", "c")])
        assert len(db.rows_with("e", 2, 0, Oid("a"))) == 2
        db.add("e", (Oid("a"), Oid("d")))
        assert len(db.rows_with("e", 2, 0, Oid("a"))) == 3
        db.remove("e", (Oid("a"), Oid("b")))
        assert len(db.rows_with("e", 2, 0, Oid("a"))) == 2

    def test_equality_ignores_empty_relations(self):
        left = Database.from_tuples([("p", 1)])
        right = Database.from_tuples([("p", 1)])
        right.add("q", (Oid(1),))
        right.remove("q", (Oid(1),))
        assert left == right

    def test_atom_helper_case_convention(self):
        atom = A("edge", "X", "a", 3)
        assert atom.args == (Var("X"), Oid("a"), Oid(3))
