"""E12 — the "variant of stratified Datalog" substrate.

Paper expectation (Section 2.1): methods correspond to predicates; the
update language rests on stratified-Datalog machinery.  The substrate must
therefore behave like the textbook: semi-naive evaluation equals naive
evaluation and wins on recursive workloads as the graph grows.
Measured: transitive closure on chains and random graphs under both modes
— semi-naive should win clearly on the larger inputs (the crossover
claim), and the methods-as-predicates conversion must round-trip.
"""

import pytest

from repro.baselines import database_to_object_base, object_base_to_database
from repro.core.terms import Oid
from repro.datalog import Database, DatalogEngine, DatalogProgram
from repro.datalog.ast import DatalogLiteral as L
from repro.datalog.ast import DatalogRule
from repro.workloads import enterprise_base
from repro.workloads.synthetic import random_edge_database

A = DatalogEngine.atom

TC = DatalogProgram(
    [
        DatalogRule(A("path", "X", "Y"), (L(A("edge", "X", "Y")),), "base"),
        DatalogRule(
            A("path", "X", "Z"),
            (L(A("path", "X", "Y")), L(A("edge", "Y", "Z"))),
            "step",
        ),
    ]
)


def chain_db(n: int) -> Database:
    db = Database()
    for i in range(n):
        db.add("edge", (Oid(f"n{i}"), Oid(f"n{i + 1}")))
    return db


@pytest.mark.parametrize("mode", ["naive", "seminaive"])
@pytest.mark.parametrize("n", [30, 60])
def test_e12_transitive_closure_chain(mode, n):
    db = chain_db(n)
    engine = DatalogEngine(mode)

    result = engine.run(TC, db)
    assert len(result.rows("path", 2)) == n * (n + 1) // 2


@pytest.mark.parametrize("mode", ["naive", "seminaive"])
def test_e12_random_graph(mode):
    db = random_edge_database(n_nodes=40, n_edges=90, seed=12)
    engine = DatalogEngine(mode)

    result = engine.run(TC, db)
    assert result.rows("path", 2)


def test_e12_methods_as_predicates_round_trip():
    base = enterprise_base(n_employees=100, seed=12)

    def round_trip():
        return database_to_object_base(object_base_to_database(base))

    assert round_trip() == base
