"""E13 — Section 6: quantification over VIDs, done carefully.

Paper expectation: "more expressive power can be gained by allowing to
quantify over VIDs ... however, such an extension must be done carefully
not to destroy the termination properties."
Reproduction findings measured here:

* body-position version variables (?W) are terminating — they only bind
  versions that already exist — and one generic audit rule replaces a
  whole family of depth-specialised rules;
* the specialised family stops at its hard-coded depth (the
  expressiveness gap), while the generic rule covers any history;
* head-position version variables are rejected up front (condition (a)
  would force a strict self-loop) — the paper's own stratification
  machinery marks the dangerous half of its proposed extension.
"""

import pytest

from repro import UpdateEngine, parse_object_base, parse_program, query
from repro.core.errors import ProgramError
from repro.ext import audit_history_program
from repro.ext.vidvars import specialised_audit_program


def _history_base(n_objects: int, levels: int):
    lines = [f"o{i}.sal -> {100 + i}." for i in range(n_objects)]
    base = parse_object_base("\n".join(lines))
    base.add_object("ledger")
    rules = ["m1: mod[E].sal -> (S, S2) <= E.sal -> S, S2 = S + 10, E.exists -> E."]
    prefix = "mod(E)"
    for level in range(2, levels + 1):
        rules.append(
            f"m{level}: mod[{prefix}].sal -> (S, S2) <= "
            f"{prefix}.sal -> S, S2 = S + 10, E.sal -> SX."
        )
        prefix = f"mod({prefix})"
    return UpdateEngine().evaluate(parse_program("\n".join(rules)), base).result_base


@pytest.mark.parametrize("levels", [2, 4])
def test_e13_generic_audit(engine, levels):
    base = _history_base(n_objects=10, levels=levels)
    program = audit_history_program("sal")

    outcome = engine.evaluate(program, base)

    history = [a["S"] for a in query(outcome.result_base, "ins(ledger).hist@o0 -> S")]
    assert sorted(history) == [100 + 10 * i for i in range(levels + 1)]


@pytest.mark.parametrize("levels", [2, 4])
def test_e13_specialised_audit(engine, levels):
    base = _history_base(n_objects=10, levels=levels)
    program = specialised_audit_program("sal", levels)

    outcome = engine.evaluate(program, base)

    history = [a["S"] for a in query(outcome.result_base, "ins(ledger).hist@o0 -> S")]
    assert sorted(history) == [100 + 10 * i for i in range(levels + 1)]


def test_e13_expressiveness_gap(engine):
    """The depth-2 specialised program misses the deeper history that the
    single generic rule picks up."""
    base = _history_base(n_objects=4, levels=5)
    generic = engine.evaluate(audit_history_program("sal"), base)
    shallow = engine.evaluate(specialised_audit_program("sal", 2), base)
    q = "ins(ledger).hist@o0 -> S"
    assert len(query(generic.result_base, q)) == 6
    assert len(query(shallow.result_base, q)) == 3


def test_e13_head_position_rejected(engine):
    base = parse_object_base("a.m -> 1.")
    program = parse_program("r: ins[?W].t -> 1 <= ?W.m -> V.")
    with pytest.raises(ProgramError):
        engine.evaluate(program, base)
