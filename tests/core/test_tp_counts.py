"""Counts, not clocks: what a ``T_P`` round is allowed to execute.

The three programs of the ``batch_program_4k`` benchmark on small inputs,
without ``collect_fired``: step 1 fires from slot rows (no ``UpdateAtom``
per head, no binding dict per row), steps 2 + 3 are one bulk write per
fresh version (``ObjectBase.add`` only for facts entering already-active
versions) and the delta indexes take a host shape once per changed version.
"""

import pytest

from repro.core import codegen, grounding, objectbase
from repro.core.atoms import UpdateAtom
from repro.core.evaluation import evaluate
from repro.core.objectbase import Delta, ObjectBase
from repro.workloads import (
    ancestors_program,
    enterprise_base,
    enterprise_update_program,
    genealogy_base,
    salary_raise_program,
)


def _jobs():
    staff = enterprise_base(n_employees=200, overpaid_ratio=0.1, seed=5)
    family = genealogy_base(generations=5, per_generation=8, seed=5)
    return [
        (enterprise_update_program(hpe_threshold=4500), staff),
        (salary_raise_program(percent=10.0), staff),
        (ancestors_program(), family),
    ]


class Counts:
    def __init__(self, monkeypatch):
        self.update_atoms = 0
        self.bridge_calls = 0
        self.wrappers = 0
        self.add_to_fresh = 0
        self.add_to_active = 0
        self.add_state = 0
        self.kind_chain = 0
        self.hosted_records = 0

        post_init = UpdateAtom.__post_init__
        literal_true = grounding.literal_true
        add, add_state = ObjectBase.add, ObjectBase.add_state
        record, kind_chain = Delta.record, objectbase.kind_chain

        def counted_post_init(atom):
            self.update_atoms += 1
            post_init(atom)

        def counted_literal_true(*args):
            self.bridge_calls += 1
            return literal_true(*args)

        def counted_wrapper(*_args):
            self.wrappers += 1
            raise AssertionError("tp_step went through a dict-producing wrapper")

        def counted_add(base, fact):
            if base.iter_state_of(fact.host):
                self.add_to_active += 1
            else:
                self.add_to_fresh += 1
            return add(base, fact)

        def counted_add_state(base, host, state):
            self.add_state += 1
            return add_state(base, host, state)

        def counted_record(delta, added, removed, host=None):
            self.hosted_records += host is not None
            return record(delta, added, removed, host)

        def counted_kind_chain(term):
            self.kind_chain += 1
            return kind_chain(term)

        monkeypatch.setattr(UpdateAtom, "__post_init__", counted_post_init)
        # generated code binds the bridge ``_check_ground`` when it is
        # compiled; the bridge looks ``literal_true`` up per call
        monkeypatch.setattr(grounding, "literal_true", counted_literal_true)
        monkeypatch.setattr(codegen.CompiledBody, "bindings", counted_wrapper)
        monkeypatch.setattr(ObjectBase, "add", counted_add)
        monkeypatch.setattr(ObjectBase, "add_state", counted_add_state)
        monkeypatch.setattr(Delta, "record", counted_record)
        monkeypatch.setattr(objectbase, "kind_chain", counted_kind_chain)


@pytest.mark.parametrize("job", range(3))
def test_a_round_executes_no_interpreted_head_work(job, monkeypatch):
    program, base = _jobs()[job]
    for rule in program:  # compile outside the counted region
        codegen.compiled_rule(rule)
    counts = Counts(monkeypatch)
    outcome = evaluate(program, base)
    assert len(outcome.result_base) > len(base)

    # step 1: the only UpdateAtoms built are ground *body* update-terms on
    # their way through the definition-3 bridge (rule4 of Section 2.3)
    assert counts.update_atoms == counts.bridge_calls
    assert (counts.bridge_calls > 0) == (job == 0)
    assert counts.wrappers == 0
    # steps 2 + 3: a fresh version arrives whole, fact-at-a-time writes are
    # left to versions that already had a state
    assert counts.add_state > 0
    assert counts.add_to_fresh == 0
    # recursion edits active versions; the one-shot programs never do
    assert (counts.add_to_active > 0) == (job == 2)
    # delta indexes: one host shape per changed version (four indexes)
    assert counts.hosted_records >= counts.add_state
    assert counts.kind_chain <= 4 * counts.hosted_records
