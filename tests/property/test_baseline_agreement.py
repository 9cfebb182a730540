"""Property tests: where the baselines *must* agree with the core engine.

The Section 2.4 divergences (E6, E11) are about delete/modify staging; on
monotone, stage-free workloads all semantics coincide — an invariant that
pins both the baselines and the engine at once.
"""

from hypothesis import given, settings, strategies as st

from repro import UpdateEngine
from repro.baselines import naive_one_step_update
from repro.core.facts import EXISTS
from repro.workloads.synthetic import (
    random_insert_program,
    random_object_base,
    random_update_program,
)

seeds = st.integers(0, 10_000)


def _visible(base):
    return {f for f in base if f.method != EXISTS}


@settings(max_examples=25, deadline=None)
@given(seeds, seeds)
def test_naive_equals_versioned_on_insert_only_programs(base_seed, program_seed):
    """Insert-only, non-recursive programs have no staging: the one-shot
    semantics and the versioned semantics produce the same ob'."""
    base = random_object_base(n_objects=6, facts_per_object=2, seed=base_seed)
    program = random_insert_program(n_rules=3, seed=program_seed)

    versioned = UpdateEngine().apply(program, base).new_base
    naive = naive_one_step_update(program, base).new_base
    assert _visible(versioned) == _visible(naive)


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_logres_plus_only_module_equals_datalog(seed):
    """A Logres module with insert-only rules is plain (inflationary)
    Datalog over the same rules."""
    from repro.baselines.logres import LogresModule, LogresProgram, LogresRule
    from repro.datalog import DatalogEngine, DatalogProgram
    from repro.workloads.synthetic import (
        random_datalog_chain_program,
        random_edge_database,
    )

    datalog_program = random_datalog_chain_program(n_idb=2, seed=seed)
    edb = random_edge_database(n_nodes=8, n_edges=14, seed=seed)

    modules = LogresProgram([
        LogresModule(
            "m",
            tuple(
                LogresRule(rule.head, rule.body, True, rule.name)
                for rule in datalog_program
            ),
            "inflationary",
        )
    ])
    via_logres = modules.run(edb)
    via_datalog = DatalogEngine("inflationary").run(datalog_program, edb)
    assert via_logres == via_datalog


@settings(max_examples=40, deadline=None)
@given(seeds, seeds, st.booleans())
def test_derived_engine_equals_plain_when_views_unreferenced(
    base_seed, program_seed, insert_only
):
    """A view no rule reads changes nothing: the derived engine's overlay
    loop gives the plain engine's result, delta and iteration count, on
    insert-only programs and on ``mod``/``del`` programs alike."""
    from repro.ext.derived import DerivedUpdateEngine, parse_derived_program

    views = parse_derived_program(
        "unused: ?W.shadow -> yes <= ?W.color -> C."
    )
    base = random_object_base(n_objects=5, seed=base_seed)
    if insert_only:
        program = random_insert_program(n_rules=2, seed=program_seed)
    else:
        program = random_update_program(seed=program_seed)

    plain = UpdateEngine().apply(program, base)
    derived = DerivedUpdateEngine(views).apply(program, base)
    assert plain.new_base == derived.new_base
    assert plain.result_base == derived.result_base
    assert plain.added == derived.added
    assert plain.removed == derived.removed
    assert plain.iterations == derived.iterations
