"""Property test for incremental secondary-index maintenance.

The tentpole invariant of the arg-position index layer: a base reached
through an arbitrary chain of ``freeze()`` / ``apply_delta()`` /
``add_state()`` steps — with indexes built, adopted and updated
incrementally along the way — exposes exactly the same indexes as a base
rebuilt from its final fact set from scratch.  Structural sharing and bulk
writes may make revisions cheap, but they must never make them *different*.
"""

from hypothesis import given, settings, strategies as st

from repro.core.errors import FrozenBaseError
from repro.core.facts import Fact, exists_fact
from repro.core.objectbase import ObjectBase
from repro.core.terms import Oid, UpdateKind, wrap

METHODS = ("sal", "boss", "rate")
HOSTS = tuple(Oid(f"o{i}") for i in range(6))
VALUES = tuple(Oid(v) for v in (1, 2, 3, "a", "b"))


def _fact(host_i: int, method_i: int, arg_i: int, result_i: int) -> Fact:
    method = METHODS[method_i]
    args = (VALUES[arg_i],) if method == "rate" else ()
    return Fact(HOSTS[host_i], method, args, VALUES[result_i])


fact_strategy = st.builds(
    _fact,
    st.integers(0, len(HOSTS) - 1),
    st.integers(0, len(METHODS) - 1),
    st.integers(0, len(VALUES) - 1),
    st.integers(0, len(VALUES) - 1),
)

#: One revision step: facts to add and facts to remove.
delta_strategy = st.tuples(
    st.lists(fact_strategy, max_size=4),
    st.lists(fact_strategy, max_size=4),
)

#: Facts whose applications make up the complete state of a brand-new version.
state_strategy = st.lists(fact_strategy, max_size=4)


def _add_fresh_state(base: ObjectBase, step: int, applications) -> None:
    """``add_state`` for a version no earlier step can have touched."""
    version = HOSTS[0]
    for _ in range(step + 1):
        version = wrap(UpdateKind.MODIFY, version)
    state = {Fact(version, f.method, f.args, f.result) for f in applications}
    state.add(exists_fact(version))
    base.add_state(version, state)


def _probe_everything(base: ObjectBase) -> dict:
    """Exercise every access path (which also builds every index) and
    snapshot the observable results."""
    observed: dict = {"facts": frozenset(base)}
    for method in (*METHODS, "exists"):
        for arity in (0, 1):
            observed[("method", method, arity)] = base.facts_by_method(method, arity)
            for column in (*range(arity), -1):
                for value in VALUES + tuple(HOSTS):
                    observed[("arg", method, arity, column, value)] = (
                        base.facts_by_arg(method, arity, column, value)
                    )
    for host in {*HOSTS, *(fact.host for fact in base)}:
        observed[("host", host)] = base.facts_by_host(host)
        for method in METHODS:
            observed[("hm", host, method)] = base.facts_by_host_method(host, method, 0)
    observed["exists"] = dict(base.existing_versions())
    return observed


@settings(max_examples=40, deadline=None)
@given(
    st.lists(fact_strategy, max_size=8),
    st.lists(st.tuples(delta_strategy, state_strategy), min_size=1, max_size=6),
    st.booleans(),
)
def test_delta_chain_indexes_equal_scratch_rebuild(initial, deltas, probe_midway):
    base = ObjectBase(initial)
    base.ensure_exists()
    base.add(exists_fact(HOSTS[0]))
    for step, ((added, removed), applications) in enumerate(deltas):
        # Build (some or all) indexes *before* the delta so apply_delta has
        # adopted state to maintain, then freeze so adoption kicks in.
        if probe_midway:
            _probe_everything(base)
        else:
            base.facts_by_arg("sal", 0, -1, VALUES[0])
        base.freeze()
        base = base.apply_delta(added, removed)
        _add_fresh_state(base, step, applications)

    rebuilt = ObjectBase(set(base))
    assert _probe_everything(base) == _probe_everything(rebuilt)


@settings(max_examples=25, deadline=None)
@given(st.lists(fact_strategy, min_size=1, max_size=8), delta_strategy, state_strategy)
def test_mutating_an_adopted_base_stays_correct(initial, delta, applications):
    """Direct add/discard/add_state on a base that shares index buckets
    with its frozen parent must copy the buckets it writes to — results
    equal a scratch rebuild, and the parent is untouched."""
    added, removed = delta
    parent = ObjectBase(initial)
    _probe_everything(parent)  # build all indexes
    parent.freeze()
    parent_before = _probe_everything(parent)

    child = parent.apply_delta(added, removed)
    probe = _probe_everything(child)  # uses adopted, shared buckets
    extra = Fact(HOSTS[0], "probe_only", (), VALUES[0])  # never generated
    child.add(extra)
    child.discard(extra)
    assert _probe_everything(child) == probe
    _add_fresh_state(child, 0, applications)
    assert _probe_everything(child) == _probe_everything(ObjectBase(set(child)))
    assert _probe_everything(parent) == parent_before


def test_frozen_base_rejects_index_mutation():
    base = ObjectBase([_fact(0, 0, 0, 0)])
    base.facts_by_arg("sal", 0, -1, VALUES[0])  # build a secondary index
    base.freeze()
    try:
        base.add(_fact(1, 0, 0, 0))
    except FrozenBaseError:
        pass
    else:  # pragma: no cover - the assertion documents the failure
        raise AssertionError("frozen base accepted add()")
    try:
        base.discard(_fact(0, 0, 0, 0))
    except FrozenBaseError:
        pass
    else:  # pragma: no cover
        raise AssertionError("frozen base accepted discard()")
    # Index *building* stays allowed on frozen bases (it only caches
    # derived state) — both for fresh columns and fresh method keys.
    assert base.facts_by_arg("boss", 0, -1, VALUES[0]) == frozenset()
