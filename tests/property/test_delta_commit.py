"""Differential properties of the O(delta) commit path.

The engine no longer builds ``ob'`` by a pass over every object and the
store no longer finds a revision's delta by comparing two bases: evaluation
runs on a copy-on-write fork of the input, ``ob'`` is the input ⊕ the
engine's own delta, and the store commits that pair as handed over.  These
properties pin the shortcut to the definitions it replaced:

* the engine's ``(added, removed)`` is the exact, disjoint set difference
  between input and ``new_base``, and ``new_base`` equals the defining
  construction ``build_new_base(result(P), final_versions(result(P)))`` —
  over random programs of every update kind, on frozen and caller-owned
  inputs, plain and not;
* a fork, and every ``new_base``, exposes the same indexes as a base rebuilt
  from its facts from scratch, and leaves its parent bit-identical;
* a journal written through the handed-over deltas is byte-identical to one
  written through the comparison of bases.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro import UpdateEngine
from repro.core.errors import VersionLinearityError
from repro.core.facts import Fact, exists_fact
from repro.core.linearity import final_versions
from repro.core.newbase import build_new_base
from repro.core.objectbase import ObjectBase
from repro.core.rules import UpdateProgram
from repro.core.terms import Oid, UpdateKind, wrap
from repro.lang.parser import parse_program
from repro.server.service import StoreService
from repro.storage import JournalWriter, StoreOptions, VersionedStore
from repro.storage.serialize import save_store
from repro.workloads.synthetic import random_object_base, random_update_program

from .test_index_maintenance import (
    HOSTS,
    VALUES,
    _probe_everything,
    delta_strategy,
    fact_strategy,
)

seeds = st.integers(0, 10_000)
#: Input shapes of ``_input_base``: plain half of the time.
shapes = st.sampled_from((0, 0, 0, 1, 2, 3))
N_OBJECTS = 6


def _program(text: str, name: str) -> UpdateProgram:
    return UpdateProgram(parse_program(text), name)


def _targeted_program(kind: int, seed: int) -> tuple[UpdateProgram, dict]:
    """The shapes the random families of ``random_update_program`` do not
    draw: ground-host raises (the served traffic), modifies to the same
    value, total deletes of base objects, and inserts on unknown OIDs."""
    obj = f"o{seed % N_OBJECTS}"
    if kind == 0:
        return _program(
            f"r: mod[{obj}].size -> (S, S2) <= {obj}.size -> S, S2 = S + 1.",
            "raise",
        ), {}
    if kind == 1:
        return _program(
            "r: mod[X].size -> (S, S) <= X.size -> S.", "same-value"
        ), {}
    if kind == 2:
        return _program(
            f"r: del[X].* <= X.size -> S, S > {seed % 1000}.", "total-delete"
        ), {}
    if kind == 3:
        return _program(
            f"r: ins[fresh{seed % 3}].size -> {seed % 7} <= {obj}.exists -> {obj}.\n"
            f"s: ins[{obj}].tag -> hot <= {obj}.exists -> {obj}.",
            "create",
        ), {"create_missing_objects": True}
    return _program(
        f"d: del[{obj}].* <= {obj}.exists -> {obj}.\n"
        f"m: mod[X].color -> (C, 7) <= X.color -> C, X.size -> S, S > {seed % 500}.",
        "delete-and-recolor",
    ), {}


def _draw_program(kind: int, seed: int) -> tuple[UpdateProgram, dict]:
    if kind < 5:
        return _targeted_program(kind, seed)
    return random_update_program(seed=seed, allow_nonlinear=True), {}


def _input_base(seed: int, shape: int) -> ObjectBase:
    """A random base; ``shape`` optionally makes it non-plain the three
    ways an input can be: an object holding only ``exists``, a
    version-hosted state, hosts lacking their ``exists`` fact."""
    base = random_object_base(
        n_objects=N_OBJECTS, methods=("color", "size", "link"), seed=seed
    )
    if shape == 1:
        base.add_object("ghost")
    elif shape == 2:
        version = wrap(UpdateKind.MODIFY, Oid("o1"))
        base.add(Fact(version, "size", (), Oid(5)))
        base.add(exists_fact(version))
    elif shape == 3:
        base = ObjectBase(f for f in base if f.method != "exists" or f.host == Oid("o0"))
    return base


def _indexes(base: ObjectBase) -> dict:
    """Every index of ``base``, read through the public access paths (which
    also builds the lazy ones)."""
    observed: dict = {
        "facts": frozenset(base),
        "exists": dict(base.existing_versions()),
    }
    for fact in base:
        arity = len(fact.args)
        observed["m", fact.method, arity] = base.facts_by_method(fact.method, arity)
        observed["h", fact.host] = base.facts_by_host(fact.host)
        observed["hm", fact.host, fact.method, arity] = base.facts_by_host_method(
            fact.host, fact.method, arity
        )
        for column in (*range(arity), -1):
            value = fact.result if column < 0 else fact.args[column]
            observed["arg", fact.method, arity, column, value] = base.facts_by_arg(
                fact.method, arity, column, value
            )
    return observed


def _assert_indexed_like_a_rebuild(base: ObjectBase) -> None:
    assert _indexes(base) == _indexes(ObjectBase(set(base)))


@settings(max_examples=240, deadline=None)
@given(st.integers(0, 7), seeds, seeds, shapes, st.booleans())
def test_engine_delta_is_exact_and_new_base_is_the_definition(
    kind, program_seed, base_seed, shape, frozen
):
    program, options = _draw_program(kind, program_seed)
    base = _input_base(base_seed, shape)
    if frozen:
        base.facts_by_arg("link", 0, -1, Oid("o0"))  # a column index to carry along
        base.freeze()
    before = frozenset(base)
    try:
        result = UpdateEngine(**options).apply(program, base)
    except VersionLinearityError:
        assert frozenset(base) == before
        return
    assert frozenset(base) == before  # evaluation never mutates its input

    new_facts = frozenset(result.new_base)
    assert result.added == new_facts - before
    assert result.removed == before - new_facts
    assert not result.added & result.removed

    finals = final_versions(result.result_base)
    assert result.final_versions == finals
    assert result.new_base == build_new_base(result.result_base, finals)
    _assert_indexed_like_a_rebuild(result.new_base)
    # ob' is a to-be-updated base again: what the engine relies on next time
    assert result.new_base.is_plain()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 7), seeds), min_size=2, max_size=5),
    seeds,
    shapes,
)
def test_journal_through_handed_over_deltas_is_byte_identical(batch, base_seed, shape):
    """One service commits the engine's deltas as handed over; one store
    lets ``commit_update`` compare the bases, as every commit used to.
    Same chain, same files."""
    base = _input_base(base_seed, shape)
    options = StoreOptions(snapshot_interval=2)
    with tempfile.TemporaryDirectory() as scratch:
        handed, diffed = Path(scratch, "handed"), Path(scratch, "diffed")
        service = StoreService.create(base, handed, options=options)
        store = VersionedStore(base, options=options)
        save_store(store, diffed)
        for position, (kind, seed) in enumerate(batch):
            program, engine_options = _draw_program(kind, seed)
            if engine_options:
                continue  # both stores run the default engine
            tag = f"step{position}"
            try:
                service.apply(program, tag=tag)
            except VersionLinearityError:
                continue
            new_base = UpdateEngine().apply(program, store.current).new_base
            store.commit_update(
                new_base, tag=tag, program_name=program.name,
                journal=lambda revisions: JournalWriter(diffed).commit(revisions)[1],
            )
            assert service.store.current == store.current
            assert service.store.current.is_plain()
        written = sorted(path.name for path in handed.iterdir())
        assert written == sorted(path.name for path in diffed.iterdir())
        for name in written:
            assert (handed / name).read_bytes() == (diffed / name).read_bytes(), name


@settings(max_examples=60, deadline=None)
@given(
    st.lists(fact_strategy, max_size=10),
    st.lists(st.tuples(st.booleans(), fact_strategy), max_size=12),
    st.lists(delta_strategy, max_size=3),
    st.booleans(),
)
def test_fork_indexes_equal_a_rebuild_and_the_parent_is_untouched(
    initial, writes, deltas, probe_first
):
    """Random add/discard on a fork, then a chain of freeze/apply_delta on
    top of it: every base along the way is indexed like a scratch rebuild,
    and no parent ever changes."""
    parent = ObjectBase(initial)
    parent.ensure_exists()
    if probe_first:
        _probe_everything(parent)  # every column index built, to be carried
    parent.freeze()
    parent_before = _probe_everything(parent)

    fork = parent.fork()
    expected = set(parent)
    for add, fact in writes:
        if add:
            fork.add(fact)
            expected.add(fact)
        else:
            fork.discard(fact)
            expected.discard(fact)
    assert set(fork) == expected
    assert _probe_everything(fork) == _probe_everything(ObjectBase(expected))
    assert _probe_everything(parent) == parent_before

    base = fork
    for added, removed in deltas:
        base.freeze()
        before = _probe_everything(base)
        child = base.apply_delta(added, removed)
        assert _probe_everything(child) == _probe_everything(ObjectBase(set(child)))
        assert _probe_everything(base) == before
        base = child
    assert _probe_everything(parent) == parent_before


@settings(max_examples=40, deadline=None)
@given(st.lists(fact_strategy, min_size=1, max_size=10), delta_strategy)
def test_plainness_is_carried_exactly(initial, delta):
    """``apply_delta`` hands a plain parent's plainness on only when the
    derived base really is plain; a fork forgets it at its first write."""
    added, removed = delta
    parent = ObjectBase(initial)
    parent.ensure_exists()
    parent.freeze()
    assert parent.is_plain()  # hosts are OIDs, each with exists + an application
    child = parent.apply_delta(added, removed)
    assert child.is_plain() == ObjectBase(set(child)).is_plain()
    child.add(exists_fact(HOSTS[0]))
    child.add(Fact(wrap(UpdateKind.INSERT, HOSTS[0]), "sal", (), VALUES[0]))
    assert not child.is_plain()
    assert parent.is_plain()
