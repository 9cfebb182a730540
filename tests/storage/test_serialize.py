"""Serialization round-trip tests (text and JSON)."""

import pytest

from repro.core.errors import TermError
from repro.core.facts import Fact, exists_fact
from repro.core.terms import Oid, UpdateKind, wrap
from repro.storage import (
    dump_base_json,
    dump_base_text,
    load_base_json,
    load_base_text,
)
from repro.workloads import paper_example_base

O = Oid


def test_text_round_trip(tmp_path):
    base = paper_example_base()
    path = tmp_path / "world.ob"
    dump_base_text(base, path)
    assert load_base_text(path) == base


def test_text_from_literal_string():
    base = load_base_text("a.m -> 1.\n")
    assert Fact(O("a"), "m", (), O(1)) in base


def test_json_round_trip_plain():
    base = paper_example_base()
    assert load_base_json(dump_base_json(base)) == base


def test_json_round_trip_with_versions(tmp_path):
    # JSON preserves derived versions that text + ensure_exists cannot
    base = paper_example_base()
    version = wrap(UpdateKind.MODIFY, O("phil"))
    base.add(exists_fact(version))
    base.add(Fact(version, "sal", (), O(4600)))

    path = tmp_path / "result.json"
    dump_base_json(base, path)
    loaded = load_base_json(path)
    assert loaded == base
    assert loaded.version_exists(version)


def test_json_preserves_numeric_types():
    base = load_base_text("a.m -> 1. a.n -> 1.5.")
    loaded = load_base_json(dump_base_json(base))
    values = {f.result.value for f in loaded if f.method in ("m", "n")}
    assert values == {1, 1.5}
    assert {type(v) for v in values} == {int, float}


def test_json_format_guard():
    with pytest.raises(TermError):
        load_base_json('{"format": "something-else", "facts": []}')


def test_json_args_round_trip():
    base = load_base_text("g.dist@a,b -> 7.")
    loaded = load_base_json(dump_base_json(base))
    assert Fact(O("g"), "dist", (O("a"), O("b")), O(7)) in loaded


def test_json_text_is_the_c_encoders():
    # dump_base_json writes its text fact by fact; it must stay what
    # json.dumps gives for the same payload, whatever the payloads hold
    import json

    from repro.storage.serialize import _fact_to_json

    base = paper_example_base()
    nested = wrap(UpdateKind.DELETE, wrap(UpdateKind.MODIFY, O("phil")))
    base.add(exists_fact(nested))
    base.add(Fact(nested, "note", (O('q"uote\\'), O("é \n"), O(-3)), O(1e-7)))
    base.add(Fact(O("g"), "dist", (O("a"), O(2.0)), O(float("inf"))))
    base.add(Fact(O(7), "m", (), O(10**30)))
    payload = {
        "format": "repro-object-base",
        "version": 1,
        "facts": [_fact_to_json(fact) for fact in base.sorted_facts()],
    }
    text = dump_base_json(base)
    assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert load_base_json(text) == base


def test_sorted_facts_order_needs_no_indexes():
    from repro.core.objectbase import ObjectBase

    base = paper_example_base()
    version = wrap(UpdateKind.MODIFY, O("phil"))
    base.add(exists_fact(version))
    base.add(Fact(version, "sal", (), O(4600)))
    lazy = ObjectBase.from_fact_set(set(base))
    assert lazy.sorted_facts() == base.sorted_facts()
    keys = [
        (str(f.host.base if hasattr(f.host, "base") else f.host), str(f.host),
         f.method, tuple(map(str, f.args)), str(f.result))
        for f in base.sorted_facts()
    ]
    assert keys == sorted(keys)
