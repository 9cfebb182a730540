"""Tests for the cache registry (bounded plan caches + stats hook) and
symbol interning."""

from repro.core import caches
from repro.core.facts import Fact
from repro.core.terms import Oid, intern_oid


def test_known_caches_are_registered_with_bounds():
    # Importing the engine modules registers their compile caches.
    import repro.core.codegen  # noqa: F401
    import repro.datalog.evaluation  # noqa: F401

    stats = caches.cache_stats()
    for name in ("codegen.shapes", "datalog.compile_plan"):
        assert name in stats, name
        assert stats[name]["maxsize"] == 4096  # bounded, not lru_cache(None)
        assert set(stats[name]) >= {"hits", "misses", "size", "maxsize"}
    # the read path's one cache, text -> compiled query: small on purpose
    assert stats["query.prepared"]["maxsize"] == 256
    assert "terms.oid_intern" in stats


def test_cache_stats_move_after_use():
    from repro import parse_body
    from repro.core.codegen import compiled_body

    before = caches.cache_stats()["codegen.shapes"]
    body = parse_body("Zz.cache_probe -> R")
    compiled_body(tuple(body))
    compiled_body(tuple(body))
    after = caches.cache_stats()["codegen.shapes"]
    assert after["misses"] >= before["misses"] + 1
    assert after["hits"] >= before["hits"] + 1


def test_intern_oid_returns_canonical_instance():
    a = intern_oid("phil")
    assert intern_oid("phil") is a
    assert intern_oid(Oid("phil")) is a
    assert a == Oid("phil")
    # ints and floats with equal values stay distinct interned objects
    one, one_f = intern_oid(1), intern_oid(1.0)
    assert one is not one_f
    assert isinstance(one.value, int) and isinstance(one_f.value, float)


def test_fact_methods_are_interned():
    left = Fact(Oid("a"), "some_method_name", (), Oid(1))
    right = Fact(Oid("b"), "some_method_" + "name", (), Oid(2))
    assert left.method is right.method
