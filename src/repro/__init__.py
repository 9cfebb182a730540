"""repro — reproduction of *Updates in a Rule-Based Language for Objects*
(Kramer, Lausen, Saake; VLDB 1992).

A rule language for updating object bases, built on *version identities*:
ground terms like ``ins(del(mod(phil)))`` that name an object's versions and
encode its update history.  Update-programs have fixpoint semantics computed
bottom-up along a stratification derived from the rules themselves.

Quickstart — the unified connection API (one surface over an in-memory
store, a durable journal directory, or a served socket)::

    import repro

    conn = repro.connect("memory:", base='''
        henry.isa -> empl.   henry.sal -> 250.
    ''')
    conn.apply('''
        raise: mod[E].sal -> (S, S2) <=
            E.isa -> empl, E.sal -> S, S2 = S * 1.1.
    ''', tag="raise")
    conn.query("E.sal -> S")        # [{'E': 'henry', 'S': 275.0}]
    conn.as_of("initial")           # the base before the raise
    # repro.connect("path/to/store") and repro.connect("serve:/tmp/x.sock")
    # accept the same calls and answer in the same shapes.

The engine layer underneath stays available for direct use::

    from repro import UpdateEngine, parse_object_base, parse_program

    result = UpdateEngine().apply(parse_program(text), parse_object_base(ob))
    # result.new_base, result.result_base, result.final_versions, ...

Subpackages
-----------
Listed bottom-up: each imports only itself and the ones above it in this
list (``tests/testing/test_boundaries.py`` holds the order).

``repro.obs``
    Observability: the metrics registry, the slow log and the ``repro
    top`` dashboard renderer.
``repro.core``
    The paper's contribution: terms, sorted unification, truth, the
    ``T_P`` operator, stratification, evaluation, version linearity,
    new-base construction, and queries over literals.
``repro.lang``
    Concrete syntax: lexer, parser, pretty printer, and the program and
    query shapes that parse and compile a text once per shape — the text
    with its constants set aside (:func:`parse_program`,
    :func:`prepare_query`).
``repro.datalog``
    A stratified Datalog engine (the substrate the paper's language is "a
    variant of"), also used by the baselines.
``repro.baselines``
    Section 2.4 comparison points: naive single-time-step update semantics
    and Logres-style rule modules.
``repro.workloads``
    Workload generators for examples, tests and benchmarks.
``repro.ext``
    Section 6 extensions: quantification over VIDs, derived methods,
    schema bookkeeping.
``repro.analysis``
    Static lint and run-time provenance over the core.
``repro.storage``
    Versioned store: snapshots, transaction history, the journal.
``repro.testing``
    The reference evaluator (the engine's oracle) and deterministic
    fault-injection harnesses.
``repro.server``
    Concurrent serving: MVCC sessions, optimistic transactions, push-based
    live queries, the asyncio JSON-lines wire protocol, and the primary's
    half of replication.
``repro.api``
    The unified connection facade: :func:`connect`, the
    :class:`~repro.api.Connection` surface and its three classes
    (in-process, wire, shard router), transactions with conflict retry,
    subscription streams, and the shared result model.
``repro.replication``
    Followers and the ``repro replicaset`` supervisor.
``repro.cluster``
    :class:`~repro.cluster.LocalCluster`, an in-process sharded
    deployment, plus re-exports of the router and partitioning names.
"""

from repro.core import (
    BuiltinError,
    EvaluationError,
    EvaluationLimitError,
    EvaluationOptions,
    Fact,
    ObjectBase,
    Oid,
    ProgramError,
    ReproError,
    SafetyError,
    Stratification,
    StratificationError,
    Term,
    TermError,
    UpdateEngine,
    UpdateKind,
    UpdateProgram,
    UpdateResult,
    UpdateRule,
    Var,
    VersionDepthError,
    VersionId,
    VersionVar,
    VersionLinearityError,
    build_new_base,
    evaluate,
    stratify,
)
from repro.core.query import (
    PreparedQuery,
    method_results,
    query_literals,
    result_value,
)
from repro.lang import (
    ParseError,
    format_object_base,
    format_program,
    format_rule,
    format_term,
    parse_body,
    parse_object_base,
    parse_program,
    parse_rule,
    parse_term,
)
from repro.lang.parser import prepare_query

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # the unified connection API
    "connect", "Connection", "RetryPolicy", "DurabilityOptions",
    # core types
    "Oid", "Var", "VersionVar", "VersionId", "Term", "UpdateKind", "Fact",
    "ObjectBase", "UpdateRule", "UpdateProgram",
    "UpdateEngine", "UpdateResult", "EvaluationOptions",
    "Stratification", "stratify", "evaluate", "build_new_base",
    # queries
    "query", "query_literals", "method_results", "result_value",
    "PreparedQuery", "prepare_query",
    # language
    "parse_program", "parse_rule", "parse_body", "parse_object_base",
    "parse_term", "format_program", "format_rule", "format_term",
    "format_object_base",
    # errors
    "ReproError", "TermError", "ProgramError", "SafetyError",
    "StratificationError", "EvaluationError", "EvaluationLimitError",
    "VersionDepthError", "VersionLinearityError", "BuiltinError",
    "ParseError",
]


def __getattr__(name: str):
    """Lazy surface for the connection facade (PEP 562): ``repro.connect``
    and ``repro.Connection`` resolve to :mod:`repro.api`'s objects on
    first touch, so engine-only users (``repro apply`` one-shots, the
    paper's core path) never pay the server/asyncio import cost."""
    if name in ("connect", "Connection", "RetryPolicy", "DurabilityOptions"):
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def query(base: ObjectBase, text: str) -> list[dict[str, object]]:
    """Answer a conjunctive query written in the concrete syntax.  The
    text goes through :func:`prepare_query`, so point reads that differ
    only in their constants share one compiled body.

    >>> query(base, "E.isa -> empl, E.sal -> S")   # doctest: +SKIP
    [{'E': 'bob', 'S': 4200}, {'E': 'phil', 'S': 4000}]
    """
    return prepare_query(text).run(base)
