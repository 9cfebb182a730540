"""Plan compilation: one specialized, set-at-a-time function per body —
and, for a rule, per body *and head*.

This is the engine's one rule executor.  A
:class:`~repro.core.plans.JoinPlan` fixes the literal order and the access
paths statically; walking it tuple at a time would cost a ``dict(binding)``
copy per candidate fact, an atom-kind dispatch, and a re-derivation of the
access path the plan chose long ago.  This module generates one specialized
Python function per plan instead:

* **slot-based bindings** — a partial match is a plain tuple whose layout
  (variable → slot index) is fixed at compile time; extending a match is
  tuple concatenation, never a dict copy;
* **inlined constants and hoisted probes** — the atom's method names, bound
  OIDs and VID kinds become closure globals, and the base's index accessors
  (``iter_facts_by_host_method`` / ``iter_facts_by_arg`` /
  ``iter_facts_by_method``) are bound to locals once per call;
* **set-at-a-time execution** — the generated function maps a whole *list*
  of rows through each plan step at once (filters are list comprehensions,
  generators are batch joins).  A generator step whose probe and field
  checks do not depend on the current row materializes its extension tuples
  **once** from the index bucket and extends every row with them
  (filter → extend), instead of re-scanning the bucket per row;
* **dedup keys only when needed** — duplicate elimination over
  ``plan.key_vars`` is emitted only when ``generator_count > 1`` (two
  distinct facts from a single generator can never produce the same
  binding), and the key is an :func:`operator.itemgetter` over precomputed
  slot indexes.

* **the head in the same function** — a rule's function (the full body and
  each lazily built seeded variant) does not return its rows to an
  interpreter: its tail deduplicates them, tests head truth per row
  (definition 2: ``ins`` always; ``del``/``mod`` by ``v*`` of the target and
  membership of the old fact; ``del[v].*`` against the reading base, expanded
  against the stored one) and writes ``(method, args, result)`` into the
  ``PendingUpdates`` table of the version the head creates.  Head terms are
  slot reads and inlined constants; since head variables are plain ``Var``
  instances bound by the body, every check ``UpdateAtom.__post_init__`` would
  make is decided at compile time, and an ``UpdateAtom`` plus the sorted
  binding is built per instance only for traces (``fired``).  Called without
  ``pending`` the same function is the bare body executor, which
  :func:`match_rule_compiled` / :func:`match_rule_seeded_compiled` wrap into
  binding dicts for tests and baselines;
* **one ``compile()`` per generated text** — constants sit in the function's
  namespace, so rules differing only in constants share a code object.

:func:`compile_seeded` builds one seeded variant — bulk seed matcher plus
the rest of the body — for a rule (ending in its firing loop) and, without
a rule, for a live query's delta evaluation
(:meth:`repro.core.query.PreparedQuery.delta_answers`).

Semantics are pinned by the independent reference evaluator
(:mod:`repro.testing.reference`) — which keeps the interpreted head
handling: substitute, ``update_atom_true_in_head``, ``PendingUpdates.add`` —
and which the differential suites compare every result, and ``T¹`` itself,
against:

* version-term generators are *exact* (``PlanStep.verify`` is False) and are
  compiled to direct index loops;
* update-term generators and filters keep the authoritative re-verification:
  they bridge into :func:`repro.core.grounding._generate` /
  ``_check_ground`` through a thin dict adapter, so definition 3 of
  Section 3 has exactly one implementation;
* built-in filters and binders compile the expression tree to nested
  closures that reproduce :func:`repro.core.exprs.evaluate_expr` —
  including exact integer division and ``BuiltinError`` → candidate-fails
  (never raises) behaviour.

Compilation failures are deliberately *not* swallowed: the emitter covers
every shape :func:`repro.core.plans.compile_plan` can produce, and the test
suite proves it.  A body the planner itself cannot order is unsafe and
fails where its plan is built, with a typed
:class:`~repro.core.errors.EvaluationError`.

The compile caches are registered with :mod:`repro.core.caches` as
``codegen.rule`` / ``codegen.body`` / ``codegen.code`` / ``codegen.backend``.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.atoms import BuiltinAtom, Literal, UpdateAtom, VersionAtom
from repro.core.caches import register_cache, register_lru_cache
from repro.core.errors import BuiltinError, EvaluationError, TermError
from repro.core.exprs import BinOp, Neg, _numeric, expr_variables
from repro.core.facts import EXISTS, Fact
from repro.core.grounding import _body_plan, _check_ground, _generate
from repro.core.plans import (
    BINDER,
    FILTER,
    JoinPlan,
    PlanStep,
    compile_plan,
    rule_plan,
    seed_facts,
    var_sort_key,
)
from repro.core.terms import Oid, UpdateKind, Var, VersionId, is_ground, wrap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.objectbase import Delta, ObjectBase
    from repro.core.rules import UpdateRule

__all__ = [
    "CompiledBody",
    "CompiledRule",
    "compile_seeded",
    "compiled_body",
    "compiled_rule",
    "match_rule_compiled",
    "match_rule_seeded_compiled",
]

Binding = dict[Var, Oid]
Row = tuple

#: Backend counters surfaced through the cache registry (``codegen.backend``).
_STATS = {
    "bodies_compiled": 0,
    "seed_matchers_compiled": 0,
    "batch_steps": 0,
    "loop_steps": 0,
}


# ----------------------------------------------------------------------
# expression compilation (built-in filters and binders)
# ----------------------------------------------------------------------


def _compile_var_load(var: Var, slot: int, strict: bool) -> Callable[[Row], Oid]:
    """Load a variable's value from its row slot.

    Plain variables always hold OIDs (the matcher's sort discipline), so
    they load unchecked.  Version variables may hold VIDs; in a *binder*
    context that is a ``BuiltinError`` (candidate fails), in a ground
    *filter* context the interpreter's substitute-then-evaluate pipeline
    raises ``TermError`` — ``strict`` selects which to mirror.
    """
    if type(var) is Var:
        return lambda row: row[slot]

    def load(row: Row) -> Oid:
        value = row[slot]
        if isinstance(value, Oid):
            return value
        if strict:
            raise TermError(f"not an expression: {value!r}")
        raise BuiltinError(f"variable {var} bound to a version identity")

    return load


def _compile_expr(
    expr, slot_of: dict[Var, int], *, strict: bool = False
) -> Callable[[Row], Oid]:
    """Compile an arithmetic expression to a row closure.

    Mirrors :func:`repro.core.exprs.evaluate_expr` exactly, including the
    integer-exact division rule and every ``BuiltinError`` site.
    """
    if isinstance(expr, Oid):
        return lambda row, _c=expr: _c
    if isinstance(expr, Var):
        return _compile_var_load(expr, slot_of[expr], strict)
    if isinstance(expr, Neg):
        inner = _compile_expr(expr.operand, slot_of, strict=strict)
        return lambda row: Oid(-_numeric(inner(row), "negation"))
    if isinstance(expr, BinOp):
        left = _compile_expr(expr.left, slot_of, strict=strict)
        right = _compile_expr(expr.right, slot_of, strict=strict)
        op = expr.op
        context = f"operand of {op}"
        if op == "+":
            return lambda row: Oid(
                _numeric(left(row), context) + _numeric(right(row), context)
            )
        if op == "-":
            return lambda row: Oid(
                _numeric(left(row), context) - _numeric(right(row), context)
            )
        if op == "*":
            return lambda row: Oid(
                _numeric(left(row), context) * _numeric(right(row), context)
            )

        def divide(row: Row) -> Oid:
            a = _numeric(left(row), context)
            b = _numeric(right(row), context)
            if b == 0:
                raise BuiltinError("division by zero in a built-in atom")
            if isinstance(a, int) and isinstance(b, int) and a % b == 0:
                return Oid(a // b)
            return Oid(a / b)

        return divide
    raise TermError(f"not an expression: {expr!r}")  # pragma: no cover


def _builtin_filter(
    atom: BuiltinAtom, positive: bool, slot_of: dict[Var, int]
) -> Callable[[Row], bool]:
    """A row predicate mirroring ``literal_true`` on a ground built-in,
    with ``BuiltinError`` failing the candidate regardless of polarity
    (the ``_check_ground`` contract, DESIGN.md D6)."""
    left = _compile_expr(atom.left, slot_of, strict=True)
    right = _compile_expr(atom.right, slot_of, strict=True)
    op = atom.op

    if op in ("=", "!="):
        want_equal = op == "="

        def predicate(row: Row) -> bool:
            try:
                equal = left(row).value == right(row).value
            except BuiltinError:
                return False
            value = equal if want_equal else not equal
            return value if positive else not value

        return predicate

    def compare(row: Row) -> bool:
        try:
            a = left(row)
            b = right(row)
            if not (a.is_numeric and b.is_numeric):
                return False  # BuiltinError in the interpreter: candidate dies
            av, bv = a.value, b.value
            if op == "<":
                value = av < bv
            elif op == "<=":
                value = av <= bv
            elif op == ">":
                value = av > bv
            else:  # >=
                value = av >= bv
        except BuiltinError:
            return False
        return value if positive else not value

    return compare


# ----------------------------------------------------------------------
# bridges into the authoritative update-term semantics
# ----------------------------------------------------------------------


def _update_filter(
    literal: Literal, in_slots: tuple[tuple[Var, int], ...]
) -> Callable[["ObjectBase", Row], bool]:
    """A ground update-term filter: rebuild the dict binding and delegate to
    ``_check_ground`` so definition 3 has exactly one implementation."""

    def predicate(base: "ObjectBase", row: Row) -> bool:
        binding = {var: row[slot] for var, slot in in_slots}
        return _check_ground(literal, binding, base)

    return predicate


def _update_generator(
    literal: Literal,
    index_cols: tuple[int, ...],
    in_slots: tuple[tuple[Var, int], ...],
    out_vars: tuple[Var, ...],
) -> Callable[["ObjectBase", list[Row]], list[Row]]:
    """A batch update-term generator bridging into the interpreted
    ``_generate`` + re-verify pipeline (``PlanStep.verify`` is always True
    for update-term generators)."""

    def generate(base: "ObjectBase", rows: list[Row]) -> list[Row]:
        out: list[Row] = []
        append = out.append
        for row in rows:
            binding = {var: row[slot] for var, slot in in_slots}
            for extension in _generate(literal, binding, base, index_cols):
                if _check_ground(literal, extension, base):
                    append(row + tuple(extension[v] for v in out_vars))
        return out

    return generate


def _pick_bucket(base: "ObjectBase", method: str, arity: int, cols_vals):
    """Runtime mirror of the multi-column branch of
    ``grounding._host_candidates``: the smallest bound-column bucket, with
    any empty bucket pruning the whole step."""
    best = None
    for column, value in cols_vals:
        bucket = base.iter_facts_by_arg(method, arity, column, value)
        if not bucket:
            return ()
        if best is None or len(bucket) < len(best):
            best = bucket
    if best is not None:
        return best
    return base.iter_facts_by_method(method, arity)  # pragma: no cover


# ----------------------------------------------------------------------
# the source emitter
# ----------------------------------------------------------------------


class _Emitter:
    """Accumulates generated source plus the closure globals it references."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lines: list[str] = []
        self.namespace: dict[str, object] = {
            "Fact": Fact,
            "VersionId": VersionId,
            "BuiltinError": BuiltinError,
            "_pick_bucket": _pick_bucket,
        }
        self._counter = 0

    def const(self, value, prefix: str = "_C") -> str:
        self._counter += 1
        label = f"{prefix}{self._counter}"
        self.namespace[label] = value
        return label

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def build(self, fn_name: str):
        source = "\n".join(self.lines) + "\n"
        exec(_code(source, f"<codegen:{self.name}>"), self.namespace)
        return self.namespace[fn_name], source


@lru_cache(maxsize=1024)
def _code(source: str, filename: str):
    """``compile()``, once per generated text.  Constants live in the
    function's namespace, not in its source, so rules that differ only in
    their constants — one ``raise`` per employee, say — share one code
    object and pay for emission alone."""
    return compile(source, filename, "exec")


def _tuple_src(parts: Sequence[str]) -> str:
    """Source for a tuple literal (correct for the empty and 1-ary cases)."""
    if not parts:
        return "()"
    return "(" + ", ".join(parts) + ",)"


def _bound_term_src(em: _Emitter, term, slot_of: dict[Var, int]) -> str:
    """Source expression rebuilding a fully-bound term from the row."""
    if is_ground(term):
        return em.const(term)
    if isinstance(term, VersionId):
        return (
            f"VersionId({em.const(term.kind, '_K')}, "
            f"{_bound_term_src(em, term.base, slot_of)})"
        )
    return f"r[{slot_of[term]}]"  # a bound Var / VersionVar


def _emit_filter(
    em: _Emitter, step: PlanStep, slot_of: dict[Var, int]
) -> None:
    literal = step.literal
    atom = literal.atom
    if isinstance(atom, VersionAtom):
        # Mirror of the _check_ground fast path: plain fact membership.
        host = _bound_term_src(em, atom.host, slot_of)
        args = _tuple_src(
            [_bound_term_src(em, a, slot_of) for a in atom.args]
        )
        result = _bound_term_src(em, atom.result, slot_of)
        fact = f"Fact({host}, {em.const(atom.method, '_M')}, {args}, {result})"
        condition = f"has({fact})" if literal.positive else f"not has({fact})"
        em.emit(1, f"rows = [r for r in rows if {condition}]")
    elif isinstance(atom, BuiltinAtom):
        label = em.const(
            _builtin_filter(atom, literal.positive, slot_of), "_B"
        )
        em.emit(1, f"rows = [r for r in rows if {label}(r)]")
    else:  # UpdateAtom — delegate to the authoritative semantics
        label = em.const(
            _update_filter(literal, tuple(slot_of.items())), "_U"
        )
        em.emit(1, f"rows = [r for r in rows if {label}(base, r)]")


def _emit_binder(
    em: _Emitter, step: PlanStep, slot_of: dict[Var, int]
) -> None:
    atom = step.literal.atom
    target = None
    source = None
    bound = set(slot_of)
    # Direction order mirrors grounding._bind_equality / plans._binder_target.
    for candidate, other in ((atom.left, atom.right), (atom.right, atom.left)):
        if (
            isinstance(candidate, Var)
            and candidate not in bound
            and all(v in bound for v in expr_variables(other))
        ):
            target, source = candidate, other
            break
    assert target is not None, "binder step with no bindable side"
    label = em.const(_compile_expr(source, slot_of), "_E")
    em.emit(1, "out = []")
    em.emit(1, "app = out.append")
    em.emit(1, "for r in rows:")
    em.emit(2, "try:")
    em.emit(3, f"v = {label}(r)")
    em.emit(2, "except BuiltinError:")
    em.emit(3, "continue")
    em.emit(2, "app(r + (v,))")
    em.emit(1, "rows = out")
    slot_of[target] = len(slot_of)


def _emit_fact_checks(
    em: _Emitter,
    atom,
    slot_of: dict[Var, int],
    *,
    indent: int,
    skip_col: int | None,
    check_host: bool,
) -> tuple[dict[Var, str], bool]:
    """Emit the per-fact checks of a version-term generator (or seed
    matcher) at ``indent``, reading the candidate from ``_f``.

    Returns ``(new_locals, row_dependent)`` where ``new_locals`` maps each
    newly-bound variable to the local that holds its value, in binding order
    (host, then arguments, then result), and ``row_dependent`` reports
    whether any emitted check reads the current row.
    """
    new_locals: dict[Var, str] = {}
    row_dependent = False

    kinds: list = []
    inner = atom.host
    while isinstance(inner, VersionId):
        kinds.append(inner.kind)
        inner = inner.base

    if check_host:
        if not isinstance(inner, Var):
            # Fully ground host: one whole-term comparison.
            em.emit(indent, f"if _f.host != {em.const(atom.host)}:")
            em.emit(indent + 1, "continue")
        elif inner in slot_of:
            host = _bound_term_src_for_fact(em, kinds, inner, slot_of)
            em.emit(indent, f"if _f.host != {host}:")
            em.emit(indent + 1, "continue")
            row_dependent = True
        else:
            # Destructure the VID chain, binding the innermost variable.
            em.emit(indent, "_h = _f.host")
            for kind in kinds:
                label = em.const(kind, "_K")
                em.emit(
                    indent,
                    f"if type(_h) is not VersionId or _h.kind is not {label}:",
                )
                em.emit(indent + 1, "continue")
                em.emit(indent, "_h = _h.base")
            if type(inner) is Var:
                # Plain variables bind OIDs only (the matcher's sort rules);
                # version variables bind any remaining VID.
                em.emit(indent, "if type(_h) is not Oid:")
                em.emit(indent + 1, "continue")
            local = em.fresh("_v")
            em.emit(indent, f"{local} = _h")
            new_locals[inner] = local

    positions: list[tuple[int, object, str]] = [
        (j, pattern, f"_f.args[{j}]") for j, pattern in enumerate(atom.args)
    ]
    if atom.result is not None:
        positions.append((-1, atom.result, "_f.result"))
    for column, pattern, access in positions:
        if column == skip_col:
            continue  # the probe already guaranteed equality on this column
        if isinstance(pattern, Var):
            if pattern in new_locals:
                em.emit(indent, f"if {access} != {new_locals[pattern]}:")
                em.emit(indent + 1, "continue")
            elif pattern in slot_of:
                em.emit(indent, f"if {access} != r[{slot_of[pattern]}]:")
                em.emit(indent + 1, "continue")
                row_dependent = True
            else:
                local = em.fresh("_v")
                em.emit(indent, f"{local} = {access}")
                new_locals[pattern] = local
        else:
            em.emit(indent, f"if {access} != {em.const(pattern)}:")
            em.emit(indent + 1, "continue")
    return new_locals, row_dependent


def _bound_term_src_for_fact(
    em: _Emitter, kinds: list, inner: Var, slot_of: dict[Var, int]
) -> str:
    src = f"r[{slot_of[inner]}]"
    for kind in reversed(kinds):
        src = f"VersionId({em.const(kind, '_K')}, {src})"
    return src


def _emit_version_generator(
    em: _Emitter, step: PlanStep, slot_of: dict[Var, int]
) -> None:
    """Compile an exact version-term generator (``verify`` is False: the
    candidates come from the base's own index and every position is checked
    against the pattern, so membership holds by construction)."""
    atom = step.literal.atom
    arity = len(atom.args)
    method = em.const(atom.method, "_M")

    kinds: list = []
    inner = atom.host
    while isinstance(inner, VersionId):
        kinds.append(inner.kind)
        inner = inner.base

    skip_col: int | None = None
    check_host = False
    probe_row_dependent = False

    if not isinstance(inner, Var):
        # Ground host: the (host, method, arity) bucket is exact on all three.
        probe = f"probe_hm({em.const(atom.host)}, {method}, {arity})"
    elif inner in slot_of:
        host = _bound_term_src_for_fact(em, kinds, inner, slot_of)
        probe = f"probe_hm({host}, {method}, {arity})"
        probe_row_dependent = True
    else:
        check_host = True
        cols = step.index_cols
        if len(cols) > 1:
            # Mirror the interpreter: smallest bucket wins, empty prunes.
            parts = []
            for column in cols:
                term = atom.result if column < 0 else atom.args[column]
                if isinstance(term, Var):
                    parts.append(f"({column}, r[{slot_of[term]}])")
                    probe_row_dependent = True
                else:
                    parts.append(f"({column}, {em.const(term)})")
            probe = (
                f"_pick_bucket(base, {method}, {arity}, "
                f"{_tuple_src(parts)})"
            )
        elif cols:
            column = cols[0]
            term = atom.result if column < 0 else atom.args[column]
            if isinstance(term, Var):
                value = f"r[{slot_of[term]}]"
                probe_row_dependent = True
            else:
                value = em.const(term)
            probe = f"probe_arg({method}, {arity}, {column}, {value})"
            skip_col = column
        else:
            probe = f"probe_m({method}, {arity})"

    if probe_row_dependent:
        # The probe reads the row: plain nested loop over rows × bucket.
        new_locals = _emit_loop_generator(
            em, atom, slot_of, probe, skip_col, check_host
        )
        _STATS["loop_steps"] += 1
    else:
        new_locals = _emit_batch_or_loop_generator(
            em, atom, slot_of, probe, skip_col, check_host
        )

    unbound = {v for v in step.variables if v not in slot_of}
    assert set(new_locals) == unbound, (
        f"codegen missed variables {unbound - set(new_locals)} "
        f"in generator {step.literal}"
    )
    for var in new_locals:
        slot_of[var] = len(slot_of)


def _emit_loop_generator(
    em: _Emitter,
    atom,
    slot_of: dict[Var, int],
    probe: str,
    skip_col: int | None,
    check_host: bool,
) -> dict[Var, str]:
    em.emit(1, "out = []")
    em.emit(1, "app = out.append")
    em.emit(1, "for r in rows:")
    em.emit(2, f"for _f in {probe}:")
    new_locals, _ = _emit_fact_checks(
        em, atom, slot_of, indent=3, skip_col=skip_col, check_host=check_host
    )
    extension = _tuple_src(list(new_locals.values()))
    em.emit(3, f"app(r + {extension})")
    em.emit(1, "rows = out")
    em.emit(1, "if not rows:")
    em.emit(2, "return rows")
    return new_locals


def _emit_batch_or_loop_generator(
    em: _Emitter,
    atom,
    slot_of: dict[Var, int],
    probe: str,
    skip_col: int | None,
    check_host: bool,
) -> dict[Var, str]:
    """Try the set-at-a-time form: when the per-fact checks are also
    row-independent, materialize the extension tuples once and cross them
    with the rows (filter → extend); otherwise fall back to the loop."""
    checkpoint = len(em.lines)
    ext = em.fresh("_ext")
    em.emit(1, f"{ext} = []")
    em.emit(1, f"ea = {ext}.append")
    em.emit(1, f"for _f in {probe}:")
    new_locals, row_dependent = _emit_fact_checks(
        em, atom, slot_of, indent=2, skip_col=skip_col, check_host=check_host
    )
    if row_dependent:
        # Some check reads r: rewind and emit the row-major loop instead.
        del em.lines[checkpoint:]
        _STATS["loop_steps"] += 1
        return _emit_loop_generator(
            em, atom, slot_of, probe, skip_col, check_host
        )
    extension = _tuple_src(list(new_locals.values()))
    em.emit(2, f"ea({extension})")
    em.emit(1, f"if not {ext}:")
    em.emit(2, "return []")
    em.emit(1, f"rows = [r + e for r in rows for e in {ext}]")
    _STATS["batch_steps"] += 1
    return new_locals


def _emit_update_generator(
    em: _Emitter, step: PlanStep, slot_of: dict[Var, int]
) -> None:
    out_vars = tuple(
        sorted(
            (v for v in step.variables if v not in slot_of),
            key=var_sort_key,
        )
    )
    generator = _update_generator(
        step.literal, step.index_cols, tuple(slot_of.items()), out_vars
    )
    label = em.const(generator, "_G")
    em.emit(1, f"rows = {label}(base, rows)")
    em.emit(1, "if not rows:")
    em.emit(2, "return rows")
    for var in out_vars:
        slot_of[var] = len(slot_of)


# ----------------------------------------------------------------------
# the head side: step 1 of T_P, fired from slot rows
# ----------------------------------------------------------------------

#: Parameters of a *rule's* generated function.  Called with ``base`` and
#: ``rows`` alone it is the bare body executor (returns the matched rows);
#: given ``pending`` it goes on to fire the head for every row.
_RULE_PARAMS = "base, rows, pending=None, copy_base=None, seen=None, fired=None"


def _delete_all(reading: "ObjectBase", base: "ObjectBase", target):
    """The applications a true ``del[target].*`` deletes, ``None`` when the
    head is not true: truth is read off ``reading`` (``v*`` exists there
    and has a method-application), the expansion off ``base`` — they differ
    when step 1 matches against a view overlay."""
    v_star = reading.v_star(target)
    if v_star is None or all(
        fact.method == EXISTS for fact in reading.iter_state_of(v_star)
    ):
        return None
    v_star = base.v_star(target)
    if v_star is None:
        return ()
    return [
        (fact.method, fact.args, fact.result)
        for fact in base.iter_state_of(v_star)
        if fact.method != EXISTS
    ]


def _emit_head(
    em: _Emitter,
    rule: "UpdateRule",
    slot_of: dict[Var, int],
    plan: JoinPlan,
    seeded: bool,
) -> None:
    """Emit the tail of a rule's function: deduplicate the matched rows,
    test head truth per row (definition 2 of Section 3) and write each true
    ground head as ``(method, args, result)`` into the ``pending`` table of
    the version it creates.  Returns ``(matched, fired)``.

    Head variables are plain :class:`Var` instances bound by the body: they
    hold OIDs and every check of ``UpdateAtom.__post_init__`` is already
    decided by the rule's own construction; an ``UpdateAtom`` is built only
    for ``fired`` (traces).
    """
    head = rule.head
    em.emit(1, "if pending is None:")
    em.emit(2, "return rows")
    if seeded or plan.generator_count > 1:
        # A seeded body shares ``seen`` with the rule's other seed
        # positions; a full body can only repeat a binding when more than
        # one generator feeds it.
        key_slots = [slot_of[var] for var in plan.key_vars]
        if key_slots == list(range(len(slot_of))):
            key = "r"  # the row is laid out in key order: it is its own key
        else:
            key = _tuple_src([f"r[{slot}]" for slot in key_slots])
        em.emit(1, "if seen is not None:")
        em.emit(2, "out = []")
        em.emit(2, "app = out.append")
        em.emit(2, "for r in rows:")
        em.emit(3, f"k = {key}")
        em.emit(3, "if k not in seen:")
        em.emit(4, "seen.add(k)")
        em.emit(4, "app(r)")
        em.emit(2, "rows = out")
    if not all(var in slot_of for var in head.variables):
        message = (
            f"rule {rule.name!r} produced a non-ground head {head}; "
            f"the rule is unsafe"
        )
        em.namespace["EvaluationError"] = EvaluationError
        em.emit(1, "if rows:")
        em.emit(2, f"raise EvaluationError({em.const(message)})")
        em.emit(1, "return 0, 0")
        return

    def term(value) -> str:
        return _bound_term_src(em, value, slot_of)

    kind = head.kind
    kind_src = em.const(kind, "_K")
    target = term(head.target)
    version = (
        em.const(wrap(kind, head.target))
        if is_ground(head.target)
        else f"VersionId({kind_src}, t)"
    )
    table = {
        UpdateKind.INSERT: "inserts",
        UpdateKind.DELETE: "deletes",
        UpdateKind.MODIFY: "modifies",
    }[kind]
    em.emit(1, "n = 0")
    em.emit(1, f"table = pending.{table}")
    if kind is not UpdateKind.INSERT and not head.delete_all:
        em.emit(1, "v_star = base.v_star")
    em.emit(1, "for r in rows:")
    em.emit(2, f"t = {target}")
    if head.delete_all:
        em.namespace["_delete_all"] = _delete_all
        em.emit(2, "aps = _delete_all(base, copy_base, t)")
        em.emit(2, "if aps is None:")
        em.emit(3, "continue")
        em.emit(2, "if aps:")
        em.emit(3, f"nv = {version}")
        em.emit(3, "try:")
        em.emit(4, "table[nv].update(aps)")
        em.emit(3, "except KeyError:")
        em.emit(4, "table[nv] = set(aps)")
        atom = f"UpdateAtom({kind_src}, t, None, (), None, None, True)"
    else:
        method = em.const(head.method, "_M")
        args = _tuple_src([term(arg) for arg in head.args])
        result = term(head.result)
        if kind is not UpdateKind.INSERT:
            em.emit(2, "vs = v_star(t)")
            em.emit(
                2,
                f"if vs is None or not has(Fact(vs, {method}, {args}, {result})):",
            )
            em.emit(3, "continue")
        em.emit(2, f"nv = {version}")
        em.emit(2, f"ap = ({method}, {args}, {result})")
        if kind is UpdateKind.MODIFY:
            result2 = term(head.result2)
            em.emit(2, "slot = table.get(nv)")
            em.emit(2, "if slot is None:")
            em.emit(3, "slot = table[nv] = {}")
            em.emit(2, "try:")
            em.emit(3, f"slot[ap].add({result2})")
            em.emit(2, "except KeyError:")
            em.emit(3, f"slot[ap] = {{{result2}}}")
        else:
            em.emit(2, "try:")
            em.emit(3, "table[nv].add(ap)")
            em.emit(2, "except KeyError:")
            em.emit(3, "table[nv] = {ap}")
            result2 = "None"
        atom = (
            f"UpdateAtom({kind_src}, t, {method}, {args}, "
            f"{result}, {result2}, False)"
        )
    em.emit(2, "n += 1")
    # Traces only: the ground head and the binding sorted by variable name.
    em.namespace["UpdateAtom"] = UpdateAtom
    binding = _tuple_src(
        [
            f"({var.name!r}, r[{slot}])"
            for var, slot in sorted(slot_of.items(), key=lambda vs: vs[0].name)
        ]
    )
    em.emit(2, "if fired is not None:")
    em.emit(3, f"fired({em.const(rule.name, '_R')}, {atom}, {binding})")
    em.emit(1, "return len(rows), n")


# ----------------------------------------------------------------------
# compiled artifacts
# ----------------------------------------------------------------------


class CompiledBody:
    """One body's compiled executor: a batch function over slot rows.

    ``slots`` is the variable layout (slot index → variable); ``key_getter``
    projects a row onto the plan's ``key_vars`` order for deduplication.
    ``source`` keeps the generated text for introspection and tests.
    """

    __slots__ = (
        "fn",
        "slots",
        "key_slots",
        "key_getter",
        "generator_count",
        "source",
    )

    def __init__(
        self,
        fn,
        slots: tuple[Var, ...],
        key_slots: tuple[int, ...],
        generator_count: int,
        source: str,
    ) -> None:
        self.fn = fn
        self.slots = slots
        self.key_slots = key_slots
        if len(key_slots) == 1:
            slot = key_slots[0]
            self.key_getter = lambda row: (row[slot],)
        elif key_slots:
            self.key_getter = itemgetter(*key_slots)
        else:  # a fully-ground body: at most one row, keyed trivially
            self.key_getter = lambda row: ()
        self.generator_count = generator_count
        self.source = source

    def rows(self, base: "ObjectBase", seed_rows: list[Row]) -> list[Row]:
        """Run the compiled steps over ``seed_rows`` (no deduplication —
        seeded callers dedup across seed positions themselves)."""
        return self.fn(base, seed_rows)

    def bindings(self, base: "ObjectBase") -> list[Binding]:
        """Complete matches as fresh dicts (dedup only with > 1 generator)."""
        rows = self.fn(base, [()])
        slots = self.slots
        if self.generator_count <= 1:
            return [dict(zip(slots, row)) for row in rows]
        seen: set[tuple] = set()
        out: list[Binding] = []
        key_getter = self.key_getter
        for row in rows:
            key = key_getter(row)
            if key not in seen:
                seen.add(key)
                out.append(dict(zip(slots, row)))
        return out


def _compile_body_plan(
    plan: JoinPlan,
    seed_vars: tuple[Var, ...],
    name: str,
    rule: "UpdateRule | None" = None,
    seeded: bool = False,
) -> CompiledBody:
    """Generate and exec the specialized function for ``plan``.

    ``seed_vars`` (sorted by :func:`var_sort_key`) occupy the leading row
    slots; the remaining slots are assigned in plan binding order.  Given
    ``rule`` — whose body ``plan`` orders, or, ``seeded``, whose body minus
    one seed literal — the function ends in the rule's firing loop
    (:func:`_emit_head`).
    """
    em = _Emitter(name)
    em.namespace["Oid"] = Oid
    slot_of: dict[Var, int] = {var: i for i, var in enumerate(seed_vars)}
    em.emit(0, f"def _run({'base, rows' if rule is None else _RULE_PARAMS}):")
    em.emit(1, "if not rows:")
    em.emit(2, "return rows")
    em.emit(1, "probe_hm = base.iter_facts_by_host_method")
    em.emit(1, "probe_arg = base.iter_facts_by_arg")
    em.emit(1, "probe_m = base.iter_facts_by_method")
    em.emit(1, "has = base.__contains__")
    for step in plan.steps:
        if step.action == FILTER:
            _emit_filter(em, step, slot_of)
        elif step.action == BINDER:
            _emit_binder(em, step, slot_of)
        elif isinstance(step.literal.atom, VersionAtom):
            _emit_version_generator(em, step, slot_of)
        else:
            _emit_update_generator(em, step, slot_of)
    if rule is None:
        em.emit(1, "return rows")
    else:
        _emit_head(em, rule, slot_of, plan, seeded)
    fn, source = em.build("_run")
    slots = tuple(sorted(slot_of, key=slot_of.__getitem__))
    key_slots = tuple(slot_of[var] for var in plan.key_vars)
    _STATS["bodies_compiled"] += 1
    return CompiledBody(fn, slots, key_slots, plan.generator_count, source)


def _compile_seed_matcher(
    atom: VersionAtom, seed_vars: tuple[Var, ...], name: str
):
    """Compile the bulk seed matcher: delta facts in, slot rows out.

    One generated loop destructures, checks and projects every fact into a
    row laid out in ``seed_vars`` order (the seed plan's leading slots).
    """
    em = _Emitter(name)
    em.namespace["Oid"] = Oid
    em.emit(0, "def _seed(facts):")
    em.emit(1, "out = []")
    em.emit(1, "app = out.append")
    em.emit(1, "for _f in facts:")
    new_locals, row_dependent = _emit_fact_checks(
        em, atom, {}, indent=2, skip_col=None, check_host=True
    )
    assert not row_dependent  # no row exists yet
    assert set(new_locals) == set(seed_vars)
    projection = _tuple_src([new_locals[var] for var in seed_vars])
    em.emit(2, f"app({projection})")
    em.emit(1, "return out")
    fn, _source = em.build("_seed")
    _STATS["seed_matchers_compiled"] += 1
    return fn


def compile_seeded(
    plan: JoinPlan, literal: Literal, name: str, rule: "UpdateRule | None" = None
) -> tuple[Callable, CompiledBody]:
    """``(seed_matcher, compiled_body)`` for a body seeded at ``literal``:
    ``plan`` orders the rest of the body (``compile_seed_plan``).  Given
    ``rule`` the body ends in the rule's firing loop; without it, it
    returns its rows (a query's seeded variant)."""
    seed_vars = tuple(sorted(literal.variables, key=var_sort_key))
    matcher = _compile_seed_matcher(literal.atom, seed_vars, name)
    return matcher, _compile_body_plan(plan, seed_vars, name, rule, seeded=True)


class CompiledRule:
    """Everything compiled for one rule: the full-body executor plus one
    (lazily built) bulk seed matcher + seeded executor per seed literal,
    each ending in the rule's firing loop."""

    __slots__ = ("rule", "plans", "full", "_seeded")

    def __init__(self, rule: "UpdateRule") -> None:
        self.rule = rule
        self.plans = rule_plan(rule)
        self.full = _compile_body_plan(self.plans.full_plan, (), rule.name, rule)
        self._seeded: dict[int, tuple] = {}

    def seeded(self, position: int) -> tuple:
        """``(seed_matcher, compiled_body)`` for the seed literal at
        ``position``."""
        try:
            return self._seeded[position]
        except KeyError:
            entry = compile_seeded(
                self.plans.seed_plan(position),
                self.rule.body[position],
                f"{self.rule.name}/seed{position}",
                self.rule,
            )
            self._seeded[position] = entry
            return entry

    def seed_rows(self, delta: "Delta", positions: tuple[int, ...]):
        """``(compiled_body, seed_rows)`` per seed position with at least
        one added fact its seed literal matches: the delta's facts streamed
        through the bulk seed matcher, one batch per position."""
        signature = self.plans.signature
        for position in positions:
            facts = seed_facts(delta, signature, position)
            if not facts:
                continue
            matcher, body = self.seeded(position)
            rows = matcher(facts)
            if rows:
                yield body, rows

    def fire(
        self,
        reading: "ObjectBase",
        base: "ObjectBase",
        pending,
        fired=None,
        seeds: "tuple[Delta, tuple[int, ...]] | None" = None,
    ) -> tuple[int, int]:
        """Step 1 of ``T_P`` for this rule: match the body against
        ``reading`` — in full, or semi-naively from ``seeds = (delta,
        positions)`` — and write every true ground head into ``pending``
        (a :class:`~repro.core.consequence.PendingUpdates`).  ``base`` is
        what ``del[v].*`` expands against.  Returns ``(matched, fired)``;
        ``fired``, when given, is called with ``(rule_name, head,
        binding)`` per fired instance.

        Rows are deduplicated before they fire: across seed positions
        always (``key_vars`` is the sorted set of *all* body variables, so
        the key tuples agree across every seed position of the rule), in a
        full match only when more than one generator can repeat a binding.
        """
        if seeds is None:
            body = self.full
            seen = set() if body.generator_count > 1 else None
            return body.fn(reading, [()], pending, base, seen, fired) or (0, 0)
        matched = count = 0
        runs = list(self.seed_rows(*seeds))
        # One seed position whose remaining body has at most one generator
        # cannot repeat a binding either: distinct added facts seed
        # distinct rows.
        seen = (
            set()
            if len(runs) > 1 or any(b.generator_count > 1 for b, _ in runs)
            else None
        )
        for body, rows in runs:
            # an early exit of the body returns its (empty) rows
            m, n = body.fn(reading, rows, pending, base, seen, fired) or (0, 0)
            matched += m
            count += n
        return matched, count


# ----------------------------------------------------------------------
# cached entry points
# ----------------------------------------------------------------------


@lru_cache(maxsize=4096)
def compiled_rule(rule: "UpdateRule") -> CompiledRule:
    return CompiledRule(rule)


@lru_cache(maxsize=4096)
def _compiled_body(body: tuple[Literal, ...]) -> CompiledBody:
    return _compile_body_plan(_body_plan(body), (), "<body>")


def compiled_body(
    body: tuple[Literal, ...], name: str = "<body>"
) -> CompiledBody:
    """The compiled executor for a bare body (queries, view rules), cached
    per body.  An unsafe body raises
    :class:`~repro.core.errors.EvaluationError` naming ``name``."""
    try:
        return _compiled_body(body)
    except EvaluationError:
        compile_plan(body, name=name)  # the same failure, under the caller's name
        raise


register_lru_cache("codegen.rule", compiled_rule)
register_lru_cache("codegen.body", _compiled_body)
register_lru_cache("codegen.code", _code)
register_cache("codegen.backend", lambda: dict(_STATS))


def match_rule_compiled(rule: "UpdateRule", base: "ObjectBase") -> list[Binding]:
    """Every substitution making the body of ``rule`` true in ``base``."""
    return compiled_rule(rule).full.bindings(base)


def match_rule_seeded_compiled(
    rule: "UpdateRule",
    base: "ObjectBase",
    delta: "Delta",
    positions: tuple[int, ...],
) -> list[Binding]:
    """Semi-naive matching: every returned binding has at least one seed
    literal matching a fact *added* by the previous ``T_P`` application,
    deduplicated across positions.

    Only sound when :func:`repro.core.plans.classify` returned these seed
    positions — i.e. when every other way the rule could newly fire has
    been ruled out by its dependency signature.
    """
    seen: set[tuple] = set()
    results: list[Binding] = []
    for body, seed_rows in compiled_rule(rule).seed_rows(delta, positions):
        key_getter = body.key_getter
        slots = body.slots
        for row in body.rows(base, seed_rows):
            key = key_getter(row)
            if key not in seen:
                seen.add(key)
                results.append(dict(zip(slots, row)))
    return results
