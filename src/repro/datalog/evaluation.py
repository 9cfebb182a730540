"""Bottom-up evaluation for the Datalog substrate.

Three modes:

* **naive** — recompute every rule against the full database each round;
* **semi-naive** — the standard delta optimisation: a recursive rule only
  re-fires with at least one body atom bound to the facts new in the last
  round (benchmarked against naive in experiment E12);
* **inflationary** — the fixpoint semantics of [AV91] used by Logres-style
  modules: all rules fire simultaneously against the current database,
  negation included, facts only accumulate.

Both stratified modes evaluate stratum by stratum, so negation only ever
reads fully computed predicates.

Like the update engine's matcher (:mod:`repro.core.plans`), the join
order depends only on which variables are bound, so it is compiled once
per rule body into a static plan and replayed (``_compile_plan``).  There
is no other matcher: every entry point runs the safety check first, and a
body that still has no plan is a typed
:class:`~repro.core.errors.EvaluationError` naming the rule.  The
semi-naive loop additionally consults a delta dependency check: a
``(rule, recursive position)`` pair only re-fires when the delta actually
holds rows for that position's predicate.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from repro.core.atoms import BuiltinAtom
from repro.core.caches import register_cache
from repro.core.errors import BuiltinError, EvaluationError, EvaluationLimitError
from repro.core.exprs import evaluate_expr, expr_variables
from repro.core.terms import Oid, Var
from repro.core.truth import builtin_atom_true
from repro.datalog.ast import DatalogLiteral, DatalogProgram, DatalogRule, PredicateAtom
from repro.datalog.database import Database, Row
from repro.datalog.stratify import stratify_datalog

__all__ = [
    "match_datalog_rule",
    "evaluate_stratified",
    "evaluate_inflationary",
]

Binding = dict[Var, Oid]


# ----------------------------------------------------------------------
# rule matching (join)
# ----------------------------------------------------------------------

#: Plan step actions (mirrors repro.core.plans).
_FILTER, _BINDER, _GENERATE = 0, 1, 2

#: A plan step: (original body position, literal, action).
_PlanStep = tuple[int, DatalogLiteral, int]


@lru_cache(maxsize=4096)
def _compile_plan(body: tuple[DatalogLiteral, ...]) -> tuple[_PlanStep, ...] | None:
    """The join order of ``body``: filters as soon as their variables are
    bound, then ``=`` binders, then the positive atom sharing the most
    bound variables.  ``None`` when some literal can never be evaluated
    (an unsafe body)."""
    remaining = list(enumerate(body))
    bound: set[Var] = set()
    steps: list[_PlanStep] = []
    while remaining:
        chosen: tuple[int, int] | None = None  # (position in remaining, action)
        best_score = -1
        for position, (_, literal) in enumerate(remaining):
            if literal.variables <= bound:
                chosen = (position, _FILTER)
                break
            atom = literal.atom
            if isinstance(atom, BuiltinAtom):
                if (
                    literal.positive
                    and atom.op == "="
                    and _equality_target(atom, bound) is not None
                ):
                    chosen = (position, _BINDER)
                    break
                continue
            if not literal.positive:
                continue
            score = sum(1 for v in atom.variables if v in bound)
            if score > best_score:
                best_score = score
                chosen = (position, _GENERATE)
        if chosen is None:
            return None
        position, action = chosen
        original_index, literal = remaining.pop(position)
        steps.append((original_index, literal, action))
        if action == _BINDER:
            bound.add(_equality_target(literal.atom, bound))
        else:
            bound |= literal.variables
    return tuple(steps)


register_cache(
    "datalog.compile_plan",
    lambda: dict(zip(("hits", "misses", "maxsize", "size"), _compile_plan.cache_info())),
    _compile_plan.cache_clear,
)


def _equality_target(atom: BuiltinAtom, bound: set[Var]) -> Var | None:
    for target, source in ((atom.left, atom.right), (atom.right, atom.left)):
        if (
            isinstance(target, Var)
            and target not in bound
            and all(v in bound for v in expr_variables(source))
        ):
            return target
    return None


def match_datalog_rule(
    rule: DatalogRule,
    database: Database,
    *,
    delta: Database | None = None,
    delta_literal: int | None = None,
) -> Iterator[Binding]:
    """All substitutions satisfying the body of ``rule``.

    When ``delta_literal`` names a body position, that (positive predicate)
    literal draws its candidate rows from ``delta`` instead of the full
    database — the semi-naive restriction.
    """
    plan = _compile_plan(rule.body)
    if plan is None:
        raise EvaluationError(
            f"rule {rule.name or str(rule)!r}: no literal is evaluable under "
            f"the current binding — the rule is unsafe (this should have "
            f"been caught by the safety check)"
        )
    yield from _search_planned(plan, 0, {}, database, delta, delta_literal)


def _search_planned(
    steps: tuple[_PlanStep, ...],
    index: int,
    binding: Binding,
    database: Database,
    delta: Database | None,
    delta_literal: int | None,
) -> Iterator[Binding]:
    n = len(steps)
    while index < n:
        original_index, literal, action = steps[index]
        if action == _FILTER:
            if not _check(literal, binding, database):
                return
            index += 1
        elif action == _BINDER:
            extension = _bind_equality(literal.atom, binding)
            if extension is None:
                return
            binding = extension
            index += 1
        else:  # _GENERATE
            source = (
                delta
                if original_index == delta_literal and delta is not None
                else database
            )
            index += 1
            for extension in _generate(literal.atom, binding, source):
                yield from _search_planned(
                    steps, index, extension, database, delta, delta_literal
                )
            return
    yield binding


def _bind_equality(atom: BuiltinAtom, binding: Binding) -> Binding | None:
    for target, source in ((atom.left, atom.right), (atom.right, atom.left)):
        if (
            isinstance(target, Var)
            and target not in binding
            and all(v in binding for v in expr_variables(source))
        ):
            try:
                value = evaluate_expr(source, binding)
            except BuiltinError:
                return None
            extension = dict(binding)
            extension[target] = value
            return extension
    return None


def _check(literal: DatalogLiteral, binding: Binding, database: Database) -> bool:
    atom = literal.atom
    if isinstance(atom, BuiltinAtom):
        try:
            value = builtin_atom_true(atom.substitute(binding))
        except BuiltinError:
            return False
        return value if literal.positive else not value
    ground = atom.substitute(binding)
    present = (ground.name, ground.to_tuple()) in database
    return present if literal.positive else not present


def _generate(
    atom: PredicateAtom, binding: Binding, database: Database
) -> Iterator[Binding]:
    arity = len(atom.args)
    rows = None
    for position, arg in enumerate(atom.args):
        if isinstance(arg, Oid):
            rows = database.rows_with(atom.name, arity, position, arg)
            break
        bound = binding.get(arg)
        if bound is not None:
            rows = database.rows_with(atom.name, arity, position, bound)
            break
    if rows is None:
        rows = database.rows(atom.name, arity)

    for row in rows:
        extension = _match_row(atom.args, row, binding)
        if extension is not None:
            yield extension


def _match_row(args: tuple, row: Row, binding: Binding) -> Binding | None:
    work: Binding | None = None
    for arg, value in zip(args, row):
        if isinstance(arg, Oid):
            if arg != value:
                return None
            continue
        current = (work or binding).get(arg)
        if current is None:
            if work is None:
                work = dict(binding)
            work[arg] = value
        elif current != value:
            return None
    return work if work is not None else dict(binding)


# ----------------------------------------------------------------------
# stratified evaluation (naive / semi-naive)
# ----------------------------------------------------------------------


def evaluate_stratified(
    program: DatalogProgram,
    edb: Database,
    *,
    seminaive: bool = True,
    max_iterations: int = 100_000,
) -> Database:
    """Stratum-wise fixpoint; returns a new database (EDB untouched)."""
    program.check_safety()
    stratification = stratify_datalog(program)
    database = edb.copy()

    for stratum_index, stratum in enumerate(stratification):
        if seminaive:
            _run_stratum_seminaive(
                list(stratum), database, stratification.predicate_stratum,
                stratum_index, max_iterations,
            )
        else:
            _run_stratum_naive(list(stratum), database, max_iterations)
    return database


def _derive(rule: DatalogRule, database: Database, **kwargs) -> list[tuple[str, Row]]:
    derived = []
    for binding in match_datalog_rule(rule, database, **kwargs):
        head = rule.head.substitute(binding)
        derived.append((head.name, head.to_tuple()))
    return derived


def _run_stratum_naive(
    rules: list[DatalogRule], database: Database, max_iterations: int
) -> None:
    for iteration in range(max_iterations):
        changed = False
        for rule in rules:
            for name, row in _derive(rule, database):
                changed |= database.add(name, row)
        if not changed:
            return
    raise EvaluationLimitError(0, max_iterations)


def _run_stratum_seminaive(
    rules: list[DatalogRule],
    database: Database,
    predicate_stratum: dict[tuple[str, int], int],
    stratum_index: int,
    max_iterations: int,
) -> None:
    # Round 0: fire every rule once against the full database.
    delta = Database()
    for rule in rules:
        for name, row in _derive(rule, database):
            if database.add(name, row):
                delta.add(name, row)

    # Which body positions are recursive (same-stratum positive IDB atoms)?
    recursive_positions: dict[str, list[int]] = {}
    for rule in rules:
        positions = [
            index
            for index, literal in enumerate(rule.body)
            if literal.positive
            and isinstance(literal.atom, PredicateAtom)
            and predicate_stratum.get(literal.atom.key) == stratum_index
        ]
        recursive_positions[rule.name] = positions

    for iteration in range(max_iterations):
        if not len(delta):
            return
        new_delta = Database()
        for rule in rules:
            for position in recursive_positions[rule.name]:
                # Dependency check: the delta-bound literal can only match
                # rows the last round actually derived for its predicate.
                atom = rule.body[position].atom
                if not delta.rows(atom.name, len(atom.args)):
                    continue
                for name, row in _derive(
                    rule, database, delta=delta, delta_literal=position
                ):
                    if database.add(name, row):
                        new_delta.add(name, row)
        delta = new_delta
    raise EvaluationLimitError(stratum_index, max_iterations)


# ----------------------------------------------------------------------
# inflationary evaluation ([AV91], used by Logres-style modules)
# ----------------------------------------------------------------------


def evaluate_inflationary(
    program: DatalogProgram,
    edb: Database,
    *,
    max_iterations: int = 100_000,
) -> Database:
    """Inflationary fixpoint: all rules fire against the current database
    (negation reads the *current*, possibly still-growing relations); the
    derived facts are added simultaneously; repeat until no change."""
    program.check_safety()
    database = edb.copy()
    for iteration in range(max_iterations):
        derived: list[tuple[str, Row]] = []
        for rule in program:
            derived.extend(_derive(rule, database))
        changed = False
        for name, row in derived:
            changed |= database.add(name, row)
        if not changed:
            return database
    raise EvaluationLimitError(0, max_iterations)
