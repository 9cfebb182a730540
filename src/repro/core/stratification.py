"""Stratification of update-programs — conditions (a)-(d) of Section 4.

For the derivation of the stratification every ``[V]`` is replaced by
``(V)``: a rule's head contributes the version-id-term ``α(V)`` of the
version it creates, and body atoms contribute their (replaced) hosts.
The conditions, as precedence constraints between rules (``r' < r`` strict,
``r' ≤ r`` weak):

(a) *copied states never change afterwards*: if ``r``'s head is ``α(V)``,
    every rule whose head unifies with a subterm of ``V`` is strictly lower —
    the source of the copy is finalised before the copy is taken;
(b) positive body dependency: rules whose head unifies with a subterm of a
    positive body version-id-term are at most as high (weak edge — allows
    recursion, e.g. the ancestor program);
(c) negative body dependency: as (b) for negated atoms, but strict —
    standard stratified negation, with version-id-terms playing the role
    Datalog predicate names play in [Ull88];
(d) *read-after-write for destructive updates*: rules **performing** a
    delete (head of the form ``del(W')``) are strictly lower than rules
    whose body mentions any ``del(W)`` with ``W``, ``W'`` unifiable — and
    likewise for ``mod``.  Without (d) a method-application of ``del(v)``
    could be used to infer updates on other objects and be deleted
    afterwards.

Unification is sorted (variables range over OIDs, docs/DESIGN.md D2); the two
rules' variables are renamed apart before each check.

A stratification exists iff the precedence graph has no cycle through a
strict edge.  Strata are computed by condensing strongly connected
components (Tarjan's algorithm) and taking the longest strict-edge path —
the minimal stratification, reproducing the paper's
``{r1,r2} < {r3} < {r4}``.  The graph pass, :func:`levels`, is shared with
the Datalog substrate's predicate stratification and the derived-method
views of Section 6.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Mapping, TypeVar

from repro.core.errors import StratificationError
from repro.core.rules import UpdateProgram, UpdateRule, map_constants
from repro.core.terms import (
    Term,
    UpdateKind,
    Var,
    VersionId,
    VersionVar,
    subterms,
)
from repro.core.unification import unifiable

__all__ = ["Stratification", "PrecedenceEdge", "stratify", "precedence_edges"]

N = TypeVar("N", bound=Hashable)


@dataclass(frozen=True)
class PrecedenceEdge:
    """One derived constraint ``lower (< | ≤) upper`` with its justification.

    ``detail`` is its ``parts`` — text and terms — joined, so an edge of a
    program that differs from this one only in its constants is this edge
    with its terms mapped (:meth:`bind`)."""

    lower: str
    upper: str
    strict: bool
    condition: str  # "a" | "b" | "c" | "d"
    detail: str
    parts: tuple = field(default=(), compare=False, repr=False)

    def bind(self, constants: Mapping) -> "PrecedenceEdge":
        """This edge with the OIDs of its terms mapped through ``constants``."""
        return _edge(
            self.lower,
            self.upper,
            self.strict,
            self.condition,
            *(
                part if part.__class__ is str else map_constants(part, constants)
                for part in self.parts
            ),
        )

    def __str__(self) -> str:
        op = "<" if self.strict else "<="
        return f"{self.lower} {op} {self.upper}   [condition ({self.condition}): {self.detail}]"


@dataclass(frozen=True)
class Stratification:
    """The result: rules grouped into strata, lowest first."""

    strata: tuple[tuple[UpdateRule, ...], ...]
    stratum_of: dict[str, int]
    edges: tuple[PrecedenceEdge, ...]

    def __len__(self) -> int:
        return len(self.strata)

    def bind(
        self, rules: Iterable[UpdateRule], constants: Mapping
    ) -> "Stratification":
        """The stratification of a program whose ``rules`` are this one's
        with their OIDs mapped through ``constants``, whose rules are
        named alike.  Unification only compares OIDs, so when
        ``constants`` keeps which of them are equal, the strata and edges
        are these, over the new rules and terms."""
        by_name = {rule.name: rule for rule in rules}
        return Stratification(
            tuple(tuple(by_name[rule.name] for rule in stratum) for stratum in self.strata),
            self.stratum_of,
            tuple(edge.bind(constants) for edge in self.edges),
        )

    def __iter__(self) -> Iterator[tuple[UpdateRule, ...]]:
        return iter(self.strata)

    def names(self) -> list[list[str]]:
        """Rule names per stratum — the shape the paper prints, e.g.
        ``[["rule1", "rule2"], ["rule3"], ["rule4"]]``."""
        return [[rule.name for rule in stratum] for stratum in self.strata]

    def explain(self) -> str:
        """Human-readable report of all derived constraints and strata."""
        lines = ["precedence constraints:"]
        if self.edges:
            lines.extend(f"  {edge}" for edge in self.edges)
        else:
            lines.append("  (none)")
        lines.append("strata (lowest first):")
        for index, names in enumerate(self.names()):
            lines.append(f"  stratum {index}: {{{', '.join(names)}}}")
        return "\n".join(lines)


def _edge(lower: str, upper: str, strict: bool, condition: str, *parts) -> PrecedenceEdge:
    return PrecedenceEdge(
        lower, upper, strict, condition, "".join(map(str, parts)), parts
    )


def _rename_apart(term: Term, tag: str) -> Term:
    """Rename every variable in ``term`` so two rules never share variables.

    Preserves the variable class: a renamed :class:`VersionVar` must keep
    its any-VID unification behaviour."""
    if isinstance(term, VersionId):
        return VersionId(term.kind, _rename_apart(term.base, tag))
    if isinstance(term, Var):
        return type(term)(f"{term.name}${tag}")
    return term


def _unifies_renamed(left: Term, right: Term) -> bool:
    return unifiable(_rename_apart(left, "L"), _rename_apart(right, "R"))


def precedence_edges(
    program: UpdateProgram, *, conditions: str = "abcd"
) -> list[PrecedenceEdge]:
    """Derive the precedence constraints of the requested conditions.

    ``conditions`` is a subset of ``"abcd"`` — the paper first illustrates a
    stratification satisfying (a) alone, then refines with (b)-(d); exposing
    the subset makes that experiment (E5) reproducible.
    """
    conditions = conditions.lower()
    edges: list[PrecedenceEdge] = []
    rules = list(program)

    heads = [(rule, rule.head_version_id_term()) for rule in rules]

    for rule in rules:
        head_new = rule.head_version_id_term()
        head_target = rule.head.target

        if "a" in conditions:
            # (a): finalise the copy source before the copy.
            for sub in subterms(head_target):
                for other, other_head in heads:
                    if _unifies_renamed(other_head, sub):
                        edges.append(
                            _edge(
                                other.name,
                                rule.name,
                                True,
                                "a",
                                "head ",
                                other_head,
                                f" of {other.name} unifies with subterm ",
                                sub,
                                f" of the head target of {rule.name}",
                            )
                        )

        for body_term, positive in rule.body_version_id_terms():
            if positive and "b" in conditions:
                for sub in subterms(body_term):
                    for other, other_head in heads:
                        if _unifies_renamed(other_head, sub):
                            edges.append(
                                _edge(
                                    other.name,
                                    rule.name,
                                    False,
                                    "b",
                                    "head ",
                                    other_head,
                                    f" of {other.name} unifies with subterm ",
                                    sub,
                                    f" of positive body term of {rule.name}",
                                )
                            )
            if not positive and "c" in conditions:
                for sub in subterms(body_term):
                    for other, other_head in heads:
                        if _unifies_renamed(other_head, sub):
                            edges.append(
                                _edge(
                                    other.name,
                                    rule.name,
                                    True,
                                    "c",
                                    "head ",
                                    other_head,
                                    f" of {other.name} unifies with subterm ",
                                    sub,
                                    f" of negated body term of {rule.name}",
                                )
                            )
            if "d" in conditions:
                # (d): destructive updates happen strictly before reads of
                # the destructed version.  A version variable may denote a
                # del/mod version, so it conservatively triggers (d) against
                # every destructive head (Section 6 extension; see
                # repro.ext.vidvars).
                for sub in subterms(body_term):
                    if isinstance(sub, VersionVar):
                        for other, other_head in heads:
                            if isinstance(other_head, VersionId) and other_head.kind in (
                                UpdateKind.DELETE,
                                UpdateKind.MODIFY,
                            ):
                                edges.append(
                                    _edge(
                                        other.name,
                                        rule.name,
                                        True,
                                        "d",
                                        f"{other.name} performs a destructive "
                                        f"update that the version variable "
                                        f"{sub} in {rule.name} may read",
                                    )
                                )
                        continue
                    if not isinstance(sub, VersionId):
                        continue
                    if sub.kind not in (UpdateKind.DELETE, UpdateKind.MODIFY):
                        continue
                    for other, other_head in heads:
                        if (
                            isinstance(other_head, VersionId)
                            and other_head.kind is sub.kind
                            and _unifies_renamed(other_head.base, sub.base)
                        ):
                            edges.append(
                                _edge(
                                    other.name,
                                    rule.name,
                                    True,
                                    "d",
                                    f"{other.name} performs a "
                                    f"{sub.kind.value}-update on ",
                                    other_head.base,
                                    " read as ",
                                    sub,
                                    f" in the body of {rule.name}",
                                )
                            )
    return edges


def stratify(
    program: UpdateProgram, *, conditions: str = "abcd"
) -> Stratification:
    """Compute the minimal stratification, or raise
    :class:`StratificationError` when none exists.

    Each rule's stratum is its :func:`levels` level in the precedence
    graph; rules within one stratum keep program order for stable display.
    """
    edges = precedence_edges(program, conditions=conditions)

    def describe(lower: str, upper: str, cycle: tuple[str, ...]) -> str:
        return (
            f"no stratification satisfying conditions "
            f"({', '.join(conditions)}) exists: rules "
            f"{' -> '.join(cycle)} form a cycle through the strict "
            f"constraint {lower} < {upper}"
        )

    stratum_of = levels(
        [rule.name for rule in program],
        [(edge.lower, edge.upper, edge.strict) for edge in edges],
        describe,
    )
    strata: list[list[UpdateRule]] = [
        [] for _ in range(max(stratum_of.values(), default=-1) + 1)
    ]
    for rule in program:
        strata[stratum_of[rule.name]].append(rule)
    return Stratification(
        tuple(tuple(stratum) for stratum in strata), stratum_of, tuple(edges)
    )


def levels(
    nodes: Iterable[N],
    edges: Iterable[tuple[N, N, bool]],
    describe: Callable[[N, N, tuple[N, ...]], str],
) -> dict[N, int]:
    """The minimal stratum of every node of a precedence graph.

    ``edges`` are ``(lower, upper, strict)``; a repeated edge ORs in
    ``strict``.  The graph is condensed into strongly connected components
    (Tarjan); a strict edge inside a component is ``n < n`` transitively,
    reported as :class:`StratificationError` with ``describe(lower, upper,
    cycle)`` for the first such edge (node order, then each node's edges in
    insertion order) and its shortest witness ``cycle``, a closed walk
    ``upper ⇝ lower -> upper``.  Otherwise a node's level is the largest
    number of strict edges on a path into it, so levels run 0, 1, … with
    no gap.
    """
    succ: dict[N, dict[N, bool]] = {node: {} for node in nodes}
    for lower, upper, strict in edges:
        succ[lower][upper] = succ[lower].get(upper, False) or strict

    components = _components(succ)
    component_of = {
        node: index for index, members in enumerate(components) for node in members
    }
    for lower, out in succ.items():
        for upper, strict in out.items():
            if strict and component_of[lower] == component_of[upper]:
                cycle = (*_shortest_path(succ, upper, lower), upper)
                raise StratificationError(describe(lower, upper, cycle), cycle=cycle)

    # Tarjan finishes a component after every component it reaches, so
    # walking them backwards visits each after all of its predecessors.
    level = [0] * len(components)
    for index in reversed(range(len(components))):
        for node in components[index]:
            for upper, strict in succ[node].items():
                target = component_of[upper]
                level[target] = max(level[target], level[index] + strict)
    return {node: level[component_of[node]] for node in succ}


def _components(succ: dict[N, dict[N, bool]]) -> list[list[N]]:
    """Strongly connected components, iterative Tarjan, sinks first."""
    index: dict[N, int] = {}
    low: dict[N, int] = {}
    stack: list[N] = []
    on_stack: set[N] = set()
    components: list[list[N]] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ[child])))
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    members: list[N] = []
                    while not members or members[-1] != node:
                        members.append(stack.pop())
                        on_stack.discard(members[-1])
                    components.append(members)
    return components


def _shortest_path(succ: dict[N, dict[N, bool]], source: N, target: N) -> list[N]:
    """Breadth-first ``source ⇝ target``; the caller knows one exists."""
    parent = {source: source}
    queue = deque([source])
    while target not in parent:
        node = queue.popleft()
        for child in succ[node]:
            if child not in parent:
                parent[child] = node
                queue.append(child)
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    return path[::-1]
