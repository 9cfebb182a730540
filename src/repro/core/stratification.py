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

Unification is sorted (variables range over OIDs, docs/DESIGN.md D2), with
the two rules' variables renamed apart: :func:`precedence_edges` renames
every head once per call (tag ``L``) and every term heads are tested
against once (tag ``R``), and reads the subterms off the renamed term.
An edge keeps its justification as text and terms and renders it when
read, so binding a cached stratification to new constants maps terms
and joins no text.

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
from dataclasses import dataclass, replace
from typing import Callable, Hashable, Iterable, Iterator, Mapping, TypeVar

from repro.core.errors import ReproError, StratificationError
from repro.core.rules import UpdateProgram, UpdateRule, map_constants
from repro.core.terms import UpdateKind, VersionId, VersionVar, subterms
from repro.core.unification import rename_apart, unifiable

__all__ = ["Stratification", "PrecedenceEdge", "stratify", "precedence_edges"]

N = TypeVar("N", bound=Hashable)


@dataclass(frozen=True)
class PrecedenceEdge:
    """One derived constraint ``lower (< | ≤) upper`` with its justification.

    ``parts`` is the justification as text and terms; ``detail`` is them
    joined, rendered when read.  So an edge of a program that differs from
    this one only in its constants is this edge with the OIDs of its terms
    mapped (:meth:`bind`), and edges compare by their fields alone."""

    lower: str
    upper: str
    strict: bool
    condition: str  # "a" | "b" | "c" | "d"
    parts: tuple

    @property
    def detail(self) -> str:
        return "".join(map(str, self.parts))

    def bind(self, constants: Mapping) -> "PrecedenceEdge":
        """This edge with the OIDs of its terms mapped through ``constants``."""
        return replace(self, parts=map_constants(self.parts, constants))

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


_DESTRUCTIVE = (UpdateKind.DELETE, UpdateKind.MODIFY)


def precedence_edges(
    program: UpdateProgram, *, conditions: str = "abcd"
) -> list[PrecedenceEdge]:
    """Derive the precedence constraints of the requested conditions.

    ``conditions`` is a non-empty subset of ``"abcd"``, in either case — the
    paper first illustrates a stratification satisfying (a) alone, then
    refines with (b)-(d); exposing the subset makes that experiment (E5)
    reproducible.  Anything else is a :class:`ReproError`: dropping a
    condition silently would present what is left as a stratification.
    """
    letters = conditions.lower()
    unknown = sorted(set(letters) - set("abcd"))
    if unknown:
        raise ReproError(
            f"unknown stratification condition(s) {', '.join(unknown)} in "
            f"{conditions!r}: choose from a, b, c, d"
        )
    if not letters:
        raise ReproError("no stratification condition given: choose from a, b, c, d")
    edges: list[PrecedenceEdge] = []
    # Every head is renamed apart once ("L") and every term heads are tested
    # against once ("R"); a renamed term's subterms are its subterms renamed.
    heads = []
    for rule in program:
        head = rule.head_version_id_term()
        heads.append((rule.name, head, rename_apart(head, "L")))

    for rule in program:
        # (a) finalises the copy source before the copy; (b) and (c) are
        # the positive and the negative body dependency.
        tested = [(rule.head.target, True, "a", "the head target")]
        for term, positive in rule.body_version_id_terms():
            if positive:
                tested.append((term, False, "b", "positive body term"))
            else:
                tested.append((term, True, "c", "negated body term"))
        for term, strict, condition, wording in tested:
            subs = list(zip(subterms(term), subterms(rename_apart(term, "R"))))
            if condition in letters:
                edges.extend(
                    PrecedenceEdge(other, rule.name, strict, condition, (
                        "head ", head, f" of {other} unifies with subterm ", sub,
                        f" of {wording} of {rule.name}",
                    ))
                    for sub, renamed in subs
                    for other, head, head_renamed in heads
                    if unifiable(head_renamed, renamed)
                )
            if condition == "a" or "d" not in letters:
                continue
            # (d): destructive updates happen strictly before reads of the
            # destructed version.  A version variable may denote a del/mod
            # version, so it conservatively triggers (d) against every
            # destructive head (Section 6 extension; see repro.ext.vidvars).
            for sub, renamed in subs:
                if isinstance(sub, VersionVar):
                    edges.extend(
                        PrecedenceEdge(other, rule.name, True, "d", (
                            f"{other} performs a destructive update that the "
                            f"version variable {sub} in {rule.name} may read",
                        ))
                        for other, head, _ in heads
                        if isinstance(head, VersionId) and head.kind in _DESTRUCTIVE
                    )
                elif isinstance(sub, VersionId) and sub.kind in _DESTRUCTIVE:
                    edges.extend(
                        PrecedenceEdge(other, rule.name, True, "d", (
                            f"{other} performs a {sub.kind.value}-update on ",
                            head.base, " read as ", sub, f" in the body of {rule.name}",
                        ))
                        for other, head, head_renamed in heads
                        if isinstance(head, VersionId)
                        and head.kind is sub.kind
                        and unifiable(head_renamed.base, renamed.base)
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
