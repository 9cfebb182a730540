"""Differential oracle for the one stratifier, ``core.stratification.levels``.

The reference is the textbook construction the update language, the
Datalog substrate and the derived-method views used to spell out with
``networkx``: condense the strongly connected components, reject a strict
edge inside one, and give each component the longest strict-edge path into
it in topological order.  ``networkx`` is a test-only dependency.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import StratificationError
from repro.core.stratification import levels


@st.composite
def graphs(draw):
    """Up to 10 nodes; mixed strict/weak edges, self-loops and duplicates."""
    size = draw(st.integers(1, 10))
    node = st.integers(0, size - 1)
    edges = draw(st.lists(st.tuples(node, node, st.booleans()), max_size=3 * size))
    return list(range(size)), edges


def reference(nodes, edges):
    """``(levels, None)`` or ``(None, (graph, lower, upper))`` for the first
    strict edge inside a component, in node then insertion order."""
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    for lower, upper, strict in edges:
        if graph.has_edge(lower, upper):
            graph[lower][upper]["strict"] |= strict
        else:
            graph.add_edge(lower, upper, strict=strict)
    condensation = nx.condensation(graph)
    component_of = condensation.graph["mapping"]
    for lower, upper, data in graph.edges(data=True):
        if data["strict"] and component_of[lower] == component_of[upper]:
            return None, (graph, lower, upper)
    strict_between = {}
    for lower, upper, data in graph.edges(data=True):
        key = (component_of[lower], component_of[upper])
        strict_between[key] = strict_between.get(key, False) or data["strict"]
    level = {}
    for component in nx.topological_sort(condensation):
        level[component] = max(
            (
                level[predecessor] + strict_between[(predecessor, component)]
                for predecessor in condensation.predecessors(component)
            ),
            default=0,
        )
    return {node: level[component_of[node]] for node in nodes}, None


def describe(lower, upper, cycle):
    return f"{lower} < {upper}"


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_levels_match_condensation_reference(graph):
    nodes, edges = graph
    expected, violation = reference(nodes, edges)
    if violation is None:
        computed = levels(nodes, edges, describe)
        assert computed == expected
        assert list(computed) == nodes
        assert set(computed.values()) == set(range(max(computed.values()) + 1))
        return

    reference_graph, lower, upper = violation
    with pytest.raises(StratificationError) as excinfo:
        levels(nodes, edges, describe)
    assert str(excinfo.value) == f"{lower} < {upper}"
    cycle = excinfo.value.cycle
    assert cycle[0] == upper and cycle[-2:] == (lower, upper)
    assert all(reference_graph.has_edge(a, b) for a, b in zip(cycle, cycle[1:]))
    assert len(cycle) == len(nx.shortest_path(reference_graph, upper, lower)) + 1
