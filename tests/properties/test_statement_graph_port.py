"""Property: the in-house statement graph answers exactly as networkx did.

``analysis.graph.strongly_connected_components`` is a port of networkx
3.x's non-recursive Tarjan.  The linter and the legality postcheck iterate
its components, and the members of each, in order, so equal *sets* are not
enough: the sequence and each set's iteration order must be networkx's.
``recurrence_components`` must order the condensation as the networkx
version did, ``lexicographical_topological_sort(condensation(g))`` keyed
by each component's smallest member.  networkx is imported here only, as
the oracle; the package itself never imports it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.graph import (
    StatementGraph,
    preventing_dependences,
    recurrence_components,
    strongly_connected_components,
)

nx = pytest.importorskip("networkx")


@st.composite
def multigraphs(draw):
    """Up to 8 nodes; parallel edges and self-loops, each edge carrying a
    ``dep`` or a ``scalar`` payload."""
    n = draw(st.integers(min_value=0, max_value=8))
    if n == 0:
        return 0, []
    node = st.integers(min_value=0, max_value=n - 1)
    return n, draw(st.lists(st.tuples(node, node, st.booleans()), max_size=24))


def _both(n, edges):
    ours = StatementGraph(list(range(n)))
    theirs = nx.MultiDiGraph()
    theirs.add_nodes_from(range(n))
    for i, (u, v, is_dep) in enumerate(edges):
        data = {"dep": i} if is_dep else {"scalar": [f"S{i}"]}
        ours.add_edge(u, v, **data)
        theirs.add_edge(u, v, **data)
    return ours, theirs


@settings(derandomize=True, max_examples=400, deadline=None)
@given(multigraphs())
def test_port_answers_as_networkx(graph):
    n, _edges = graph
    ours, theirs = _both(*graph)
    assert list(ours.edges()) == list(theirs.edges(data=True))
    assert [(u, v) for u in range(n) for v in range(n) if ours.has_edge(u, v)] == [
        (u, v) for u in range(n) for v in range(n) if theirs.has_edge(u, v)]

    sccs = list(nx.strongly_connected_components(theirs))
    mine = list(strongly_connected_components(ours))
    assert [list(c) for c in mine] == [list(c) for c in sccs]

    # the networkx-built recurrence_components and preventing_dependences
    cond = nx.condensation(theirs, scc=sccs)
    order = nx.lexicographical_topological_sort(
        cond, key=lambda c: min(cond.nodes[c]["members"]))
    assert recurrence_components(ours) == [sorted(cond.nodes[c]["members"]) for c in order]
    prevent = []
    for scc in nx.strongly_connected_components(theirs):
        if len(scc) < 2:
            continue
        for u, v, data in theirs.edges(data=True):
            if u in scc and v in scc and "dep" in data:
                prevent.append(data["dep"])
    assert preventing_dependences(ours) == prevent
