"""Tests for the standard-library graph algorithms (``repro.digraph``):
Tarjan's strongly connected components and Johnson's elementary-cycle
enumeration, each checked against a brute-force reference on random
digraphs of up to 7 nodes, self-loops and 2-cycles included."""

from hypothesis import given, settings, strategies as st

from repro.digraph import simple_cycles, strongly_connected_components


@st.composite
def digraphs(draw) -> dict[int, set[int]]:
    n = draw(st.integers(min_value=1, max_value=7))
    nodes = range(n)
    edges = draw(
        st.sets(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)))
    )
    graph: dict[int, set[int]] = {v: set() for v in nodes}
    for v, w in edges:
        graph[v].add(w)
    return graph


def _rotated(cycle) -> tuple:
    """A cycle's node sequence rotated to start at its least node."""
    i = cycle.index(min(cycle))
    return tuple(cycle[i:]) + tuple(cycle[:i])


def _brute_force_cycles(graph: dict[int, set[int]]) -> set[tuple]:
    """Every node sequence without repeats whose consecutive nodes, and
    last to first, are edges — each cycle once per rotation, folded."""
    found: set[tuple] = set()

    def extend(path: list[int]) -> None:
        if path[0] in graph[path[-1]]:
            found.add(_rotated(path))
        for w in graph[path[-1]]:
            if w not in path:
                extend(path + [w])

    for v in graph:
        extend([v])
    return found


def _reachable(graph: dict[int, set[int]], start: int) -> set[int]:
    seen, todo = {start}, [start]
    while todo:
        for w in graph[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_every_elementary_cycle_exactly_once(graph):
    cycles = [tuple(c) for c in simple_cycles(graph)]
    assert len(cycles) == len(set(map(_rotated, cycles)))
    assert set(map(_rotated, cycles)) == _brute_force_cycles(graph)


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_components_are_mutual_reachability_classes(graph):
    components = strongly_connected_components(graph)
    assert sorted(v for c in components for v in c) == sorted(graph)
    reach = {v: _reachable(graph, v) for v in graph}
    for component in components:
        assert component == sorted(component)
        for v in graph:
            mutual = all(v in reach[u] and u in reach[v] for u in component)
            assert mutual == (v in component)


def test_self_loops_and_two_cycles():
    graph = {"a": {"a", "b"}, "b": {"a"}, "c": {"c"}}
    assert list(simple_cycles(graph)) == [["a"], ["c"], ["a", "b"]]


def test_nodes_reached_only_as_successors_and_dict_of_dicts():
    graph = {"a": {"b": ["r1"]}, "b": {"a": ["r2"], "c": ["r3"]}}
    assert strongly_connected_components(graph) == [["c"], ["a", "b"]]
    assert list(simple_cycles(graph)) == [["a", "b"]]
