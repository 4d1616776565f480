"""Directed-graph algorithms over plain adjacency mappings.

A graph is a mapping ``node -> iterable of successors`` (a dict of sets,
or a dict of dicts keyed by successor); a node that appears only as a
successor is a node too.  Nodes must be hashable and mutually orderable:
every traversal visits nodes and successors in sorted order, so results
do not depend on insertion or hash order.

Two users: the lock-order pass (LX501, :mod:`repro.analysis.concur.passes`)
reports one cycle per strongly connected component, and lexpress's
compile-time cycle analysis (:func:`repro.lexpress.closure.analyze_cycles`)
enumerates every elementary cycle of the attribute dependency graph.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping, TypeVar

N = TypeVar("N", bound=Hashable)

Graph = Mapping[N, Iterable[N]]


def strongly_connected_components(successors: Graph) -> list[list[N]]:
    """Tarjan's algorithm, iteratively: each component as a sorted list,
    in the order Tarjan closes them (successor components first)."""
    index: dict[N, int] = {}
    lowlink: dict[N, int] = {}
    on_stack: set[N] = set()
    stack: list[N] = []
    counter = [0]
    sccs: list[list[N]] = []

    def strongconnect(v: N) -> None:
        # Iterative Tarjan: (node, iterator) frames.
        work = [(v, iter(sorted(successors.get(v, ()))))]
        index[v] = lowlink[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(successors.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[node] = min(lowlink[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(sorted(scc))

    for v in sorted(_nodes(successors)):
        if v not in index:
            strongconnect(v)
    return sccs


def simple_cycles(successors: Graph) -> Iterator[list[N]]:
    """Every elementary cycle once, as its node list (Johnson, 1975).

    Self-loops come first, as one-node cycles.  Then, per strongly
    connected component of two or more nodes, the cycles through its
    least node are enumerated, that node is removed, and the components
    of what is left are searched the same way.  Each cycle starts at its
    least node."""
    graph: dict[N, list[N]] = {}
    for v in sorted(_nodes(successors)):
        graph[v] = sorted(w for w in successors.get(v, ()) if w != v)
        if v in successors.get(v, ()):
            yield [v]
    pending = [c for c in strongly_connected_components(graph) if len(c) > 1]
    while pending:
        component = pending.pop()
        members = set(component)
        sub = {v: [w for w in graph[v] if w in members] for v in component}
        start = component[0]
        yield from _cycles_through(sub, start)
        members.discard(start)
        rest = {v: [w for w in sub[v] if w in members] for v in component[1:]}
        pending.extend(c for c in strongly_connected_components(rest) if len(c) > 1)


def _nodes(successors: Graph) -> set[N]:
    nodes = set(successors)
    for targets in successors.values():
        nodes.update(targets)
    return nodes


def _cycles_through(sub: dict[N, list[N]], start: N) -> Iterator[list[N]]:
    """Johnson's circuit search: every elementary cycle of *sub* that
    passes through *start*.  A node stays blocked while every path from
    it back to *start* runs through the current path; ``waiting[w]``
    holds the blocked nodes to release when *w* is released."""
    path = [start]
    blocked = {start}
    waiting: dict[N, set[N]] = {v: set() for v in sub}
    frames = [iter(sub[start])]
    found = [False]  # per path node: a cycle was closed below it
    while frames:
        for w in frames[-1]:
            if w == start:
                yield path[:]
                found[-1] = True
            elif w not in blocked:
                path.append(w)
                blocked.add(w)
                frames.append(iter(sub[w]))
                found.append(False)
                break
        else:
            frames.pop()
            v = path.pop()
            if found.pop():
                if found:
                    found[-1] = True
                release = [v]
                while release:
                    u = release.pop()
                    if u in blocked:
                        blocked.discard(u)
                        release.extend(waiting[u])
                        waiting[u].clear()
            else:
                for w in sub[v]:
                    waiting[w].add(v)
