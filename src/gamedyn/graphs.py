"""The graph kernel.  Every routine walks an int graph: g[i] is the tuple of
node i's successor indices, len(g) the node count, and iterating g gives the
rows in index order.  A Digraph names the nodes of one."""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterator

from .errors import Frozen


class Digraph(Frozen):
    """Node i is nodes[i], and its successors are succ[i], in that order."""

    _fields = ("nodes", "succ")
    __slots__ = _fields + ("__dict__",)  # the __dict__ holds _pos

    @classmethod
    def from_edges(cls, nodes, edges) -> Digraph:
        """The graph of (u, v) pairs; each node's successors follow node order."""
        nodes = tuple(nodes)
        pos = {u: i for i, u in enumerate(nodes)}
        succ = [[] for _ in nodes]
        for u, v in edges:
            succ[pos[u]].append(pos[v])
        return cls(nodes, tuple(tuple(sorted(js)) for js in succ))

    @cached_property
    def _pos(self) -> dict:
        return {u: i for i, u in enumerate(self.nodes)}

    @property
    def edges(self) -> frozenset:
        nodes = self.nodes
        return frozenset((u, nodes[j]) for u, js in zip(nodes, self.succ) for j in js)

    def successors(self, u) -> tuple:
        nodes = self.nodes
        return tuple(nodes[j] for j in self.succ[self._pos[u]])


def scc_stream(g, roots=None):
    """Tarjan's algorithm, iterative, over an int graph (g[i] lists node i's
    successors): yields each component of the nodes that roots reach as a
    frozenset as soon as it completes, in reverse topological order.

    Roots are taken as given, by default every node in index order, and
    successors in index order; g[i] is read only when node i is first
    reached, so a caller that stops early reads only the rows it needed.
    """
    n = len(g)
    index, low, on_stack, stack = [-1] * n, [0] * n, bytearray(n), []
    work = []  # (node, iterator over its remaining successors)
    count = 0
    for root in range(n) if roots is None else roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = 1
        work.append((root, iter(g[root])))
        while work:
            v, succ = work[-1]
            for w in succ:
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, iter(g[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    comp = []
                    w = -1
                    while w != v:
                        w = stack.pop()
                        on_stack[w] = 0
                        comp.append(w)
                    yield frozenset(comp)


class SccReplay:
    """One scc_stream of int graph g, shared by its readers: each iteration
    replays the components found so far, then continues the one pass, so
    every reader sees scc_stream's components in its order.  If the pass
    raises, the next read that needs it starts a new pass and skips what is
    found already."""

    __slots__ = ("g", "found", "stream")

    def __init__(self, g):
        self.g, self.found, self.stream = g, [], scc_stream(g)

    def __iter__(self):
        found, i = self.found, 0
        while True:
            if i == len(found):
                try:
                    found.append(next(self.stream))
                except StopIteration:
                    return
                except BaseException:
                    self.stream = itertools.islice(scc_stream(self.g), len(found), None)
                    raise
            yield found[i]
            i += 1


def strongly_connected_components(g: Digraph) -> list[frozenset]:
    """Every component of scc_stream on g.succ, in its order, by node name."""
    nodes = g.nodes
    return [frozenset(nodes[i] for i in c) for c in scc_stream(g.succ)]


def is_nontrivial(g, scc: frozenset) -> bool:
    """True iff component scc of int graph g has two nodes or a self-loop."""
    if len(scc) > 1:
        return True
    (node,) = scc
    return node in g[node]


def shortest_path(g, source: int, target: int, within) -> list | None:
    """BFS path from source to target whose every node after source lies in
    `within`."""
    if source == target:
        return [source]
    prev = {source: None}
    todo = [source]
    while todo:
        next_todo = []
        for u in todo:
            for w in g[u]:
                if w in prev or w not in within:
                    continue
                prev[w] = u
                if w == target:
                    path = [w]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return list(reversed(path))
                next_todo.append(w)
        todo = next_todo
    return None


def simple_cycles(g) -> Iterator[list[int]]:
    """Yields every elementary cycle of an int graph (g[i] lists node i's
    successors) once, starting at its least node.

    Johnson's algorithm (SIAM J. Comput. 4(1), 1975), iterative: roots are
    taken in index order, and the search from root s uses only nodes after s.
    A node stays blocked until a cycle through it is found; B[w] lists the
    blocked nodes to release when w is.
    """
    for s in range(len(g)):
        blocked, B = {s}, {}
        path, succ = [s], [iter(g[s])]
        closed = [False]  # per path node: a cycle was found through it
        while path:
            for w in succ[-1]:
                if w == s:
                    yield list(path)
                    closed[-1] = True
                elif w > s and w not in blocked:
                    blocked.add(w)
                    path.append(w)
                    succ.append(iter(g[w]))
                    closed.append(False)
                    break
            else:
                v = path.pop()
                succ.pop()
                if closed.pop():
                    todo = [v]
                    while todo:
                        u = todo.pop()
                        if u in blocked:
                            blocked.discard(u)
                            todo.extend(B.pop(u, ()))
                    if closed:
                        closed[-1] = True
                else:
                    for w in g[v]:
                        if w > s:
                            B.setdefault(w, set()).add(v)


def transitive_closure(g) -> Digraph:
    """Edge (a, b) iff a non-empty path a -> ... -> b exists in g, a graph of
    nodes and succ: row a holds the components that a's successors reach."""
    succ = g.succ
    return Digraph(g.nodes, tuple(tuple(sorted(frozenset().union(*scc_stream(succ, js))))
                                  for js in succ))
