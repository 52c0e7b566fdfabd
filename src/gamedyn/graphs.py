"""A minimal immutable directed-graph value used across analyses."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Digraph:
    """Nodes and edges; each node's successors in repr order, or in the order
    of the node -> successor-list map given as the third argument."""

    nodes: tuple
    edges: frozenset  # of (u, v) pairs
    _succ: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self._succ is not None:
            return
        succ = {u: [] for u in self.nodes}
        for u, v in sorted(self.edges, key=repr):
            succ[u].append(v)
        object.__setattr__(self, "_succ", succ)

    def successors(self, u):
        return tuple(self._succ[u])


class IndexGraph(tuple):
    """A graph on the nodes 0..n-1: item i is node i's successors, in order.

    It answers `nodes` and `successors` as a Digraph does, so every walk in
    this module runs on it unchanged.
    """

    __slots__ = ()

    @property
    def nodes(self) -> range:
        return range(len(self))

    def successors(self, u):
        return self[u]


def strongly_connected_components(g: Digraph) -> list[frozenset]:
    """Tarjan's algorithm, iterative; components in reverse topological order."""
    index, low, on_stack, stack, sccs = {}, {}, set(), [], []
    work = []  # (node, iterator over its remaining successors)

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        work.append((v, iter(g.successors(v))))

    for root in g.nodes:
        if root in index:
            continue
        visit(root)
        while work:
            v, succ = work[-1]
            for w in succ:
                if w not in index:
                    visit(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = set()
                    while v not in comp:
                        comp.add(stack.pop())
                    on_stack -= comp
                    sccs.append(frozenset(comp))
    return sccs


def is_nontrivial(g: Digraph, scc: frozenset) -> bool:
    """True iff the component holds a cycle: two nodes or a self-loop."""
    if len(scc) > 1:
        return True
    (node,) = scc
    return node in g.successors(node)


def shortest_path(g: Digraph, source, targets, within=None) -> list | None:
    """BFS path from source to any node in targets; with `within`, every
    node after source lies in that set."""
    targets = set(targets)
    if source in targets:
        return [source]
    prev = {source: None}
    todo = [source]
    while todo:
        next_todo = []
        for u in todo:
            for w in g.successors(u):
                if w in prev or (within is not None and w not in within):
                    continue
                prev[w] = u
                if w in targets:
                    path = [w]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return list(reversed(path))
                next_todo.append(w)
        todo = next_todo
    return None


def simple_cycles(g: Digraph) -> list[list]:
    """Every elementary cycle of g once, starting at its repr-least node.

    Johnson's algorithm (SIAM J. Comput. 4(1), 1975), iterative: roots are
    taken in repr order, and the search from root s uses only nodes after s.
    A node stays blocked until a cycle through it is found; B[w] lists the
    blocked nodes to release when w is.
    """
    order = sorted(g.nodes, key=repr)
    rank = {v: i for i, v in enumerate(order)}
    cycles = []
    for i, s in enumerate(order):
        blocked, B = {s}, {}
        path, succ = [s], [iter(g.successors(s))]
        closed = [False]  # per path node: a cycle was found through it
        while path:
            for w in succ[-1]:
                if w == s:
                    cycles.append(list(path))
                    closed[-1] = True
                elif rank[w] > i and w not in blocked:
                    blocked.add(w)
                    path.append(w)
                    succ.append(iter(g.successors(w)))
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
                    for w in g.successors(v):
                        if rank[w] > i:
                            B.setdefault(w, set()).add(v)
    return cycles


def transitive_closure(g: Digraph) -> Digraph:
    """Edge (a, b) iff a non-empty path a -> ... -> b exists in g."""
    closure = set()
    for u in g.nodes:
        seen = set()
        todo = list(g.successors(u))
        while todo:
            w = todo.pop()
            if w in seen:
                continue
            seen.add(w)
            todo.extend(g.successors(w))
        closure.update((u, w) for w in seen)
    return Digraph(g.nodes, frozenset(closure))
