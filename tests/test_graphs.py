"""Digraph utilities: SCCs, shortest paths, elementary cycles, transitive closure."""

import random
from itertools import islice

import pytest

from gamedyn.graphs import (
    Digraph,
    SccReplay,
    is_nontrivial,
    scc_stream,
    shortest_path,
    simple_cycles,
    strongly_connected_components,
    transitive_closure,
)

from .oracles import (
    closure_by_matrix_powers,
    components_by_tarjan,
    elementary_cycles_by_enumeration,
)


def random_digraph(seed, n=6, p=0.3, loops=False):
    rng = random.Random(seed)
    nodes = tuple(f"n{i}" for i in range(n))
    edges = frozenset(
        (u, v) for u in nodes for v in nodes if (loops or u != v) and rng.random() < p
    )
    return Digraph.from_edges(nodes, edges)


def test_scc_partition_and_membership():
    for seed in range(60):
        g = random_digraph(seed)
        sccs = strongly_connected_components(g)
        flat = [v for c in sccs for v in c]
        assert sorted(flat) == sorted(g.nodes)
        closure = closure_by_matrix_powers(g.nodes, g.edges)
        for comp in sccs:
            for u in comp:
                for v in comp:
                    assert u == v or ((u, v) in closure and (v, u) in closure)
        # nodes in different components must not be mutually reachable
        comp_of = {v: i for i, c in enumerate(sccs) for v in c}
        for u in g.nodes:
            for v in g.nodes:
                if (u, v) in closure and (v, u) in closure:
                    assert comp_of[u] == comp_of[v]


def test_scc_reverse_topological_order():
    for seed in range(30):
        g = random_digraph(seed)
        sccs = strongly_connected_components(g)
        pos = {v: i for i, c in enumerate(sccs) for v in c}
        for u, v in g.edges:
            # edges may only point to components emitted earlier
            assert pos[u] >= pos[v]


def test_scc_stream_matches_reference_tarjan():
    # the sparser graphs have branching trees, where successor order shows
    graphs = [random_digraph(seed, loops=True) for seed in range(60)]
    graphs += [random_digraph(seed, n=10, p=0.15, loops=True) for seed in range(60)]
    for g in graphs:
        want = components_by_tarjan(g.nodes, g.edges)
        assert strongly_connected_components(g) == want
        assert list(scc_stream(g.succ)) == [
            frozenset(g.nodes.index(v) for v in c) for c in want]
        for k in range(len(want) + 1):
            stopped = islice(scc_stream(g.succ), k)
            assert [frozenset(g.nodes[i] for i in c) for c in stopped] == want[:k]


def test_scc_stream_from_roots_gives_the_components_they_reach():
    for seed in range(60):
        g = random_digraph(seed, n=10, p=0.15, loops=True)
        n = len(g.nodes)
        assert list(scc_stream(g.succ, range(n))) == list(scc_stream(g.succ))
        whole = set(scc_stream(g.succ))
        closure = closure_by_matrix_powers(g.nodes, g.edges)
        roots = random.Random(seed).sample(range(n), seed % 4)
        got = list(scc_stream(g.succ, roots))
        reached = {v for r in roots for v in range(n)
                   if v == r or (g.nodes[r], g.nodes[v]) in closure}
        assert set().union(*got) == reached and len(got) == len(set(got))
        assert all(c in whole for c in got)
        pos = {v: k for k, c in enumerate(got) for v in c}
        assert all(pos[u] >= pos[v] for u in pos for v in g.succ[u])


class FailsOnce(list):
    """An int graph whose row k raises the first time it is read."""

    def __init__(self, rows, k):
        super().__init__(rows)
        self.k = k

    def __getitem__(self, i):
        if i == self.k:
            self.k = None
            raise RuntimeError(i)
        return super().__getitem__(i)


def test_scc_replay_is_one_stream_for_every_reader():
    graphs = [random_digraph(seed, n=10, p=0.15, loops=True) for seed in range(60)]
    for seed, g in enumerate(graphs):
        want = list(scc_stream(g.succ))
        shared = SccReplay(g.succ)
        # two readers, interleaved: each sees every component, in order
        first, second = iter(shared), iter(shared)
        half = list(islice(first, len(want) // 2))
        assert list(second) == want and half + list(first) == want
        assert list(shared) == want

        # a pass that raises is restarted, skipping what was found
        broken = SccReplay(FailsOnce(g.succ, random.Random(seed).randrange(len(g.succ))))
        seen = []
        with pytest.raises(RuntimeError):  # Tarjan reads every row
            for c in broken:
                seen.append(c)
        assert seen == want[:len(seen)]
        assert list(broken) == want


def test_is_nontrivial_means_two_nodes_or_a_self_loop():
    for seed in range(60):
        g = random_digraph(seed, p=0.2, loops=True)
        for c in components_by_tarjan(g.nodes, g.edges):
            cyclic = len(c) > 1 or any((v, v) in g.edges for v in c)
            assert is_nontrivial(g.succ, frozenset(map(g.nodes.index, c))) == cyclic


def test_transitive_closure_matches_oracle():
    for seed in range(60):
        g = random_digraph(seed)
        assert set(transitive_closure(g).edges) == closure_by_matrix_powers(
            g.nodes, g.edges
        )


def named_shortest_path(g, source, target, within=None):
    """shortest_path on g.succ, from and to node names; within defaults to
    every node."""
    pos = g.nodes.index
    path = shortest_path(g.succ, pos(source), pos(target),
                         within=set(map(pos, g.nodes if within is None else within)))
    return None if path is None else [g.nodes[i] for i in path]


def test_shortest_path_valid_and_minimal():
    for seed in range(60):
        g = random_digraph(seed)
        path = named_shortest_path(g, g.nodes[0], g.nodes[-1])
        closure = closure_by_matrix_powers(g.nodes, g.edges)
        if path is None:
            assert g.nodes[0] != g.nodes[-1]
            assert (g.nodes[0], g.nodes[-1]) not in closure
            continue
        assert path[0] == g.nodes[0] and path[-1] == g.nodes[-1]
        for a, b in zip(path, path[1:]):
            assert (a, b) in g.edges
        # minimality via BFS layer count
        dist = {g.nodes[0]: 0}
        todo = [g.nodes[0]]
        while todo:
            u = todo.pop(0)
            for w in g.successors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    todo.append(w)
        assert len(path) - 1 == dist[path[-1]]


def test_shortest_path_stays_within():
    for seed in range(60):
        g = random_digraph(seed)
        rng = random.Random(seed + 10_000)
        within = {n for n in g.nodes if rng.random() < 0.6} | {g.nodes[0]}
        inside = {(u, v) for u, v in g.edges if u in within and v in within}
        path = named_shortest_path(g, g.nodes[0], g.nodes[-1], within=within)
        if path is None:
            assert (g.nodes[0], g.nodes[-1]) not in closure_by_matrix_powers(within, inside)
            continue
        assert set(path) <= within and path[-1] == g.nodes[-1]
        assert all((a, b) in inside for a, b in zip(path, path[1:]))


def test_shortest_path_within_refuses_a_path_outside():
    g = Digraph.from_edges(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
    assert named_shortest_path(g, "a", "c") == ["a", "b", "c"]
    assert named_shortest_path(g, "a", "c", within={"a", "c"}) is None


def test_simple_cycles_match_brute_force():
    for seed in range(300):
        rng = random.Random(seed)
        g = random_digraph(seed, n=rng.randint(1, 6), p=rng.random(), loops=True)
        cycles = [tuple(g.nodes[i] for i in c) for c in simple_cycles(g.succ)]
        assert len(cycles) == len(set(cycles))
        assert all(c[0] == min(c, key=repr) for c in cycles)
        assert set(cycles) == elementary_cycles_by_enumeration(g.nodes, g.edges)
