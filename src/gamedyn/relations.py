"""Simulation relations between graphs and the largest-simulation fixpoint.

A graph here is any value with `nodes` and `succ` (a Digraph, DynamicsGraph
or BeliefGraph); the checks run on indices and name only what they return.
"""

from __future__ import annotations

from .errors import Frozen
from .graphs import transitive_closure  # re-exported


class Relation(Frozen):
    """Binary relation between nodes of a "small" graph and a "big" graph."""

    __slots__ = _fields = ("pairs",)  # a frozenset of (node of small, node of big)

    @property
    def domain(self) -> frozenset:
        return frozenset(a for a, _ in self.pairs)

    def inverse(self) -> "Relation":
        return Relation(frozenset((b, a) for a, b in self.pairs))

    def __contains__(self, pair) -> bool:
        return pair in self.pairs


def is_partial_simulation(small, big, rel: Relation):
    """Check the step-matching condition on edges inside the domain.

    For every edge (u', v') of `small` with both endpoints in dom(rel) and
    every u with (u', u) in rel, there must be an edge (u, v) of `big` with
    (v', v) in rel.  Returns (True, None) or (False, counterexample) where
    the counterexample is the triple (u', v', u) that cannot be matched.
    """
    spos = {n: i for i, n in enumerate(small.nodes)}
    bpos = {n: i for i, n in enumerate(big.nodes)}
    related = [set() for _ in spos]  # per small index, the big indices paired with it
    for a, b in rel.pairs:
        if a not in spos or b not in bpos:
            return (False, (a, b, None))
        related[spos[a]].add(bpos[b])
    for a, js in enumerate(small.succ):
        for a2 in js:
            if not related[a2]:
                continue
            for b in related[a]:
                if related[a2].isdisjoint(big.succ[b]):
                    return (False, (small.nodes[a], small.nodes[a2], big.nodes[b]))
    return (True, None)


def is_simulation(small, big, rel: Relation):
    """A partial simulation whose domain is all of `small`'s nodes."""
    ok, cex = is_partial_simulation(small, big, rel)
    if not ok:
        return (False, cex)
    dom = rel.domain
    for n in small.nodes:
        if n not in dom:
            return (False, (n, None, None))
    return (True, None)


def is_bisimulation(small, big, rel: Relation):
    ok, cex = is_simulation(small, big, rel)
    if not ok:
        return (False, cex)
    return is_simulation(big, small, rel.inverse())


def simulators(succ_s, succ_b) -> list:
    """Greatest fixpoint on two int graphs' rows: per node a of the small
    graph, the set of big nodes that simulate it.  Start from all pairs and
    drop those that fail the step-matching condition until stable."""
    sim = [set(range(len(succ_b))) for _ in succ_s]
    changed = True
    while changed:
        changed = False
        for a, js in enumerate(succ_s):
            kept = {b for b in sim[a] if all(not sim[a2].isdisjoint(succ_b[b]) for a2 in js)}
            if len(kept) < len(sim[a]):
                sim[a] = kept
                changed = True
    return sim


def largest_simulation(small, big):
    """(relation, full_domain): the largest simulation of small by big, by
    node name, and True iff every node of small is simulated by some node of
    big, i.e. big simulates small."""
    sim = simulators(small.succ, big.succ)
    nodes_s, nodes_b = tuple(small.nodes), tuple(big.nodes)
    rel = Relation(frozenset((nodes_s[a], nodes_b[b]) for a, bs in enumerate(sim) for b in bs))
    return rel, all(sim)


__all__ = [
    "Relation",
    "is_partial_simulation",
    "is_simulation",
    "is_bisimulation",
    "largest_simulation",
    "transitive_closure",
]
