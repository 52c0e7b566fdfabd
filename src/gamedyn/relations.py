"""Simulation relations between graphs and the largest-simulation fixpoint."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Digraph, transitive_closure  # re-exported: transitive_closure


@dataclass(frozen=True)
class Relation:
    """Binary relation between nodes of a "small" graph and a "big" graph."""

    pairs: frozenset  # of (node of small, node of big)

    @property
    def domain(self) -> frozenset:
        return frozenset(a for a, _ in self.pairs)

    def inverse(self) -> "Relation":
        return Relation(frozenset((b, a) for a, b in self.pairs))

    def __contains__(self, pair) -> bool:
        return pair in self.pairs


def _as_digraph(g) -> Digraph:
    return g.digraph() if hasattr(g, "digraph") else g


def is_partial_simulation(small: Digraph, big: Digraph, rel: Relation):
    """Check the step-matching condition on edges inside the domain.

    For every edge (u', v') of `small` with both endpoints in dom(rel) and
    every u with (u', u) in rel, there must be an edge (u, v) of `big` with
    (v', v) in rel.  Returns (True, None) or (False, counterexample) where
    the counterexample is the triple (u', v', u) that cannot be matched.
    """
    small, big = _as_digraph(small), _as_digraph(big)
    for a, b in rel.pairs:
        if a not in set(small.nodes) or b not in set(big.nodes):
            return (False, (a, b, None))
    dom = rel.domain
    related = {}
    for a, b in rel.pairs:
        related.setdefault(a, set()).add(b)
    for u1, v1 in small.edges:
        if u1 not in dom or v1 not in dom:
            continue
        for u in related[u1]:
            if not any((v1, v) in rel for v in big.successors(u)):
                return (False, (u1, v1, u))
    return (True, None)


def is_simulation(small: Digraph, big: Digraph, rel: Relation):
    """A partial simulation whose domain is all of `small`'s nodes."""
    small, big = _as_digraph(small), _as_digraph(big)
    ok, cex = is_partial_simulation(small, big, rel)
    if not ok:
        return (False, cex)
    missing = set(small.nodes) - rel.domain
    if missing:
        return (False, (min(missing, key=repr), None, None))
    return (True, None)


def is_bisimulation(small: Digraph, big: Digraph, rel: Relation):
    ok, cex = is_simulation(small, big, rel)
    if not ok:
        return (False, cex)
    return is_simulation(big, small, rel.inverse())


def largest_simulation(small: Digraph, big: Digraph):
    """Greatest fixpoint: start from all pairs, drop pairs that fail the
    step-matching condition until stable.

    Returns (relation, full_domain) where full_domain is True iff every node
    of `small` is simulated by some node of `big` — i.e. `big` simulates
    `small`.
    """
    small, big = _as_digraph(small), _as_digraph(big)
    pairs = {(a, b) for a in small.nodes for b in big.nodes}
    changed = True
    while changed:
        changed = False
        for a, b in sorted(pairs, key=repr):
            ok = all(
                any((a2, b2) in pairs for b2 in big.successors(b))
                for a2 in small.successors(a)
            )
            if not ok:
                pairs.discard((a, b))
                changed = True
    rel = Relation(frozenset(pairs))
    return rel, rel.domain == frozenset(small.nodes)


__all__ = [
    "Relation",
    "is_partial_simulation",
    "is_simulation",
    "is_bisimulation",
    "largest_simulation",
    "transitive_closure",
]
