"""Termination, fairness and equilibria analyses over dynamics graphs."""

from __future__ import annotations

from typing import Mapping, Optional

from .dynamics import BeliefGraph, DynamicsGraph
from .errors import Frozen
from .graphs import is_nontrivial, shortest_path


class CycleWitness(Frozen):
    __slots__ = _fields = ("cycle",)  # a non-empty closed walk: last -> first is an edge

    def __init__(self, cycle: tuple):
        self._set(cycle=cycle)


SWITCHES = "switches-infinitely-often"
CANNOT_SWITCH = "recurrently-cannot-switch"
NON_SWITCHER = "enabled-non-switcher"


class FairnessReport(Frozen):
    __slots__ = _fields = ("fair", "witness", "per_player")

    def __init__(self, fair: bool, witness: Optional[CycleWitness],
                 per_player: Mapping[int, str]):
        """fair: True iff an infinite fair path exists."""
        self._set(fair=fair, witness=witness, per_player=per_player)

    def describe(self, dg: DynamicsGraph) -> str:
        lines = ["fair cycle found" if self.fair else "no fair cycle"]
        if self.witness is not None:
            lines.append("cycle: " + " -> ".join(dg.label(n) for n in self.witness.cycle))
        for player in sorted(self.per_player):
            lines.append(f"player {player}: {self.per_player[player]}")
        return "\n".join(lines)


def terminates(dg: DynamicsGraph) -> bool:
    """True iff the dynamics graph has no infinite path, i.e. is acyclic."""
    return find_cycle(dg) is None


def find_cycle(dg: DynamicsGraph) -> Optional[CycleWitness]:
    g = dg.succ
    for scc in dg.sccs:
        if is_nontrivial(g, scc):
            cycle = _cycle_through(g, scc, min(scc))
            return CycleWitness(cycle=tuple(dg.nodes[n] for n in cycle))
    return None


def equilibria(dg: DynamicsGraph) -> frozenset:
    """Nodes with no outgoing edge.  A profile whose row is not built yet is
    only asked whether some player has a move, and its row stays unbuilt;
    a move rules out the block of profiles that share it, and only the
    equilibria are made into profiles."""
    get, has_move, count = dg.succ.get, dg.profiles.has_move, len(dg.profiles)
    found, i = [], 0
    while i < count:
        row = get(i)
        if row is None and (past := has_move(i)):
            i = past
            continue
        if not row:
            found.append(i)
        i += 1
    return frozenset(map(dg.nodes.__getitem__, found))


def _cycle_through(g, scc: frozenset, start) -> list:
    """A closed walk in the component from start: one edge out, then back."""
    first = next(w for w in g[start] if w in scc)
    if first == start:
        return [start]
    return [start] + shortest_path(g, first, {start}, within=scc)[:-1]


def find_fair_cycle(dg: DynamicsGraph, players) -> FairnessReport:
    """Decide whether an infinite fair update path exists.

    A fair infinite path exists iff some non-trivial SCC S satisfies, for
    every player i in players: either some edge inside S changes i's strategy, or some
    node of S has no outgoing edge (in the whole graph) changing i's
    strategy.  The witness is a closed walk in S visiting all per-player
    witnesses.
    """
    g, changed = dg.succ, dg.changed
    players = tuple(players)  # read once per component and again for the witness

    def can_switch(n):
        """The players with some outgoing edge of n changing them."""
        return frozenset().union(*changed[n])

    report_per_player = {}
    for scc in dg.sccs:
        if not is_nontrivial(g, scc):
            continue
        members = sorted(scc)
        inside = [(u, v, c) for u in members for v, c in zip(g[u], changed[u]) if v in scc]
        clauses = {}
        for i in players:
            if any(i in c for _, _, c in inside):
                clauses[i] = SWITCHES
            elif any(i not in can_switch(n) for n in members):
                clauses[i] = CANNOT_SWITCH
            else:
                clauses[i] = NON_SWITCHER
        if all(v is not NON_SWITCHER for v in clauses.values()):
            edge_targets = [next((u, v) for u, v, c in inside if i in c)
                            for i in players if clauses[i] == SWITCHES]
            node_targets = [next(n for n in members if i not in can_switch(n))
                            for i in players if clauses[i] == CANNOT_SWITCH]
            walk = (_closed_walk(g, scc, edge_targets, node_targets)
                    or _cycle_through(g, scc, (node_targets or [min(scc)])[0]))
            witness = CycleWitness(cycle=tuple(dg.nodes[n] for n in walk))
            return FairnessReport(fair=True, witness=witness, per_player=clauses)
        # no fair SCC: report the first nontrivial one
        report_per_player = report_per_player or clauses
    return FairnessReport(fair=False, witness=None, per_player=report_per_player)


def _closed_walk(g, scc, edges, nodes=()) -> list:
    """A closed walk in the SCC through every edge of edges, then every node
    of nodes, in order, without its last step back to the start (a
    CycleWitness leaves it implicit).  A self-loop adds no step, so a walk
    that never leaves its start comes back empty."""
    walk = [edges[0][0] if edges else (nodes[0] if nodes else min(scc))]
    for u, v in edges:
        walk += shortest_path(g, walk[-1], {u}, within=scc)[1:]
        if v != u:
            walk.append(v)
    for n in nodes:
        walk += shortest_path(g, walk[-1], {n}, within=scc)[1:]
    walk += shortest_path(g, walk[-1], {walk[0]}, within=scc)[1:]
    return walk[:-1]


# ---------------------------------------------------------------------------
# Labelled belief-graph analyses


def sinks(lg: BeliefGraph) -> frozenset:
    """Nodes whose every outgoing edge is a self loop."""
    return frozenset(lg.nodes[v] for v, out in enumerate(lg.succ) if out == (v,))


def _bottom_reach(lg: BeliefGraph) -> tuple[list, list]:
    """Tarjan's components of lg, and per node the frozenset of positions of
    the bottom components it reaches.

    Components complete in reverse topological order, so each one's
    successors are done before it.  Two nodes reach a common node iff they
    reach a common bottom component.
    """
    g, sccs = lg.succ, lg.sccs
    comp = [0] * len(g)
    for c, scc in enumerate(sccs):
        for v in scc:
            comp[v] = c
    reach = []
    for c, scc in enumerate(sccs):
        out = {comp[w] for v in scc for w in g[v]} - {c}
        reach.append(frozenset().union(*(reach[d] for d in out)) if out else frozenset((c,)))
    return sccs, [reach[c] for c in comp]


def reachable_two_sinks(lg: BeliefGraph):
    """Some (node, sink1, sink2) with two distinct sinks reachable, if any."""
    sccs, reach = _bottom_reach(lg)
    for v, bottoms in enumerate(reach):
        found = sorted(w for c in bottoms if len(sccs[c]) == 1 for w in sccs[c])
        if len(found) >= 2:
            return (lg.nodes[v], lg.nodes[found[0]], lg.nodes[found[1]])
    return None


def find_lfair_cycle(lg: BeliefGraph) -> Optional[CycleWitness]:
    """A non-constant cycle whose edge labels cover every label, if one exists.

    Exists iff some SCC with >= 2 nodes contains, for every label, an
    internal edge carrying that label.
    """
    delta = lg.delta
    for scc in lg.sccs:
        if len(scc) < 2:
            continue
        per_label = {}
        for n in sorted(scc):
            for a in lg.label_set:
                m = delta[a][n]
                if m in scc and a not in per_label:
                    per_label[a] = (n, m)
        if len(per_label) < len(lg.label_set):
            continue
        walk = _closed_walk(lg.succ, scc, [per_label[a] for a in sorted(per_label)])
        if len(walk) < 2:
            continue  # constant cycles are excluded
        return CycleWitness(cycle=tuple(lg.nodes[n] for n in walk))
    return None


def check_diamond(lg: BeliefGraph):
    """For all nodes v and labels a, b: some common node is reachable from
    delta(v, a) and from delta(v, ba).  Returns (True, None) or (False, (v, a, b))."""
    _, reach = _bottom_reach(lg)
    delta, labels = lg.delta, lg.label_set
    for v in range(len(lg.nodes)):
        for a in labels:
            via_a = reach[delta[a][v]]
            for b in labels:
                if via_a.isdisjoint(reach[delta[a][delta[b][v]]]):
                    return (False, (lg.nodes[v], a, b))
    return (True, None)
