"""Termination, fairness and equilibria analyses over dynamics graphs."""

from __future__ import annotations

from typing import Optional

from .dynamics import BeliefGraph, DynamicsGraph
from .errors import Frozen
from .graphs import is_nontrivial, shortest_path


class CycleWitness(Frozen):
    __slots__ = _fields = ("cycle",)  # a non-empty closed walk: last -> first is an edge


SWITCHES = "switches-infinitely-often"
CANNOT_SWITCH = "recurrently-cannot-switch"
NON_SWITCHER = "enabled-non-switcher"


class FairnessReport(Frozen):
    """fair: True iff an infinite fair path exists."""

    __slots__ = _fields = ("fair", "witness", "per_player")

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
            cycle = _closed_walk(g, scc, [])
            return CycleWitness(cycle=tuple(dg.nodes[n] for n in cycle))
    return None


def equilibria(dg: DynamicsGraph) -> frozenset:
    """Nodes with no outgoing edge.  A profile whose row is not built yet is
    only asked whether some player has a move, and its row stays unbuilt;
    a move rules out the block of profiles that share it, and only the
    equilibria are made into profiles."""
    get, has_move, count = dg.succ.get, dg.nodes.has_move, len(dg.nodes)
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
            walk = _closed_walk(g, scc, edge_targets, node_targets)
            witness = CycleWitness(cycle=tuple(dg.nodes[n] for n in walk))
            return FairnessReport(fair=True, witness=witness, per_player=clauses)
        # no fair SCC: report the first nontrivial one
        report_per_player = report_per_player or clauses
    return FairnessReport(fair=False, witness=None, per_player=report_per_player)


def _closed_walk(g, scc, edges, nodes=()) -> list:
    """A closed walk in the SCC through every edge of edges, then every node
    of nodes, in order, without its last step back to the start (a
    CycleWitness leaves it implicit).  A self-loop adds no step; a walk
    that would never leave its start takes the start's first edge into the
    SCC and comes back."""
    walk = [edges[0][0] if edges else (nodes[0] if nodes else min(scc))]
    for u, v in edges:
        walk += shortest_path(g, walk[-1], u, within=scc)[1:]
        if v != u:
            walk.append(v)
    for n in nodes:
        walk += shortest_path(g, walk[-1], n, within=scc)[1:]
    if len(walk) == 1:
        walk.append(next(w for w in g[walk[0]] if w in scc))
    walk += shortest_path(g, walk[-1], walk[0], within=scc)[1:]
    return walk[:-1]


# ---------------------------------------------------------------------------
# Labelled belief-graph analyses


def _sinks(lg: BeliefGraph) -> list:
    """The indices of the sinks, ascending: the closure's one-node
    components whose every edge is a self loop."""
    succ = lg.succ
    return sorted(v for scc in lg.closure if len(scc) == 1 for v in scc if succ[v] == (v,))


def sinks(lg: BeliefGraph) -> frozenset:
    """Nodes whose every outgoing edge is a self loop."""
    return frozenset(map(lg.nodes.__getitem__, _sinks(lg)))


def _bottom_reach(lg: BeliefGraph) -> tuple[list, list]:
    """The bottom components of lg, in Tarjan's completion order, and per
    node a bit mask of those it reaches, bit k for the k-th.

    Components complete in reverse topological order, so each one's
    successors are done before it.  Two nodes reach a common node iff they
    reach a common bottom component.
    """
    g = lg.succ
    comp, reach, bottoms = [0] * len(g), [], []
    for c, scc in enumerate(lg.sccs):
        for v in scc:
            comp[v] = c
        mask = 0
        for v in scc:
            for w in g[v]:
                if comp[w] != c:
                    mask |= reach[comp[w]]
        if not mask:
            mask = 1 << len(bottoms)
            bottoms.append(scc)
        reach.append(mask)
    return bottoms, [reach[c] for c in comp]


def reachable_two_sinks(lg: BeliefGraph):
    """Some (node, sink1, sink2) with two distinct sinks reachable, if any."""
    if len(_sinks(lg)) < 2:
        return None
    bottoms, reach = _bottom_reach(lg)
    sink_bits = sum(1 << k for k, scc in enumerate(bottoms) if len(scc) == 1)
    for v, mask in enumerate(reach):
        mask &= sink_bits
        if mask.bit_count() >= 2:
            found = sorted(w for k, scc in enumerate(bottoms) if mask >> k & 1 for w in scc)
            return (lg.nodes[v], lg.nodes[found[0]], lg.nodes[found[1]])
    return None


def _label_edges(lg: BeliefGraph, scc: frozenset) -> dict:
    """Per label that some edge inside scc carries, the first such edge
    (n, m), its source least."""
    delta, per_label = lg.delta, {}
    for n in sorted(scc):
        for a in lg.label_set:
            m = delta[a][n]
            if m in scc and a not in per_label:
                per_label[a] = (n, m)
    return per_label


def find_lfair_cycle(lg: BeliefGraph) -> Optional[CycleWitness]:
    """A non-constant cycle whose edge labels cover every label, if one exists.

    Exists iff some SCC with >= 2 nodes contains, for every label, an
    internal edge carrying that label.  Such an SCC lies in the closure of
    label 0's targets, so where the closure holds none the answer is read
    there.  Otherwise one lies among the graph's components too, taken in
    scc_stream's order over the whole graph, and the first gives the cycle.
    """
    every = len(lg.label_set)
    if not any(len(scc) > 1 and len(_label_edges(lg, scc)) == every
               for scc in lg.closure):
        return None
    for scc in lg.sccs:
        if len(scc) < 2:
            continue
        per_label = _label_edges(lg, scc)
        if len(per_label) < every:
            continue
        # the least member's edge to another member is here: the walk is not constant
        walk = _closed_walk(lg.succ, scc, [per_label[a] for a in sorted(per_label)])
        return CycleWitness(cycle=tuple(lg.nodes[n] for n in walk))


def check_diamond(lg: BeliefGraph):
    """For all nodes v and labels a, b: some common node is reachable from
    delta(v, a) and from delta(v, ba).  Returns (True, None) or (False, (v, a, b)).

    Every bottom component lies in the closure of label 0's targets; where
    that closure holds just one, every node reaches it and the property
    holds.  Otherwise each (v, a, b) is checked in turn.
    """
    succ = lg.succ
    bottoms = [scc for scc in lg.closure if all(w in scc for v in scc for w in succ[v])]
    if len(bottoms) == 1:
        return (True, None)
    _, reach = _bottom_reach(lg)
    delta, labels = lg.delta, lg.label_set
    for v in range(len(lg.nodes)):
        for a in labels:
            via_a = reach[delta[a][v]]
            for b in labels:
                if not via_a & reach[delta[a][delta[b][v]]]:
                    return (False, (lg.nodes[v], a, b))
    return (True, None)
