"""Construction of the strategy-update dynamics graphs and the belief graph."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .errors import NonDeterministicBestReply, StateSpaceTooLarge
from .game import Comparison, Game
from .graphs import Digraph
from .strategy import (
    PROFILE_GUARD,
    StrategyProfile,
    enumerate_profiles,
    outcome,
    profile_count,
    unfold,
)

KINDS = ("1", "p1", "bp1", "pc", "bpc")


@dataclass(frozen=True)
class DynamicsGraph:
    kind: str
    nodes: tuple
    edges: frozenset  # of (src, dst, changed_players frozenset)
    labels: Mapping  # node -> compact display name

    def digraph(self) -> Digraph:
        return Digraph(self.nodes, frozenset((u, v) for u, v, _ in self.edges))

    def successors(self, node):
        return sorted(
            ((v, c) for u, v, c in self.edges if u == node), key=lambda t: repr(t[0])
        )

    def label(self, node) -> str:
        return self.labels[node]


def profile_display(game: Game, profile: StrategyProfile) -> str:
    """Compact name: per-vertex edge labels, skipping forced (out-degree 1) vertices."""
    parts = []
    for v in game.non_terminals():
        succs = game.successors(v)
        if len(succs) == 1:
            continue
        w = profile[v]
        parts.append(game.edge_labels.get((v, w), f"{v}:{w}"))
    return "".join(parts) if parts else "<only>"


def _improving_deviations(game: Game, profile: StrategyProfile, best_reply: bool):
    """Per player: the single-vertex strictly-improving deviations.

    Returns {player: [(v, w, profile'), ...]}.  With best_reply=True only the
    deviations whose outcome is maximal among all one-state deviations at v
    are kept: best replies are judged per state, not per whole strategy.
    """
    by_player: dict[int, list] = {i: [] for i in range(1, game.n_players + 1)}
    for v in game.non_terminals():
        player = game.owner[v]
        pref = game.preference(player)
        current = outcome(game, profile, v)
        options = []
        for w in game.successors(v):
            if w == profile[v]:
                continue
            prof2 = profile.updated(v, w)
            play = outcome(game, prof2, v)
            if pref.compare(current, play) is Comparison.LESS:
                options.append((w, prof2, play))
        if not options:
            continue
        if best_reply:
            best = options[0][2]
            for _, _, play in options[1:]:
                if pref.compare(best, play) is Comparison.LESS:
                    best = play
            options = [o for o in options if pref.compare(o[2], best) is Comparison.EQUAL]
        by_player[player].extend((v, w, p2) for w, p2, _ in options)
    return by_player


def build_dynamics(game: Game, kind: str, guard: int = PROFILE_GUARD,
                   force: bool = False) -> DynamicsGraph:
    """Dynamics graph over positional profiles for kind in KINDS.

    Kind 1, the one-step dynamics of an acyclic arena, is p1 on its tree
    unfolding, with profiles labelled by history; its equilibria are the
    subgame perfect equilibria.
    """
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"unknown dynamics kind {kind!r}")
    if kind == "1":
        game = unfold(game)
    best_reply = kind.startswith("b")
    concurrent = kind.endswith("pc")
    profiles = tuple(enumerate_profiles(game, guard=guard, force=force))
    edges = set()
    for prof in profiles:
        by_player = _improving_deviations(game, prof, best_reply)
        if not concurrent:
            for player, opts in by_player.items():
                for _, _, prof2 in opts:
                    edges.add((prof, prof2, frozenset({player})))
            continue
        players = [i for i, opts in by_player.items() if opts]
        for r in range(1, len(players) + 1):
            for subset in itertools.combinations(players, r):
                for combo in itertools.product(*(by_player[i] for i in subset)):
                    choice = prof.as_dict()
                    for v, w, _ in combo:
                        choice[v] = w
                    prof2 = StrategyProfile.from_dict(choice)
                    edges.add((prof, prof2, frozenset(subset)))
    if kind == "1":
        labels = {p: ",".join(f"{'.'.join(h)}:{c[-1]}" for h, c in p.items) for p in profiles}
    else:
        labels = {p: profile_display(game, p) for p in profiles}
    return DynamicsGraph(kind=kind, nodes=profiles, edges=frozenset(edges), labels=labels)


# ---------------------------------------------------------------------------
# Belief dynamics graph


@dataclass(frozen=True)
class BeliefNode:
    """Row j is player j's belief: a full positional profile with row j's own
    component being player j's actual strategy."""

    rows: tuple  # one StrategyProfile per player, index j-1

    def row(self, player: int) -> StrategyProfile:
        return self.rows[player - 1]


@dataclass(frozen=True)
class BeliefGraph:
    nodes: tuple
    n_players: int
    delta: Mapping  # (node, label) -> node
    v0_nodes: frozenset
    labels_of: Mapping  # node -> display string

    @property
    def label_set(self):
        return tuple(range(self.n_players + 1))

    def successor(self, node, label):
        return self.delta[(node, label)]

    def digraph(self) -> Digraph:
        return Digraph(
            self.nodes,
            frozenset((n, self.delta[(n, a)]) for n in self.nodes for a in self.label_set),
        )


def _true_profile(game: Game, node: BeliefNode) -> StrategyProfile:
    choice = {}
    for v in game.non_terminals():
        choice[v] = node.row(game.owner[v])[v]
    return StrategyProfile.from_dict(choice)


def build_belief_graph(game: Game, guard: int = PROFILE_GUARD, force: bool = False) -> BeliefGraph:
    """The complete deterministic labelled graph over belief matrices.

    Label 0 is the global knowledge update; label i applies player i's unique
    strictly-improving best-reply one-state update under i's current belief,
    or stutters when no improving move exists.
    """
    n = game.n_players
    base = profile_count(game)
    count = base**n
    if count > guard and not force:
        raise StateSpaceTooLarge(count, guard)
    profiles = tuple(enumerate_profiles(game, guard=guard, force=force))
    nodes = tuple(BeliefNode(rows) for rows in itertools.product(profiles, repeat=n))

    delta = {}
    v0 = set()
    update_cache: dict[tuple[StrategyProfile, int], StrategyProfile] = {}

    def player_update(belief: StrategyProfile, player: int) -> StrategyProfile:
        key = (belief, player)
        if key not in update_cache:
            by_player = _improving_deviations(game, belief, best_reply=True)
            targets = sorted({p2 for _, _, p2 in by_player[player]}, key=repr)
            if len(targets) > 1:
                raise NonDeterministicBestReply(player, targets)
            update_cache[key] = targets[0] if targets else belief
        return update_cache[key]

    for node in nodes:
        true = _true_profile(game, node)
        if all(row == true for row in node.rows):
            v0.add(node)
        delta[(node, 0)] = BeliefNode(tuple(true for _ in range(n)))
        for player in range(1, n + 1):
            new_row = player_update(node.row(player), player)
            rows = list(node.rows)
            rows[player - 1] = new_row
            delta[(node, player)] = BeliefNode(tuple(rows))

    labels_of = {
        node: "|".join(profile_display(game, row) for row in node.rows) for node in nodes
    }
    return BeliefGraph(nodes=nodes, n_players=n, delta=delta, v0_nodes=frozenset(v0),
                       labels_of=labels_of)
