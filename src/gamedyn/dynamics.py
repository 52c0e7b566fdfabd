"""Construction of the strategy-update dynamics graphs and the belief graph."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .errors import NonDeterministicBestReply, StateSpaceTooLarge
from .game import FinitePlay, Game, canonicalize
from .graphs import Digraph, IndexGraph
from .strategy import PROFILE_GUARD, StrategyProfile, enumerate_profiles, profile_count, unfold

KINDS = ("1", "p1", "bp1", "pc", "bpc")


def _digraph(nodes: tuple, succ: IndexGraph) -> Digraph:
    """The Digraph of succ with index i named nodes[i], successors in succ's order."""
    named = {u: [nodes[j] for j in js] for u, js in zip(nodes, succ)}
    return Digraph(nodes, frozenset((u, v) for u, vs in named.items() for v in vs), named)


@dataclass(frozen=True)
class DynamicsGraph:
    """Update dynamics over positional profiles.

    Node i is the i-th profile enumerate_profiles yields.  succ[i] lists the
    indices node i updates to, ascending, and changed[i] the players each of
    those updates changes, so index order is the one successor order.
    """

    kind: str
    nodes: tuple  # StrategyProfile per index
    succ: IndexGraph
    changed: tuple  # per index: a frozenset of players per successor
    labels: Mapping  # node -> compact display name

    @cached_property
    def _index(self):
        return {n: i for i, n in enumerate(self.nodes)}

    @property
    def edges(self) -> frozenset:
        """(src, dst, changed players) triples, derived from the successor lists."""
        nodes = self.nodes
        return frozenset((u, nodes[j], c) for u, js, cs in zip(nodes, self.succ, self.changed)
                         for j, c in zip(js, cs))

    def digraph(self) -> Digraph:
        return _digraph(self.nodes, self.succ)

    def successors(self, node):
        i = self._index[node]
        return [(self.nodes[j], c) for j, c in zip(self.succ[i], self.changed[i])]

    def label(self, node) -> str:
        return self.labels[node]


def profile_display(game: Game, profile: StrategyProfile) -> str:
    """Compact name: per-vertex edge labels, skipping forced (out-degree 1) vertices."""
    choice = profile.as_dict()
    parts = [game.edge_labels.get((v, choice[v]), f"{v}:{choice[v]}")
             for v in game.non_terminals() if len(game.successors(v)) > 1]
    return "".join(parts) if parts else "<only>"


def _display_names(game: Game, one_step: bool = False) -> list[str]:
    """profile_display of every profile, in index order; one_step names
    each history's choice as kind 1 labels do."""
    vs = game.non_terminals()
    if one_step:
        parts = [[f"{'.'.join(h)}:{c[-1]}" for c in game.successors(h)] for h in vs]
        return [",".join(p[c] for p, c in zip(parts, digits))
                for digits in itertools.product(*map(range, map(len, parts)))]
    parts = [[game.edge_labels.get((v, w), f"{v}:{w}") for w in game.successors(v)] for v in vs]
    shown = [k for k, p in enumerate(parts) if len(p) > 1]
    return ["".join(parts[k][digits[k]] for k in shown) or "<only>"
            for digits in itertools.product(*map(range, map(len, parts)))]


class _Moves:
    """Improving one-vertex moves over a game's positional profiles, on ints.

    Profile i is the i-th profile enumerate_profiles yields: a mixed-radix
    number whose digit k is the choice index at the k-th non-terminal, the
    last one varying fastest.  Moving non-terminal k from choice c to c'
    therefore adds (c' - c) * weight[k].  Plays are walked on vertex ids and
    ranked once each, through the players' play -> rank dicts.  With
    best_reply only the best improving moves at a vertex are kept: best
    replies are judged per state, not per whole strategy.
    """

    def __init__(self, game: Game, best_reply: bool):
        self.movers = game.non_terminals()
        vid = {v: i for i, v in enumerate(game.vertices)}
        self.succ = [tuple(vid[w] for w in game.successors(v)) for v in self.movers]
        self.owner = [game.owner[v] for v in self.movers]
        self.weight = [1] * len(self.succ)
        for k in range(len(self.succ) - 2, -1, -1):
            self.weight[k] = self.weight[k + 1] * len(self.succ[k + 1])
        self.best_reply = best_reply
        self._at = [vid[v] for v in self.movers]
        self._names = game.vertices
        self._prefs = game.preferences
        self._ranks = {}  # (vertex ids of the play, loop start or -1) -> rank per player
        self._next = [-1] * len(game.vertices)  # the current profile; -1 at terminals

    def digits(self):
        """Every profile's choice indices, in index order."""
        return itertools.product(*(range(len(s)) for s in self.succ))

    def _rank(self, v, w):
        """Ranks of the play from v that steps to w, then follows the profile."""
        nxt = self._next
        path, seen = [v], {v: 0}
        while w not in seen:
            seen[w] = len(path)
            path.append(w)
            w = nxt[w]
            if w < 0:
                key = (tuple(path), -1)
                break
        else:
            key = (tuple(path), seen[w])
        ranks = self._ranks.get(key)
        if ranks is None:
            names = [self._names[x] for x in path]
            i = key[1]
            play = FinitePlay(tuple(names)) if i < 0 else canonicalize(names[:i], names[i:])
            ranks = self._ranks[key] = tuple(p.rank_of(play) for p in self._prefs)
        return ranks

    def better(self, digits):
        """Per non-terminal k: the choices its owner prefers to digits[k]."""
        for x, s, c in zip(self._at, self.succ, digits):
            self._next[x] = s[c]
        out = []
        for v, s, player, c in zip(self._at, self.succ, self.owner, digits):
            ranks = [self._rank(v, w)[player - 1] for w in s]
            now = ranks[c]
            better = [j for j, r in enumerate(ranks) if r < now]
            if self.best_reply and better:
                top = min(ranks[j] for j in better)
                better = [j for j in better if ranks[j] == top]
            out.append(better)
        return out


def _improving_deviations(game: Game, profile: StrategyProfile, best_reply: bool):
    """Per player: the (v, w) single-vertex strictly-improving deviations."""
    moves = _Moves(game, best_reply)
    choice = profile.as_dict()
    succs = [game.successors(v) for v in moves.movers]
    digits = [s.index(choice[v]) for v, s in zip(moves.movers, succs)]
    by_player: dict[int, list] = {i: [] for i in range(1, game.n_players + 1)}
    for v, s, player, better in zip(moves.movers, succs, moves.owner, moves.better(digits)):
        by_player[player].extend((v, s[j]) for j in better)
    return by_player


def _offsets(moves: _Moves, n_players: int):
    """Per profile, in index order: per player, the index offsets of its moves."""
    for digits in moves.digits():
        by_player = [[] for _ in range(n_players)]
        for k, better in enumerate(moves.better(digits)):
            step, c = moves.weight[k], digits[k]
            by_player[moves.owner[k] - 1].extend((j - c) * step for j in better)
        yield by_player


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
    concurrent = kind.endswith("pc")
    nodes = tuple(enumerate_profiles(game, guard=guard, force=force))
    groups = {}  # tuple of player indices -> frozenset of players
    succ, changed = [], []
    for p, by_player in enumerate(_offsets(_Moves(game, kind.startswith("b")), game.n_players)):
        movers = [i for i, offsets in enumerate(by_player) if offsets]
        subsets = itertools.chain.from_iterable(
            itertools.combinations(movers, r) for r in range(1, len(movers) + 1)
        ) if concurrent else ((i,) for i in movers)
        out = []
        for subset in subsets:
            who = groups.get(subset)
            if who is None:
                who = groups[subset] = frozenset(i + 1 for i in subset)
            out.extend((p + sum(combo), who)
                       for combo in itertools.product(*(by_player[i] for i in subset)))
        out.sort(key=lambda t: t[0])
        succ.append(tuple(t for t, _ in out))
        changed.append(tuple(c for _, c in out))
    labels = dict(zip(nodes, _display_names(game, one_step=kind == "1")))
    return DynamicsGraph(kind=kind, nodes=nodes, succ=IndexGraph(succ),
                         changed=tuple(changed), labels=labels)


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
    """Node i is the i-th BeliefNode; delta[a][i] is the index node i steps
    to under label a."""

    nodes: tuple
    n_players: int
    delta: tuple  # per label: a target index per node
    v0_nodes: frozenset
    labels_of: Mapping  # node -> display string

    @property
    def label_set(self):
        return tuple(range(self.n_players + 1))

    @cached_property
    def _index(self):
        return {n: i for i, n in enumerate(self.nodes)}

    @cached_property
    def succ(self) -> IndexGraph:
        """Per index, the distinct targets of its edges, ascending."""
        return IndexGraph(tuple(sorted(set(ts))) for ts in zip(*self.delta))

    def successor(self, node, label):
        return self.nodes[self.delta[label][self._index[node]]]

    def digraph(self) -> Digraph:
        return _digraph(self.nodes, self.succ)


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
    # node i has rows (r_1, ..., r_n) with i = sum of r_j * place[j - 1]
    place = [base ** (n - j) for j in range(1, n + 1)]
    moves = _Moves(game, best_reply=True)
    digits = list(moves.digits())
    offsets = list(_offsets(moves, n))
    names = _display_names(game)

    def player_update(r: int, player: int) -> int:
        targets = offsets[r][player - 1]
        if len(targets) > 1:
            raise NonDeterministicBestReply(
                player, sorted((profiles[r + d] for d in targets), key=repr))
        return r + targets[0] if targets else r

    delta = [[] for _ in range(n + 1)]
    v0 = set()
    labels_of = {}
    for i, rows in enumerate(itertools.product(range(base), repeat=n)):
        node = nodes[i]
        true = sum(digits[rows[player - 1]][k] * w
                   for k, (player, w) in enumerate(zip(moves.owner, moves.weight)))
        if all(r == true for r in rows):
            v0.add(node)
        delta[0].append(true * sum(place))
        for player, r in enumerate(rows, start=1):
            delta[player].append(i + (player_update(r, player) - r) * place[player - 1])
        labels_of[node] = "|".join(names[r] for r in rows)
    return BeliefGraph(nodes=nodes, n_players=n, delta=tuple(map(tuple, delta)),
                       v0_nodes=frozenset(v0), labels_of=labels_of)
