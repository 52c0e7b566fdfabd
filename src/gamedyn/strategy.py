"""Positional strategy profiles, outcomes, deviations and the tree unfolding."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CyclicArena, StateSpaceTooLarge, UnknownVertex
from .game import FinitePlay, Game, Play, PreferenceOrder, canonicalize
from .graphs import Digraph, is_nontrivial, strongly_connected_components

PROFILE_GUARD = 10**7


@dataclass(frozen=True)
class StrategyProfile:
    """One successor choice per non-terminal vertex."""

    items: tuple[tuple[str, str], ...]  # sorted (vertex, successor) pairs

    @classmethod
    def from_dict(cls, choice):
        return cls(tuple(sorted(choice.items())))

    def __getitem__(self, v):
        for u, w in self.items:
            if u == v:
                return w
        raise KeyError(v)

    def as_dict(self):
        return dict(self.items)

    def updated(self, v, w):
        return StrategyProfile(tuple(sorted((dict(self.items) | {v: w}).items())))

    def changed_vertices(self, other):
        mine, theirs = self.as_dict(), other.as_dict()
        return tuple(sorted(v for v in mine if mine[v] != theirs.get(v)))


def profile_count(game: Game) -> int:
    count = 1
    for v in game.non_terminals():
        count *= len(game.successors(v))
    return count


def enumerate_profiles(game: Game, guard: int = PROFILE_GUARD, force: bool = False):
    """All positional profiles, in lexicographic (vertex id, successor id) order.

    The i-th profile is profile index i of a dynamics graph."""
    count = profile_count(game)
    if count > guard and not force:
        raise StateSpaceTooLarge(count, guard)
    vs = game.non_terminals()
    for combo in itertools.product(*(game.successors(v) for v in vs)):
        yield StrategyProfile(tuple(zip(vs, combo)))


def outcome(game: Game, profile: StrategyProfile, v: str) -> Play:
    """The unique play obtained by following the profile from v."""
    if v not in game.vertex_set:
        raise UnknownVertex(v)
    terms = game.terminals
    choice = profile.as_dict()
    path = [v]
    seen = {v: 0}
    while path[-1] not in terms:
        w = choice[path[-1]]
        if w in seen:
            i = seen[w]
            return canonicalize(path[:i], path[i:])
        seen[w] = len(path)
        path.append(w)
    return FinitePlay(tuple(path))


# ---------------------------------------------------------------------------
# Histories and the tree unfolding (for the one-step dynamics on acyclic arenas)


def enumerate_histories(game: Game) -> list[tuple[str, ...]]:
    """All non-maximal paths of an acyclic arena, sorted."""
    arena = Digraph(game.vertices, game.edges)
    sccs = strongly_connected_components(arena)
    for scc in sccs:
        if is_nontrivial(arena, scc):
            raise CyclicArena(f"cycle through {min(scc)!r}")
    terms = game.terminals
    # paths_to[v]: all paths ending in v
    paths_to: dict[str, list[tuple[str, ...]]] = {v: [(v,)] for v in game.vertices}
    for (v,) in reversed(sccs):
        for w in game.successors(v):
            paths_to[w].extend(p + (w,) for p in paths_to[v])
    return sorted(h for v, ps in paths_to.items() if v not in terms for h in ps)


def unfold(game: Game) -> Game:
    """The tree unfolding of an acyclic arena.

    Its vertices are the histories and their terminal children, each history
    h owned by the owner of h[-1], with an edge h -> h + (w,) for each arena
    edge (h[-1], w).  A tree play ranks, for each player, as the arena play
    its leaf spells, so the one-step dynamics of the game are the unilateral
    dynamics of its unfolding.
    """
    histories = enumerate_histories(game)
    edges = frozenset((h, h + (w,)) for h in histories for w in game.successors(h[-1]))
    vertices = sorted(set(histories) | {c for _, c in edges})

    def tree_plays(play):
        """The tree plays whose leaf spells play: one from each of its prefixes."""
        prefixes = tuple(play.path[:j] for j in range(1, len(play.path) + 1))
        return (FinitePlay(prefixes[k:]) for k in range(len(prefixes)))

    prefs = tuple(PreferenceOrder(tuple(frozenset(t for play in cls for t in tree_plays(play))
                                        for cls in pref.ranks))
                  for pref in game.preferences)
    return Game(game.n_players, tuple(vertices), edges,
                {h: game.owner[h[-1]] for h in histories}, prefs, {})
