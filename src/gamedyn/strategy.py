"""Positional and history-based strategy profiles, outcomes and deviations."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CyclicArena, StateSpaceTooLarge, UnknownVertex
from .game import Comparison, FinitePlay, Game, Play, canonicalize
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


@dataclass(frozen=True)
class HistoryProfile:
    """One successor choice per history (non-maximal path); acyclic arenas only."""

    items: tuple[tuple[tuple[str, ...], str], ...]

    @classmethod
    def from_dict(cls, choice):
        return cls(tuple(sorted(choice.items())))

    def __getitem__(self, h):
        for k, w in self.items:
            if k == h:
                return w
        raise KeyError(h)

    def as_dict(self):
        return dict(self.items)

    def updated(self, h, w):
        return HistoryProfile(tuple(sorted((dict(self.items) | {h: w}).items())))

    def changed_histories(self, other):
        mine, theirs = self.as_dict(), other.as_dict()
        return tuple(sorted(h for h in mine if mine[h] != theirs.get(h)))


def profile_count(game: Game) -> int:
    count = 1
    for v in game.non_terminals():
        count *= len(game.successors(v))
    return count


def enumerate_profiles(game: Game, guard: int = PROFILE_GUARD, force: bool = False):
    """All positional profiles, in lexicographic (vertex id, successor id) order."""
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
    path = [v]
    seen = {v: 0}
    while path[-1] not in terms:
        w = profile[path[-1]]
        if w in seen:
            i = seen[w]
            return canonicalize(path[:i], path[i:])
        seen[w] = len(path)
        path.append(w)
    return FinitePlay(tuple(path))


def best_replies(game: Game, profile: StrategyProfile, v: str) -> frozenset[str]:
    """Successors of v whose one-state deviation outcome is preference-maximal."""
    player = game.owner[v]
    pref = game.preference(player)
    best: list[str] = []
    best_play: Play | None = None
    for w in game.successors(v):
        play = outcome(game, profile.updated(v, w), v)
        if best_play is None:
            best, best_play = [w], play
            continue
        cmp = pref.compare(play, best_play)
        if cmp is Comparison.GREATER:
            best, best_play = [w], play
        elif cmp is Comparison.EQUAL:
            best.append(w)
    return frozenset(best)


# ---------------------------------------------------------------------------
# Histories (for the one-step dynamics on acyclic arenas)


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


def history_profile_count(game: Game) -> int:
    count = 1
    for h in enumerate_histories(game):
        count *= len(game.successors(h[-1]))
    return count


def enumerate_history_profiles(game: Game, guard: int = PROFILE_GUARD, force: bool = False):
    hs = enumerate_histories(game)
    count = 1
    for h in hs:
        count *= len(game.successors(h[-1]))
    if count > guard and not force:
        raise StateSpaceTooLarge(count, guard)
    for combo in itertools.product(*(game.successors(h[-1]) for h in hs)):
        yield HistoryProfile(tuple(zip(hs, combo)))


def history_outcome(game: Game, profile: HistoryProfile, h: tuple[str, ...]) -> Play:
    """Extend the history h by the profile's choices until a terminal vertex."""
    terms = game.terminals
    path = list(h)
    while path[-1] not in terms:
        path.append(profile[tuple(path)])
    return FinitePlay(tuple(path))
