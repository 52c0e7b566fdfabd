"""Positional strategy profiles and their numbering, outcomes, improving moves
and the tree unfolding."""

from __future__ import annotations

import itertools

from .errors import PROFILE_GUARD, CyclicArena, Frozen, StateSpaceTooLarge, UnknownVertex
from .game import FinitePlay, Game, Play, PreferenceOrder, canonicalize


class StrategyProfile(Frozen):
    """One successor choice per non-terminal vertex."""

    __slots__ = _fields = ("items",)  # sorted (vertex, successor) pairs

    @classmethod
    def from_dict(cls, choice):
        return cls(tuple(sorted(choice.items())))

    def as_dict(self):
        return dict(self.items)

    def updated(self, v, w):
        return StrategyProfile(tuple(sorted((dict(self.items) | {v: w}).items())))


_LEAF = {}  # the trie below a path that no ranked play goes on from


class Profiles:
    """A game's positional profiles, numbered, and the improving moves between them.

    Profile i is a mixed-radix number whose digit k is the choice index at
    the k-th non-terminal (sorted), among its sorted successors, the last
    digit varying fastest.  Moving non-terminal k from choice c to c'
    therefore adds (c' - c) * weight[k].  Plays are walked on vertex ids
    down the game's rank trie and ranked at the node they stop at, without
    building a play.

    A play is walked only as far as it can still be ranked, and the digits
    it reads are all that fix its ranks.  So the moves at non-terminal k are
    read from a decision tree over the digits that the plays from k's
    successors read, grown as profiles ask for it: an inner node reads one
    digit off the index, a leaf holds k's moves per choice of k.  In a scan
    over the profiles (has_move, reads), every profile that shares digits 0
    to the last one read with i is answered as i is, so the scan goes on
    past that block.
    """

    def __init__(self, game: Game):
        self.game = game
        self.movers = game.non_terminals()
        self.choices = [game.successors(v) for v in self.movers]
        self.owner = [game.owner[v] for v in self.movers]
        self.weight = [1] * len(self.movers)
        for k in range(len(self.movers) - 2, -1, -1):
            self.weight[k] = self.weight[k + 1] * len(self.choices[k + 1])
        self.count = self.weight[0] * len(self.choices[0]) if self.movers else 1
        self._made = {}  # profile index -> its profile, once read, shared by every result
        # made on first use, by _edges and index; plain attributes, as reading
        # an instance's __dict__ (functools.cached_property does) slows every
        # later attribute read on it under CPython 3.11: has_move ran ~10% slower
        self._pairs = self._pos = None
        self._shown = {}  # one_step -> what name reads, made on first use
        vid = {v: i for i, v in enumerate(game.vertices)}
        self._at = [vid[v] for v in self.movers]
        self._succ = [tuple(vid[w] for w in s) for s in self.choices]
        # per non-terminal k: its vertex id, its successors' ids, the weight
        # and the radix of digit k
        self._places = [(x, s, w, len(s)) for x, s, w in zip(self._at, self._succ, self.weight)]
        self._digit = [-1] * len(game.vertices)  # per vertex id: its digit; -1 at terminals
        for k, x in enumerate(self._at):
            self._digit[x] = k
        self._trie, self._bottom = game.rank_table()
        self._next = [-1] * len(game.vertices)  # the walked profile; -1 at terminals
        # per non-terminal k with a choice: [root, owner's index, weight, radix,
        # k]; an inner node is [weight, radix] + a child per digit value,
        # None until grown; a leaf is k's (improving, best) offsets per choice
        self._trees = [[None, o - 1, w, len(s), k] for k, (s, o, w)
                       in enumerate(zip(self._succ, self.owner, self.weight)) if len(s) > 1]

    def _edges(self) -> list[tuple]:
        """Per non-terminal: the game's own (vertex, successor) edge per
        choice, shared by every profile made from the game; made on first use."""
        if self._pairs is None:
            edge = {e: e for e in self.game.edges}
            self._pairs = [tuple([edge[v, w] for w in s]) for v, s in zip(self.movers, self.choices)]
        return self._pairs

    def check(self, guard: int | None):
        """Refuse more than guard profiles; None is no bound."""
        if guard is not None and self.count > guard:
            raise StateSpaceTooLarge(self.count, guard)

    def __len__(self):
        return self.count

    def __repr__(self):
        return repr(self._made)

    def __iter__(self):
        """Every profile, in index order."""
        return map(StrategyProfile, itertools.product(*self._edges()))

    def __getitem__(self, i: int) -> StrategyProfile:
        """Profile i, decoded digit by digit the first time it is read;
        negative i counts from the end."""
        if not -self.count <= i < self.count:
            raise IndexError(f"profile {i} of {self.count}")
        i %= self.count
        profile = self._made.get(i)
        if profile is None:
            profile = self._made[i] = StrategyProfile(tuple(
                [pairs[i // w % len(pairs)] for pairs, w in zip(self._edges(), self.weight)]))
        return profile

    def index(self, profile: StrategyProfile) -> int:
        """The profile's index; KeyError unless it chooses a successor at
        exactly this game's non-terminals."""
        choice = profile.as_dict()
        if len(choice) != len(self.movers):
            raise KeyError(profile)
        if self._pos is None:
            self._pos = [{w: j for j, w in enumerate(s)} for s in self.choices]
        return sum(pos[choice[v]] * w for v, pos, w in zip(self.movers, self._pos, self.weight))

    def name(self, i: int, one_step: bool = False) -> str:
        """Profile i's display name: the edge labels of its choices at
        non-forced vertices; one_step names each history's choice as kind 1
        labels do."""
        shown = self._shown.get(one_step)
        if shown is None:  # per named digit: its labels per choice and its weight
            labels = self.game.edge_labels
            shown = self._shown[one_step] = [
                ([f"{'.'.join(v)}:{w[-1]}" if one_step else labels.get((v, w), f"{v}:{w}")
                  for w in s], k) for v, s, k in zip(self.movers, self.choices, self.weight)
                if one_step or len(s) > 1]
        parts = [p[i // k % len(p)] for p, k in shown]
        return ",".join(parts) if one_step else "".join(parts) or "<only>"

    def own_part(self, player: int) -> list[int]:
        """Per profile index: the part of the index spelled by the digits at
        player's own non-terminals."""
        mine = [(w, r) for (_, _, w, r), o in zip(self._places, self.owner) if o == player]
        return [sum(i // w % r * w for w, r in mine) for i in range(self.count)]

    def _read(self, v, w) -> tuple[tuple, int, dict]:
        """Ranks of the play from v that steps to w and then follows the
        walked profile, the last digit that fixes them (-1 for none), and
        the vertices walked, v first, whose digits after v's fix them.  The
        walk goes down the game's rank trie and stops at a terminal or at a
        repeat (v's own digit is never read), where the node holds the
        play's ranks, or where its path leaves the trie: from there the
        play ranks bottom, whatever the later digits are."""
        nxt, digit = self._next, self._digit
        node = self._trie.get(v, _LEAF)
        seen, last = {v: 0}, -1  # in walk order: its keys are the path
        while w not in seen:
            node = node.get(w)
            if node is None:
                return self._bottom, last, seen
            seen[w] = len(seen)
            x = nxt[w]
            if x < 0:
                return node.get(-1, self._bottom), last, seen
            if digit[w] > last:
                last = digit[w]
            w = x
        return node.get(-2 - seen[w], self._bottom), last, seen

    def _decode(self, i: int) -> list[int]:
        """Walk profile i, decoding its digits in the same loop; its digits."""
        nxt, digits = self._next, []
        for x, s, w, r in self._places:
            c = i // w % r
            nxt[x] = s[c]
            digits.append(c)
        return digits

    def moves_at(self, i: int, best_reply: bool) -> list[list[int]]:
        """Per player: the index offsets of its improving one-vertex moves from
        profile i.  With best_reply only the best improving moves at a vertex
        are kept: best replies are judged per state, not per whole strategy."""
        which = 1 if best_reply else 0
        by_player = [[] for _ in range(self.game.n_players)]
        for tree in self._trees:
            node = tree[0]
            while node.__class__ is list:
                node = node[i // node[0] % node[1] + 2]
            if node is None:
                node = self._grow(tree, i)
            by_player[tree[1]] += node[i // tree[2] % tree[3]][which]
        return by_player

    def _grow(self, tree: list, i: int) -> tuple:
        """The leaf of tree that profile i reaches, hung on the tree: the
        plays from k's successors are walked under i once, and the digits
        they read, in order, become the inner nodes down to it."""
        _, player, step, _, k = tree
        self._decode(i)
        v, digit = self._at[k], self._digit
        path, ranks = {}, []
        for w in self._succ[k]:
            r, _, seen = self._read(v, w)
            ranks.append(r[player])
            path.update(seen)
        top = min(ranks)  # the best improving moves, wherever some move improves
        best = [j for j, r in enumerate(ranks) if r == top]
        leaf = tuple([((), ()) if now == top else
                      (tuple([(j - c) * step for j, r in enumerate(ranks) if r < now]),
                       tuple([(j - c) * step for j in best]))
                      for c, now in enumerate(ranks)])
        del path[v]  # k's own digit is never read
        node, at = tree, 0
        for d in map(digit.__getitem__, path):
            if d >= 0:  # not a terminal
                if node[at] is None:
                    _, _, weight, radix = self._places[d]
                    node[at] = [weight, radix] + [None] * radix
                node = node[at]
                at = i // node[0] % node[1] + 2
        node[at] = leaf
        return leaf

    def past(self, i: int, last: int) -> int:
        """The first index past profile i's block: the profiles whose digits
        0..last are i's (every profile for last -1)."""
        size = self.weight[last] if last >= 0 else self.count
        return (i // size + 1) * size

    def reads(self, i: int, k: int, choices) -> tuple[list[tuple], int]:
        """Under profile i, per choice j of choices: the ranks of the play
        that steps from non-terminal k to its j-th successor and then follows
        the profile; and the next profile that a scan of those whose digit k
        is 0 has to read.  Every profile up to it either gives these ranks
        or has a digit k other than 0, and so gives what the same profile
        with digit k at 0 gives: k's own digit is never read."""
        self._decode(i)
        v, succ, last, out = self._at[k], self._succ[k], -1, []
        for j in choices:
            ranks, p, _ = self._read(v, succ[j])
            out.append(ranks)
            last = max(last, p)
        i = self.past(i, last)
        if i // self.weight[k] % len(succ):  # a carry reached digit k
            i = self.past(i, k - 1)
        return out, i

    def has_move(self, i: int) -> int:
        """0 if no player has an improving move from profile i, which is when
        none has a best reply.  Else the first index past the largest block
        of profiles that share i's digits up to the last one that some move
        reads (its current play and the improving one): every profile of
        the block has that move."""
        digits, read = self._decode(i), self._read
        best = n = len(digits)
        for k, (v, succ, owner, c) in enumerate(zip(self._at, self._succ, self.owner, digits)):
            if k >= best:  # a move at k reads digit k: its block is no larger
                break
            now, last, _ = read(v, succ[c])
            for j, w in enumerate(succ):
                if j != c:
                    ranks, p, _ = read(v, w)
                    if ranks[owner - 1] < now[owner - 1]:
                        best = min(best, max(k, last, p))
        return self.past(i, best) if best < n else 0


def enumerate_profiles(game: Game, guard: int | None = PROFILE_GUARD):
    """All positional profiles, in lexicographic (vertex id, successor id) order.

    The i-th profile is profile index i of a dynamics graph."""
    profiles = Profiles(game)
    profiles.check(guard)
    yield from profiles


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
    from .graphs import Digraph, is_nontrivial, scc_stream

    names = game.vertices
    arena = Digraph.from_edges(names, game.edges).succ
    sccs = list(scc_stream(arena))
    for scc in sccs:
        if is_nontrivial(arena, scc):
            raise CyclicArena(f"cycle through {min(names[i] for i in scc)!r}")
    terms = game.terminals
    # paths_to[v]: all paths ending in v
    paths_to: dict[str, list[tuple[str, ...]]] = {v: [(v,)] for v in names}
    for v in [names[i] for (i,) in reversed(sccs)]:
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
