"""Arena representation, plays, preferences, parsing and validation.

A game is a finite directed arena whose non-terminal vertices are owned by
players, together with one ordinal preference order per player over the
positional plays (finite paths ending in a terminal vertex, or lassos).
"""

from __future__ import annotations

import enum
import json
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import Frozen, GameFormatError, UnknownVertex


# ---------------------------------------------------------------------------
# Plays


class FinitePlay(Frozen):
    """A maximal finite path; the last vertex is terminal."""

    __slots__ = _fields = ("path",)

    @property
    def start(self):
        return self.path[0]

    def vertices(self):
        return set(self.path)

    def steps(self):
        return list(zip(self.path, self.path[1:]))

    def __str__(self):
        return "->".join(self.path)


class LassoPlay(Frozen):
    """An ultimately-periodic infinite path: stem followed by a repeated loop.

    Canonical form: the loop is the primitive period and the stem is the
    shortest prefix realising the infinite word (the loop rotation is then
    forced by the word itself).
    """

    __slots__ = _fields = ("stem", "loop")

    @property
    def start(self):
        return self.stem[0] if self.stem else self.loop[0]

    def vertices(self):
        return set(self.stem) | set(self.loop)

    def steps(self):
        seq = self.stem + self.loop
        pairs = list(zip(seq, seq[1:]))
        pairs.append((self.loop[-1], self.loop[0]))
        return pairs

    def __str__(self):
        stem = "->".join(self.stem)
        loop = "->".join(self.loop)
        return (stem + "->" if stem else "") + f"({loop})*"


Play = FinitePlay | LassoPlay


def _primitive_period(loop):
    """Shortest word w such that loop is a power of w."""
    n = len(loop)
    for k in range(1, n + 1):
        if n % k == 0 and loop == loop[:k] * (n // k):
            return loop[:k]
    return loop


def canonicalize(path: Iterable[str], loop: Iterable[str] | None = None) -> Play:
    """Normalise a syntactic maximal path into a canonical Play.

    With ``loop=None`` the sequence must end in a terminal vertex.
    For lassos the loop is reduced to its primitive period and the stem is
    shortened by absorbing trailing vertices into loop rotations.
    """
    stem = tuple(path)
    if loop is None:
        if not stem:
            raise GameFormatError("empty play")
        return FinitePlay(stem)
    loop = _primitive_period(tuple(loop))
    if not loop:
        raise GameFormatError("empty lasso loop")
    # Absorb the stem tail: s + (l1..lk)^w == s[:-1] + (lk l1..lk-1)^w
    # whenever the stem ends with lk.
    stem = list(stem)
    loop = list(loop)
    while stem and stem[-1] == loop[-1]:
        stem.pop()
        loop = [loop[-1]] + loop[:-1]
    return LassoPlay(tuple(stem), tuple(loop))


def play_is_valid(play: Play, vertices: frozenset[str], edges: frozenset[tuple[str, str]],
                  terminals: frozenset[str]) -> bool:
    """True iff the play is a maximal walk of the arena: its vertices are
    vertices, its steps edges, and a finite play ends in a terminal."""
    return (play.vertices() <= vertices
            and all(step in edges for step in play.steps())
            and (not isinstance(play, FinitePlay) or play.path[-1] in terminals))


# ---------------------------------------------------------------------------
# Preferences


class Comparison(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class PreferenceOrder(Frozen):
    """Ordinal ranks, best class first; unmentioned plays share a bottom class."""

    _fields = ("ranks",)
    __slots__ = _fields + ("__dict__",)  # the __dict__ holds _rank

    @cached_property
    def _rank(self) -> dict:
        """play -> index of the first class holding it."""
        rank = {}
        for i, cls in enumerate(self.ranks):
            for play in cls:
                rank.setdefault(play, i)
        return rank

    def rank_of(self, play: Play) -> int:
        return self._rank.get(play, len(self.ranks))

    def compare(self, p1: Play, p2: Play) -> Comparison:
        """LESS iff p1 is strictly worse than p2."""
        r1, r2 = self.rank_of(p1), self.rank_of(p2)
        if r1 > r2:
            return Comparison.LESS
        if r1 < r2:
            return Comparison.GREATER
        return Comparison.EQUAL

    def mentioned(self):
        return set(self._rank)


# ---------------------------------------------------------------------------
# Games


class Game(Frozen):
    _fields = ("n_players", "vertices", "edges", "owner", "preferences", "edge_labels")
    __slots__ = _fields + ("vertex_set", "terminals", "_succ", "_ranked")

    def __init__(self, n_players: int, vertices: tuple[str, ...],
                 edges: frozenset[tuple[str, str]], owner: Mapping[str, int],
                 preferences: tuple[PreferenceOrder, ...],
                 edge_labels: Mapping[tuple[str, str], str]):
        succ: dict[str, list[str]] = {}
        for u, w in edges:
            succ.setdefault(u, []).append(w)
        self._set(n_players=n_players, vertices=vertices, edges=edges, owner=owner,
                  preferences=preferences, edge_labels=edge_labels,
                  vertex_set=frozenset(vertices),
                  terminals=frozenset(v for v in vertices if v not in succ),
                  _succ={u: tuple(sorted(ws)) for u, ws in succ.items()})

    def successors(self, v: str) -> tuple[str, ...]:
        return self._succ.get(v, ())

    def predecessors(self, v: str) -> tuple[str, ...]:
        return tuple(sorted(u for u, w in self.edges if w == v))

    def non_terminals(self) -> tuple[str, ...]:
        terms = self.terminals
        return tuple(v for v in sorted(self.vertices) if v not in terms)

    def preference(self, player: int) -> PreferenceOrder:
        return self.preferences[player - 1]

    def owned_by(self, player: int) -> tuple[str, ...]:
        return tuple(v for v in sorted(self.owner) if self.owner[v] == player)

    def rank_table(self) -> tuple[dict, tuple[int, ...]]:
        """A trie of the ranked plays' paths (stem + loop) over vertex
        indices, per index the trie of the paths that go on from it; and
        the ranks of an unranked play.  The node a path ends at holds the
        play's ranks, one per player, under -1 for a finite play and
        -2 - len(stem) for a lasso: keys no index takes.  A play in two
        classes of one player takes the first, as in rank_of.  A walk that
        leaves the trie is no ranked play, wherever it goes on.  Built on
        first use and kept outside the fields."""
        try:
            return self._ranked
        except AttributeError:
            pass
        vid = {v: i for i, v in enumerate(self.vertices)}
        bottom = tuple(len(pref.ranks) for pref in self.preferences)
        root: dict = {}
        for player, pref in enumerate(self.preferences):
            for r, cls in reversed(list(enumerate(pref.ranks))):  # the first is written last
                for play in cls:
                    seq, end = ((play.path, -1) if isinstance(play, FinitePlay)
                                else (play.stem + play.loop, -2 - len(play.stem)))
                    if all(x in vid for x in seq):  # else it is never a walk
                        node = root
                        for x in seq:
                            node = node.setdefault(vid[x], {})
                        ranks = node.get(end, bottom)
                        node[end] = ranks[:player] + (r,) + ranks[player + 1:]
        object.__setattr__(self, "_ranked", (root, bottom))
        return self._ranked


def compare_plays(game: Game, player: int, p1: Play, p2: Play) -> Comparison:
    return game.preference(player).compare(p1, p2)


# ---------------------------------------------------------------------------
# Play enumeration


def positional_plays(game: Game, v: str) -> frozenset[Play]:
    """All plays from v that some positional strategy profile produces.

    These are exactly the rho-shaped walks: a simple path to a terminal
    vertex, or a simple stem entering a simple cycle.
    """
    return frozenset(walk_positional_plays(game, v))


def walk_positional_plays(game: Game, v: str) -> Iterator[Play]:
    """The plays of positional_plays(game, v), each once, depth first."""
    if v not in game.vertex_set:
        raise UnknownVertex(v)
    terms = game.terminals
    if v in terms:
        yield FinitePlay((v,))
        return
    path, on_path = [v], {v: 0}  # on_path: vertex -> its index in path
    work = [iter(game.successors(v))]  # one successor iterator per path vertex
    while work:
        for w in work[-1]:
            if w in on_path:
                i = on_path[w]
                yield canonicalize(path[:i], path[i:])
            elif w in terms:
                yield FinitePlay(tuple(path) + (w,))
            else:
                on_path[w] = len(path)
                path.append(w)
                work.append(iter(game.successors(w)))
                break
        else:
            work.pop()
            del on_path[path.pop()]


def is_positional_from(game: Game, v: str, play: Play) -> bool:
    """True iff play is in positional_plays(game, v): it starts at v, visits
    no vertex twice, its steps are edges, and a finite play ends at a
    terminal.  Decided from the play alone, without the enumeration."""
    finite = isinstance(play, FinitePlay)
    seq = play.path if finite else play.stem + play.loop
    return (bool(seq) and seq[0] == v and len(set(seq)) == len(seq)
            and (seq[-1] in game.terminals if finite else bool(play.loop))
            and game.edges.issuperset(play.steps()))


# ---------------------------------------------------------------------------
# Parsing and validation

_GAME_FIELDS = {"players", "vertices", "edges", "owner", "preferences"}


def _is_id_list(seq):
    return isinstance(seq, list) and all(isinstance(x, str) for x in seq)


def _parse_play(obj, where):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise GameFormatError("a play is {'path': [...]} or {'lasso': {...}}", where)
    if "path" in obj:
        seq = obj["path"]
        if not _is_id_list(seq) or not seq:
            raise GameFormatError("'path' must be a non-empty list of vertex ids", where)
        return canonicalize(seq)
    if "lasso" in obj:
        body = obj["lasso"]
        if not isinstance(body, dict) or set(body) != {"stem", "loop"}:
            raise GameFormatError("'lasso' must have exactly 'stem' and 'loop'", where)
        if not (_is_id_list(body["stem"]) and _is_id_list(body["loop"])):
            raise GameFormatError("'stem' and 'loop' must be lists of vertex ids", where)
        return canonicalize(body["stem"], body["loop"])
    raise GameFormatError(f"unknown play form {sorted(obj)}", where)


def parse_game(text: str) -> Game:
    """Parse and validate a game document (JSON syntax, see README)."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GameFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GameFormatError("top level must be an object")
    unknown = set(doc) - _GAME_FIELDS
    if unknown:
        raise GameFormatError(f"unknown fields {sorted(unknown)}")
    missing = _GAME_FIELDS - set(doc)
    if missing:
        raise GameFormatError(f"missing fields {sorted(missing)}")

    n = doc["players"]
    if type(n) is not int or n < 1:
        raise GameFormatError("'players' must be a positive integer")
    vertices = doc["vertices"]
    if not _is_id_list(vertices) or len(set(vertices)) != len(vertices):
        raise GameFormatError("'vertices' must be a list of unique id strings")
    vset = set(vertices)
    for field, kind, name in (("edges", list, "a list"), ("owner", dict, "an object"),
                              ("preferences", dict, "an object")):
        if not isinstance(doc[field], kind):
            raise GameFormatError(f"'{field}' must be {name}")

    edges = set()
    labels = {}
    for item in doc["edges"]:
        if not _is_id_list(item) or len(item) not in (2, 3):
            raise GameFormatError(f"edge {item} must be [from, to] or [from, to, label]")
        u, v = item[0], item[1]
        for x in (u, v):
            if x not in vset:
                raise UnknownVertex(x, context=f"edge {item[:2]}")
        if (u, v) in edges:
            raise GameFormatError(f"duplicate edge {[u, v]}")
        edges.add((u, v))
        if len(item) == 3:
            labels[(u, v)] = item[2]

    owner = {}
    for v, p in doc["owner"].items():
        if v not in vset:
            raise UnknownVertex(v, context="owner map")
        if type(p) is not int or not 1 <= p <= n:
            raise GameFormatError(f"owner of {v!r} must be a player in 1..{n}")
        owner[v] = p

    prefs = []
    for i in range(1, n + 1):
        ranks = []
        classes = doc["preferences"].get(str(i), [])
        if not isinstance(classes, list) or not all(isinstance(c, list) for c in classes):
            raise GameFormatError(f"preferences[{i}] must be a list of rank classes (lists)")
        for j, cls in enumerate(classes):
            plays = set()
            for obj in cls:
                play = _parse_play(obj, where=f"preferences[{i}][{j}]")
                for x in play.vertices():
                    if x not in vset:
                        raise UnknownVertex(x, context=f"preferences[{i}][{j}]")
                plays.add(play)
            ranks.append(frozenset(plays))
        prefs.append(PreferenceOrder(tuple(ranks)))
    unknown_players = set(doc["preferences"]) - {str(i) for i in range(1, n + 1)}
    if unknown_players:
        raise GameFormatError(f"preferences for unknown players {sorted(unknown_players)}")

    game = Game(
        n_players=n,
        vertices=tuple(sorted(vertices)),
        edges=frozenset(edges),
        owner=owner,
        preferences=tuple(prefs),
        edge_labels=labels,
    )
    problems = validate_game(game)
    if problems:
        raise GameFormatError("; ".join(problems))
    return game


def validate_game(game: Game) -> list[str]:
    """Diagnostics for every violated Game invariant (empty list iff valid)."""
    out = []
    terms = game.terminals
    for v in game.vertices:
        if v in terms and v in game.owner:
            out.append(f"TerminalOwned({v})")
        if v not in terms and v not in game.owner:
            out.append(f"MissingOwner({v})")
    for v in game.owner:
        if v not in game.vertex_set:
            out.append(f"UnknownVertex({v})")
    for u, v in game.edges:
        if u not in game.vertex_set or v not in game.vertex_set:
            out.append(f"UnknownEdgeEndpoint(({u},{v}))")
    for i, pref in enumerate(game.preferences, start=1):
        seen = set()
        for cls in pref.ranks:
            for play in cls:
                if play in seen:
                    out.append(f"DuplicatePlay(player {i}, {play})")
                seen.add(play)
                if not play_is_valid(play, game.vertex_set, game.edges, terms):
                    out.append(f"InvalidPlay(player {i}, {play})")
                elif isinstance(play, LassoPlay) and canonicalize(play.stem, play.loop) != play:
                    out.append(f"NonCanonicalPlay(player {i}, {play})")
    return out
