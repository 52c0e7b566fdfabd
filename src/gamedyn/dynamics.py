"""Construction of the strategy-update dynamics graphs and the belief graph."""

from __future__ import annotations

from functools import cached_property

from .errors import (KINDS, PROFILE_GUARD, Frozen, NonDeterministicBestReply,
                     StateSpaceTooLarge)
from .game import Game
from .graphs import Digraph, SccReplay, scc_stream
from .strategy import Profiles, unfold


class Rows(dict):
    """n rows, row i made by fill(i) the first time it is read.

    It reads as an int graph does (`[i]`, `len`, iteration in index order),
    so every walk runs on it unchanged; `get(i)` is row i if it is built and
    None if not, and builds nothing.  A dict, so that a built row is read at
    dict speed.
    """

    __slots__ = ("n", "fill")

    def __init__(self, n: int, fill):
        super().__init__()
        self.n, self.fill = n, fill

    def __missing__(self, i):
        if not 0 <= i < self.n:
            raise IndexError(f"row {i} of {self.n}")
        row = self[i] = self.fill(i)
        return row

    def __len__(self):
        return self.n

    def __iter__(self):
        return map(self.__getitem__, range(self.n))


class DynamicsGraph(Frozen):
    """Update dynamics over positional profiles.

    Node i is profile i of the numbering `nodes`, a Profiles, which makes
    a profile only when one is read.  succ[i] lists the indices node
    i updates to, ascending, and changed[i] the players each of those
    updates changes, so index order is the one successor order.  Both are
    Rows: succ[i] is worked out when first read, and changed[i] from i and
    succ[i].  Graphs are equal only to themselves.
    """

    _fields = ("kind", "nodes", "succ", "changed")
    __slots__ = _fields + ("__dict__",)  # the __dict__ holds names and sccs
    __eq__, __hash__ = object.__eq__, object.__hash__

    @cached_property
    def names(self) -> Rows:
        """Compact display name per index, each made when first read."""
        nodes, one_step = self.nodes, self.kind == "1"  # no cycle through the graph
        return Rows(nodes.count, lambda i: nodes.name(i, one_step))

    @cached_property
    def sccs(self) -> SccReplay:
        """Tarjan's components of succ, in completion order, from one pass
        that every reader shares and that goes only as far as one has read."""
        return SccReplay(self.succ)

    @property
    def edges(self) -> frozenset:
        """(src, dst, changed players) triples, derived from the successor lists."""
        nodes = tuple(self.nodes)
        return frozenset((u, nodes[j], c) for u, js, cs in zip(nodes, self.succ, self.changed)
                         for j, c in zip(js, cs))

    def digraph(self) -> Digraph:
        return Digraph(tuple(self.nodes), tuple(self.succ))

    def label(self, node) -> str:
        return self.names[self.nodes.index(node)]


class _Players(dict):
    """Bit mask of player indices -> frozenset of those players, made once."""

    def __missing__(self, mask):
        who = self[mask] = frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)
        return who


def build_dynamics(game: Game, kind: str, guard: int | None = PROFILE_GUARD) -> DynamicsGraph:
    """Dynamics graph over positional profiles for kind in KINDS.

    Kind 1, the one-step dynamics of an acyclic arena, is p1 on its tree
    unfolding, with profiles labelled by history; its equilibria are the
    subgame perfect equilibria.

    No row is built here: each is built when first read, and the graph
    counts the updates of the rows it stores.  A read that would take that
    count past guard raises StateSpaceTooLarge and stores nothing, so a
    query answers wherever the rows it reads fit; guard None is no bound.
    """
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"unknown dynamics kind {kind!r}")
    if kind == "1":
        game = unfold(game)
    concurrent = kind.endswith("pc")
    profiles = Profiles(game)
    profiles.check(guard)
    best_reply = kind.startswith("b")
    limit = float("inf") if guard is None else guard
    stored = 0

    def updates(p: int) -> tuple:
        """Row p of succ: p plus each player's offset, or for concurrent
        kinds plus each sum of offsets of distinct players, counted
        against the guard before it is stored."""
        nonlocal stored
        by_player = profiles.moves_at(p, best_reply)
        if concurrent:
            out = [p]
            for offsets in by_player:
                if offsets:
                    out += [t + d for t in out for d in offsets]
            del out[0]
        else:
            out = [p + d for offsets in by_player for d in offsets]
        out.sort()
        count = stored + len(out)
        if count > limit:
            raise StateSpaceTooLarge(count, guard, f"{kind} dynamics has over {guard} updates")
        stored = count
        return tuple(out)

    groups = _Players()
    # per non-terminal, last digit first: its radix and its owner's bit
    places = [(len(s), 1 << o - 1) for s, o in zip(profiles.choices, profiles.owner)][::-1]

    def players(p: int) -> tuple:
        """Row p of changed: per target of row p of succ, the owners of the
        non-terminals whose digit differs from p's, read from the last
        digit up to the last one that differs."""
        out = []
        for t in succ[p]:
            a, b, mask = t, p, 0
            for r, bit in places:
                if a % r != b % r:
                    mask |= bit
                a //= r
                b //= r
                if a == b:
                    break
            out.append(groups[mask])
        return tuple(out)

    # changed refers to succ, never the other way round, so a graph is
    # freed as soon as it is dropped
    succ, changed = Rows(profiles.count, updates), Rows(profiles.count, players)
    return DynamicsGraph(kind=kind, nodes=profiles, succ=succ, changed=changed)


# ---------------------------------------------------------------------------
# Belief dynamics graph


class BeliefNode(Frozen):
    """Row j is player j's belief: a full positional profile with row j's own
    component being player j's actual strategy."""

    __slots__ = _fields = ("rows",)  # one StrategyProfile per player, index j-1


class BeliefGraph(Frozen):
    """Node i is the i-th BeliefNode, whose rows' profile indices, read as
    digits of base profiles.count, spell i; delta[a][i] is the index node i
    steps to under label a.  Graphs are equal only to themselves."""

    _fields = ("nodes", "n_players", "delta", "names", "v0")
    __slots__ = _fields + ("profiles", "__dict__")  # the __dict__ holds succ, sccs and closure
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, nodes, n_players: int, delta: tuple, names, v0: frozenset,
                 profiles: Profiles):
        # delta: per label, a target index per node; names: a display name
        # per index; v0: the indices of the nodes whose rows all equal the
        # true profile
        self._set(nodes=nodes, n_players=n_players, delta=delta, names=names, v0=v0,
                  profiles=profiles)

    @property
    def label_set(self):
        return tuple(range(self.n_players + 1))

    @cached_property
    def succ(self) -> Rows:
        """Per index, the distinct targets of its edges, ascending, each
        worked out when first read."""
        delta = self.delta
        return Rows(len(self.nodes), lambda i: tuple(sorted({row[i] for row in delta})))

    @cached_property
    def sccs(self) -> SccReplay:
        """Tarjan's components of succ, in completion order, from one pass
        that every reader shares and that goes only as far as one has read."""
        return SccReplay(self.succ)

    @cached_property
    def closure(self) -> list:
        """Tarjan's components of R, the nodes that D, label 0's targets,
        reach, in scc_stream's order from D ascending.

        Every node has a label-0 edge into D, and R is closed, so every sink
        lies in D, and every bottom component, and every component with an
        internal label-0 edge, lies in R and is a component of the graph.
        """
        return list(scc_stream(self.succ, sorted(set(self.delta[0]))))

    def index(self, node: BeliefNode) -> int:
        """The node's index, from its rows' profile indices."""
        i = 0
        for row in node.rows:
            i = i * self.profiles.count + self.profiles.index(row)
        return i

    def label(self, node: BeliefNode) -> str:
        return self.names[self.index(node)]


def build_belief_graph(game: Game, guard: int | None = PROFILE_GUARD) -> BeliefGraph:
    """The complete deterministic labelled graph over belief matrices.

    Label 0 is the global knowledge update; label i applies player i's unique
    strictly-improving best-reply one-state update under i's current belief,
    or stutters when no improving move exists.

    Label 0's row is built here, from the owners' digits alone; the rows of
    the other labels, the nodes and their names are Rows, each built when
    first read.
    """
    n = game.n_players
    profiles = Profiles(game)
    base = profiles.count
    size = base ** n
    if guard is not None and size > guard:
        raise StateSpaceTooLarge(size, guard)
    # node i has rows (r_1, ..., r_n) with i = sum of r_j * place[j - 1]
    place = [base ** (n - j) for j in range(1, n + 1)]
    diag = sum(place)
    moves = [profiles.moves_at(r, best_reply=True) for r in range(base)]
    # per player, per profile: what its update adds to a node's index; the
    # pairs are checked in the order a walk of the nodes first meets them
    step = [[0] * base for _ in range(n)]
    first = [(0, player) for player in range(1, n + 1)]
    for r, player in first + [(r, p) for p in range(n, 0, -1) for r in range(1, base)]:
        targets = moves[r][player - 1]
        if len(targets) > 1:
            raise NonDeterministicBestReply(
                player, sorted((profiles[r + d] for d in targets), key=repr))
        if targets:
            step[player - 1][r] = targets[0] * place[player - 1]

    # label 0 sends node i to the node all of whose rows are its true
    # profile, the sum of each owner's part of its own row
    to_true = [0]
    for player in range(1, n + 1):
        part = [t * diag for t in profiles.own_part(player)]
        to_true = [t + d for t in to_true for d in part]

    def update(player: int) -> Rows:
        moved, at = step[player - 1], place[player - 1]
        return Rows(size, lambda i: i + moved[i // at % base])

    def rows(i: int) -> list:
        return [i // at % base for at in place]

    shown = Rows(base, profiles.name)
    nodes = Rows(size, lambda i: BeliefNode(tuple(map(profiles.__getitem__, rows(i)))))
    names = Rows(size, lambda i: "|".join(map(shown.__getitem__, rows(i))))
    delta = (tuple(to_true),) + tuple(update(player) for player in range(1, n + 1))
    # node r * diag has every row r, the one kind of node label 0 fixes
    v0 = frozenset(range(0, size, diag))
    return BeliefGraph(nodes=nodes, n_players=n, delta=delta, names=names, v0=v0,
                       profiles=profiles)
