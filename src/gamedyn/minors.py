"""Game minors: edge/vertex deletion with preference rewriting, dominated
edges, deletion scripts, and the search for the two-player disagreement
pattern as a minor."""

from __future__ import annotations

import itertools
from typing import Optional

from .errors import (
    PROFILE_GUARD,
    SEARCH_BUDGET,
    Frozen,
    GameDynError,
    NotDeletable,
    ScriptStepError,
    SearchBudgetExceeded,
    SourceMismatch,
    UnknownEdge,
    UnknownVertex,
)
from .game import (
    Comparison,
    FinitePlay,
    Game,
    LassoPlay,
    Play,
    PreferenceOrder,
    canonicalize,
    compare_plays,
    is_positional_from,
    play_is_valid,
)
from .strategy import Profiles


class DeleteEdge(Frozen):
    __slots__ = _fields = ("source", "target")

    def __str__(self):
        return f"edge ({self.source},{self.target})"


class DeleteVertex(Frozen):
    __slots__ = _fields = ("vertex",)

    def __str__(self):
        return f"vertex {self.vertex}"


class DeletionScript(Frozen):
    __slots__ = _fields = ("steps",)

    def to_json(self):
        out = []
        for s in self.steps:
            if isinstance(s, DeleteEdge):
                out.append({"edge": [s.source, s.target]})
            else:
                out.append({"vertex": s.vertex})
        return out

    @staticmethod
    def from_json(data) -> "DeletionScript":
        if not isinstance(data, list):
            raise GameDynError("a deletion script must be a list of steps")
        steps = []
        for i, rec in enumerate(data):
            if not isinstance(rec, dict) or len(rec) != 1:
                raise GameDynError(f"script step {i}: expected one-key record")
            if "edge" in rec:
                if not isinstance(rec["edge"], list) or len(rec["edge"]) != 2:
                    raise GameDynError(f"script step {i}: 'edge' must be [source, target]")
                u, v = rec["edge"]
                steps.append(DeleteEdge(str(u), str(v)))
            elif "vertex" in rec:
                steps.append(DeleteVertex(str(rec["vertex"])))
            else:
                raise GameDynError(f"script step {i}: unknown kind {set(rec)}")
        return DeletionScript(tuple(steps))


def _reduced(game: Game, vertices, edges, labels, squeeze=None) -> Game:
    """The game on a new arena, keeping the owners of the vertices that keep
    a successor and, in each rank class, the plays that are maximal walks of
    the arena; empty classes go.  With squeeze=(v, images) every play
    through v is first replaced by its image, and two classes of one player
    that come to share a play refuse the deletion of v."""
    vset, edges = frozenset(vertices), frozenset(edges)
    sources = {u for u, _ in edges}
    terms = vset - sources
    prefs = []
    for pref in game.preferences:
        ranks = []
        seen: dict[Play, int] = {}
        for idx, cls in enumerate(pref.ranks):
            kept = set()
            for p in cls:
                if squeeze is not None:
                    p = squeeze[1].get(p, p)
                    if seen.setdefault(p, idx) != idx:
                        raise NotDeletable(squeeze[0], NotDeletable.PREDECESSOR_CONFLICT)
                if play_is_valid(p, vset, edges, terms):
                    kept.add(p)
            if kept:
                ranks.append(frozenset(kept))
        prefs.append(PreferenceOrder(tuple(ranks)))
    owner = {x: p for x, p in game.owner.items() if x in sources}
    return Game(game.n_players, tuple(vertices), edges, owner, tuple(prefs), labels)


def delete_edge(game: Game, edge: tuple[str, str]) -> Game:
    """Remove one edge; preferences lose every play that used it, and
    vertices made terminal drop out of the owner map."""
    edge = tuple(edge)
    if edge not in game.edges:
        raise UnknownEdge(edge)
    labels = {e: l for e, l in game.edge_labels.items() if e != edge}
    return _reduced(game, game.vertices, game.edges - {edge}, labels)


def _drop_vertex_from_play(play: Play, v: str, succ: str) -> Play:
    """Remove every occurrence of v, each of which is followed by succ."""

    def strip(seq, cyclic_next=None):
        out = []
        n = len(seq)
        for i, x in enumerate(seq):
            if x != v:
                out.append(x)
                continue
            nxt = seq[i + 1] if i + 1 < n else cyclic_next
            if nxt != succ:  # only a play that is not a walk of the arena
                raise NotDeletable(v, NotDeletable.INVALID_PLAY)
        return out

    if isinstance(play, FinitePlay):
        return FinitePlay(tuple(strip(play.path)))
    stem = strip(play.stem, cyclic_next=(play.loop[0] if play.loop else None))
    loop = strip(play.loop, cyclic_next=play.loop[0])
    return LassoPlay(tuple(stem), tuple(loop))


def _preimages(q: Play, v: str, v2: str, preds: tuple[str, ...]) -> list[Play]:
    """The walks that dropping v, whose one successor is v2, turns into q.
    No predecessor of v steps to v2 (else the squeeze is refused first), so
    a walk has v before exactly those v2 that a predecessor of v precedes,
    the step that closes a loop included; a q that starts at v2 has one
    more, that walk with v in front."""

    def put_back(seq):  # v before each v2 but the first vertex of seq
        out = [seq[0]]
        for x, y in zip(seq, seq[1:]):
            if y == v2 and x in preds:
                out.append(v)
            out.append(y)
        return out

    if isinstance(q, FinitePlay):
        stem, loop = put_back(q.path), None
    else:  # the v before the loop's first vertex goes with the step into it
        stem = put_back(q.stem + q.loop[:1])[:-1]
        loop = put_back(q.loop + q.loop[:1])[:-1]
    heads = ([], [v]) if q.start == v2 else ([],)
    return [canonicalize(head + stem, loop) for head in heads]


def delete_vertex(game: Game, v: str) -> Game:
    """Remove a vertex: either isolated, or with a unique outgoing edge
    (v, v') such that no predecessor of v already reaches v' directly.

    In the second case every edge (u, v) is rewired to (u, v') and every
    play is rewritten by dropping its occurrences of v.
    """
    if v not in game.vertex_set:
        raise UnknownVertex(v)
    succs = game.successors(v)
    preds = game.predecessors(v) if len(succs) < 2 else ()  # two successors refuse v anyway
    if not succs and not preds:
        vertices = tuple(x for x in game.vertices if x != v)
        return _reduced(game, vertices, game.edges, dict(game.edge_labels))
    if len(succs) != 1:
        raise NotDeletable(v, NotDeletable.MULTIPLE_SUCCESSORS)
    (v2,) = succs
    for u in preds:
        if v2 in game.successors(u):
            raise NotDeletable(v, NotDeletable.PREDECESSOR_CONFLICT)

    # every ranked play through v, rewritten; a play that is no walk at v
    # refuses the deletion here, before any other check
    images = {p: _drop_vertex_from_play(p, v, v2)
              for pref in game.preferences for cls in pref.ranks for p in cls
              if v in p.vertices()}
    # Squeezing must not merge differently-ranked plays into one play of the
    # minor (e.g. dropping a cycle vertex can identify two rotations of the
    # cycle, one ranked and one implicitly worst).  A merge only matters
    # where a rewritten ranked play lands on a play whose start vertex the
    # same player still owns afterwards: those are the plays that enter the
    # player's outcome comparisons in the minor.  Only then are the plays
    # that land there, positional or ranked, put back and ranked.
    owner_after = {u: game.owner.get(u) for u, _ in game.edges if u != v}
    stakes = [(pref, {images[p] for cls in pref.ranks for p in cls
                      if p in images and owner_after.get(images[p].start) == i})
              for i, pref in enumerate(game.preferences, start=1)]
    if any(qs for _, qs in stakes):
        ranked = set().union(*(pref.mentioned() for pref in game.preferences))
        for pref, qs in stakes:
            if any(len({pref.rank_of(p) for p in _preimages(q, v, v2, preds)
                        if p in ranked or is_positional_from(game, p.start, p)}) > 1
                   for q in qs):
                raise NotDeletable(v, NotDeletable.PREFERENCE_COLLAPSE)

    edges = set(game.edges)
    labels = dict(game.edge_labels)
    edges.discard((v, v2))
    labels.pop((v, v2), None)
    for u in preds:
        edges.discard((u, v))
        edges.add((u, v2))
        if (u, v) in labels:
            labels[(u, v2)] = labels.pop((u, v))
    vertices = tuple(x for x in game.vertices if x != v)
    return _reduced(game, vertices, edges, labels, squeeze=(v, images))


def apply_step(game: Game, step: DeleteEdge | DeleteVertex) -> Game:
    if isinstance(step, DeleteEdge):
        return delete_edge(game, (step.source, step.target))
    return delete_vertex(game, step.vertex)


def apply_script(game: Game, script: DeletionScript) -> Game:
    for i, step in enumerate(script.steps):
        try:
            game = apply_step(game, step)
        except GameDynError as exc:
            raise ScriptStepError(i, str(step), exc) from exc
    return game


# ---------------------------------------------------------------------------
# Dominated edges


def is_dominated(game: Game, e1: tuple[str, str], e2: tuple[str, str], *,
                 guard: int | None = PROFILE_GUARD) -> bool:
    """True iff for every positional profile, the outcome from the shared
    source is strictly better through e2 than through e1 (for the source's
    owner)."""
    e1, e2 = tuple(e1), tuple(e2)
    for e in (e1, e2):
        if e not in game.edges:
            raise UnknownEdge(e)
    if e1[0] != e2[0]:
        raise SourceMismatch(e1, e2)
    if e1 == e2:
        return False
    profiles = Profiles(game)
    profiles.check(guard)
    k = profiles.movers.index(e1[0])
    j1, j2 = (profiles.choices[k].index(e[1]) for e in (e1, e2))
    move = (j2 - j1) * profiles.weight[k]
    # a block of profiles that reach one leaf of k's tree at a time
    i = 0
    while i < profiles.count:
        leaf, size = profiles.leaf(k, i)
        if move not in leaf[j1][0]:
            return False
        i = (i // size + 1) * size
    return True


def script_is_dominant(game: Game, script: DeletionScript, *,
                       guard: int | None = PROFILE_GUARD) -> bool:
    """True iff every edge deletion of the script removes an edge dominated
    by some sibling edge of the game reached at that step."""
    for step in script.steps:
        if isinstance(step, DeleteEdge):
            e = (step.source, step.target)
            siblings = [(step.source, w) for w in game.successors(step.source)
                        if w != step.target]
            if not any(is_dominated(game, e, f, guard=guard) for f in siblings):
                return False
        game = apply_step(game, step)
    return True


# ---------------------------------------------------------------------------
# The two-player disagreement pattern and its minor search


def is_dis_pattern(game: Game) -> bool:
    """Up to renaming: one terminal t, two vertices a, b of distinct
    players, edges {a->t, a->b, b->t, b->a}, and each owner strictly
    prefers the indirect route over the direct one."""
    if len(game.vertices) != 3:
        return False
    terms = game.terminals
    if len(terms) != 1:
        return False
    (t,) = terms
    a, b = sorted(game.vertex_set - {t})
    if game.edges != frozenset({(a, t), (a, b), (b, t), (b, a)}):
        return False
    i, j = game.owner.get(a), game.owner.get(b)
    if i is None or j is None or i == j:
        return False
    return (
        compare_plays(game, i, FinitePlay((a, t)), FinitePlay((a, b, t)))
        is Comparison.LESS
        and compare_plays(game, j, FinitePlay((b, t)), FinitePlay((b, a, t)))
        is Comparison.LESS
    )


def _notg_dis_script(game: Game):
    """Constructive search when the game is a valid next-hop-only routing
    game: find a strong dispute wheel, extract its ring minor, then squeeze
    the ring down to two pivots.

    Returns ("found", script), ("absent", None) for a definitive negative,
    or ("inapplicable", None) when the fast path does not apply.
    """
    from . import spp  # deferred: spp depends on this module

    try:
        otg = spp.otg_from_game(game)
    except GameDynError:
        return ("inapplicable", None)
    if spp.validate_otg(otg.game, otg.permitted) or not spp.is_notg(otg):
        return ("inapplicable", None)
    sdw = spp.find_sdw(otg)
    if sdw is None:
        return ("absent", None)  # the wheel search is exhaustive
    ring, ring_script = spp.extract_sdw_minor(otg, sdw)
    steps = list(ring_script.steps)
    k = len(sdw.pivots)
    pivots = list(sdw.pivots)
    (target,) = ring.terminals
    for i in range(2, k):
        steps.append(DeleteEdge(pivots[i], target))
        ring = delete_edge(ring, (pivots[i], target))
        steps.append(DeleteVertex(pivots[i]))
        ring = delete_vertex(ring, pivots[i])
    if is_dis_pattern(ring):
        return ("found", DeletionScript(tuple(steps)))
    return ("inapplicable", None)  # fall back to the generic search


def find_dis_minor(game: Game, *, budget: int = SEARCH_BUDGET) -> Optional[DeletionScript]:
    """A deletion script turning the game into the disagreement pattern, or
    None when an exhaustive search proves there is none.

    Raises SearchBudgetExceeded when the generic backtracking search runs
    out of budget before either outcome.
    """
    if is_dis_pattern(game):
        return DeletionScript(())
    status, fast = _notg_dis_script(game)
    if status == "found":
        return fast
    if status == "absent":
        return None

    def key(g):
        # every game here lists its vertices and owners in the root's order,
        # so equal keys are exactly equal vertex sets, edges, owners and ranks
        return g.vertices, g.edges, tuple(g.owner.items()), tuple(p.ranks for p in g.preferences)

    # depth first on an explicit stack, which holds per game on the current
    # path its untried moves; steps[i] leads from stack[i] to stack[i + 1]
    visited = {key(game)}
    spent = 0
    steps: list[DeleteEdge | DeleteVertex] = []
    stack = []
    g = game
    while g is not None:
        spent += 1
        if spent > budget:
            raise SearchBudgetExceeded(budget, "expansions")
        if is_dis_pattern(g):
            return DeletionScript(tuple(steps))
        moves = ()
        if len(g.vertices) >= 3:  # apply_step refuses the moves that do not apply
            moves = itertools.chain((DeleteEdge(u, v) for u, v in sorted(g.edges)),
                                    (DeleteVertex(v) for v in g.non_terminals()))
        stack.append((g, iter(moves)))
        g = None
        while stack and g is None:
            parent, untried = stack[-1]
            for step in untried:
                try:
                    child = apply_step(parent, step)
                except GameDynError:
                    continue
                k = key(child)
                if k not in visited:
                    visited.add(k)
                    steps.append(step)
                    g = child
                    break
            else:
                stack.pop()
                del steps[-1:]
    return None
