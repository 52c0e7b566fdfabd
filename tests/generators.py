"""Seeded random instance generators for the property suites.

Everything is driven by random.Random(seed) so failures reproduce from the
seed alone.  Sizes are kept tiny on purpose: the suites run a thousand
instances each and every statement we exercise is size-independent.
"""

import random
import string

from gamedyn import (
    DeleteEdge,
    DeleteVertex,
    DeletionScript,
    FinitePlay,
    Game,
    LassoPlay,
    PreferenceOrder,
    OneTargetGame,
    delete_edge,
    delete_vertex,
    is_dominated,
    positional_plays,
    validate_game,
)
from gamedyn.errors import NotDeletable


def random_game(seed, max_vertices=5, max_players=3, acyclic=False):
    rng = random.Random(seed)
    n = rng.randint(3, max_vertices)
    names = [f"v{i}" for i in range(n)]
    edges = set()
    for i, u in enumerate(names):
        pool = names[i + 1:] if acyclic else [w for w in names if w != u]
        if not pool:
            continue
        deg = rng.randint(1 if i == 0 else 0, min(2, len(pool)))
        edges |= {(u, w) for w in rng.sample(pool, deg)}
    vertices = tuple(names)
    terminals = {v for v in names if not any(u == v for u, _ in edges)}
    n_players = rng.randint(1, max_players)
    owner = {v: rng.randint(1, n_players) for v in names if v not in terminals}
    return _ranked_game(rng, n_players, vertices, edges, owner)


def _ranked_game(rng, n_players, vertices, edges, owner):
    """The game on the arena, each player ranking a random part of the
    positional plays from its own vertices in random classes."""
    skeleton = Game(n_players, vertices, frozenset(edges), owner,
                    tuple(() for _ in range(n_players)), {})
    prefs = []
    for player in range(1, n_players + 1):
        plays = []
        for v in sorted(owner):
            if owner[v] == player:
                plays.extend(positional_plays(skeleton, v))
        plays.sort(key=str)  # library iteration order is not seed-stable
        rng.shuffle(plays)
        plays = plays[: rng.randint(0, len(plays))]
        classes, current = [], []
        for p in plays:
            current.append(p)
            if rng.random() < 0.6:
                classes.append(tuple(current))
                current = []
        if current:
            classes.append(tuple(current))
        prefs.append(PreferenceOrder(tuple(classes)))
    game = Game(n_players, vertices, frozenset(edges), owner, tuple(prefs), {})
    if problems := validate_game(game):
        raise ValueError(f"generated an invalid game: {problems}")
    return game


def random_squeeze_game(seed):
    """A random game of 3 to 5 vertices and 1 or 2 players, denser than
    random_game's, in which v0 can be squeezed out: v0 has one successor,
    which no predecessor of v0 steps to, and every other vertex steps to
    any of the others.  Few players own many vertices each, so a ranked
    play through v0 more often closes its loop through v0 or starts at v0
    and lands on a play from v0's successor that the same player ranks."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(rng.randint(3, 5))]
    v, v2 = names[0], rng.choice(names[1:])
    edges = {(v, v2)}
    for u in names[1:]:
        pool = [w for w in names if w != u]
        edges |= {(u, w) for w in rng.sample(pool, rng.randint(0, len(pool)))}
    edges -= {(u, v2) for u, w in edges if w == v}
    terminals = {x for x in names if not any(u == x for u, _ in edges)}
    n_players = rng.randint(1, 2)
    owner = {x: rng.randint(1, n_players) for x in names if x not in terminals}
    return _ranked_game(rng, n_players, tuple(names), edges, owner)


def dense_squeeze_doc(n):
    """A game on a complete arena of n >= 2 non-terminals, with on the
    order of (n - 1)! positional plays from each, whose vertex v squeezes
    out at no cost, as a document of the input format: non-terminals
    a0 .. a(n-1), each with an edge to every other one and to the terminal
    t, except a1 -> a0, and v with the edges a1 -> v -> a0.  Player 2 owns
    a1 and v and ranks a1->v->a0->t above a1->t; player 1 owns the other
    a's and ranks nothing."""
    a = [f"a{i}" for i in range(n)]
    edges = [[x, y] for x in a for y in a + ["t"] if x != y and (x, y) != ("a1", "a0")]
    return {"players": 2, "vertices": a + ["v", "t"],
            "edges": edges + [["a1", "v"], ["v", "a0"]],
            "owner": {**{x: 1 for x in a}, "a1": 2, "v": 2},
            "preferences": {"1": [], "2": [[{"path": ["a1", "v", "a0", "t"]}],
                                           [{"path": ["a1", "t"]}]]}}


def _deletable_vertices(game):
    """Each vertex that delete_vertex accepts, in sorted order, mapped to
    the minor it leaves."""
    out = {}
    for v in sorted(game.vertex_set):
        try:
            out[v] = delete_vertex(game, v)
        except NotDeletable:
            continue
    return out


def random_script(seed, game, max_steps=2, dominant=False):
    """A valid deletion script for the game (possibly empty).

    Edge deletions are restricted to vertices of out-degree >= 2 so that no
    new terminal vertex appears: every play of the minor is then a play of
    the original game, which is what the rewriting of preferences under
    deletion presupposes.  With dominant=True every edge deletion removes a
    dominated edge, so the result is a dominant minor.
    """
    rng = random.Random(seed)
    steps = []
    g = game
    for _ in range(rng.randint(0, max_steps)):
        edge_moves = []
        for u, v in sorted(g.edges):
            siblings = [w for w in g.successors(u) if w != v]
            if not siblings:
                continue
            if dominant and not any(is_dominated(g, (u, v), (u, w))
                                    for w in siblings):
                continue
            edge_moves.append(DeleteEdge(u, v))
        minors = _deletable_vertices(g)
        vertex_moves = [DeleteVertex(v) for v in minors]
        moves = edge_moves + vertex_moves
        if not moves:
            break
        step = rng.choice(moves)
        if isinstance(step, DeleteEdge):
            g = delete_edge(g, (step.source, step.target))
        else:
            g = minors[step.vertex]
        steps.append(step)
        if not g.edges:
            break
    return DeletionScript(tuple(steps))


def random_notg(seed, max_nodes=5):
    """A random next-hop routing game: one origin, one vertex per player,
    next-hop preferences, suffix-closed permitted route sets."""
    rng = random.Random(seed)
    k = rng.randint(2, max_nodes - 1)  # player vertices; +1 for the origin
    origin = "t"
    names = [f"u{i}" for i in range(1, k + 1)]
    edges = {(u, origin) for u in names}  # always routable directly
    for u in names:
        for w in names:
            if w != u and rng.random() < 0.45:
                edges.add((u, w))
    owner = {v: i + 1 for i, v in enumerate(names)}

    # usable sub-arena: each edge kept with high probability; the direct edge
    # to the origin guarantees non-empty permitted sets when we force-keep it
    # for stranded vertices
    usable = {e for e in sorted(edges) if rng.random() < 0.8}

    def routes(v):
        out = []

        def walk(path):
            u = path[-1]
            if u == origin:
                out.append(tuple(path))
                return
            for _, w in sorted(e for e in usable if e[0] == u):
                if w not in path:
                    walk(path + [w])

        walk([v])
        return out

    for u in names:
        if not routes(u):
            usable.add((u, origin))

    permitted = {}
    prefs = []
    for i, v in enumerate(names):
        rs = routes(v)
        permitted[i + 1] = rs
        hops = sorted({r[1] for r in rs})
        rng.shuffle(hops)
        prefs.append(PreferenceOrder(tuple(
            tuple(FinitePlay(r) for r in rs if r[1] == hop) for hop in hops
        )))
    game = Game(k, tuple(names + [origin]), frozenset(edges), owner,
                tuple(prefs), {})
    return OneTargetGame(game, {
        i: frozenset(FinitePlay(r) for r in rs) for i, rs in permitted.items()
    })


def ring_doc(n, family, players=3, rng=None):
    """An n-vertex ring as the `ring` benchmark builds one, as a document of
    the input format: each ring vertex has an edge to the next and one to
    the terminal t.  Oscillating owners prefer one hop round, then the
    direct edge; converging owners the direct edge.  The vertices are
    v0 .. v(n-1) and t, owned in turn from v0; with rng, they get random
    four-letter names and the turns a random start, as the benchmark draws
    them, so that the ring's order is not the order of the names."""
    if rng is None:
        order, t, rot = [f"v{i}" for i in range(n)], "t", 0
    else:
        names = set()
        while len(names) < n + 1:
            names.add("".join(rng.choice(string.ascii_lowercase) for _ in range(4)))
        *order, t = rng.sample(sorted(names), n + 1)
        rot = rng.randrange(n)
    owner = {v: (i + rot) % players + 1 for i, v in enumerate(order)}
    nxt = {v: order[(i + 1) % n] for i, v in enumerate(order)}
    prefs = {}
    for p in range(1, players + 1):
        mine = [v for v in order if owner[v] == p]
        hop = [{"path": [v, nxt[v], t]} for v in mine]
        direct = [{"path": [v, t]} for v in mine]
        prefs[str(p)] = [hop, direct] if family == "oscillating" else [direct, hop]
    return {"players": players, "vertices": order + [t],
            "edges": [[v, nxt[v]] for v in order] + [[v, t] for v in order],
            "owner": owner, "preferences": prefs}


def game_doc(game):
    """The game as a document of the input format."""
    def play(p):
        if isinstance(p, LassoPlay):
            return {"lasso": {"stem": list(p.stem), "loop": list(p.loop)}}
        return {"path": list(p.path)}

    return {
        "players": game.n_players,
        "vertices": list(game.vertices),
        "edges": [[u, v, game.edge_labels[(u, v)]] if (u, v) in game.edge_labels else [u, v]
                  for u, v in sorted(game.edges)],
        "owner": dict(game.owner),
        "preferences": {str(i): [[play(p) for p in sorted(cls, key=str)] for cls in pref.ranks]
                        for i, pref in enumerate(game.preferences, start=1)},
    }
