"""Independent brute-force oracles, implemented before the library code they
check and kept deliberately naive.  Do not "optimize" these against the
library: their value is that they share no code with it."""

from itertools import permutations, product


def closure_by_matrix_powers(nodes, edges):
    """Transitive closure by boolean matrix powering, O(n^4)."""
    nodes = list(nodes)
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    adj = [[False] * n for _ in range(n)]
    for u, v in edges:
        adj[idx[u]][idx[v]] = True
    closure = [row[:] for row in adj]
    for _ in range(n):
        nxt = [row[:] for row in closure]
        for i in range(n):
            for j in range(n):
                if not nxt[i][j]:
                    nxt[i][j] = any(closure[i][k] and adj[k][j] for k in range(n))
        if nxt == closure:
            break
        closure = nxt
    return {(nodes[i], nodes[j]) for i in range(n) for j in range(n) if closure[i][j]}


def fair_cycle_exists(nodes, edges, players):
    """Brute-force: does some closed walk satisfy, for every player, either
    "switches on the walk" or "visits a node where it cannot switch"?

    Explores the product of the graph with the monotone set of satisfied
    players; any fair ultimately-periodic path collapses to such a walk and
    conversely any such walk pumps to a fair path.
    """
    players = frozenset(players)
    out = {n: [] for n in nodes}
    for u, v, changed in edges:
        out[u].append((v, frozenset(changed)))
    # players unable to switch at n: no outgoing edge changes them
    stuck = {n: players - frozenset().union(*(c for _, c in out[n]), frozenset())
             for n in nodes}
    for start in nodes:
        seen = set()
        frontier = [(start, stuck[start])]
        hops = {(start, stuck[start]): 0}
        while frontier:
            node, sat = frontier.pop()
            for succ, changed in out[node]:
                nxt = (succ, sat | changed | stuck[succ])
                if succ == start and nxt[1] == players:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return False


def is_closed_walk(nodes, succ, cycle):
    """Is cycle a non-empty closed walk (last -> first an edge too) of the
    graph whose node i is nodes[i] and whose row succ[i] lists node i's
    successor indices?  False if a node of cycle is not among nodes."""
    pos = {n: i for i, n in enumerate(nodes)}
    if not cycle or any(n not in pos for n in cycle):
        return False
    return all(pos[b] in succ[pos[a]] for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def is_fair_walk(nodes, edges, players, cycle):
    """Is cycle a non-empty closed walk (last -> first a step too) over the
    (node, target, changed) triples edges on which every player either
    changes on some step, or has, at some node of the walk, no outgoing
    edge that changes it?  False if a node of cycle is not among nodes."""
    players = tuple(players)
    out = {n: {} for n in nodes}
    for u, v, changed in edges:
        out[u][v] = frozenset(changed)
    if not cycle or any(n not in out for n in cycle):
        return False
    steps = list(zip(cycle, cycle[1:] + cycle[:1]))
    if any(b not in out[a] for a, b in steps):
        return False
    switched = frozenset().union(*(out[a][b] for a, b in steps))
    for i in players:
        if i not in switched and all(any(i in c for c in out[n].values()) for n in cycle):
            return False
    return True


def is_label_fair_walk(nodes, delta, cycle):
    """Is cycle a closed walk of the complete deterministic labelled graph
    whose label a sends node i to delta[a][i], on which every label occurs
    on some step?  A walk leaves its self loops implicit, so a label whose
    edge stays put at a node of the walk occurs there: this is is_fair_walk
    with the labels as its players and the self loops left out."""
    labels = {}
    for a, row in enumerate(delta):
        for i, j in enumerate(row):
            if i != j:
                labels.setdefault((i, j), set()).add(a)
    edges = [(nodes[i], nodes[j], found) for (i, j), found in labels.items()]
    return is_fair_walk(nodes, edges, range(len(delta)), cycle)


def largest_simulation_by_enumeration(small_nodes, small_edges, big_nodes, big_edges):
    """The largest simulation, as the union of every relation R that passes
    the step-matching condition: for each (a, b) in R and each edge a -> a2
    there is an edge b -> b2 with (a2, b2) in R.  Tries all 2^(|small|*|big|)
    relations, so only usable for graphs of a few nodes."""
    small_edges, big_edges = set(small_edges), set(big_edges)
    candidates = [(a, b) for a in small_nodes for b in big_nodes]

    def ok(rel):
        return all(any((b, b2) in big_edges and (a2, b2) in rel for b2 in big_nodes)
                   for a, b in rel for a2 in small_nodes if (a, a2) in small_edges)

    largest = set()
    for keep in product((False, True), repeat=len(candidates)):
        rel = {pair for pair, k in zip(candidates, keep) if k}
        if ok(rel):
            largest |= rel
    return largest


def elementary_cycles_by_enumeration(nodes, edges):
    """Every elementary cycle, as a tuple that starts at its repr-least node,
    found by trying every sequence of distinct nodes.  Exponential; only for
    graphs of a few nodes."""
    edges = set(edges)
    out = set()
    for k in range(1, len(nodes) + 1):
        for seq in permutations(nodes, k):
            if min(seq, key=repr) != seq[0]:
                continue
            if all((a, b) in edges for a, b in zip(seq, seq[1:] + seq[:1])):
                out.add(seq)
    return out


def one_step_by_enumeration(vertices, edges, owners, ranks):
    """The one-step dynamics of an acyclic arena, by brute force.

    ``ranks`` maps each player to {path: rank}, lower is better; unranked
    paths share the bottom class.  A history is a path that does not end in
    a terminal vertex; a profile picks a successor for every history.  An
    update changes the choice at one history h and is kept when the owner of
    h[-1] strictly prefers the path it then follows from h.  Returns the
    profile labels, in enumeration order, and the set of updates as
    (label, label, (player,)) triples.
    """
    succ = {v: sorted(w for u, w in edges if u == v) for v in vertices}
    histories = []
    todo = [(v,) for v in vertices]
    while todo:
        h = todo.pop()
        if succ[h[-1]]:
            histories.append(h)
            todo.extend(h + (w,) for w in succ[h[-1]])
    histories.sort()

    def follow(choice, h):
        path = h
        while succ[path[-1]]:
            path = path + (choice[path],)
        return path

    def label(choice):
        return ",".join(f"{'.'.join(h)}:{choice[h]}" for h in histories)

    labels, updates = [], set()
    for combo in product(*(succ[h[-1]] for h in histories)):
        choice = dict(zip(histories, combo))
        labels.append(label(choice))
        for h in histories:
            player = owners[h[-1]]
            rank = ranks.get(player, {})
            now = rank.get(follow(choice, h), float("inf"))
            for w in succ[h[-1]]:
                other = {**choice, h: w}
                if rank.get(follow(other, h), float("inf")) < now:
                    updates.add((label(choice), label(other), (player,)))
    return labels, updates


def _play(succ, choice, v):
    """The play from v under choice: a finite play is its vertex tuple, a
    lasso the pair (stem, loop)."""
    path = [v]
    while succ[path[-1]]:
        nxt = choice[path[-1]]
        if nxt in path:
            i = path.index(nxt)
            return (tuple(path[:i]), tuple(path[i:]))
        path.append(nxt)
    return tuple(path)


def positional_dynamics_by_enumeration(vertices, edges, owners, ranks, kind):
    """The p1, bp1, pc or bpc dynamics over positional profiles, by brute force.

    ``edges`` holds [from, to] or [from, to, label] items; ``ranks`` maps
    each player to {play: rank}, lower is better, where a finite play is its
    vertex tuple and a lasso is the pair (stem, loop); unranked plays share
    the bottom class.  A profile picks a successor for every non-terminal;
    profiles are enumerated with non-terminals and successors sorted, the
    last non-terminal varying fastest.  A move at v is improving when the
    owner of v strictly prefers the play from v after it; a best-reply move
    is an improving move that no other move at v beats.  An update changes
    the choice at one vertex (p1, bp1), or at vertices of pairwise distinct
    owners (pc, bpc), each change such a move.  Every pair of profiles is
    tried.  Returns the profile labels, in enumeration order, and the set of
    updates as (label, label, sorted players) triples.
    """
    succ = {v: sorted(e[1] for e in edges if e[0] == v) for v in vertices}
    names = {(e[0], e[1]): e[2] for e in edges if len(e) == 3}
    movers = sorted(v for v in vertices if succ[v])

    def rank(v, choice):
        return ranks.get(owners[v], {}).get(_play(succ, choice, v), float("inf"))

    def label(choice):
        parts = [names.get((v, choice[v]), f"{v}:{choice[v]}")
                 for v in movers if len(succ[v]) > 1]
        return "".join(parts) or "<only>"

    def moves(choice, v):
        """The improving (best_reply: best improving) successors at v."""
        now = rank(v, choice)
        better = {w: rank(v, {**choice, v: w}) for w in succ[v]}
        better = {w: r for w, r in better.items() if r < now}
        if kind.startswith("b") and better:
            top = min(better.values())
            better = {w: r for w, r in better.items() if r == top}
        return set(better)

    profiles = [dict(zip(movers, combo)) for combo in product(*(succ[v] for v in movers))]
    updates = set()
    for sigma in profiles:
        ok = {v: moves(sigma, v) for v in movers}
        for tau in profiles:
            diff = [v for v in movers if sigma[v] != tau[v]]
            players = [owners[v] for v in diff]
            if not diff or len(set(players)) < len(players):
                continue
            if len(diff) > 1 and not kind.endswith("pc"):
                continue
            if all(tau[v] in ok[v] for v in diff):
                updates.add((label(sigma), label(tau), tuple(sorted(players))))
    return [label(p) for p in profiles], updates


def equilibria_by_enumeration(vertices, edges, owners, ranks):
    """The labels of the profiles from which no vertex has an improving move,
    in enumeration order: the sinks of every kind that
    positional_dynamics_by_enumeration builds, since each of its updates is
    made of improving moves and a vertex with an improving move has a best
    one.  Arguments, profiles and labels are as there."""
    succ = {v: sorted(e[1] for e in edges if e[0] == v) for v in vertices}
    names = {(e[0], e[1]): e[2] for e in edges if len(e) == 3}
    movers = sorted(v for v in vertices if succ[v])

    def rank(v, choice):
        return ranks.get(owners[v], {}).get(_play(succ, choice, v), float("inf"))

    out = []
    for combo in product(*(succ[v] for v in movers)):
        choice = dict(zip(movers, combo))
        if not any(rank(v, {**choice, v: w}) < rank(v, choice) for v in movers for w in succ[v]):
            out.append("".join(names.get((v, choice[v]), f"{v}:{choice[v]}")
                               for v in movers if len(succ[v]) > 1) or "<only>")
    return out


def belief_delta_by_enumeration(vertices, edges, owners, ranks):
    """The transitions of the belief graph, by brute force.

    ``vertices``, ``edges`` and ``owners`` are as for
    positional_dynamics_by_enumeration; ``ranks`` maps every player 1..n to
    {play: rank}, and its keys are the players.  Profiles are enumerated as
    there.  A node holds one profile (a row) per player and is numbered in
    the order of the tuples of their profile numbers, the first player's
    varying slowest.  Label 0 sets every row to the true profile, which
    takes each vertex's choice from its owner's row.  Label i changes row i
    only: to the profile that player i's one best-reply move under row i
    leads to (a single vertex of i's, moved to a successor that strictly
    improves i's play from there and that no other successor there beats),
    or not at all when i has none.  Returns (delta, None), delta[a][node]
    the target of node's a-labelled edge, or, when some row has two or more
    best replies, (None, (player, targets)) for the first such node and
    player in that order, targets the profiles (dicts) the replies lead to.
    """
    succ = {v: sorted(e[1] for e in edges if e[0] == v) for v in vertices}
    movers = sorted(v for v in vertices if succ[v])
    players = sorted(ranks)
    profiles = [dict(zip(movers, combo)) for combo in product(*(succ[v] for v in movers))]

    def rank(player, choice, v):
        return ranks[player].get(_play(succ, choice, v), float("inf"))

    def best_replies(choice, player):
        out = []
        for v in movers:
            if owners[v] != player:
                continue
            now = rank(player, choice, v)
            better = {w: rank(player, {**choice, v: w}, v) for w in succ[v]}
            better = {w: r for w, r in better.items() if r < now}
            top = min(better.values(), default=None)
            out += [{**choice, v: w} for w, r in better.items() if r == top]
        return out

    replies = {(r, player): best_replies(profiles[r], player)
               for r in range(len(profiles)) for player in players}
    nodes = list(product(range(len(profiles)), repeat=len(players)))
    where = {rows: i for i, rows in enumerate(nodes)}
    delta = [[] for _ in range(len(players) + 1)]
    for rows in nodes:
        true = {v: profiles[rows[owners[v] - 1]][v] for v in movers}
        delta[0].append(where[(profiles.index(true),) * len(players)])
        for player in players:
            targets = replies[rows[player - 1], player]
            if len(targets) > 1:
                return None, (player, targets)
            new = list(rows)
            if targets:
                new[player - 1] = profiles.index(targets[0])
            delta[player].append(where[tuple(new)])
    return delta, None


def belief_analyses_by_enumeration(n_nodes, n_labels, delta):
    """Sinks, diamond, two reachable sinks and label-fair cycles of a
    complete deterministic labelled graph, by brute force.

    Nodes are 0..n_nodes-1 and ``delta[a][v]`` is the target of v's
    a-labelled edge.  Returns (sinks, diamond, two_sinks, lfair):
    - the set of nodes whose every edge is a self-loop;
    - None when for all v, a, b some node is reachable both from
      delta(v, a) and from delta(delta(v, b), a), else the first failing
      (v, a, b) in that loop order, from one BFS reach set per node;
    - the first node that reaches two sinks, with the two least of them,
      or None;
    - whether some closed walk through two or more nodes carries every
      label, searched over (node, labels seen, left the start) states.
    """
    labels = range(n_labels)
    succ = [{delta[a][v] for a in labels} for v in range(n_nodes)]

    def reach(v):
        seen, todo = {v}, [v]
        while todo:
            for w in succ[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    reach_sets = [reach(v) for v in range(n_nodes)]
    sink_set = {v for v in range(n_nodes) if succ[v] == {v}}
    diamond = next(((v, a, b) for v in range(n_nodes) for a in labels for b in labels
                    if not reach_sets[delta[a][v]] & reach_sets[delta[a][delta[b][v]]]),
                   None)
    two_sinks = next(((v, *sorted(reach_sets[v] & sink_set)[:2]) for v in range(n_nodes)
                      if len(reach_sets[v] & sink_set) >= 2), None)

    every = frozenset(labels)
    lfair = False
    for start in range(n_nodes):
        first = (start, frozenset(), False)
        seen, todo = {first}, [first]
        while todo and not lfair:
            v, got, moved = todo.pop()
            for a in labels:
                w = delta[a][v]
                state = (w, got | {a}, moved or w != start)
                if w == start and state[1] == every and state[2]:
                    lfair = True
                if state not in seen:
                    seen.add(state)
                    todo.append(state)
    return sink_set, diamond, two_sinks, lfair


def components_by_tarjan(nodes, edges):
    """Tarjan's strongly connected components, recursive and dict-based, as
    first published: roots in node order, each node's successors in node
    order, every component a frozenset in the order it completes."""
    order = {n: i for i, n in enumerate(nodes)}
    out = {n: sorted((v for u, v in edges if u == n), key=order.__getitem__) for n in nodes}
    index, low, stack, comps = {}, {}, [], []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        for w in out[v]:
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = set()
            while v not in comp:
                comp.add(stack.pop())
            comps.append(frozenset(comp))

    for v in nodes:
        if v not in index:
            visit(v)
    return comps


# ---------------------------------------------------------------------------
# Game minors on the raw game document
#
# A game document is the JSON object of the input format.  Inside these
# oracles a finite play is its vertex tuple and a lasso the pair (stem, loop)
# of vertex tuples; a deletion step is a script record, {"edge": [u, v]} or
# {"vertex": v}.


class Refused(Exception):
    """A deletion the minor rules forbid: args are (reason,) for one step,
    (reason, index) for a script, the reason named as the library names it."""


def _is_lasso(play):
    return isinstance(play[0], tuple)


def _lasso(stem, loop):
    """The lasso stem loop loop ... with the shortest stem, then the shortest
    loop, found by trying every split against enough of the infinite word
    (two ultimately periodic words that agree on their longer preperiod plus
    both periods agree everywhere)."""
    stem, loop = tuple(stem), tuple(loop)
    n = len(stem) + 2 * len(loop)
    word = (stem + loop * n)[:n]
    for a in range(len(stem) + 1):
        for b in range(1, len(loop) + 1):
            if all(word[i] == word[a + (i - a) % b] for i in range(a, n)):
                return word[:a], word[a:a + b]


def _read_play(obj):
    if "path" in obj:
        return tuple(obj["path"])
    return _lasso(obj["lasso"]["stem"], obj["lasso"]["loop"])


def _write_play(play):
    if _is_lasso(play):
        return {"lasso": {"stem": list(play[0]), "loop": list(play[1])}}
    return {"path": list(play)}


def _ranks(doc):
    """player (int) -> list of rank classes, each a list of plays."""
    prefs = doc["preferences"]
    return {i: [[_read_play(p) for p in cls] for cls in prefs.get(str(i), [])]
            for i in range(1, doc["players"] + 1)}


def _rank(classes, play):
    return next((r for r, cls in enumerate(classes) if play in cls), len(classes))


def minor_key(doc):
    """A hashable value that two documents share iff they are the same game."""
    ranks = _ranks(doc)
    return (doc["players"], frozenset(doc["vertices"]),
            frozenset(tuple(e) for e in doc["edges"]),
            frozenset((v, p) for v, p in doc["owner"].items()),
            tuple(tuple(frozenset(cls) for cls in ranks[i]) for i in sorted(ranks)))


def _walks(play, vertices, edges):
    """True iff the play is a maximal walk: known vertices, edge steps, and a
    finite play stops only where no edge leaves."""
    if _is_lasso(play):
        stem, loop = play
        seq = stem + loop + loop[:1]
    else:
        seq = play
        if any(e[0] == seq[-1] for e in edges):
            return False
    return (all(v in vertices for v in seq)
            and all(any((e[0], e[1]) == step for e in edges) for step in zip(seq, seq[1:])))


def _rebuild(doc, vertices, edges, ranks):
    """The document on the new arena: owners only where an edge leaves, each
    player's plays that still walk it, and no empty rank class."""
    prefs = {}
    for i, classes in ranks.items():
        kept = [[p for p in cls if _walks(p, vertices, edges)] for cls in classes]
        prefs[str(i)] = [[_write_play(p) for p in cls] for cls in kept if cls]
    sources = {e[0] for e in edges}
    return {"players": doc["players"], "vertices": list(vertices), "edges": list(edges),
            "owner": {v: p for v, p in doc["owner"].items() if v in sources},
            "preferences": prefs}


def _outcomes(doc):
    """Every play that some positional profile produces from some vertex."""
    vertices, edges = doc["vertices"], doc["edges"]
    succ = {v: sorted(e[1] for e in edges if e[0] == v) for v in vertices}
    movers = [v for v in vertices if succ[v]]
    out = set()
    for combo in product(*(succ[v] for v in movers)):
        choice = dict(zip(movers, combo))
        out |= {_play(succ, choice, v) for v in vertices}
    return out


def dominated_by_enumeration(doc, e1, e2):
    """Whether edge e1 is dominated by its sibling e2 (the same source v):
    under every positional profile, v's owner ranks the play from v through
    e2 strictly above the play from v through e1, unranked plays sharing the
    bottom class."""
    vertices, edges = doc["vertices"], doc["edges"]
    succ = {v: sorted(e[1] for e in edges if e[0] == v) for v in vertices}
    movers = [v for v in vertices if succ[v]]
    v = e1[0]
    classes = _ranks(doc)[doc["owner"][v]]
    for combo in product(*(succ[u] for u in movers)):
        choice = dict(zip(movers, combo))
        through = [_rank(classes, _play(succ, {**choice, v: e[1]}, v)) for e in (e1, e2)]
        if through[0] <= through[1]:
            return False
    return True


def _seq(play):
    """The vertices of the play in order, a lasso's stem then its loop."""
    return play[0] + play[1] if _is_lasso(play) else play


def _squeezed(play, x, y):
    """The play with every x dropped; each x must be followed by y."""
    seq = _seq(play)
    nxt = seq[1:] + (play[1][:1] if _is_lasso(play) else (None,))
    if any(v == x and w != y for v, w in zip(seq, nxt)):
        raise Refused("InvalidPlay")
    if _is_lasso(play):
        return _lasso([v for v in play[0] if v != x], [v for v in play[1] if v != x])
    return tuple(v for v in play if v != x)


def delete_edge(doc, edge):
    """The minor without the edge: plays through it and rank classes left
    empty are dropped, and so is the owner of a vertex left without edges."""
    edges = [e for e in doc["edges"] if (e[0], e[1]) != tuple(edge)]
    if len(edges) == len(doc["edges"]):
        raise Refused("UnknownEdge")
    return _rebuild(doc, doc["vertices"], edges, _ranks(doc))


def delete_vertex(doc, x):
    """The minor without vertex x.

    An isolated x just goes.  Otherwise x must have exactly one successor y
    (else MultipleSuccessors) that none of x's predecessors has (else
    PredecessorConflict); then x is squeezed out: each edge u->x becomes
    u->y and every play drops its x's (InvalidPlay if an x is not followed
    by y).  The squeeze is refused with PreferenceCollapse when a ranked
    play containing x becomes the same play as another play, ranked apart
    from it by the same player, and starts at a vertex that player owns;
    the plays looked at are every profile outcome and every ranked play.
    It is refused with PredecessorConflict when two rank classes of one
    player come to share a play.
    """
    if x not in doc["vertices"]:
        raise Refused("UnknownVertex")
    succ = [e[1] for e in doc["edges"] if e[0] == x]
    pred = [e[0] for e in doc["edges"] if e[1] == x]
    vertices = [v for v in doc["vertices"] if v != x]
    ranks = _ranks(doc)
    if not succ and not pred:
        return _rebuild(doc, vertices, doc["edges"], ranks)
    if len(succ) != 1:
        raise Refused("MultipleSuccessors")
    (y,) = succ
    if any([u, y] == e[:2] for u in pred for e in doc["edges"]):
        raise Refused("PredecessorConflict")
    universe = _outcomes(doc) | {p for classes in ranks.values() for cls in classes for p in cls}
    image = {p: _squeezed(p, x, y) for p in universe}
    sources = {e[0] for e in doc["edges"]} - {x}
    for i, classes in ranks.items():
        for p in (p for cls in classes for p in cls if x in _seq(p)):
            start = _seq(image[p])[0]
            if (start in sources and doc["owner"].get(start) == i
                    and len({_rank(classes, r) for r in universe if image[r] == image[p]}) > 1):
                raise Refused("PreferenceCollapse")
    for classes in ranks.values():
        seen = {}
        for r, cls in enumerate(classes):
            for p in cls:
                if seen.setdefault(image[p], r) != r:
                    raise Refused("PredecessorConflict")
    edges = [e for e in doc["edges"] if e[:2] != [x, y]]
    edges = [[e[0], y, *e[2:]] if e[1] == x else e for e in edges]
    return _rebuild(doc, vertices, edges,
                    {i: [[image[p] for p in cls] for cls in classes]
                     for i, classes in ranks.items()})


def apply_script(doc, steps):
    """The minor after every step in order; Refused(reason, index) at the
    first step refused."""
    for index, step in enumerate(steps):
        try:
            if "edge" in step:
                doc = delete_edge(doc, step["edge"])
            else:
                doc = delete_vertex(doc, step["vertex"])
        except Refused as exc:
            raise Refused(exc.args[0], index) from exc
    return doc


def is_dis_pattern(doc):
    """A terminal t and two vertices a, b of different owners with just the
    edges a->t, a->b, b->t, b->a, where a's owner ranks a->b->t strictly
    above a->t and b's owner ranks b->a->t strictly above b->t."""
    ranks = _ranks(doc)
    edges = {(e[0], e[1]) for e in doc["edges"]}
    if len(doc["vertices"]) != 3:
        return False
    for t in doc["vertices"]:
        a, b = (v for v in doc["vertices"] if v != t)
        if edges == {(a, t), (a, b), (b, t), (b, a)}:
            i, j = doc["owner"].get(a), doc["owner"].get(b)
            return (i is not None and j is not None and i != j
                    and _rank(ranks[i], (a, b, t)) < _rank(ranks[i], (a, t))
                    and _rank(ranks[j], (b, a, t)) < _rank(ranks[j], (b, t)))
    return False


def dis_minor_exists(doc):
    """Whether some sequence of deletions turns the game into the
    disagreement pattern: every game reachable by deleting edges and
    vertices is tried.  No deletion adds a vertex or an edge, so a game with
    fewer vertices or edges than the pattern is not expanded."""
    seen, todo = {minor_key(doc)}, [doc]
    while todo:
        doc = todo.pop()
        if is_dis_pattern(doc):
            return True
        if len(doc["vertices"]) < 3 or len(doc["edges"]) < 4:
            continue
        steps = [{"edge": e[:2]} for e in doc["edges"]] + [{"vertex": v} for v in doc["vertices"]]
        for step in steps:
            try:
                child = apply_script(doc, [step])
            except Refused:
                continue
            key = minor_key(child)
            if key not in seen:
                seen.add(key)
                todo.append(child)
    return False
