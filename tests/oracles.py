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
