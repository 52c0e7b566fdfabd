"""Independent replayer for game JSON documents.

Recomputes outcomes, preference ranks, improving moves and best replies
straight from the game document, without importing gamedyn, so that the
benchmark can re-check what the library reports: cycle and fair-cycle
witnesses, equilibria and belief-graph transitions.  Profiles are plain
dicts {vertex: chosen successor}.
"""

from __future__ import annotations

import itertools


def _primitive(loop):
    n = len(loop)
    for k in range(1, n + 1):
        if n % k == 0 and loop == loop[:k] * (n // k):
            return loop[:k]
    return loop


def lasso_key(stem, loop):
    """Canonical key of the infinite word stem . loop^omega."""
    stem, loop = list(stem), list(_primitive(tuple(loop)))
    while stem and stem[-1] == loop[-1]:
        stem.pop()
        loop = [loop[-1]] + loop[:-1]
    return ("lasso", tuple(stem), tuple(loop))


def play_key(obj):
    if "path" in obj:
        return ("path", tuple(obj["path"]))
    return lasso_key(obj["lasso"]["stem"], obj["lasso"]["loop"])


class Game:
    """A game document with the derived tables the replayer needs."""

    def __init__(self, doc):
        self.doc = doc
        self.players = doc["players"]
        self.vertices = sorted(doc["vertices"])
        self.succ = {v: [] for v in self.vertices}
        self.labels = {}
        for edge in doc["edges"]:
            self.succ[edge[0]].append(edge[1])
            if len(edge) == 3:
                self.labels[(edge[0], edge[1])] = edge[2]
        for v in self.succ:
            self.succ[v].sort()
        self.owner = dict(doc["owner"])
        self.non_terminals = [v for v in self.vertices if self.succ[v]]
        self.choosers = [v for v in self.non_terminals if len(self.succ[v]) > 1]
        self.ranks = {}
        for p in range(1, self.players + 1):
            table = {}
            for i, cls in enumerate(doc["preferences"].get(str(p), [])):
                for obj in cls:
                    table[play_key(obj)] = i
            self.ranks[p] = (table, len(doc["preferences"].get(str(p), [])))

    # -- outcomes and ranks -------------------------------------------------

    def outcome(self, profile, v):
        path, seen = [v], {v: 0}
        while self.succ[path[-1]]:
            w = profile[path[-1]]
            if w in seen:
                i = seen[w]
                return lasso_key(path[:i], path[i:])
            seen[w] = len(path)
            path.append(w)
        return ("path", tuple(path))

    def rank(self, player, play):
        table, bottom = self.ranks[player]
        return table.get(play, bottom)

    def improving(self, profile, v):
        """Successors w of v whose one-state deviation strictly improves
        the owner's outcome from v, with their ranks."""
        player = self.owner[v]
        current = self.rank(player, self.outcome(profile, v))
        out = []
        for w in self.succ[v]:
            if w == profile[v]:
                continue
            r = self.rank(player, self.outcome({**profile, v: w}, v))
            if r < current:
                out.append((w, r))
        return out

    def best(self, profile, v):
        opts = self.improving(profile, v)
        if not opts:
            return []
        top = min(r for _, r in opts)
        return [w for w, r in opts if r == top]

    def options(self, profile, v, kind):
        if kind.startswith("b"):
            return self.best(profile, v)
        return [w for w, _ in self.improving(profile, v)]

    def can_switch(self, profile, player):
        return any(self.improving(profile, v)
                   for v in self.non_terminals if self.owner[v] == player)

    def is_equilibrium(self, profile):
        return not any(self.improving(profile, v) for v in self.non_terminals)

    # -- dynamics -----------------------------------------------------------

    def profiles(self):
        vs = self.non_terminals
        for combo in itertools.product(*(self.succ[v] for v in vs)):
            yield dict(zip(vs, combo))

    def step(self, kind, p, q):
        """The set of players changed by the update p -> q, or None when the
        update is not a move of the given dynamics kind."""
        changed = [v for v in self.non_terminals if p[v] != q[v]]
        if not changed:
            return None
        owners = [self.owner[v] for v in changed]
        if len(set(owners)) != len(owners):
            return None
        if kind in ("p1", "bp1") and len(changed) != 1:
            return None
        for v in changed:
            if q[v] not in self.options(p, v, kind):
                return None
        return frozenset(owners)

    def successors(self, kind, p):
        """Every (q, changed players) reachable from p in one update."""
        by_player = {}
        for v in self.non_terminals:
            for w in self.options(p, v, kind):
                by_player.setdefault(self.owner[v], []).append((v, w))
        out = []
        players = sorted(by_player)
        sizes = [1] if kind in ("p1", "bp1") else range(1, len(players) + 1)
        for r in sizes:
            for subset in itertools.combinations(players, r):
                for combo in itertools.product(*(by_player[i] for i in subset)):
                    q = dict(p)
                    for v, w in combo:
                        q[v] = w
                    out.append((q, frozenset(subset)))
        return out

    # -- display labels as printed by the CLI -------------------------------

    def parse_label(self, text):
        """Every profile whose display label is text (forced vertices fixed)."""
        forced = {v: self.succ[v][0] for v in self.non_terminals
                  if len(self.succ[v]) == 1}
        found = []

        def walk(i, pos, choice):
            if i == len(self.choosers):
                if pos == len(text):
                    found.append({**forced, **choice})
                return
            v = self.choosers[i]
            for w in self.succ[v]:
                tag = self.labels.get((v, w), f"{v}:{w}")
                if text.startswith(tag, pos):
                    walk(i + 1, pos + len(tag), {**choice, v: w})

        if text == "<only>" and not self.choosers:
            return [dict(forced)]
        walk(0, 0, {})
        return found


def freeze(profile):
    return tuple(sorted(profile.items()))


# ---------------------------------------------------------------------------
# Witness checks: each returns a list of problems (empty when the witness holds)


def check_cycle(game, kind, cycle):
    """Every step, the closing one included, is an update of the given kind."""
    if not cycle:
        return ["empty cycle"]
    problems = []
    for i, p in enumerate(cycle):
        q = cycle[(i + 1) % len(cycle)]
        if game.step(kind, p, q) is None:
            problems.append(f"step {i} is not a {kind} update")
    return problems


def check_fair_cycle(game, kind, cycle, players):
    """A valid cycle on which every player switches or is once unable to."""
    problems = check_cycle(game, kind, cycle)
    if problems:
        return problems
    switched = set()
    for i, p in enumerate(cycle):
        switched |= game.step(kind, p, cycle[(i + 1) % len(cycle)])
    for player in players:
        if player in switched:
            continue
        if all(game.can_switch(p, player) for p in cycle):
            problems.append(f"player {player} neither switches nor is stuck")
    return problems


def has_cycle(game, kind):
    """Cycle detection on the independently built dynamics (small games)."""
    nodes = [freeze(p) for p in game.profiles()]
    succ = {n: [freeze(q) for q, _ in game.successors(kind, dict(n))] for n in nodes}
    state = {}
    for root in nodes:
        if root in state:
            continue
        stack = [(root, iter(succ[root]))]
        state[root] = 1
        while stack:
            n, it = stack[-1]
            for m in it:
                if state.get(m) == 1:
                    return True
                if m not in state:
                    state[m] = 1
                    stack.append((m, iter(succ[m])))
                    break
            else:
                state[n] = 2
                stack.pop()
    return False


def dynamics_edges(game, kind):
    """(nodes, edges) of the independently built dynamics graph."""
    nodes = [freeze(p) for p in game.profiles()]
    edges = {(n, freeze(q), c) for n in nodes for q, c in game.successors(kind, dict(n))}
    return nodes, edges


def equilibria(game):
    return {freeze(p) for p in game.profiles() if game.is_equilibrium(p)}


# ---------------------------------------------------------------------------
# Belief graph


class Belief:
    """Belief matrices: one full profile per player, row j being player j's
    belief; label 0 publishes the true profile, label i applies player i's
    unique best-reply update under its own belief (or stutters)."""

    def __init__(self, game):
        self.game = game
        self.n = game.players
        profiles = [freeze(p) for p in game.profiles()]
        self.nodes = list(itertools.product(profiles, repeat=self.n))
        self._update = {}
        self.delta = {}
        for node in self.nodes:
            for a in range(self.n + 1):
                self.delta[(node, a)] = self._next(node, a)

    def _player_update(self, row, player):
        key = (row, player)
        if key not in self._update:
            p = dict(row)
            targets = set()
            for v in self.game.non_terminals:
                if self.game.owner[v] == player:
                    for w in self.game.best(p, v):
                        targets.add(freeze({**p, v: w}))
            if len(targets) > 1:
                raise ValueError(f"player {player} has several best replies")
            self._update[key] = targets.pop() if targets else row
        return self._update[key]

    def _next(self, node, a):
        if a == 0:
            true = {v: dict(node[self.game.owner[v] - 1])[v]
                    for v in self.game.non_terminals}
            return tuple(freeze(true) for _ in range(self.n))
        rows = list(node)
        rows[a - 1] = self._player_update(node[a - 1], a)
        return tuple(rows)

    def reach(self):
        out = {}
        for n in self.nodes:
            seen, todo = {n}, [n]
            while todo:
                u = todo.pop()
                for a in range(self.n + 1):
                    m = self.delta[(u, a)]
                    if m not in seen:
                        seen.add(m)
                        todo.append(m)
            out[n] = seen
        return out

    def sinks(self):
        return {n for n in self.nodes
                if all(self.delta[(n, a)] == n for a in range(self.n + 1))}

    def diamond(self, reach):
        labels = range(self.n + 1)
        return all(reach[self.delta[(v, a)]] & reach[self.delta[(self.delta[(v, b)], a)]]
                   for v in self.nodes for a in labels for b in labels)

    def lfair_exists(self, reach):
        """Some SCC of two or more nodes has an internal edge of every label."""
        for n in self.nodes:
            scc = {m for m in reach[n] if n in reach[m]}
            if len(scc) < 2:
                continue
            labels = {a for u in scc for a in range(self.n + 1)
                      if self.delta[(u, a)] in scc}
            if len(labels) == self.n + 1:
                return True
        return False

    def check_lfair(self, cycle):
        """A non-constant closed walk whose steps cover every label."""
        if len(set(cycle)) < 2:
            return ["constant cycle"]
        used = set()
        for i, u in enumerate(cycle):
            v = cycle[(i + 1) % len(cycle)]
            labels = {a for a in range(self.n + 1) if self.delta[(u, a)] == v}
            if not labels:
                return [f"step {i} is no belief transition"]
            used |= labels
        if len(used) != self.n + 1:
            return [f"labels {sorted(used)} do not cover 0..{self.n}"]
        return []
