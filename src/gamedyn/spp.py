"""One-target routing games, dispute wheels, and the BGP-style safety verdict.

A one-target game (OTG) models interdomain routing: every player owns one
state, routes toward a unique terminal, and ranks its permitted paths.  The
stable-paths-style input format lists, per node, its ranked permitted paths
to the origin.
"""

from __future__ import annotations

import enum
import itertools
import json
from typing import Mapping, Optional

from .errors import (
    PROFILE_GUARD,
    SEARCH_BUDGET,
    Frozen,
    GameDynError,
    GameFormatError,
    InvalidSDW,
    SearchBudgetExceeded,
    SuffixClosureRepairNeeded,
)
from .game import (
    FinitePlay,
    Game,
    LassoPlay,
    PreferenceOrder,
    is_positional_from,
    positional_plays,
    walk_positional_plays,
)

# the functions that build minors or dynamics import minors, strategy,
# dynamics and analysis themselves, and the wheel searches import graphs, so
# that validating an instance loads none of them


class OneTargetGame(Frozen):
    __slots__ = _fields = ("game", "permitted")

    def player_vertex(self, player: int) -> str:
        (v,) = self.game.owned_by(player)
        return v

    @property
    def target(self) -> str:
        (t,) = self.game.terminals
        return t

    def permitted_at(self, vertex: str) -> frozenset:
        return self.permitted[self.game.owner[vertex]]


class DisputeWheel(Frozen):
    """Pivots u_1..u_k, their direct paths, and the connecting prefixes.

    links[i] is the vertex sequence from pivots[i] up to (but excluding)
    pivots[i+1]; appending direct[i+1].path gives the preferred indirect
    permitted path of pivots[i].
    """

    __slots__ = _fields = ("pivots", "direct", "links")

    @property
    def k(self) -> int:
        return len(self.pivots)

    def indirect(self, i: int) -> FinitePlay:
        return FinitePlay(self.links[i] + self.direct[(i + 1) % self.k].path)

    def link_states(self, i: int) -> tuple[str, ...]:
        """The link path including its endpoint pivot."""
        return self.links[i] + (self.pivots[(i + 1) % self.k],)

    def steps(self) -> list[tuple[str, str]]:
        """The edges of the direct paths and the links, pivot by pivot."""
        return [step for i in range(self.k)
                for seq in (self.direct[i].path, self.link_states(i))
                for step in zip(seq, seq[1:])]

    def describe(self) -> str:
        parts = [f"pivots: ({', '.join(self.pivots)})"]
        for i, u in enumerate(self.pivots):
            parts.append(f"  {u}: direct {self.direct[i]} < indirect {self.indirect(i)}")
        return "\n".join(parts)


class SafetyStatus(enum.Enum):
    SAFE_NO_DW = "SafeNoDW"
    SAFE_MODEL_CHECKED = "SafeModelChecked"
    UNSAFE_SDW = "UnsafeSDW"
    UNSAFE_MULTI_EQUILIBRIA = "UnsafeMultiEquilibria"
    UNSAFE_MODEL_CHECKED = "UnsafeModelChecked"
    UNKNOWN_STRUCTURAL = "UnknownStructural"

    @property
    def safe(self) -> Optional[bool]:
        if self in (SafetyStatus.SAFE_NO_DW, SafetyStatus.SAFE_MODEL_CHECKED):
            return True
        if self is SafetyStatus.UNKNOWN_STRUCTURAL:
            return None
        return False


class SafetyVerdict(Frozen):
    __slots__ = _fields = ("status", "evidence", "method")


# ---------------------------------------------------------------------------
# Validation


def validate_otg(game: Game, permitted: Mapping[int, frozenset]) -> list[str]:
    """Check the one-target axioms; returns diagnostics (empty iff valid)."""
    terms = game.terminals
    if len(terms) != 1:
        return [f"SingleTarget: expected one terminal, found {sorted(terms)}"]
    diags = []
    (target,) = terms
    for i in range(1, game.n_players + 1):
        owned = game.owned_by(i)
        if len(owned) != 1:
            diags.append(f"OneStatePerPlayer: player {i} owns {list(owned)}")
    if diags:
        return diags

    for i in range(1, game.n_players + 1):
        (v,) = game.owned_by(i)
        # sorted copies fix the printed order; perm stays a set for membership
        perm = permitted.get(i, frozenset())
        ordered = sorted(perm, key=_by_name)
        pref = game.preference(i)
        rank = pref.rank_of
        for p in ordered:
            if not isinstance(p, FinitePlay) or p.start != v or p.path[-1] != target:
                diags.append(f"PermittedShape: player {i}: {p} is not a {v}->{target} path")
        # forbidden = the positional plays from v that are not permitted; they
        # are enumerated only to name them when the ranks show a violation
        if not _forbidden_plateau_below(game, v, perm, pref):
            forbidden = sorted(positional_plays(game, v).difference(perm), key=_by_name)
            diags += [f"ForbiddenBelowPermitted: player {i}: {q} not strictly below {p}"
                      for p in ordered for q in forbidden if rank(q) <= rank(p)]
            diags += [f"ForbiddenPlateau: player {i}: {q1} vs {q2}"
                      for q1, q2 in itertools.combinations(forbidden, 2)
                      if rank(q1) != rank(q2)]
        # the next-hop and suffix checks read paths: a lasso or a one-vertex
        # play is reported by PermittedShape alone
        paths = [p for p in ordered if isinstance(p, FinitePlay) and len(p.path) > 1]
        for p1, p2 in itertools.combinations(paths, 2):
            if rank(p1) == rank(p2) and p1.path[1] != p2.path[1]:
                diags.append(f"SameNextHopTies: player {i}: {p1} ~ {p2}")
        # suffix closure
        for p in paths:
            for m in range(1, len(p.path) - 1):
                w = p.path[m]
                suffix = FinitePlay(p.path[m:])
                j = game.owner.get(w)
                if j is None:
                    diags.append(f"SuffixClosure: player {i}: suffix of {p} at unowned {w}")
                elif suffix not in permitted.get(j, frozenset()):
                    diags.append(
                        f"SuffixClosure: {suffix} (suffix of {p}) not permitted at {w}")
    return diags


def _by_name(play) -> tuple:
    return str(play), repr(play)  # repr breaks ties of names holding "->"


def _forbidden_plateau_below(game: Game, v: str, perm, pref: PreferenceOrder) -> bool:
    """True iff the plays forbidden at v share one rank, worse than every
    permitted one: the ranks of the ranked forbidden plays, and the bottom
    rank if the walk of the positional plays meets an unranked one."""
    ranked = pref.mentioned()
    ranks = {pref.rank_of(p) for p in ranked
             if p not in perm and is_positional_from(game, v, p)}
    if any(p not in ranked and p not in perm for p in walk_positional_plays(game, v)):
        ranks.add(len(pref.ranks))
    return len(ranks) <= 1 and all(r > pref.rank_of(p) for r in ranks for p in perm)


def is_notg(otg: OneTargetGame) -> bool:
    """Next-hop-only preferences: permitted paths sharing a next hop tie."""
    for i in range(1, otg.game.n_players + 1):
        rank = otg.game.preference(i).rank_of
        for p1, p2 in itertools.combinations(sorted(otg.permitted[i], key=str), 2):
            if p1.path[1] == p2.path[1] and rank(p1) != rank(p2):
                return False
    return True


def otg_from_game(game: Game) -> OneTargetGame:
    """Infer permitted sets from preferences: the finite mentioned plays
    ranked strictly above every mentioned lasso."""
    terms = game.terminals
    if len(terms) != 1:
        raise GameFormatError(f"expected one terminal, found {sorted(terms)}")
    (target,) = terms
    permitted = {}
    for i in range(1, game.n_players + 1):
        owned = game.owned_by(i)
        if len(owned) != 1:
            raise GameFormatError(f"player {i} owns {list(owned)}, expected one state")
        (v,) = owned
        pref = game.preference(i)
        lasso_ranks = [pref.rank_of(p) for p in pref.mentioned()
                       if isinstance(p, LassoPlay)]
        forbidden_rank = min(lasso_ranks, default=len(pref.ranks))
        permitted[i] = frozenset(
            p for p in pref.mentioned()
            if isinstance(p, FinitePlay) and p.start == v and p.path[-1] == target
            and pref.rank_of(p) < forbidden_rank
        )
    return OneTargetGame(game, permitted)


# ---------------------------------------------------------------------------
# Dispute wheels


def _dispute_digraph(otg: OneTargetGame):
    """The nodes (pivot, direct path) in repr order, their int graph, and for
    each arc (i, j) the sorted prefixes h such that h + the path of node j
    is permitted at the pivot of node i and strictly preferred to its
    direct path."""
    game = otg.game
    nodes, ranks = [], {}  # ranks: pivot -> {permitted path: its rank}
    for i in range(1, game.n_players + 1):
        u, rank = otg.player_vertex(i), game.preference(i).rank_of
        ranks[u] = {p.path: rank(p) for p in otg.permitted[i]}
        nodes += [(u, p) for p in otg.permitted[i]]
    nodes.sort(key=repr)
    index = {(u, p.path): k for k, (u, p) in enumerate(nodes)}
    decomps: dict = {}
    for k, (u, pi) in enumerate(nodes):
        worse = ranks[u][pi.path]
        for rho in [rho for rho, r in ranks[u].items() if r < worse]:
            for m in range(1, len(rho) - 1):
                j = index.get((rho[m], rho[m:]))
                if j is not None:
                    decomps.setdefault((k, j), []).append(rho[:m])
    succ = [[] for _ in nodes]
    for k, j in decomps:
        succ[k].append(j)
        decomps[k, j].sort()
    return nodes, tuple(tuple(sorted(js)) for js in succ), decomps


def _wheels(otg: OneTargetGame):
    """Every wheel candidate: the dispute digraph's cycles in repr order, each
    with every choice of its links' prefixes, taken in sorted order.  A
    digraph with more than SEARCH_BUDGET cycles raises SearchBudgetExceeded."""
    from .graphs import simple_cycles

    nodes, succ, decomps = _dispute_digraph(otg)
    cycles = list(itertools.islice(simple_cycles(succ), SEARCH_BUDGET + 1))
    if len(cycles) > SEARCH_BUDGET:
        raise SearchBudgetExceeded(SEARCH_BUDGET, "dispute-wheel cycles")
    # no node's repr is a prefix of another's, so cycles sort by repr as their
    # index lists do once a sentinel puts each after the cycles it prefixes
    for cycle in sorted(cycles, key=lambda c: c + [len(nodes)]):
        arcs = zip(cycle, cycle[1:] + cycle[:1])
        pivots, direct = zip(*(nodes[k] for k in cycle))
        for links in itertools.product(*(decomps[arc] for arc in arcs)):
            yield DisputeWheel(pivots, direct, links)


def find_dispute_wheel(otg: OneTargetGame) -> Optional[DisputeWheel]:
    """Some dispute wheel, if any exists (exhaustive search)."""
    return next(_wheels(otg), None)


def sdw_violations(otg: OneTargetGame, dw: DisputeWheel) -> list[str]:
    """Diagnostics for the wheel conditions plus the two strength
    conditions (pivot locality; state-disjointness/shared-suffix)."""
    game = otg.game
    diags = []
    k = dw.k
    for i in range(k):
        u = dw.pivots[i]
        pref = game.preference(game.owner[u])
        if dw.direct[i] not in otg.permitted_at(u):
            diags.append(f"direct path of {u} not permitted")
        if dw.links[i] and dw.links[i][0] != u:
            diags.append(f"link {i} does not start at {u}")
        ind = dw.indirect(i)
        if not dw.links[i]:
            diags.append(f"link {i} is empty")
            continue
        if ind not in otg.permitted_at(u):
            diags.append(f"indirect path {ind} of {u} not permitted")
        elif pref.rank_of(dw.direct[i]) <= pref.rank_of(ind):
            diags.append(f"{u} does not strictly prefer {ind} over {dw.direct[i]}")
    if diags:
        return diags

    pivots = set(dw.pivots)
    link_states = [set(dw.link_states(i)) for i in range(k)]
    direct_states = [set(dw.direct[i].path) for i in range(k)]
    for i, u in enumerate(dw.pivots):
        for j in range(k):
            if j != i and u in direct_states[j]:
                diags.append(f"pivot {u} occurs in the direct path of {dw.pivots[j]}")
            if j not in (i, (i - 1) % k) and u in link_states[j]:
                diags.append(f"pivot {u} occurs in link {j}")
    for i in range(k):
        for j in range(k):
            shared = (direct_states[i] & link_states[j]) - pivots
            if shared:
                diags.append(
                    f"direct path of {dw.pivots[i]} and link {j} share {sorted(shared)}"
                )
    for i, j in itertools.combinations(range(k), 2):
        shared = (link_states[i] & link_states[j]) - pivots
        if shared:
            diags.append(f"links {i} and {j} share {sorted(shared)}")
        for v in (direct_states[i] & direct_states[j]) - pivots:
            pi, pj = dw.direct[i].path, dw.direct[j].path
            if pi[pi.index(v):] != pj[pj.index(v):]:
                diags.append(
                    f"direct paths of {dw.pivots[i]} and {dw.pivots[j]} "
                    f"share {v} with different suffixes"
                )
    return diags


def find_sdw(otg: OneTargetGame) -> Optional[DisputeWheel]:
    """Some strong dispute wheel, or None after exhausting all wheel
    candidates (cycles of the dispute digraph with every link choice)."""
    return next((dw for dw in _wheels(otg) if not sdw_violations(otg, dw)), None)


# ---------------------------------------------------------------------------
# Minor extraction from a strong wheel


def extract_sdw_minor(otg: OneTargetGame, sdw: DisputeWheel):
    """Reduce the game to the wheel's pivots plus the target.

    Deletes every edge not used by the wheel's paths, then squeezes away all
    non-pivot vertices; finally replays the two-profile oscillation (all
    pivots routing around the ring vs. all routing direct) as a sanity
    certificate.  Returns (minor, script).
    """
    from .dynamics import build_dynamics
    from .minors import DeleteEdge, DeletionScript, DeleteVertex, apply_step, delete_edge
    from .strategy import StrategyProfile

    problems = sdw_violations(otg, sdw)
    if problems:
        raise InvalidSDW("; ".join(problems))
    game = otg.game
    steps: list = []
    g = game
    for e in sorted(game.edges.difference(sdw.steps())):
        g = delete_edge(g, e)
        steps.append(DeleteEdge(*e))

    pivots = set(sdw.pivots)
    target = otg.target
    pending = [v for v in g.vertices if v not in pivots and v != target]
    while pending:
        progress = False
        for v in list(pending):
            try:
                g = apply_step(g, DeleteVertex(v))
            except GameDynError:
                continue
            steps.append(DeleteVertex(v))
            pending.remove(v)
            progress = True
        if not progress:
            raise InvalidSDW(f"cannot squeeze away {sorted(pending)}")

    ring = {sdw.pivots[i]: sdw.pivots[(i + 1) % sdw.k] for i in range(sdw.k)}
    sigma1 = StrategyProfile.from_dict(ring)
    sigma2 = StrategyProfile.from_dict({u: target for u in sdw.pivots})
    dg = build_dynamics(g, "pc")
    try:
        i, j = dg.nodes.index(sigma1), dg.nodes.index(sigma2)
    except KeyError:
        i = j = None
    if i is None or j not in dg.succ[i] or i not in dg.succ[j]:
        raise InvalidSDW("extracted minor lacks the two-profile oscillation")
    return g, DeletionScript(tuple(steps))


# ---------------------------------------------------------------------------
# Safety verdict


def _sdw_bpc_oscillation(otg: OneTargetGame, sdw: DisputeWheel):
    """Two full profiles oscillating under fair best-reply updates, if the
    wheel survives best replies.

    Pivots alternate between their direct path and the link toward the next
    pivot; every other wheel state routes along its wheel path, remaining
    states take their best permitted next hop.  Checks that every pivot's
    switch is a strictly-improving best reply in both directions and that no
    idle player could switch in both profiles (so the two-profile cycle is
    fair).  Returns (profile_ring, profile_direct) or None.
    """
    from .strategy import Profiles, StrategyProfile

    game = otg.game
    pivots = set(sdw.pivots)
    # strong: shared direct states share suffixes, links share none, so one hop each
    hop = {a: b for a, b in sdw.steps() if a not in pivots}
    best = {}  # each state's best permitted next hop, else its first successor
    for v in game.non_terminals():
        rank = game.preference(game.owner[v]).rank_of
        perm = min(otg.permitted_at(v), key=lambda p: (rank(p), str(p)), default=None)
        best[v] = perm.path[1] if perm else game.successors(v)[0]
    ring = {u: sdw.link_states(i)[1] for i, u in enumerate(sdw.pivots)}
    direct = {u: sdw.direct[i].path[1] for i, u in enumerate(sdw.pivots)}
    s1 = StrategyProfile.from_dict({**best, **hop, **ring})
    s2 = StrategyProfile.from_dict({**best, **hop, **direct})
    profiles = Profiles(game)
    i1, i2 = profiles.index(s1), profiles.index(s2)
    dev1, dev2 = (profiles.moves_at(i, best_reply=True) for i in (i1, i2))
    # a next-hop instance ranks a pivot's direct and indirect paths apart only
    # through their next hops, so these differ and every pivot switches
    switching = {game.owner[u] - 1 for u in sdw.pivots}
    for u in sdw.pivots:
        i = game.owner[u] - 1
        step = profiles.index(s1.updated(u, direct[u])) - i1
        if step not in dev1[i] or -step not in dev2[i]:
            return None
    for j, (moves1, moves2) in enumerate(zip(dev1, dev2)):
        if j not in switching and moves1 and moves2:
            return None  # j could always switch but never does: not fair
    return (s1, s2)


def _structural_verdict(otg: OneTargetGame, guard: int | None) -> SafetyVerdict:
    from .analysis import equilibria
    from .dynamics import build_dynamics

    wheels = _wheels(otg)  # one stream: the first wheel, then the strong ones
    dw = next(wheels, None)
    if dw is None:
        return SafetyVerdict(SafetyStatus.SAFE_NO_DW, None,
                             "no dispute wheel: fair best-reply updates converge")
    if is_notg(otg):
        for sdw in itertools.chain([dw], wheels):
            osc = None if sdw_violations(otg, sdw) else _sdw_bpc_oscillation(otg, sdw)
            if osc is not None:
                return SafetyVerdict(
                    SafetyStatus.UNSAFE_SDW, (sdw, osc),
                    "strong dispute wheel whose oscillation survives best replies")
    dg = build_dynamics(otg.game, "bpc", guard=guard)
    eq = equilibria(dg)
    if len(eq) >= 2:
        return SafetyVerdict(SafetyStatus.UNSAFE_MULTI_EQUILIBRIA, eq,
                             "several stable states, so updates cannot always "
                             "converge to one of them")
    return SafetyVerdict(SafetyStatus.UNKNOWN_STRUCTURAL, dw,
                         "a dispute wheel exists but is not a strong wheel "
                         "of a next-hop game; structural tests inconclusive")


def _exact_verdict(otg: OneTargetGame, guard: int | None) -> SafetyVerdict:
    from .analysis import find_fair_cycle
    from .dynamics import build_dynamics

    dg = build_dynamics(otg.game, "bpc", guard=guard)
    report = find_fair_cycle(dg, players=range(1, otg.game.n_players + 1))
    if report.fair:
        return SafetyVerdict(SafetyStatus.UNSAFE_MODEL_CHECKED, report,
                             "fair oscillation found by model checking")
    return SafetyVerdict(SafetyStatus.SAFE_MODEL_CHECKED, report,
                         "no fair oscillation: model checking exhausted")


def safety_verdict(otg: OneTargetGame, mode: str = "structural", *,
                   guard: int | None = PROFILE_GUARD) -> SafetyVerdict:
    if mode == "structural":
        return _structural_verdict(otg, guard)
    if mode == "exact":
        return _exact_verdict(otg, guard)
    if mode != "both":
        raise GameDynError(f"unknown safety mode {mode!r}")
    structural = _structural_verdict(otg, guard)
    exact = _exact_verdict(otg, guard)
    if structural.status.safe is None:
        return exact
    if structural.status.safe != exact.status.safe:
        raise GameDynError(
            f"inconsistent verdicts: {structural.status.value} vs {exact.status.value}")
    return SafetyVerdict(structural.status, structural.evidence,
                         structural.method + "; confirmed by model checking")


# ---------------------------------------------------------------------------
# Stable-paths input format


def parse_spp(text: str, *, complete_suffixes: bool = False) -> OneTargetGame:
    """Read {"origin", "nodes": {id: {"paths": [...]}}, "extra_edges"}.

    Each node lists its permitted paths to the origin, best first; the arena
    is the union of the path edges plus the declared extra edges.  Rankings
    must be suffix-closed; with complete_suffixes, missing suffixes are
    appended at the lowest permitted rank instead of rejecting the input.
    """
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GameFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise GameFormatError("top level must be an object")
    unknown = set(data) - {"origin", "nodes", "extra_edges"}
    if unknown:
        raise GameFormatError(f"unknown fields: {sorted(unknown)}")
    origin = data.get("origin")
    nodes = data.get("nodes")
    if not isinstance(origin, str) or not isinstance(nodes, dict) or not nodes:
        raise GameFormatError("need an origin id and a non-empty nodes table")
    if origin in nodes:
        raise GameFormatError("the origin cannot rank paths")

    ranked: dict[str, list[tuple[str, ...]]] = {}
    for node, rec in sorted(nodes.items()):
        if not isinstance(rec, dict) or set(rec) != {"paths"} or not isinstance(
                rec["paths"], list):
            raise GameFormatError(f"node {node}: expected a paths list", locus=node)
        paths = []
        for p in rec["paths"]:
            if not isinstance(p, list):
                raise GameFormatError(f"node {node}: path {p!r} must be a list", locus=node)
            p = tuple(str(x) for x in p)
            if len(p) < 2 or p[0] != node or p[-1] != origin:
                raise GameFormatError(
                    f"node {node}: path {list(p)} must run from {node} to {origin}",
                    locus=node)
            if p in paths:
                raise GameFormatError(f"node {node}: duplicate path {list(p)}",
                                      locus=node)
            paths.append(p)
        ranked[node] = paths

    # suffix closure
    missing = []
    for node, paths in sorted(ranked.items()):
        for p in paths:
            for m in range(1, len(p) - 1):
                w = p[m]
                if w not in ranked:
                    raise GameFormatError(
                        f"path {list(p)} passes through unknown node {w}")
                suffix = p[m:]
                if suffix not in ranked[w] and suffix not in missing:
                    missing.append(suffix)
    # every suffix of a missing suffix is a suffix of the same listed path,
    # so adding the missing ones once closes the set
    if missing:
        if not complete_suffixes:
            raise SuffixClosureRepairNeeded([list(s) for s in missing])
        for s in missing:
            ranked[s[0]].append(s)

    players = sorted(ranked)
    vertices = sorted({origin} | {v for ps in ranked.values() for p in ps for v in p})
    edges = {step for ps in ranked.values() for p in ps for step in zip(p, p[1:])}
    extra = data.get("extra_edges", [])
    if not isinstance(extra, list) or not all(
            isinstance(rec, list) and len(rec) == 2 for rec in extra):
        raise GameFormatError("'extra_edges' must be a list of [from, to] pairs")
    for rec in extra:
        u, v = (str(x) for x in rec)
        if u not in vertices or v not in vertices:
            raise GameFormatError(f"extra edge ({u},{v}) uses unknown vertices")
        if u == origin:  # the origin is owned by no one and must stay terminal
            raise GameFormatError(f"extra edge ({u},{v}) leaves the origin")
        edges.add((u, v))
    owner = {node: i + 1 for i, node in enumerate(players)}
    prefs = []
    permitted = {}
    for i, node in enumerate(players):
        prefs.append(PreferenceOrder(tuple(
            frozenset({FinitePlay(p)}) for p in ranked[node]
        )))
        permitted[i + 1] = frozenset(FinitePlay(p) for p in ranked[node])
    game = Game(len(players), tuple(vertices), frozenset(edges), owner,
                tuple(prefs), {})
    return OneTargetGame(game, permitted)
