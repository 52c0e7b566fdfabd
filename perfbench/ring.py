"""The `ring` workload: k-player rings with answers known by construction.

Each of the n ring vertices has an edge to the next ring vertex and one to
a single terminal.  `oscillating` owners prefer one hop around, then the
direct edge (a fair cycle exists, the search exits early); `converging`
owners prefer the direct edge (no cycle, every SCC is scanned, one
equilibrium).  The seed varies vertex names and which vertex each player
owns first, never the verdicts.
"""

from __future__ import annotations

import json
import random
import string

import replay
from harness import fail

PLAYERS = 3
FAMILIES = ("oscillating", "converging")
KINDS = ("p1", "bp1", "pc", "bpc")
# At n = 12 one round alone would take about 30 s, too long to repeat.
N = 10
# Each verdict counts with its fastest of three repetitions (see run.py).
MIN_ROUNDS = 3
BELIEF_SIZE = 3
CHECKS = ("termination", "fair-termination", "equilibria")


def _names(rng, count):
    out = set()
    while len(out) < count:
        out.add("".join(rng.choice(string.ascii_lowercase) for _ in range(4)))
    out = sorted(out)
    rng.shuffle(out)
    return out


def ring_doc(n, family, rng, players=PLAYERS):
    """(game document, expected answers) of an n-vertex ring."""
    *order, t = _names(rng, n + 1)
    rot = rng.randrange(n)
    owner = {order[i]: (i + rot) % players + 1 for i in range(n)}
    nxt = {order[i]: order[(i + 1) % n] for i in range(n)}
    prefs = {}
    for p in range(1, players + 1):
        mine = [v for v in order if owner[v] == p]
        hop = [{"path": [v, nxt[v], t]} for v in mine]
        direct = [{"path": [v, t]} for v in mine]
        prefs[str(p)] = [hop, direct] if family == "oscillating" else [direct, hop]
    doc = {
        "players": players,
        "vertices": order + [t],
        "edges": [[v, nxt[v]] for v in order] + [[v, t] for v in order],
        "owner": owner,
        "preferences": prefs,
    }
    if family == "converging":
        eq = [{v: t for v in order}]
    elif n % 2:
        eq = []
    else:
        # a vertex routes around exactly when its successor routes direct
        eq = [{order[i]: (nxt[order[i]] if i % 2 == k else t) for i in range(n)}
              for k in (0, 1)]
    expected = {
        "profiles": 2 ** n,
        "terminates": family == "converging",
        "fair": family == "oscillating",
        "equilibria": {replay.freeze(e) for e in eq},
    }
    return doc, expected


class Instance:
    """A generated ring: its document as text, its known answers, the
    replayer's reference, and (after set-up) the parsed game."""

    def __init__(self, name, doc, expected):
        self.name = name
        self.text = json.dumps(doc)
        self.expected = expected
        self.ref = replay.Game(doc)
        self.game = None


def prepare(seed, root):
    rng = random.Random(seed)
    return {
        "instances": [Instance(f"{family}-{N}", *ring_doc(N, family, rng))
                      for family in FAMILIES],
        "belief": [Instance(f"{family}-{BELIEF_SIZE}", *ring_doc(BELIEF_SIZE, family, rng))
                   for family in FAMILIES],
        "problems": [],
    }


def setup(ctx, tr):
    from gamedyn import parse_game

    for inst in ctx["instances"] + ctx["belief"]:
        with tr.span("game.parse_s"):
            inst.game = parse_game(inst.text)


def _timed(tr, name, fn, *args, **kwargs):
    with tr.span(name):
        return fn(*args, **kwargs)


def _layer_probes(rec, tr, game):
    """Trace-only: the strategy and game layers on the instance itself."""
    from gamedyn import enumerate_profiles, outcome, positional_plays

    with tr.probe(rec, "strategy.enumerate_s"):
        profiles = list(enumerate_profiles(game))
    tr.add("strategy.profiles", len(profiles))
    vs = game.non_terminals()
    with tr.probe(rec, "strategy.outcome_s"):
        for p in profiles:
            for v in vs:
                outcome(game, p, v)
    tr.add("strategy.outcomes", len(profiles) * len(vs))
    with tr.probe(rec, "game.plays_s"):
        plays = sum(len(positional_plays(game, v)) for v in game.vertices)
    tr.add("game.plays", plays)


def graph_probes(rec, tr, dg):
    """Trace-only: time the graph layer that find_cycle/find_fair_cycle
    build internally, as a separate probe on the same dynamics graph."""
    from gamedyn.graphs import strongly_connected_components

    with tr.probe(rec, "graphs.digraph_s"):
        g = dg.digraph()
    with tr.probe(rec, "graphs.scc_s"):
        sccs = strongly_connected_components(g)
    tr.add("graphs.sccs", len(sccs))
    tr.add("graphs.nontrivial_sccs", sum(
        1 for c in sccs if len(c) > 1 or next(iter(c)) in g.successors(next(iter(c)))))


def run_round(ctx, rec, tr):
    from gamedyn import (build_belief_graph, build_dynamics, check_diamond,
                         equilibria, find_cycle, find_fair_cycle,
                         find_lfair_cycle, sinks)

    players = range(1, PLAYERS + 1)
    for inst in ctx["instances"]:
        if tr.on:
            _layer_probes(rec, tr, inst.game)
        for kind in KINDS:
            key = (inst.name, kind)
            try:
                dg = _timed(tr, "dynamics.build_s." + kind, build_dynamics, inst.game, kind)
            except Exception as exc:  # one build error settles all three verdicts
                for check in CHECKS:
                    rec.call(key + (check,), _raise, exc)
                continue
            if tr.on:
                tr.add("dynamics.nodes", len(dg.nodes))
                tr.add("dynamics.edges", len(dg.edges))
                graph_probes(rec, tr, dg)
            term = rec.call(key + ("termination",), _timed, tr, "analysis.cycle_s",
                            find_cycle, dg)
            term["nodes"] = len(dg.nodes)
            cyc = term["result"]
            fair = rec.call(key + ("fair-termination",), _timed, tr, "analysis.fair_s",
                            find_fair_cycle, dg, players=players)["result"]
            if tr.on:
                for w in (cyc, getattr(fair, "witness", None)):
                    tr.add("analysis.witness_len", len(w.cycle) if w else 0)
            rec.call(key + ("equilibria",), _timed, tr, "analysis.equilibria_s",
                     equilibria, dg)
            del dg
    for inst in ctx["belief"]:
        key = (inst.name, "belief")
        try:
            bg = _timed(tr, "dynamics.belief_build_s", build_belief_graph, inst.game)
        except Exception as exc:
            for check in ("sinks", "diamond", "label-fair"):
                rec.call(key + (check,), _raise, exc)
            continue
        tr.add("dynamics.belief_nodes", len(bg.nodes))
        e = rec.call(key + ("sinks",), _timed, tr, "analysis.belief_s", sinks, bg)
        e["nodes"] = len(bg.nodes)
        rec.call(key + ("diamond",), _timed, tr, "analysis.belief_s", check_diamond, bg)
        rec.call(key + ("label-fair",), _timed, tr, "analysis.belief_s",
                 find_lfair_cycle, bg)


def _raise(exc):
    raise exc


def _cycle(witness):
    return [p.as_dict() for p in witness.cycle]


def _belief_node(node):
    return tuple(replay.freeze(row.as_dict()) for row in node.rows)


def check(ctx, rec):
    by_name = {i.name: i for i in ctx["instances"] + ctx["belief"]}
    belief_refs = {}
    for e in rec.verdicts:
        if e["status"] != "ok":
            continue
        name, kind, what = e["key"]
        inst, r = by_name[name], e["result"]
        exp, ref = inst.expected, inst.ref
        if kind == "belief":
            if name not in belief_refs:
                b = replay.Belief(ref)
                belief_refs[name] = (b, b.reach())
            b, reach = belief_refs[name]
            if what == "sinks":
                if e["nodes"] != exp["profiles"] ** PLAYERS:
                    fail(e, "belief graph size differs from profiles^players")
                elif {_belief_node(n) for n in r} != b.sinks():
                    fail(e, "sinks differ from the replayed belief graph")
            elif what == "diamond":
                if r[0] != b.diamond(reach):
                    fail(e, "diamond verdict differs from the replayed belief graph")
            elif (r is not None) != b.lfair_exists(reach):
                fail(e, "label-fair cycle existence differs from the replay")
            elif r is not None and b.check_lfair([_belief_node(n) for n in r.cycle]):
                fail(e, "label-fair witness does not replay")
            continue
        if what == "termination":
            if e["nodes"] != exp["profiles"]:
                fail(e, f"{e['nodes']} profiles, expected {exp['profiles']}")
            elif (r is None) != exp["terminates"]:
                fail(e, f"terminates={r is None}, expected {exp['terminates']}")
            elif r is not None and replay.check_cycle(ref, kind, _cycle(r)):
                fail(e, "cycle witness does not replay")
        elif what == "fair-termination":
            if r.fair != exp["fair"]:
                fail(e, f"fair={r.fair}, expected {exp['fair']}")
            elif r.fair and replay.check_fair_cycle(ref, kind, _cycle(r.witness),
                                                    range(1, PLAYERS + 1)):
                fail(e, "fair-cycle witness does not replay")
        else:
            got = {replay.freeze(p.as_dict()) for p in r}
            if got != exp["equilibria"]:
                fail(e, f"{len(got)} equilibria, expected {len(exp['equilibria'])}")
            elif not all(ref.is_equilibrium(dict(p)) for p in got):
                fail(e, "a reported equilibrium has an improving move")
