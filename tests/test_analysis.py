"""Termination, cycle witnesses, fairness, and belief-graph analyses."""

import json
import random

import pytest

from gamedyn import (
    BeliefGraph,
    build_belief_graph,
    build_dynamics,
    check_diamond,
    equilibria,
    find_cycle,
    find_fair_cycle,
    find_lfair_cycle,
    parse_game,
    reachable_two_sinks,
    sinks,
    terminates,
)
from gamedyn.analysis import CANNOT_SWITCH, NON_SWITCHER, SWITCHES
from gamedyn.errors import NonDeterministicBestReply

from .conftest import load_game
from .generators import random_game, ring_doc
from .oracles import (belief_analyses_by_enumeration, fair_cycle_exists, is_closed_walk,
                      is_fair_walk, is_label_fair_walk)


def all_players(game):
    return tuple(range(1, game.n_players + 1))


def test_terminates_iff_no_cycle():
    for seed in range(40):
        game = random_game(seed)
        dg = build_dynamics(game, "p1", guard=None)
        witness = find_cycle(dg)
        assert terminates(dg) == (witness is None)
        if witness is not None:
            assert is_closed_walk(dg.nodes, dg.succ, witness.cycle)


def test_equilibria_are_exactly_sinks():
    for seed in range(40):
        game = random_game(seed)
        dg = build_dynamics(game, "pc", guard=None)
        eq = equilibria(dg)
        for i, n in enumerate(dg.nodes):
            assert (n in eq) == (not dg.succ[i])


def test_fair_cycle_matches_oracle():
    for seed in range(60):
        game = random_game(seed)
        dg = build_dynamics(game, "pc", guard=None)
        players = all_players(game)
        report = find_fair_cycle(dg, players=players)
        assert report.fair == fair_cycle_exists(dg.nodes, dg.edges, players)
        if report.witness is not None:
            assert is_fair_walk(dg.nodes, dg.edges, players, report.witness.cycle)


def test_fair_cycle_gdis(gdis):
    pc = build_dynamics(gdis, "pc")
    report = find_fair_cycle(pc, players=(1, 2))
    assert report.fair
    assert report.per_player == {1: SWITCHES, 2: SWITCHES}
    assert is_fair_walk(pc.nodes, pc.edges, (1, 2), report.witness.cycle)


def test_fair_cycle_over_no_players_is_the_first_cycle(gdis):
    """With no player to be fair to, every nontrivial component is fair, and
    the witness is the cycle find_cycle finds."""
    pc = build_dynamics(gdis, "pc")
    report = find_fair_cycle(pc, players=())
    assert (report.fair, report.per_player) == (True, {})
    assert report.witness == find_cycle(pc)


def test_fair_cycle_fig3(fig3):
    pc = build_dynamics(fig3, "pc")
    report = find_fair_cycle(pc, players=(1, 2))
    assert report.fair
    assert {pc.label(n) for n in report.witness.cycle} == {"c1c2", "s1s2"}
    assert is_fair_walk(pc.nodes, pc.edges, (1, 2), report.witness.cycle)
    # best-reply concurrent updating escapes the oscillation entirely
    bpc = build_dynamics(fig3, "bpc")
    assert terminates(bpc)
    assert sorted(bpc.label(e) for e in equilibria(bpc)) == ["ds2"]


def test_fair_cycle_fig4(fig4):
    """A cycling arena whose unique oscillation starves one player."""
    pc = build_dynamics(fig4, "pc", guard=None)
    assert find_cycle(pc) is not None
    report = find_fair_cycle(pc, players=all_players(fig4))
    assert not report.fair
    assert report.per_player[3] == NON_SWITCHER
    assert report.per_player[1] == SWITCHES and report.per_player[2] == SWITCHES


def test_fair_cycle_fig5(fig5):
    pc = build_dynamics(fig5, "pc", guard=None)
    report = find_fair_cycle(pc, players=all_players(fig5))
    assert report.fair
    assert is_fair_walk(pc.nodes, pc.edges, all_players(fig5), report.witness.cycle)


def test_per_player_vocabulary():
    for seed in range(30):
        game = random_game(seed)
        dg = build_dynamics(game, "bpc", guard=None)
        report = find_fair_cycle(dg, players=all_players(game))
        for verdict in report.per_player.values():
            assert verdict in (SWITCHES, CANNOT_SWITCH, NON_SWITCHER)


def test_fair_cycle_reads_players_from_an_iterator():
    """players is read for every component and again for the witness, so a
    one-shot iterator must give the report a tuple gives."""
    for seed in range(2000):
        game = random_game(seed)
        for kind in ("p1", "bp1", "pc", "bpc"):
            dg = build_dynamics(game, kind, guard=None)
            players = all_players(game)
            assert find_fair_cycle(dg, players=iter(players)) == find_fair_cycle(dg, players)


# ---------------------------------------------------------------------------
# belief graphs


def test_belief_analyses_gdis(gdis):
    bg = build_belief_graph(gdis)
    assert len(bg.nodes) == 16
    assert len(sinks(bg)) == 2
    pair = reachable_two_sinks(bg)
    assert pair is not None and len(set(pair)) >= 2
    ok, counterexample = check_diamond(bg)
    assert ok and counterexample is None
    witness = find_lfair_cycle(bg)
    assert witness is not None
    assert is_label_fair_walk(bg.nodes, bg.delta, witness.cycle)
    assert len(set(witness.cycle)) > 1


def test_belief_lfair_cycle_random():
    for seed in range(15):
        game = random_game(seed, max_vertices=4, max_players=2)
        try:
            bg = build_belief_graph(game, guard=None)
        except NonDeterministicBestReply:
            # belief updating needs a unique best reply; some random games
            # have preference ties that make the update a relation
            continue
        witness = find_lfair_cycle(bg)
        if witness is not None:
            assert is_label_fair_walk(bg.nodes, bg.delta, witness.cycle)


def _belief_games():
    for name in ("gdis", "fig3", "fig4"):
        yield name, load_game(f"{name}.json")
    for seed in range(200):
        yield f"seed {seed}", random_game(seed, max_vertices=4, max_players=2)


def _check_against_enumeration(bg, name):
    """Compare the four belief analyses with the brute-force oracle; return
    the diamond verdict."""
    pos = {n: i for i, n in enumerate(bg.nodes)}
    want_sinks, want_diamond, want_two, want_lfair = belief_analyses_by_enumeration(
        len(bg.nodes), len(bg.label_set), bg.delta)
    assert {pos[n] for n in sinks(bg)} == want_sinks, name
    ok, cex = check_diamond(bg)
    assert (ok, cex and (pos[cex[0]], cex[1], cex[2])) == (want_diamond is None,
                                                           want_diamond), name
    two = reachable_two_sinks(bg)
    assert (two and tuple(pos[n] for n in two)) == want_two, name
    witness = find_lfair_cycle(bg)
    assert (witness is not None) == want_lfair, name
    if witness is not None:
        assert is_label_fair_walk(bg.nodes, bg.delta, witness.cycle), name
        assert len(set(witness.cycle)) > 1, name
    return ok


def test_belief_analyses_match_enumeration():
    verdicts = []
    for name, game in _belief_games():
        try:
            bg = build_belief_graph(game, guard=None)
        except NonDeterministicBestReply:
            continue
        verdicts.append(_check_against_enumeration(bg, name))
    assert False in verdicts  # the range holds failing diamond checks


def test_labelled_graph_analyses_match_enumeration():
    # random complete deterministic labelled graphs: unlike the belief graphs
    # above, these have bottom components of several nodes
    graphs = {}
    for seed in range(300):
        rng = random.Random(seed)
        n, labels = rng.randint(1, 7), rng.randint(1, 3)
        graphs[f"seed {seed}"] = tuple(tuple(rng.randrange(n) for _ in range(n))
                                       for _ in range(labels))
    # its first component of two or more nodes, {0, 1}, is left by label 1,
    # so find_lfair_cycle goes on, in whole-graph order, to {2, 4, 6}
    graphs["skip"] = ((1, 0, 6, 5, 2, 5, 6, 7), (7, 7, 3, 0, 2, 5, 4, 7))
    for name, delta in graphs.items():
        bg = BeliefGraph(nodes=tuple(f"n{i}" for i in range(len(delta[0]))),
                         n_players=len(delta) - 1, delta=delta, names=(), v0=frozenset(),
                         profiles=None)
        _check_against_enumeration(bg, name)
    assert set(find_lfair_cycle(bg).cycle) <= {"n2", "n4", "n6"}


def _bottom_count(bg):
    """How many bottom components the graph has, by brute force: the
    distinct reach sets of the nodes that every node they reach reaches."""
    n = len(bg.nodes)
    reach = []
    for v in range(n):
        seen, todo = {v}, [v]
        while todo:
            u = todo.pop()
            for row in bg.delta:
                if row[u] not in seen:
                    seen.add(row[u])
                    todo.append(row[u])
        reach.append(frozenset(seen))
    return len({reach[v] for v in range(n) if all(v in reach[w] for w in reach[v])})


def test_closure_analyses_match_enumeration():
    """The four analyses answer as the oracle does on 2- and 3-player games
    whose closure of label 0's targets holds one bottom component, where
    check_diamond answers there, and several, where it checks every node."""
    kinds = set()
    for seed in range(300):
        game = random_game(seed, max_vertices=4, max_players=3)
        if game.n_players < 2:
            continue
        try:
            bg = build_belief_graph(game, guard=None)
        except NonDeterministicBestReply:
            continue
        _check_against_enumeration(bg, f"seed {seed}")
        kinds.add((game.n_players, min(_bottom_count(bg), 2)))
    assert kinds == {(2, 1), (2, 2), (3, 1), (3, 2)}


@pytest.mark.parametrize("family", ["oscillating", "converging"])
def test_closure_analyses_build_few_rows(family):
    """On a 4-player 4-vertex ring (65,536 nodes) sinks, find_lfair_cycle
    and, on the converging ring, check_diamond read the rows of the closure
    of label 0's targets, 81 or 82 nodes, and make a BeliefNode only for
    the nodes they return.  The oscillating ring has two sinks, so its
    diamond check reads every row, and is left out."""
    bg = build_belief_graph(parse_game(json.dumps(ring_doc(4, family, players=4))))
    assert len(bg.nodes) == 65536
    found, cycle = sinks(bg), find_lfair_cycle(bg)
    if family == "oscillating":
        assert len(found) == 2 and cycle is not None
        walk = tuple(map(bg.index, cycle.cycle))
        assert is_closed_walk(range(len(bg.nodes)), bg.succ, walk) and len(set(walk)) > 1
    else:
        assert len(found) == 1 and cycle is None
        assert check_diamond(bg) == (True, None)
    assert dict.__len__(bg.succ) <= 100
    assert dict.__len__(bg.nodes) == len(found | set(cycle.cycle if cycle else ()))
