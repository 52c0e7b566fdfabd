"""Update-dynamics graphs: unilateral, best-reply, concurrent, one-step."""

import gc
import json
import random
import weakref

import pytest

from gamedyn import (
    DeleteEdge,
    DeletionScript,
    StrategyProfile,
    build_belief_graph,
    build_dynamics,
    equilibria,
    find_cycle,
    find_fair_cycle,
    is_dominated,
    otg_from_game,
    parse_game,
    safety_verdict,
    script_is_dominant,
)
from gamedyn.dynamics import KINDS
from gamedyn.errors import CyclicArena, NonDeterministicBestReply, StateSpaceTooLarge
from gamedyn.strategy import PROFILE_GUARD, Profiles, enumerate_profiles, outcome
from gamedyn.game import Comparison, FinitePlay, Game, PreferenceOrder

from .conftest import load_game, play_ranks, positional_oracle
from .generators import random_game, ring_doc
from .oracles import (
    belief_delta_by_enumeration,
    equilibria_by_enumeration,
    one_step_by_enumeration,
)
from .test_strategy import LOOP_BACK, _ranked_directly, changed_vertices


def edge_set(dg):
    return {(dg.label(n), dg.label(m), tuple(sorted(ch))) for n, m, ch in dg.edges}


def test_unilateral_dynamics_gdis(gdis):
    dg = build_dynamics(gdis, "p1")
    assert sorted(dg.label(n) for n in dg.nodes) == ["c1c2", "c1s2", "s1c2", "s1s2"]
    assert edge_set(dg) == {
        ("c1c2", "c1s2", (2,)),
        ("c1c2", "s1c2", (1,)),
        ("s1s2", "c1s2", (1,)),
        ("s1s2", "s1c2", (2,)),
    }
    # with two successors per vertex, best-reply and improving coincide here
    assert edge_set(build_dynamics(gdis, "bp1")) == edge_set(dg)


def test_best_reply_moves_gdis(gdis):
    dg = build_dynamics(gdis, "bp1")
    both_stop = StrategyProfile.from_dict({"v1": "vbot", "v2": "vbot"})
    # with v2 stopping, v1's indirect route is available and preferred
    assert (both_stop, both_stop.updated("v1", "v2"), frozenset({1})) in dg.edges
    both_cont = StrategyProfile.from_dict({"v1": "v2", "v2": "v1"})
    # continuing would close the ring, the worst play for player 2
    assert (both_cont, both_cont.updated("v2", "vbot"), frozenset({2})) in dg.edges


def test_concurrent_dynamics_gdis(gdis):
    pc = build_dynamics(gdis, "pc")
    assert edge_set(pc) == edge_set(build_dynamics(gdis, "p1")) | {
        ("c1c2", "s1s2", (1, 2)),
        ("s1s2", "c1c2", (1, 2)),
    }
    assert edge_set(build_dynamics(gdis, "bpc")) == edge_set(pc)


def test_equilibria_gdis(gdis):
    for kind in ("p1", "bp1", "pc", "bpc"):
        dg = build_dynamics(gdis, kind)
        assert sorted(dg.label(e) for e in equilibria(dg)) == ["c1s2", "s1c2"]


def test_inclusions_random():
    """bp1 is contained in p1; every p1 edge appears in pc (and bp1 in bpc)."""
    for seed in range(25):
        game = random_game(seed)
        graphs = {k: edge_set(build_dynamics(game, k, guard=None))
                  for k in ("p1", "bp1", "pc", "bpc")}
        assert graphs["bp1"] <= graphs["p1"]
        assert graphs["p1"] <= graphs["pc"]
        assert graphs["bp1"] <= graphs["bpc"]


def test_p1_edges_are_strict_improvements():
    for seed in range(25):
        game = random_game(seed)
        dg = build_dynamics(game, "p1", guard=None)
        for sigma, tau, changed in dg.edges:
            diff = changed_vertices(sigma, tau)
            assert len(diff) == 1
            (v,) = diff
            player = game.owner[v]
            assert changed == frozenset({player})
            cmp = game.preference(player).compare(
                outcome(game, tau, v), outcome(game, sigma, v)
            )
            assert cmp is Comparison.GREATER


def test_pc_edges_decompose_into_unilateral_moves():
    for seed in range(25):
        game = random_game(seed)
        p1 = edge_set(build_dynamics(game, "p1", guard=None))
        pc = build_dynamics(game, "pc", guard=None)
        for sigma, tau, _ in pc.edges:
            for v in changed_vertices(sigma, tau):
                solo = sigma.updated(v, tau.as_dict()[v])
                assert (
                    pc.label(sigma),
                    pc.label(solo),
                    (game.owner[v],),
                ) in p1


def test_one_step_requires_acyclic(gdis):
    with pytest.raises(CyclicArena):
        build_dynamics(gdis, "1")


def test_one_step_fig2(fig2):
    dg = build_dynamics(fig2, "1", guard=None)
    assert len(dg.nodes) == 768
    # history-based updating never revisits a profile: the graph is acyclic
    from gamedyn.analysis import terminates

    assert terminates(dg)


def _one_step_oracle(game):
    ranks = {i: {play.path: r for r, cls in enumerate(pref.ranks) for play in cls}
             for i, pref in enumerate(game.preferences, start=1)}
    return one_step_by_enumeration(game.vertices, game.edges, game.owner, ranks)


def test_one_step_matches_enumeration(fig2):
    for game in (fig2, *(random_game(seed, acyclic=True) for seed in range(200))):
        dg = build_dynamics(game, "1", guard=None)
        labels, updates = _one_step_oracle(game)
        assert [dg.label(n) for n in dg.nodes] == labels
        assert {(dg.label(u), dg.label(v), tuple(sorted(c))) for u, v, c in dg.edges} == updates


def _listed_twice():
    """LOOP_BACK with a->t also in player 1's first class, which only a game
    built without validation can hold."""
    game = parse_game(json.dumps(LOOP_BACK))
    first, second = game.preferences
    doubled = PreferenceOrder(((first.ranks[0] | {FinitePlay(("a", "t"))}),) + first.ranks[1:])
    return Game(game.n_players, game.vertices, game.edges, game.owner, (doubled, second),
                game.edge_labels)


FIXTURE_GAMES = ("gdis.json", "fig2.json", "fig3.json", "fig4.json", "fig5.json")


@pytest.mark.parametrize("kind", ["p1", "bp1", "pc", "bpc"])
def test_positional_dynamics_match_enumeration(kind):
    games = [load_game(name) for name in FIXTURE_GAMES] + [_listed_twice()]
    for game in games + [random_game(seed) for seed in range(200)]:
        dg = build_dynamics(game, kind, guard=None)
        labels, updates = positional_oracle(game, kind)
        assert [dg.label(n) for n in dg.nodes] == labels
        assert {(dg.label(u), dg.label(v), tuple(sorted(c))) for u, v, c in dg.edges} == updates


def scanned_games():
    """The games the profile scans are checked on: the fixtures, LOOP_BACK,
    games ranked without validation, random_game seeds 0..299, and rings of
    8 to 12 vertices in both families, named at random so that a ring's
    order is not the order of its digits."""
    games = [load_game(name) for name in FIXTURE_GAMES]
    games += [parse_game(json.dumps(LOOP_BACK)), *_ranked_directly()]
    games += [random_game(seed) for seed in range(300)]
    rng = random.Random(21)
    games += [parse_game(json.dumps(ring_doc(n, family, rng=rng)))
              for n in range(8, 13) for family in ("oscillating", "converging")]
    return games


def test_equilibria_match_enumeration():
    """Per kind, equilibria on a fresh graph, and again once find_cycle has
    built rows, are the profiles from which no vertex has an improving move:
    the sinks of the oracle's dynamics, which tries every pair of profiles
    and so is run where there are at most 256."""
    for game in scanned_games():
        edges = [(u, v, game.edge_labels[u, v]) if (u, v) in game.edge_labels else (u, v)
                 for u, v in game.edges]
        want = equilibria_by_enumeration(game.vertices, edges, game.owner, play_ranks(game))
        for kind in ("p1", "bp1", "pc", "bpc"):
            if len(Profiles(game)) <= 256:
                labels, updates = positional_oracle(game, kind)
                moved = {u for u, _, _ in updates}
                assert [label for label in labels if label not in moved] == want
            dg = build_dynamics(game, kind, guard=None)
            assert sorted(map(dg.label, equilibria(dg))) == sorted(want), (game, kind)
            find_cycle(dg)
            assert sorted(map(dg.label, equilibria(dg))) == sorted(want), (game, kind)


# `t!` sorts after `t` in enumeration order but before it in repr order, and
# repr quotes `x'` with double quotes, which sort before single ones.
ORDER_TRAP = {
    "players": 2,
    "vertices": ["p", "q", "t", "t!", "x'"],
    "edges": [["p", "q"], ["p", "t"], ["p", "t!"], ["q", "p"], ["q", "x'"]],
    "owner": {"p": 1, "q": 2},
    "preferences": {
        "1": [[{"path": ["p", "q", "x'"]}], [{"path": ["p", "t"]}, {"path": ["p", "t!"]}]],
        "2": [[{"path": ["q", "p", "t"]}, {"path": ["q", "p", "t!"]}], [{"path": ["q", "x'"]}]],
    },
}


def test_successors_follow_enumeration_order():
    dg = build_dynamics(parse_game(json.dumps(ORDER_TRAP)), "pc")
    assert [dg.label(n) for n in dg.nodes] == [
        "p:qq:p", "p:qq:x'", "p:tq:p", "p:tq:x'", "p:t!q:p", "p:t!q:x'"]
    for row in dg.succ:
        assert list(row) == sorted(row)
    assert [(dg.names[j], sorted(c)) for j, c in zip(dg.succ[0], dg.changed[0])] == [
        ("p:qq:x'", [2]), ("p:tq:p", [1]), ("p:tq:x'", [1, 2]),
        ("p:t!q:p", [1]), ("p:t!q:x'", [1, 2])]
    # the cycle starts at the least index and leaves it by its first successor
    assert [dg.label(n) for n in find_cycle(dg).cycle] == ["p:qq:p", "p:tq:x'"]


def test_kinds_table(gdis):
    assert KINDS == ("1", "p1", "bp1", "pc", "bpc")
    with pytest.raises(ValueError):
        build_dynamics(gdis, "nope")


def test_belief_graph_shape(gdis):
    bg = build_belief_graph(gdis)
    n = len(list(enumerate_profiles(gdis)))
    assert len(bg.nodes) == n * n
    assert bg.label_set == (0, 1, 2)
    for node in bg.nodes:
        for lbl in bg.label_set:
            assert 0 <= bg.delta[lbl][bg.index(node)] < len(bg.nodes)


def test_belief_names_and_v0_follow_the_rows():
    checked = 0
    for seed in range(200):
        game = random_game(seed)
        try:
            bg = build_belief_graph(game)
        except (NonDeterministicBestReply, StateSpaceTooLarge):
            continue
        p1 = build_dynamics(game, "p1")
        v0 = set()
        for i, node in enumerate(bg.nodes):
            assert bg.label(node) == "|".join(p1.label(row) for row in node.rows)
            true = {v: node.rows[game.owner[v] - 1].as_dict()[v] for v in game.non_terminals()}
            if all(row.as_dict() == true for row in node.rows):
                v0.add(i)
        assert bg.v0 == v0, seed
        checked += 1
    assert checked > 100


def test_belief_v0_is_the_diagonal_of_a_large_graph():
    """On the converging 4-player 4-vertex ring (65,536 nodes), v0 is the
    set of label 0's fixed points, every one a node whose rows are equal."""
    bg = build_belief_graph(ring_game(4, "converging", players=4))
    to_true = bg.delta[0]
    assert bg.v0 == {t for t in set(to_true) if to_true[t] == t}
    assert bg.v0 == frozenset(range(0, 65536, 4369))


def test_belief_delta_matches_enumeration():
    games = [load_game(name) for name in ("gdis.json", "fig3.json", "fig4.json")]
    checked = nondeterministic = 0
    for game in games + [random_game(seed) for seed in range(200)]:
        if Profiles(game).count ** game.n_players > PROFILE_GUARD:
            continue
        want, clash = belief_delta_by_enumeration(game.vertices, game.edges, game.owner,
                                                  play_ranks(game))
        try:
            bg = build_belief_graph(game)
        except NonDeterministicBestReply as exc:
            assert clash is not None
            assert (exc.player, sorted(t.items for t in exc.targets)) == (
                clash[0], sorted(tuple(sorted(t.items())) for t in clash[1]))
            nondeterministic += 1
            continue
        assert clash is None
        assert [list(ts) for ts in bg.delta] == want
        checked += 1
    assert checked > 150 and nondeterministic > 20


# ---------------------------------------------------------------------------
# Rows built on first read


def _verdicts(dg):
    """Equilibria first, so that on a fresh graph they read no row."""
    players = range(1, dg.nodes.game.n_players + 1)
    return equilibria(dg), find_cycle(dg), find_fair_cycle(dg, players=players)


def test_lazy_rows_equal_eager_rows():
    games = [load_game(name) for name in FIXTURE_GAMES]
    games += [parse_game(json.dumps(LOOP_BACK))] + [random_game(seed) for seed in range(200)]
    rng = random.Random(0)
    for game in games:
        for kind in KINDS:
            try:
                eager = build_dynamics(game, kind)
            except CyclicArena:
                continue
            succ, changed = list(eager.succ), list(eager.changed)
            n = len(succ)
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            for order in (range(n), range(n - 1, -1, -1), shuffled):
                dg = build_dynamics(game, kind)
                # changed first on odd rows, so either row can build both
                for i in order:
                    if i % 2:
                        assert (dg.changed[i], dg.succ[i]) == (changed[i], succ[i])
                    else:
                        assert (dg.succ[i], dg.changed[i]) == (succ[i], changed[i])
            assert _verdicts(build_dynamics(game, kind)) == _verdicts(eager)


def ring_game(n, family, players=3):
    return parse_game(json.dumps(ring_doc(n, family, players)))


@pytest.fixture
def moves_calls(monkeypatch):
    """The profile indices each Profiles.moves_at call is made for, in call
    order: one call per dynamics row built."""
    calls, moves_at = [], Profiles.moves_at

    def counted(self, i, best_reply):
        calls.append(i)
        return moves_at(self, i, best_reply)

    monkeypatch.setattr(Profiles, "moves_at", counted)
    return calls


@pytest.mark.parametrize("kind", ["p1", "bp1", "pc", "bpc"])
def test_searches_build_only_the_rows_they_read(kind, moves_calls):
    oscillating = ring_game(10, "oscillating")
    dg = build_dynamics(oscillating, kind)
    assert moves_calls == []
    assert find_cycle(dg) is not None
    assert 0 < len(moves_calls) < 1024 / 5
    assert find_fair_cycle(dg, players=(1, 2, 3)).fair
    fresh = build_dynamics(oscillating, kind)
    del moves_calls[:]
    assert find_fair_cycle(fresh, players=(1, 2, 3)).fair
    assert 0 < len(moves_calls) < 1024 / 5
    fresh = build_dynamics(oscillating, kind)
    del moves_calls[:]
    assert len(equilibria(fresh)) == 2 and moves_calls == []

    converging = build_dynamics(ring_game(10, "converging"), kind)
    assert _verdicts(converging)[1] is None
    assert len(list(converging.succ)) == len(list(converging.changed)) == 1024
    assert len(moves_calls) == len(set(moves_calls)) == 1024


@pytest.mark.parametrize("kind", ["p1", "bp1", "pc", "bpc"])
def test_equilibria_walk_only_the_plays_they_read(kind, moves_calls, monkeypatch):
    """A fresh equilibria evaluates one profile per block of profiles that
    share a move, and builds no row; a dominance that holds reads one
    profile per block of profiles that rank the two plays alike."""
    asked = []
    has_move, reads = Profiles.has_move, Profiles.reads

    def counted_has_move(self, i):
        asked.append(i)
        return has_move(self, i)

    def counted_reads(self, i, k, choices):
        asked.append(i)
        return reads(self, i, k, choices)

    monkeypatch.setattr(Profiles, "has_move", counted_has_move)
    monkeypatch.setattr(Profiles, "reads", counted_reads)
    dg = build_dynamics(ring_game(10, "oscillating"), kind)
    assert len(equilibria(dg)) == 2 and moves_calls == []
    assert len(asked) == len(set(asked)) < 1024 / 8
    del asked[:]
    assert is_dominated(ring_game(10, "converging"), ("v4", "v5"), ("v4", "t"))
    assert len(asked) == len(set(asked)) < 1024 / 8


@pytest.mark.parametrize("kind", ["p1", "bp1", "pc", "bpc"])
def test_update_guard_at_its_edge(fig5, kind, moves_calls):
    """The guard builds no row: a graph counts the updates of the rows it
    stores, and the read that would take the count past the guard raises.
    So a query answers wherever the rows it builds fit."""
    count = Profiles(fig5).count
    rows = list(build_dynamics(fig5, kind, guard=None).succ)
    total = sum(map(len, rows))
    del moves_calls[:]
    for guard in range(count, total + 2):
        build_dynamics(fig5, kind, guard=guard)
    assert moves_calls == []
    assert list(build_dynamics(fig5, kind, guard=total).succ) == rows
    with pytest.raises(StateSpaceTooLarge, match=f"^{kind} dynamics has over {total - 1} "):
        list(build_dynamics(fig5, kind, guard=total - 1).succ)
    dg = build_dynamics(fig5, kind, guard=None)
    witness = find_cycle(dg)
    built = sum(map(len, dict.values(dg.succ)))
    assert find_cycle(build_dynamics(fig5, kind, guard=built)) == witness
    with pytest.raises(StateSpaceTooLarge):
        find_cycle(build_dynamics(fig5, kind, guard=built - 1))
    if kind == "pc":
        assert (witness is None, built, total) == (False, 28, 44)


def test_a_tripped_guard_leaves_no_verdict_and_a_bounded_graph():
    """A read that trips the guard stores nothing past it, and a search that
    raised raises again rather than answer from the half pass it left;
    equilibria, which need no row, still answer.  The ring has 64 profiles
    and a cycle that find_cycle reaches after building 121 updates."""
    game = ring_game(6, "oscillating")
    dg = build_dynamics(game, "pc", guard=100)
    for search in (find_cycle, find_cycle, lambda dg: find_fair_cycle(dg, players=(1, 2, 3))):
        with pytest.raises(StateSpaceTooLarge, match="^pc dynamics has over 100 updates"):
            search(dg)
    assert equilibria(dg) == equilibria(build_dynamics(game, "pc", guard=None))
    assert 0 < sum(map(len, dict.values(dg.succ))) <= 100


def test_digraph_holds_every_row(fig5):
    """A dynamics graph's Digraph is a plain value: hashable, and equal to
    another's whatever rows either dynamics graph has built."""
    read, fresh = build_dynamics(fig5, "p1"), build_dynamics(fig5, "p1")
    find_cycle(read)
    g, h = read.digraph(), fresh.digraph()
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
    assert g.succ == tuple(read.succ)


def test_guard_none_is_no_bound(gdis, fig5):
    """guard=1 refuses at every bounded entry point, and guard=None (what
    the CLI's --force passes) lets each one run."""
    script = DeletionScript((DeleteEdge("v1", "vbot"),))
    otg = otg_from_game(gdis)
    calls = [
        lambda guard: list(enumerate_profiles(gdis, guard=guard)),
        lambda guard: build_dynamics(gdis, "pc", guard=guard),
        lambda guard: build_belief_graph(gdis, guard=guard),
        lambda guard: is_dominated(gdis, ("v1", "vbot"), ("v1", "v2"), guard=guard),
        lambda guard: script_is_dominant(fig5, script, guard=guard),
        lambda guard: safety_verdict(otg, "exact", guard=guard),
    ]
    for call in calls:
        with pytest.raises(StateSpaceTooLarge):
            call(1)
        call(None)


def test_a_dropped_graph_is_freed_at_once(fig5):
    """No reference cycle holds a graph's rows until the next collection."""
    gc.disable()
    try:
        dg = build_dynamics(fig5, "pc")
        find_cycle(dg)
        dg.changed[3], dg.names[3]
        profiles = weakref.ref(dg.nodes)
        del dg
        assert profiles() is None
    finally:
        gc.enable()


def test_a_label_makes_one_name():
    """Labelling a witness names its nodes and no other profile."""
    dg = build_dynamics(ring_game(12, "oscillating"), "pc")
    witness = find_cycle(dg).cycle
    labels = [dg.label(node) for node in witness]
    assert dict.__len__(dg.names) == len(set(witness))
    every = list(build_dynamics(ring_game(12, "oscillating"), "pc").names)
    assert labels == [every[dg.nodes.index(node)] for node in witness]


@pytest.fixture
def profiles_made(monkeypatch):
    """The items of every StrategyProfile made, in order."""
    made, init = [], StrategyProfile.__init__

    def counted(self, items):
        made.append(items)
        init(self, items)

    monkeypatch.setattr(StrategyProfile, "__init__", counted)
    return made


def test_build_makes_no_profile(profiles_made):
    """A graph's nodes are its numbering: a profile is made when one is
    read, and node i is the i-th profile enumerated."""
    oscillating = ring_game(10, "oscillating")
    dg = build_dynamics(oscillating, "p1")
    assert profiles_made == []
    witness = find_cycle(dg)
    assert profiles_made == [p.items for p in witness.cycle]
    # a profile read again is the one made before, so results share it
    fair = find_fair_cycle(dg, players=(1, 2, 3)).witness
    assert all(dg.nodes[dg.nodes.index(p)] is p for p in witness.cycle + fair.cycle)

    games = [load_game(name) for name in FIXTURE_GAMES] + [parse_game(json.dumps(LOOP_BACK))]
    for game in games + [random_game(seed) for seed in range(200)]:
        dg = build_dynamics(game, "p1", guard=None)
        listed = list(dg.nodes)
        assert len(dg.nodes) == len(listed) == Profiles(game).count
        assert [dg.nodes[i] for i in range(len(listed))] == listed
        assert dg.nodes[-1] == listed[-1]
        for i in (len(listed), -len(listed) - 1):
            with pytest.raises(IndexError):
                dg.nodes[i]


@pytest.fixture
def scc_starts(monkeypatch):
    """One entry per scc_stream started."""
    from gamedyn import graphs

    starts, stream = [], graphs.scc_stream

    def counted(g):
        starts.append(g)
        return stream(g)

    monkeypatch.setattr(graphs, "scc_stream", counted)
    return starts


@pytest.mark.parametrize("kind", ["p1", "bp1", "pc", "bpc"])
def test_searches_share_one_tarjan_pass(kind, scc_starts, moves_calls):
    players = (1, 2, 3)
    for family in ("converging", "oscillating"):
        game = ring_game(10, family)
        dg = build_dynamics(game, kind)
        del moves_calls[:], scc_starts[:]
        got = find_cycle(dg), find_fair_cycle(dg, players=players), find_cycle(dg)
        assert scc_starts == [dg.succ]
        if family == "oscillating":
            assert len(moves_calls) == 96
        want = (find_cycle(build_dynamics(game, kind)),
                find_fair_cycle(build_dynamics(game, kind), players=players))
        assert got == want + want[:1]
        assert (got[0] is None) == (family == "converging")
