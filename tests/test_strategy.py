"""Strategy profiles, outcomes, the tree unfolding."""

import itertools
import json
import random

import pytest

from gamedyn import (
    FinitePlay,
    Game,
    LassoPlay,
    PreferenceOrder,
    StrategyProfile,
    canonicalize,
    is_dominated,
    outcome,
    parse_game,
    positional_plays,
)
from gamedyn.errors import CyclicArena, StateSpaceTooLarge
from gamedyn.strategy import (
    Profiles,
    enumerate_histories,
    enumerate_profiles,
    unfold,
)

from .conftest import load_game
from .generators import random_game, ring_doc


def test_profile_count_matches_enumeration(gdis, fig3):
    for game in (gdis, fig3):
        profiles = list(enumerate_profiles(game))
        assert len(profiles) == len(Profiles(game))
        assert len(set(profiles)) == len(profiles)


def test_profile_count_random():
    for seed in range(30):
        game = random_game(seed)
        assert len(list(enumerate_profiles(game))) == len(Profiles(game))


def test_profile_guard():
    game = random_game(7)
    with pytest.raises(StateSpaceTooLarge):
        list(enumerate_profiles(game, guard=1))


def changed_vertices(sigma, tau):
    """The vertices whose choice differs between two profiles, sorted."""
    mine, theirs = sigma.as_dict(), tau.as_dict()
    return tuple(sorted(v for v in mine if mine[v] != theirs.get(v)))


def test_updated_and_changed(gdis):
    sigma = StrategyProfile.from_dict({"v1": "vbot", "v2": "vbot"})
    tau = sigma.updated("v1", "v2")
    assert tau.as_dict() == {"v1": "v2", "v2": "vbot"}
    assert changed_vertices(sigma, tau) == ("v1",)
    assert changed_vertices(sigma, sigma) == ()


def test_outcome_gdis(gdis):
    both_cont = StrategyProfile.from_dict({"v1": "v2", "v2": "v1"})
    assert outcome(gdis, both_cont, "v1") == LassoPlay((), ("v1", "v2"))
    mixed = StrategyProfile.from_dict({"v1": "v2", "v2": "vbot"})
    assert outcome(gdis, mixed, "v1") == FinitePlay(("v1", "v2", "vbot"))
    assert outcome(gdis, mixed, "vbot") == FinitePlay(("vbot",))


def test_outcome_random_follows_profile():
    for seed in range(40):
        game = random_game(seed)
        for sigma in enumerate_profiles(game, guard=None):
            play = outcome(game, sigma, game.vertices[0])
            choice = sigma.as_dict()
            for u, v in play.steps():
                assert u in game.terminals or choice[u] == v


# Three vertices on a cycle, each with an exit to t.  With c choosing a, a
# move at a to b runs b -> c -> a back into a and closes the loop a b c.
LOOP_BACK = {
    "players": 2,
    "vertices": ["a", "b", "c", "t"],
    "edges": [["a", "b"], ["a", "t"], ["b", "c"], ["b", "t"], ["c", "a"], ["c", "t"]],
    "owner": {"a": 1, "b": 2, "c": 1},
    "preferences": {
        "1": [[{"lasso": {"stem": [], "loop": ["a", "b", "c"]}}],
              [{"path": ["a", "b", "t"]}, {"path": ["c", "t"]}],
              [{"path": ["a", "t"]}, {"lasso": {"stem": [], "loop": ["c", "a", "b"]}}]],
        "2": [[{"path": ["b", "c", "t"]}],
              [{"lasso": {"stem": [], "loop": ["b", "c", "a"]}}],
              [{"path": ["b", "t"]}]],
    },
}


def _moves_from_ranks(profiles, profile, digits):
    """Profiles.moves_at(i, False) and (i, True) for the profile i that digits
    spells, without the trees or the rank table: every move's play built
    from vertex names and ranked by rank_of."""
    game = profiles.game
    both = [[[] for _ in range(game.n_players)] for _ in range(2)]
    for k, (v, player, c, step) in enumerate(
            zip(profiles.movers, profiles.owner, digits, profiles.weight)):
        pref = game.preference(player)
        ranks = [pref.rank_of(_play_by_names(game, profile, v, w)) for w in profiles.choices[k]]
        better = [j for j, r in enumerate(ranks) if r < ranks[c]]
        both[0][player - 1] += [(j - c) * step for j in better]
        if better:
            top = min(ranks[j] for j in better)
            better = [j for j in better if ranks[j] == top]
        both[1][player - 1] += [(j - c) * step for j in better]
    return both


def _digits(profiles):
    """Every profile's choice indices, in index order."""
    return itertools.product(*(range(len(s)) for s in profiles.choices))


def test_moves_do_not_depend_on_visiting_order():
    """Every profile's moves, read from trees grown in one visiting order and
    then in another, are those ranked afresh: on the fixtures, games that
    rank what a parsed game cannot, random games, unfolded acyclic ones
    (deeper trees) and rings of both families."""
    games = [load_game(f"{name}.json") for name in ("gdis", "fig2", "fig3", "fig4", "fig5")]
    games += [parse_game(json.dumps(LOOP_BACK)), *_ranked_directly()]
    games += [random_game(seed) for seed in range(300)]
    games += [unfold(random_game(seed, max_vertices=7, acyclic=True)) for seed in range(100)]
    games += [parse_game(json.dumps(ring_doc(n, family)))
              for n in range(8, 13) for family in ("oscillating", "converging")]
    rng = random.Random(0)
    for game in games:
        reference = Profiles(game)
        digits = list(_digits(reference))
        want = [_moves_from_ranks(reference, profile, d) for profile, d in zip(reference, digits)]
        shuffled = list(range(len(digits)))
        rng.shuffle(shuffled)
        orders = [range(len(digits)), range(len(digits) - 1, -1, -1), shuffled]
        for grown, other in zip(orders, orders[1:] + orders[:1]):
            profiles = Profiles(game)
            for order in (grown, other):
                for i in order:
                    assert [profiles.moves_at(i, b) for b in (False, True)] == want[i], (game, i)


def test_has_move_is_some_move_in_every_visiting_order():
    """has_move(i) walks only as far as a play can still be ranked; on every
    profile it is nonzero exactly when the moves of a fully walked profile
    are some move, whichever profiles were asked before it, and every
    profile of the block it skips has a move too."""
    games = [load_game(f"{name}.json") for name in ("gdis", "fig2", "fig3", "fig4", "fig5")]
    games += [parse_game(json.dumps(LOOP_BACK)), *_ranked_directly()]
    games += [random_game(seed) for seed in range(200)]
    rng = random.Random(0)
    for game in games:
        reference = Profiles(game)
        want = [any(_moves_from_ranks(reference, profile, d)[0])
                for profile, d in zip(reference, _digits(reference))]
        shuffled = list(range(len(want)))
        rng.shuffle(shuffled)
        for order in (range(len(want)), range(len(want) - 1, -1, -1), shuffled):
            profiles = Profiles(game)
            for i in order:
                past = profiles.has_move(i)
                assert bool(past) == want[i], (game, i)
                assert not past or i < past <= len(want) and all(want[i:past]), (game, i)


def _ranked_directly():
    """Games built without validation, ranking what a parsed game cannot:
    a play in two classes of one player, a lasso through a vertex twice, a
    play through a vertex outside the arena, and one play for two players;
    and with a self-loop at b, the lassos (a b)* and a (b)*, one path with
    two loop starts, ranked apart."""
    a_t, b_t, b_a_t = FinitePlay(("a", "t")), FinitePlay(("b", "t")), FinitePlay(("b", "a", "t"))
    loop = LassoPlay((), ("a", "b"))
    edges = frozenset({("a", "b"), ("a", "t"), ("b", "a"), ("b", "t")})
    first = PreferenceOrder((frozenset({b_a_t, loop}), frozenset({a_t, b_a_t}),
                             frozenset({LassoPlay(("a",), ("b", "a")), FinitePlay(("a", "z"))}),
                             frozenset({b_t})))
    second = PreferenceOrder((frozenset({b_t}), frozenset({b_t, LassoPlay((), ("b", "a"))}),
                              frozenset({LassoPlay((), ("a", "b", "a", "t")), a_t})))
    yield Game(2, ("a", "b", "t"), edges, {"a": 1, "b": 2}, (first, second), {})
    yield Game(2, ("a", "b", "t"), edges, {"a": 2, "b": 1}, (second, first), {})
    yield Game(1, ("a", "b", "t"), edges, {"a": 1, "b": 1}, (second,), {})
    third = PreferenceOrder((frozenset({LassoPlay(("a",), ("b",))}), frozenset({loop, a_t}),
                             frozenset({LassoPlay((), ("b", "a"))})))
    fourth = PreferenceOrder((frozenset({LassoPlay((), ("b",))}), frozenset({b_t}),
                              frozenset({LassoPlay((), ("b", "a")), loop})))
    yield Game(2, ("a", "b", "t"), edges | {("b", "b")}, {"a": 1, "b": 2}, (third, fourth), {})


def _play_by_names(game, profile, v, w):
    """The play from v through w under the profile, built from vertex names."""
    choice = profile.as_dict()
    path = [v]
    while w not in path:
        path.append(w)
        if w in game.terminals:
            return canonicalize(path)
        w = choice[w]
    i = path.index(w)
    return canonicalize(path[:i], path[i:])


def test_ranks_come_from_the_table_exactly():
    """reads walks a play only as far as it can still be ranked; its ranks
    are rank_of's on every profile, and a scan of the profiles whose digit
    k is 0 skips only profiles whose ranks are the ones read."""
    games = [load_game(f"{name}.json") for name in ("gdis", "fig2", "fig3", "fig4", "fig5")]
    games += [parse_game(json.dumps(LOOP_BACK)), unfold(games[1]), *_ranked_directly()]
    games += [random_game(seed) for seed in range(200)]
    for game in games:
        profiles = Profiles(game)
        everything = list(zip(profiles, _digits(profiles)))
        for k, v in enumerate(profiles.movers):
            every = range(len(profiles.choices[k]))
            want = [[tuple(pref.rank_of(_play_by_names(game, profile, v, w))
                           for pref in game.preferences) for w in profiles.choices[k]]
                    for profile, _ in everything]
            for i, (profile, _) in enumerate(everything):
                assert profiles.reads(i, k, every)[0] == want[i], (profile, v)
            i = 0
            while i < len(profiles):
                _, past = profiles.reads(i, k, every)
                assert i < past <= len(profiles), (game, v, i)
                assert past == len(profiles) or everything[past][1][k] == 0, (game, v, i)
                assert all(want[j] == want[i] for j in range(i, past)
                           if everything[j][1][k] == 0), (game, v, i)
                i = past


def test_moves_build_no_play(monkeypatch):
    games = [load_game(f"{name}.json") for name in ("gdis", "fig2", "fig3", "fig4", "fig5")]
    games += [parse_game(json.dumps(LOOP_BACK)), *_ranked_directly()]
    games += [random_game(seed) for seed in range(100)]
    for game in games:
        game.rank_table()

    def rank_of(pref, play):
        raise AssertionError(f"rank_of({play}) on the hot path")

    monkeypatch.setattr(PreferenceOrder, "rank_of", rank_of)
    for game in games:
        profiles = Profiles(game)
        for i in range(len(profiles)):
            profiles.moves_at(i, False)
            profiles.moves_at(i, True)
            profiles.has_move(i)
        for v in game.non_terminals():
            for w1, w2 in itertools.permutations(game.successors(v), 2):
                is_dominated(game, (v, w1), (v, w2), guard=None)


# ---------------------------------------------------------------------------
# histories (acyclic arenas only)


def test_enumerate_histories_rejects_cycles(gdis):
    with pytest.raises(CyclicArena):
        enumerate_histories(gdis)
    # the message names the least vertex of the cycle, not the first listed
    game = Game(1, ("v3", "v2", "t"), frozenset({("v3", "v2"), ("v2", "v3"), ("v2", "t")}),
                {"v3": 1, "v2": 1}, (PreferenceOrder(()),), {})
    with pytest.raises(CyclicArena, match="cycle through 'v2'"):
        enumerate_histories(game)


def test_history_profiles(fig2):
    hists = enumerate_histories(fig2)
    assert all(h[-1] not in fig2.terminals for h in hists)
    assert len(set(hists)) == len(hists)
    tree = unfold(fig2)
    assert tree.non_terminals() == tuple(hists)
    for h in hists:
        assert tree.owner[h] == fig2.owner[h[-1]]
        assert tree.successors(h) == tuple(h + (w,) for w in fig2.successors(h[-1]))
    assert len(list(enumerate_profiles(tree, guard=None))) == len(Profiles(tree)) == 768


def test_unfolding_outcome_consistent(fig2):
    tree = unfold(fig2)
    tau = next(iter(enumerate_profiles(tree, guard=None)))
    for v in fig2.non_terminals():
        play = outcome(tree, tau, (v,))
        assert play.start == (v,)
        assert play.path[-1][-1] in fig2.terminals
        assert all(b[:-1] == a for a, b in zip(play.path, play.path[1:]))


def test_unfolding_ranks_tree_plays_by_their_leaf(fig2):
    tree = unfold(fig2)
    for player in range(1, fig2.n_players + 1):
        pref, tree_pref = fig2.preference(player), tree.preference(player)
        for h in tree.non_terminals():
            for play in positional_plays(tree, h):
                assert tree_pref.rank_of(play) == pref.rank_of(FinitePlay(play.path[-1]))
