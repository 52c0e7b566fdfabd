"""Strategy profiles, outcomes, the tree unfolding."""

import pytest

from gamedyn import FinitePlay, LassoPlay, StrategyProfile, outcome, positional_plays
from gamedyn.errors import CyclicArena, StateSpaceTooLarge
from gamedyn.strategy import (
    enumerate_histories,
    enumerate_profiles,
    profile_count,
    unfold,
)

from .generators import random_game


def test_profile_count_matches_enumeration(gdis, fig3):
    for game in (gdis, fig3):
        profiles = list(enumerate_profiles(game))
        assert len(profiles) == profile_count(game)
        assert len(set(profiles)) == len(profiles)


def test_profile_count_random():
    for seed in range(30):
        game = random_game(seed)
        assert len(list(enumerate_profiles(game))) == profile_count(game)


def test_profile_guard():
    game = random_game(7)
    with pytest.raises(StateSpaceTooLarge):
        list(enumerate_profiles(game, guard=1))


def test_updated_and_changed(gdis):
    sigma = StrategyProfile.from_dict({"v1": "vbot", "v2": "vbot"})
    tau = sigma.updated("v1", "v2")
    assert tau.as_dict() == {"v1": "v2", "v2": "vbot"}
    assert sigma.changed_vertices(tau) == ("v1",)
    assert sigma.changed_vertices(sigma) == ()


def test_outcome_gdis(gdis):
    both_cont = StrategyProfile.from_dict({"v1": "v2", "v2": "v1"})
    assert outcome(gdis, both_cont, "v1") == LassoPlay((), ("v1", "v2"))
    mixed = StrategyProfile.from_dict({"v1": "v2", "v2": "vbot"})
    assert outcome(gdis, mixed, "v1") == FinitePlay(("v1", "v2", "vbot"))
    assert outcome(gdis, mixed, "vbot") == FinitePlay(("vbot",))


def test_outcome_random_follows_profile():
    for seed in range(40):
        game = random_game(seed)
        for sigma in enumerate_profiles(game, force=True):
            play = outcome(game, sigma, game.vertices[0])
            choice = sigma.as_dict()
            for u, v in play.steps():
                assert u in game.terminals or choice[u] == v


# ---------------------------------------------------------------------------
# histories (acyclic arenas only)


def test_enumerate_histories_rejects_cycles(gdis):
    with pytest.raises(CyclicArena):
        enumerate_histories(gdis)


def test_history_profiles(fig2):
    hists = enumerate_histories(fig2)
    assert all(h[-1] not in fig2.terminals for h in hists)
    assert len(set(hists)) == len(hists)
    tree = unfold(fig2)
    assert tree.non_terminals() == tuple(hists)
    for h in hists:
        assert tree.owner[h] == fig2.owner[h[-1]]
        assert tree.successors(h) == tuple(h + (w,) for w in fig2.successors(h[-1]))
    assert len(list(enumerate_profiles(tree, force=True))) == profile_count(tree) == 768


def test_unfolding_outcome_consistent(fig2):
    tree = unfold(fig2)
    tau = next(iter(enumerate_profiles(tree, force=True)))
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
