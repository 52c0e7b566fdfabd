"""Shared fixtures: the small hand-built games used throughout the suite."""

import pathlib

import pytest

from gamedyn import FinitePlay, parse_game, parse_spp

from .oracles import positional_dynamics_by_enumeration

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load_game(name):
    return parse_game((FIXTURES / name).read_text())


def load_spp(name, **kw):
    return parse_spp((FIXTURES / name).read_text(), **kw)


def play_ranks(game):
    """Per player, {play: rank} in the oracles' play keys; a play listed in
    two classes takes the first, as rank_of does."""
    def key(play):
        return play.path if isinstance(play, FinitePlay) else (play.stem, play.loop)

    ranks = {}
    for i, pref in enumerate(game.preferences, start=1):
        ranks[i] = {}
        for r, cls in enumerate(pref.ranks):
            for play in cls:
                ranks[i].setdefault(key(play), r)
    return ranks


def positional_oracle(game, kind):
    """positional_dynamics_by_enumeration on game."""
    edges = [(u, v, game.edge_labels[u, v]) if (u, v) in game.edge_labels else (u, v)
             for u, v in game.edges]
    return positional_dynamics_by_enumeration(game.vertices, edges, game.owner,
                                              play_ranks(game), kind)


@pytest.fixture(scope="session")
def gdis():
    return load_game("gdis.json")


@pytest.fixture(scope="session")
def fig2():
    return load_game("fig2.json")


@pytest.fixture(scope="session")
def fig3():
    return load_game("fig3.json")


@pytest.fixture(scope="session")
def fig4():
    return load_game("fig4.json")


@pytest.fixture(scope="session")
def fig5():
    return load_game("fig5.json")
