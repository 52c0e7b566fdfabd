"""Update-dynamics graphs: unilateral, best-reply, concurrent, one-step."""

import pytest

from gamedyn import (
    build_belief_graph,
    build_dynamics,
    equilibria,
    profile_display,
)
from gamedyn.dynamics import KINDS
from gamedyn.errors import CyclicArena
from gamedyn.strategy import enumerate_profiles, outcome
from gamedyn.game import Comparison

from .generators import random_game
from .oracles import one_step_by_enumeration


def edge_set(dg):
    return {
        (dg.label(n), dg.label(m), tuple(sorted(ch)))
        for n in dg.nodes
        for m, ch in dg.successors(n)
    }


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


def test_concurrent_dynamics_gdis(gdis):
    pc = build_dynamics(gdis, "pc")
    assert edge_set(pc) == edge_set(build_dynamics(gdis, "p1")) | {
        ("c1c2", "s1s2", (1, 2)),
        ("s1s2", "c1c2", (1, 2)),
    }
    assert edge_set(build_dynamics(gdis, "bpc")) == edge_set(pc)


def test_equilibria_gdis(gdis):
    for kind in ("p1", "bp1", "pc", "bpc"):
        eq = equilibria(build_dynamics(gdis, kind))
        assert sorted(profile_display(gdis, e) for e in eq) == ["c1s2", "s1c2"]


def test_inclusions_random():
    """bp1 is contained in p1; every p1 edge appears in pc (and bp1 in bpc)."""
    for seed in range(25):
        game = random_game(seed)
        graphs = {k: edge_set(build_dynamics(game, k, force=True))
                  for k in ("p1", "bp1", "pc", "bpc")}
        assert graphs["bp1"] <= graphs["p1"]
        assert graphs["p1"] <= graphs["pc"]
        assert graphs["bp1"] <= graphs["bpc"]


def test_p1_edges_are_strict_improvements():
    for seed in range(25):
        game = random_game(seed)
        dg = build_dynamics(game, "p1", force=True)
        for sigma in dg.nodes:
            for tau, changed in dg.successors(sigma):
                diff = sigma.changed_vertices(tau)
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
        p1 = edge_set(build_dynamics(game, "p1", force=True))
        pc = build_dynamics(game, "pc", force=True)
        for sigma in pc.nodes:
            for tau, changed in pc.successors(sigma):
                for v in sigma.changed_vertices(tau):
                    solo = sigma.updated(v, tau[v])
                    assert (
                        profile_display(game, sigma),
                        profile_display(game, solo),
                        (game.owner[v],),
                    ) in p1


def test_one_step_requires_acyclic(gdis):
    with pytest.raises(CyclicArena):
        build_dynamics(gdis, "1")


def test_one_step_fig2(fig2):
    dg = build_dynamics(fig2, "1", force=True)
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
        dg = build_dynamics(game, "1", force=True)
        labels, updates = _one_step_oracle(game)
        assert [dg.label(n) for n in dg.nodes] == labels
        assert {(dg.label(u), dg.label(v), tuple(sorted(c))) for u, v, c in dg.edges} == updates


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
            assert bg.successor(node, lbl) in bg.nodes
