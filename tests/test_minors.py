"""Edge/vertex deletion, deletion scripts, dominance, and the DIS search."""

import itertools

import pytest

from gamedyn import (
    Comparison,
    DeleteEdge,
    DeleteVertex,
    DeletionScript,
    FinitePlay,
    Game,
    PreferenceOrder,
    apply_script,
    build_dynamics,
    delete_edge,
    delete_vertex,
    find_dis_minor,
    find_fair_cycle,
    is_dis_pattern,
    is_dominated,
    script_is_dominant,
    terminates,
    validate_game,
)
from gamedyn.errors import (
    NotDeletable,
    ScriptStepError,
    SourceMismatch,
    UnknownEdge,
)
from gamedyn.strategy import enumerate_profiles, outcome

from . import oracles
from .generators import game_doc, random_game, random_script
from .test_dynamics import scanned_games


def ranks_as_strings(game, player=1):
    return [sorted(str(p) for p in cls) for cls in game.preference(player).ranks]


# ---------------------------------------------------------------------------
# the five-vertex single-player game walked through step by step


def test_delete_edge_rewrites_preferences(fig2):
    m1 = delete_edge(fig2, ("v4", "vbot"))
    assert ranks_as_strings(m1) == [
        ["v1->v2->v4->v5->vbot"],
        ["v1->v3->vbot"],
        ["v1->v4->v5->vbot"],
    ]


def test_delete_vertex_squeeze(fig2):
    m2 = delete_vertex(delete_edge(fig2, ("v4", "vbot")), "v4")
    assert "v4" not in m2.vertices
    assert ranks_as_strings(m2) == [
        ["v1->v2->v5->vbot"],
        ["v1->v3->vbot"],
        ["v1->v5->vbot"],
    ]


def test_full_script_fig2(fig2):
    script = DeletionScript((
        DeleteEdge("v4", "vbot"), DeleteVertex("v4"), DeleteEdge("v1", "v5"),
    ))
    m3 = apply_script(fig2, script)
    assert ranks_as_strings(m3) == [["v1->v2->v5->vbot"], ["v1->v3->vbot"]]
    assert validate_game(m3) == []


def test_premature_vertex_deletion_conflicts(fig2):
    m2 = delete_vertex(delete_edge(fig2, ("v4", "vbot")), "v4")
    # v2's only successor v5 is already a successor of its predecessor v1
    with pytest.raises(NotDeletable, match="PredecessorConflict"):
        delete_vertex(m2, "v2")
    with pytest.raises(NotDeletable, match="MultipleSuccessors"):
        delete_vertex(fig2, "v1")


def test_delete_vertex_rejects_play_that_skips_its_successor():
    # built directly, so no validation: the ranked play a->v stops at v
    game = Game(1, ("a", "t", "v"), frozenset({("a", "v"), ("v", "t")}), {"a": 1, "v": 1},
                (PreferenceOrder((frozenset({FinitePlay(("a", "v"))}),)),), {})
    with pytest.raises(NotDeletable, match="InvalidPlay"):
        delete_vertex(game, "v")


def test_delete_vertex_refuses_an_invalid_play_before_a_collapse():
    # squeezing v (v -> a -> t) lands the ranked v->a->t on a->t, which is
    # in the bottom class: a collapse at a, which player 1 still owns
    ranked = frozenset({FinitePlay(("v", "a", "t"))})
    game = Game(1, ("a", "t", "v"), frozenset({("a", "t"), ("v", "a")}), {"a": 1, "v": 1},
                (PreferenceOrder((ranked,)),), {})
    with pytest.raises(NotDeletable, match="PreferenceCollapse"):
        delete_vertex(game, "v")
    # a ranked play in which v steps to t, not to a, is refused first
    invalid = Game(1, game.vertices, game.edges, game.owner,
                   (PreferenceOrder((ranked, frozenset({FinitePlay(("v", "t"))}))),), {})
    with pytest.raises(NotDeletable, match="InvalidPlay"):
        delete_vertex(invalid, "v")


def test_delete_edge_unknown(fig2):
    with pytest.raises(UnknownEdge):
        delete_edge(fig2, ("v1", "vbot"))


def test_script_error_reports_index(fig2):
    script = DeletionScript((DeleteEdge("v4", "vbot"), DeleteVertex("v1")))
    with pytest.raises(ScriptStepError, match=r"step 1 \(vertex v1\)"):
        apply_script(fig2, script)


def test_empty_script_is_identity(fig2):
    assert apply_script(fig2, DeletionScript(())) == fig2


def test_script_json_roundtrip():
    script = DeletionScript((
        DeleteEdge("a", "b"), DeleteVertex("c"), DeleteEdge("b", "d"),
    ))
    assert DeletionScript.from_json(script.to_json()) == script


# ---------------------------------------------------------------------------
# minors of the three-player ring game


def test_two_step_script_exposes_ring(fig3):
    minor = apply_script(
        fig3, DeletionScript((DeleteEdge("v1", "v3"), DeleteVertex("v3")))
    )
    assert set(minor.vertices) == {"v1", "v2", "vbot"}
    assert is_dis_pattern(minor)


def test_find_dis_minor_fig3(fig3, gdis):
    script = find_dis_minor(fig3)
    assert script is not None
    assert is_dis_pattern(apply_script(fig3, script))
    # the two-player ring is its own witness, via the empty script
    empty = find_dis_minor(gdis)
    assert empty is not None and is_dis_pattern(apply_script(gdis, empty))


def test_find_dis_minor_absent_when_safe(fig2):
    assert not is_dis_pattern(fig2)
    assert find_dis_minor(fig2) is None


def test_bpc_not_preserved_by_minors(fig3, gdis):
    """Termination of best-reply concurrent updating does not transfer
    from a game to its minors: the host converges, the extracted ring
    oscillates."""
    assert terminates(build_dynamics(fig3, "bpc"))
    assert not terminates(build_dynamics(gdis, "bpc"))


# ---------------------------------------------------------------------------
# dominance


def test_is_dominated_goldens(fig5, gdis):
    assert is_dominated(fig5, ("v1", "vbot"), ("v1", "v4"))
    assert not is_dominated(fig5, ("v1", "v4"), ("v1", "vbot"))
    # equal edges can never be strictly dominated
    assert not is_dominated(fig5, ("v1", "v4"), ("v1", "v4"))
    # stopping at the ring is not dominated by continuing: the lasso is worse
    assert not is_dominated(gdis, ("v1", "vbot"), ("v1", "v2"))


def test_is_dominated_source_mismatch(gdis):
    with pytest.raises(SourceMismatch):
        is_dominated(gdis, ("v1", "vbot"), ("v2", "vbot"))


def test_is_dominated_matches_enumeration():
    for seed in range(20):
        game = random_game(seed)
        for v in game.non_terminals():
            for w1, w2 in itertools.permutations(game.successors(v), 2):
                expected = all(
                    game.preference(game.owner[v]).compare(
                        outcome(game, sigma.updated(v, w1), v),
                        outcome(game, sigma.updated(v, w2), v),
                    ) is Comparison.LESS
                    for sigma in enumerate_profiles(game, guard=None)
                )
                assert is_dominated(game, (v, w1), (v, w2), guard=None) == expected


def test_is_dominated_matches_the_oracle_on_every_sibling_pair():
    for game in scanned_games():
        doc = game_doc(game)
        for v in game.non_terminals():
            for w1, w2 in itertools.permutations(game.successors(v), 2):
                want = oracles.dominated_by_enumeration(doc, (v, w1), (v, w2))
                assert is_dominated(game, (v, w1), (v, w2), guard=None) == want, (v, w1, w2)


def test_dominant_script_recognition(fig5):
    dominated = DeletionScript((DeleteEdge("v1", "vbot"),))
    assert script_is_dominant(fig5, dominated)
    not_dominated = DeletionScript((DeleteEdge("v1", "v4"),))
    assert not script_is_dominant(fig5, not_dominated)


def test_deleting_dominated_edge_stabilizes_fig5(fig5):
    """The four-player game oscillates under concurrent updating until its
    dominated stop edge is removed."""
    assert not terminates(build_dynamics(fig5, "pc", guard=None))
    minor = delete_edge(fig5, ("v1", "vbot"))
    assert terminates(build_dynamics(minor, "pc", guard=None))


# ---------------------------------------------------------------------------
# structural properties on random instances


def test_minors_are_valid_games():
    for seed in range(40):
        game = random_game(seed)
        script = random_script(seed, game)
        if script is None:
            continue
        minor = apply_script(game, script)
        assert validate_game(minor) == []


def test_vertex_deletion_preserves_comparisons():
    """Pulling plays of the minor back through the squeeze never flips a
    strict preference."""
    checked = 0
    for seed in range(60):
        game = random_game(seed)
        script = random_script(seed, game)
        if script is None or not any(
            isinstance(s, DeleteVertex) for s in script.steps
        ):
            continue
        minor = apply_script(game, script)
        for i in range(1, game.n_players + 1):
            pref = minor.preference(i)
            plays = [p for cls in pref.ranks for p in cls]
            for p in plays:
                for q in plays:
                    cmp = pref.compare(p, q)
                    # both plays survive in the original order with the
                    # same relative ranking (restriction, not reshuffling)
                    orig = game.preference(i)
                    if p in orig.mentioned() and q in orig.mentioned():
                        assert orig.compare(p, q) == cmp
            checked += 1
    assert checked >= 5


def test_dominated_edge_removal_can_break_a_fair_cycle():
    """Deleting a dominated edge does not always preserve fair cycles.

    When one player owns several vertices, a best-reply cycle can hold the
    dominated edge fixed at one vertex while the player keeps switching at
    the others; the player then changes strategy infinitely often, so the
    cycle is fair.  No state of that cycle survives the deletion, and here
    the minor has no fair cycle at all.  Pinned counterexample to the
    two-way fair-termination transfer for dominant minors.
    """
    game = random_game(13)
    script = random_script(13, game, dominant=True)
    assert script is not None
    assert script.steps == (DeleteEdge("v1", "v3"),)
    assert is_dominated(game, ("v1", "v3"), ("v1", "v0"))
    minor = apply_script(game, script)
    players = tuple(range(1, game.n_players + 1))
    for kind in ("bp1", "bpc"):
        big = find_fair_cycle(build_dynamics(game, kind, guard=None), players=players)
        small = find_fair_cycle(build_dynamics(minor, kind, guard=None), players=players)
        assert big.fair and not small.fair
    # the witness really does park v1 on the dominated edge throughout
    bp1 = build_dynamics(game, "bp1", guard=None)
    report = find_fair_cycle(bp1, players=players)
    assert all(dict(node.items)["v1"] == "v3" for node in report.witness.cycle)
    assert oracles.is_fair_walk(bp1.nodes, bp1.edges, players, report.witness.cycle)
