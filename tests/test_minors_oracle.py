"""Edge and vertex deletion, deletion scripts and the disagreement-pattern
search, checked against the gamedyn-free oracles on the raw game document."""

import json

import pytest

import gamedyn.game

from gamedyn import (
    DeletionScript,
    apply_script,
    delete_edge,
    delete_vertex,
    find_dis_minor,
)
from gamedyn.errors import GameDynError, NotDeletable, ScriptStepError
from gamedyn.game import FinitePlay, LassoPlay, canonicalize, parse_game, positional_plays
from gamedyn.minors import _drop_vertex_from_play, _preimages

from . import oracles
from .conftest import FIXTURES, load_game
from .generators import (
    dense_squeeze_doc,
    game_doc,
    random_game,
    random_notg,
    random_script,
    random_squeeze_game,
)


def by_library(run):
    """('minor', key) or ('refused', reason[, step index]) for a library call."""
    try:
        return ("minor", oracles.minor_key(game_doc(run())))
    except ScriptStepError as exc:
        cause = exc.cause
        return ("refused", getattr(cause, "reason", type(cause).__name__), exc.index)
    except NotDeletable as exc:
        return ("refused", exc.reason)
    except GameDynError as exc:
        return ("refused", type(exc).__name__)


def by_oracle(run):
    try:
        return ("minor", oracles.minor_key(run()))
    except oracles.Refused as exc:
        return ("refused", *exc.args)


def assert_every_deletion_agrees(game, doc):
    """Each edge and each vertex deleted alone, and one step too many."""
    for u, v in sorted(game.edges):
        assert by_library(lambda: delete_edge(game, (u, v))) == by_oracle(
            lambda: oracles.delete_edge(doc, [u, v])), (u, v)
    for v in game.vertices:
        assert by_library(lambda: delete_vertex(game, v)) == by_oracle(
            lambda: oracles.delete_vertex(doc, v)), v
    assert by_library(lambda: delete_edge(game, ("nowhere", "else"))) == ("refused", "UnknownEdge")
    assert by_oracle(lambda: oracles.delete_edge(doc, ["nowhere", "else"])) == (
        "refused", "UnknownEdge")
    assert by_library(lambda: delete_vertex(game, "nowhere")) == by_oracle(
        lambda: oracles.delete_vertex(doc, "nowhere")) == ("refused", "UnknownVertex")


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5", "gdis"])
def test_deletions_match_the_oracle_on_the_fixtures(name):
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    game = load_game(f"{name}.json")
    assert by_oracle(lambda: doc) == by_library(lambda: game)
    assert_every_deletion_agrees(game, doc)


def test_deletions_match_the_oracle_on_random_games():
    reasons = set()
    for seed in range(300):
        game = random_game(seed)
        doc = game_doc(game)
        assert by_oracle(lambda: doc) == by_library(lambda: game)
        assert_every_deletion_agrees(game, doc)
        reasons |= {by_oracle(lambda: oracles.delete_vertex(doc, v))[-1] for v in game.vertices}
    # every refusal the rules know shows up, so each was compared at least once
    assert {"MultipleSuccessors", "PredecessorConflict", "PreferenceCollapse"} <= reasons


def test_deletions_match_the_oracle_on_routing_games():
    for seed in range(150):
        game = random_notg(seed).game
        assert_every_deletion_agrees(game, game_doc(game))


def test_deletions_match_the_oracle_on_squeezable_random_games():
    """Denser games built around a squeezable v0, so that ranked lassos
    close their loops through v0 and ranked plays start at v0: the two
    places where a squeezed play has a second preimage or v goes back at a
    loop's closing step."""
    minors = collapses = closing = leading = 0
    for seed in range(500):
        game = random_squeeze_game(seed)
        doc = game_doc(game)
        assert_every_deletion_agrees(game, doc)
        verdict = by_oracle(lambda: oracles.delete_vertex(doc, "v0"))
        minors += verdict[0] == "minor"
        collapses += verdict == ("refused", "PreferenceCollapse")
        ranked = [p for pref in game.preferences for cls in pref.ranks for p in cls]
        closing += sum(isinstance(p, LassoPlay) and p.loop[-1] == "v0" for p in ranked)
        leading += sum(p.start == "v0" for p in ranked)
    assert minors > 100 and collapses > 100
    assert closing > 100 and leading > 100


def test_preimages_put_v_back_once_per_step_into_v2():
    """v goes back before each v2 that a predecessor of v (here a and c)
    precedes: once at a loop's closing step, once more where a stem enters
    the loop, and never before the first vertex but as the extra preimage
    of a play from v2."""
    cases = [
        (FinitePlay(("a", "b", "t")), ("a",), [("a", "v", "b", "t")]),
        (FinitePlay(("b", "t")), ("a",), [("b", "t"), ("v", "b", "t")]),
        (LassoPlay((), ("b", "a")), ("a",), [((), ("b", "a", "v")), ((), ("v", "b", "a"))]),
        (LassoPlay(("a",), ("b", "c")), ("a",), [(("a", "v"), ("b", "c"))]),
        (LassoPlay(("a",), ("b", "c")), ("a", "c"), [(("a",), ("v", "b", "c"))]),
    ]
    for q, preds, want in cases:
        want = [canonicalize(*w) if isinstance(w[0], tuple) else FinitePlay(w) for w in want]
        got = _preimages(q, "v", "b", preds)
        assert got == want, q
        assert all(_drop_vertex_from_play(p, "v", "b") == q for p in got), q


def test_no_squeeze_lists_positional_plays(monkeypatch):
    """Deciding a squeeze's PreferenceCollapse reads the preimages of the
    ranked plays at stake, never a vertex's positional plays: every vertex
    of the fixtures, of random games and of complete arenas of up to 9
    non-terminals is deleted with the enumeration made to fail."""
    games = [load_game(f"{name}.json") for name in ("fig2", "fig3", "fig4", "fig5", "gdis")]
    games += [random_game(seed) for seed in range(300)]
    dense = {n: dense_squeeze_doc(n) for n in range(2, 10)}
    dense_games = {n: parse_game(json.dumps(doc)) for n, doc in dense.items()}

    def refuse(*args):
        raise AssertionError("listed positional plays")

    monkeypatch.setattr(gamedyn.game, "walk_positional_plays", refuse)
    for game in games + list(dense_games.values()):
        for v in game.vertices:
            by_library(lambda: delete_vertex(game, v))
    for n, game in dense_games.items():
        minor = delete_vertex(game, "v")
        assert ranks_of(minor, 2) == [["a1->a0->t"], ["a1->t"]], n
    assert_every_deletion_agrees(dense_games[5], dense[5])


def ranks_of(game, player):
    return [sorted(map(str, cls)) for cls in game.preference(player).ranks]


def is_canonical(play):
    return canonicalize(play.stem, play.loop) == play


def test_squeezed_lassos_are_already_canonical():
    """Dropping v, which v2 follows, shortens a lasso's stem or loop period
    only where a predecessor of v already steps to v2 (stem ..x v, loop v2..x;
    or loop a v a with a -> a), and delete_vertex refuses that first as
    PredecessorConflict, so the squeeze needs no canonicalize."""
    games = [load_game(f"{name}.json") for name in ("fig2", "fig3", "fig4", "fig5", "gdis")]
    games += [random_game(seed) for seed in range(300)]
    games += [random_notg(seed).game for seed in range(150)]
    squeezed = 0
    for game in games:
        plays = set().union(*(positional_plays(game, x) for x in game.vertices),
                            *(pref.mentioned() for pref in game.preferences))
        for v in game.vertices:
            (v2, *more) = game.successors(v) or (None,)
            if v2 is None or more or any(v2 in game.successors(u)
                                         for u in game.predecessors(v)):
                continue
            for play in plays:
                if isinstance(play, LassoPlay) and v in play.vertices():
                    assert is_canonical(_drop_vertex_from_play(play, v, v2)), (play, v)
                    squeezed += 1
    assert squeezed > 1000

    # both shortening shapes, ranked: each is refused before any play is rewritten
    for stem, loop in ((("x", "v"), ("w", "x")), ((), ("a", "v", "a"))):
        seq = stem + loop
        edges = set(zip(seq, seq[1:] + loop[:1]))
        v2 = loop[0]
        vertices = sorted({x for e in edges for x in e})
        game = parse_game(json.dumps({
            "players": 1, "vertices": vertices, "edges": sorted(map(list, edges)),
            "owner": {x: 1 for x in vertices},
            "preferences": {"1": [[{"lasso": {"stem": list(stem), "loop": list(loop)}}]]}}))
        assert game.successors("v") == (v2,)
        assert not is_canonical(_drop_vertex_from_play(LassoPlay(stem, loop), "v", v2))
        with pytest.raises(NotDeletable, match="PredecessorConflict"):
            delete_vertex(game, "v")


def test_scripts_match_the_oracle():
    lengths = set()
    for seed in range(200):
        game = random_game(seed)
        script = random_script(seed, game, max_steps=3)
        doc = game_doc(game)
        assert by_library(lambda: apply_script(game, script)) == by_oracle(
            lambda: oracles.apply_script(doc, script.to_json())), seed
        lengths.add(len(script.steps))
        # one more step: a vertex of the minor, which the rules may refuse
        steps = script.to_json() + [{"vertex": game.vertices[seed % len(game.vertices)]}]
        longer = DeletionScript.from_json(steps)
        assert by_library(lambda: apply_script(game, longer)) == by_oracle(
            lambda: oracles.apply_script(doc, steps)), seed
    assert lengths == {0, 1, 2, 3}


@pytest.mark.parametrize("family", ["random_game", "random_notg"])
def test_find_dis_minor_agrees_with_a_brute_force_search(family):
    """A script comes back iff some deletion sequence reaches the pattern,
    and the script replays through the oracle to the pattern."""
    found = 0
    for seed in range(300):
        if family == "random_game":
            game = random_game(seed, max_vertices=4)
        else:
            game = random_notg(seed, max_nodes=4).game
        doc = game_doc(game)
        script = find_dis_minor(game)
        assert (script is not None) == oracles.dis_minor_exists(doc), seed
        if script is not None:
            found += 1
            assert oracles.is_dis_pattern(oracles.apply_script(doc, script.to_json())), seed
    assert found > 0
