"""Plays, lasso canonicalization, preference orders, parsing."""

import pytest
from hypothesis import given, strategies as st

from gamedyn import (
    Comparison,
    FinitePlay,
    Game,
    LassoPlay,
    PreferenceOrder,
    canonicalize,
    compare_plays,
    enumerate_profiles,
    outcome,
    parse_game,
    positional_plays,
)
from gamedyn.errors import GameFormatError, UnknownVertex
from gamedyn.game import is_positional_from, walk_positional_plays

from .conftest import FIXTURES, load_game
from .generators import random_game

# ---------------------------------------------------------------------------
# canonicalize

names = st.sampled_from("abcd")
stems = st.lists(names, max_size=4)
loops = st.lists(names, min_size=1, max_size=4)


def unroll(stem, loop, k):
    """The same infinite word, presented with k loop iterations absorbed
    into the stem and the loop rotated accordingly."""
    stem, loop = list(stem), list(loop)
    for _ in range(k):
        stem.append(loop[0])
        loop = loop[1:] + loop[:1]
    return stem, loop


@given(stems, loops, st.integers(0, 6), st.integers(1, 3))
def test_canonicalize_depends_only_on_infinite_word(stem, loop, k, reps):
    base = canonicalize(stem, loop)
    assert canonicalize(*unroll(stem, loop * reps, k)) == base


@given(stems, loops)
def test_canonicalize_idempotent(stem, loop):
    play = canonicalize(stem, loop)
    assert canonicalize(list(play.stem), list(play.loop)) == play


@given(stems, loops)
def test_canonicalize_primitive_period(stem, loop):
    play = canonicalize(stem, loop)
    n = len(play.loop)
    for d in range(1, n):
        if n % d == 0:
            assert play.loop != play.loop[:d] * (n // d)


def test_canonicalize_examples():
    assert canonicalize([], ["a", "b", "a", "b"]) == LassoPlay((), ("a", "b"))
    assert canonicalize(["a"], ["b", "a"]) == LassoPlay((), ("a", "b"))
    assert canonicalize(["c", "a"], ["b", "a"]) == LassoPlay(("c",), ("a", "b"))


def test_canonicalize_finite():
    play = canonicalize(["a", "b", "c"], None)
    assert play == FinitePlay(("a", "b", "c"))
    assert play.start == "a"
    assert set(play.vertices()) == {"a", "b", "c"}


def test_play_display():
    assert str(FinitePlay(("v1", "vbot"))) == "v1->vbot"
    assert str(LassoPlay((), ("v1", "v2"))) == "(v1->v2)*"


# ---------------------------------------------------------------------------
# preference orders

SOME_PLAYS = [
    FinitePlay(("a",)),
    FinitePlay(("a", "b")),
    LassoPlay((), ("a",)),
    LassoPlay(("b",), ("a",)),
]


def test_rank_of_and_bottom_class():
    pref = PreferenceOrder((frozenset({SOME_PLAYS[0]}), frozenset({SOME_PLAYS[1]})))
    assert pref.rank_of(SOME_PLAYS[0]) == 0
    assert pref.rank_of(SOME_PLAYS[1]) == 1
    # plays never mentioned share an implicit worst class
    assert pref.rank_of(SOME_PLAYS[2]) == 2
    assert pref.compare(SOME_PLAYS[2], SOME_PLAYS[3]) is Comparison.EQUAL


@given(st.data())
def test_compare_total_and_consistent(data):
    classes = data.draw(st.lists(st.sets(st.sampled_from(SOME_PLAYS)), max_size=3))
    seen = set()
    ranks = []
    for cls in classes:
        cls = frozenset(cls - seen)
        if cls:
            ranks.append(cls)
            seen |= cls
    pref = PreferenceOrder(tuple(ranks))
    for p in SOME_PLAYS:
        for q in SOME_PLAYS:
            cmp = pref.compare(p, q)
            assert cmp in Comparison
            flipped = pref.compare(q, p)
            if cmp is Comparison.EQUAL:
                assert flipped is Comparison.EQUAL
            elif cmp is Comparison.LESS:
                assert flipped is Comparison.GREATER
            # transitivity through a third play
            for r in SOME_PLAYS:
                if cmp is Comparison.LESS and pref.compare(q, r) is Comparison.LESS:
                    assert pref.compare(p, r) is Comparison.LESS


def test_compare_plays_gdis(gdis):
    direct = FinitePlay(("v1", "vbot"))
    indirect = FinitePlay(("v1", "v2", "vbot"))
    ring = LassoPlay((), ("v1", "v2"))
    assert compare_plays(gdis, 1, direct, indirect) is Comparison.LESS
    assert compare_plays(gdis, 1, ring, direct) is Comparison.LESS
    # plays from the other player's vertex are unmentioned for player 1
    assert compare_plays(
        gdis, 1, FinitePlay(("v2", "vbot")), FinitePlay(("v2", "v1", "vbot"))
    ) is Comparison.EQUAL


def test_positional_plays_gdis(gdis):
    assert positional_plays(gdis, "v1") == frozenset({
        FinitePlay(("v1", "vbot")),
        FinitePlay(("v1", "v2", "vbot")),
        LassoPlay((), ("v1", "v2")),
    })
    assert positional_plays(gdis, "vbot") == frozenset({FinitePlay(("vbot",))})


def test_positional_plays_long_chain():
    names = tuple(f"v{i:04d}" for i in range(1200))
    chain = Game(1, names, frozenset(zip(names, names[1:])), {v: 1 for v in names[:-1]},
                 (PreferenceOrder(()),), {})
    assert positional_plays(chain, names[0]) == frozenset({FinitePlay(names)})


def test_positional_plays_are_the_profile_outcomes():
    games = [load_game(p.name) for p in sorted(FIXTURES.glob("*.json"))
             if not p.name.endswith(".spp.json")]
    games += [random_game(seed, acyclic=acyclic) for seed in range(200)
              for acyclic in (False, True)]
    for game in games:
        profiles = list(enumerate_profiles(game, guard=None))
        for v in game.vertices:
            assert positional_plays(game, v) == {outcome(game, s, v) for s in profiles}


def test_positional_membership_is_decided_from_the_play():
    for seed in range(200):
        game, other = random_game(seed), random_game(seed + 1000)
        # plays of every vertex, ranked plays, and plays of another arena on
        # the same vertex names, most of which are no walk here
        plays = set().union(*(positional_plays(g, v) for g in (game, other)
                              for v in g.vertices))
        plays |= {p for pref in game.preferences for cls in pref.ranks for p in cls}
        plays |= {FinitePlay(("v0",)), LassoPlay(("v0",), ("v0",))}
        plays |= {LassoPlay(p.stem + p.loop, p.loop) for p in list(plays)  # walks, not simple
                  if isinstance(p, LassoPlay)}
        for v in game.vertices:
            from_v = positional_plays(game, v)
            assert {p for p in plays if is_positional_from(game, v, p)} == from_v & plays
            walk = list(walk_positional_plays(game, v))
            assert len(walk) == len(from_v) and set(walk) == from_v


# ---------------------------------------------------------------------------
# parsing and validation

MINIMAL = """
{"players": 1,
 "vertices": ["a", "b"],
 "edges": [["a", "b"]],
 "owner": {"a": 1},
 "preferences": {"1": [[{"path": ["a", "b"]}]]}}
"""


def test_parse_minimal():
    game = parse_game(MINIMAL)
    assert game.terminals == frozenset({"b"})
    assert game.successors("a") == ("b",)
    assert game.owner["a"] == 1


@pytest.mark.parametrize("mangle,exc", [
    (lambda d: d.replace('"edges"', '"arcs"'), GameFormatError),
    (lambda d: d.replace('["a", "b"]],', '["a", "zz"]],'), UnknownVertex),
    (lambda d: d.replace('{"a": 1}', '{}'), GameFormatError),
    (lambda d: d.replace('"players": 1', '"players": 0'), GameFormatError),
    (lambda d: d[:-3], GameFormatError),
])
def test_parse_rejects_malformed(mangle, exc):
    with pytest.raises(exc):
        parse_game(mangle(MINIMAL))


def test_parse_rejects_terminal_owner():
    with pytest.raises(GameFormatError, match="TerminalOwned"):
        parse_game(MINIMAL.replace('{"a": 1}', '{"a": 1, "b": 1}'))
