"""The library's value classes: constructor, repr, equality, hash and
read-only fields, as frozen dataclasses had them (the repr orders witnesses
and wheels, and the hash orders sets, so both are pinned)."""

import pytest

from gamedyn import (
    BeliefNode,
    CycleWitness,
    DeleteEdge,
    DeleteVertex,
    DeletionScript,
    DisputeWheel,
    FairnessReport,
    FinitePlay,
    Game,
    LassoPlay,
    OneTargetGame,
    PreferenceOrder,
    Relation,
    SafetyStatus,
    SafetyVerdict,
    StrategyProfile,
    build_belief_graph,
    build_dynamics,
)
from gamedyn.graphs import Digraph

PLAY = FinitePlay(("a", "t"))
PROFILE = StrategyProfile((("a", "t"),))


def tiny_game():
    return Game(1, ("a", "t"), frozenset({("a", "t")}), {"a": 1},
                (PreferenceOrder((frozenset({FinitePlay(("a", "t"))}),)),), {})


# (make an instance, its repr, the names of its compared fields)
CASES = {
    "FinitePlay": (lambda: FinitePlay(("a", "t")), "FinitePlay(path=('a', 't'))", ("path",)),
    "LassoPlay": (lambda: LassoPlay(("a",), ("b", "c")),
                  "LassoPlay(stem=('a',), loop=('b', 'c'))", ("stem", "loop")),
    "PreferenceOrder": (lambda: PreferenceOrder((frozenset({PLAY}),)),
                        "PreferenceOrder(ranks=(frozenset({FinitePlay(path=('a', 't'))}),))",
                        ("ranks",)),
    "Game": (tiny_game,
             "Game(n_players=1, vertices=('a', 't'), edges=frozenset({('a', 't')}), "
             "owner={'a': 1}, preferences=(PreferenceOrder(ranks=(frozenset({FinitePlay("
             "path=('a', 't'))}),)),), edge_labels={})",
             ("n_players", "vertices", "edges", "owner", "preferences", "edge_labels")),
    "StrategyProfile": (lambda: StrategyProfile((("a", "t"),)),
                        "StrategyProfile(items=(('a', 't'),))", ("items",)),
    "Digraph": (lambda: Digraph(("a", "t"), ((1,), ())),
                "Digraph(nodes=('a', 't'), succ=((1,), ()))", ("nodes", "succ")),
    "BeliefNode": (lambda: BeliefNode((PROFILE,)),
                   "BeliefNode(rows=(StrategyProfile(items=(('a', 't'),)),))", ("rows",)),
    "BeliefGraph": (lambda: build_belief_graph(tiny_game()),
                    "BeliefGraph(nodes=(BeliefNode(rows=(StrategyProfile(items=(('a', 't'),)),"
                    ")),), n_players=1, delta=((0,), (0,)), names=('<only>',), "
                    "v0=frozenset({0}))",
                    ("nodes", "n_players", "delta", "names", "v0")),
    "CycleWitness": (lambda: CycleWitness((PROFILE,)),
                     "CycleWitness(cycle=(StrategyProfile(items=(('a', 't'),)),))", ("cycle",)),
    "FairnessReport": (lambda: FairnessReport(False, None, {1: "x"}),
                       "FairnessReport(fair=False, witness=None, per_player={1: 'x'})",
                       ("fair", "witness", "per_player")),
    "DeleteEdge": (lambda: DeleteEdge("a", "t"), "DeleteEdge(source='a', target='t')",
                   ("source", "target")),
    "DeleteVertex": (lambda: DeleteVertex("a"), "DeleteVertex(vertex='a')", ("vertex",)),
    "DeletionScript": (lambda: DeletionScript((DeleteVertex("a"),)),
                       "DeletionScript(steps=(DeleteVertex(vertex='a'),))", ("steps",)),
    "Relation": (lambda: Relation(frozenset({("a", "t")})),
                 "Relation(pairs=frozenset({('a', 't')}))", ("pairs",)),
    "OneTargetGame": (lambda: OneTargetGame(tiny_game(), {1: frozenset({PLAY})}),
                      "OneTargetGame(game=Game(n_players=1, vertices=('a', 't'), "
                      "edges=frozenset({('a', 't')}), owner={'a': 1}, preferences=("
                      "PreferenceOrder(ranks=(frozenset({FinitePlay(path=('a', 't'))}),)),), "
                      "edge_labels={}), permitted={1: frozenset({FinitePlay(path=('a', 't'))})})",
                      ("game", "permitted")),
    "DisputeWheel": (lambda: DisputeWheel(("a",), (PLAY,), (("a",),)),
                     "DisputeWheel(pivots=('a',), direct=(FinitePlay(path=('a', 't')),), "
                     "links=(('a',),))", ("pivots", "direct", "links")),
    "SafetyVerdict": (lambda: SafetyVerdict(SafetyStatus.SAFE_NO_DW, None, "m"),
                      "SafetyVerdict(status=<SafetyStatus.SAFE_NO_DW: 'SafeNoDW'>, "
                      "evidence=None, method='m')", ("status", "evidence", "method")),
}


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:  # a dict field: unhashable either way
        return type(exc)


def copy_as(cls, x, fields, **changed):
    """An instance of cls with x's fields, but those in changed."""
    y = cls.__new__(cls)
    for f in fields:
        object.__setattr__(y, f, changed.get(f, getattr(x, f)))
    return y


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_class_behaves_as_a_frozen_dataclass(name):
    make, text, fields = CASES[name]
    x, y = make(), make()
    cls = type(x)
    assert cls.__name__ == name
    assert repr(x) == text
    assert x == y and not x != y
    assert hash_or_error(x) == hash_or_error(tuple(getattr(x, f) for f in fields))

    # equal within the class on every field: not to a subclass, nor to another
    # value class
    assert copy_as(cls, x, fields) == x
    for f in fields:
        assert x != copy_as(cls, x, fields, **{f: object()}), f
    twin = copy_as(type("Sub", (cls,), {}), x, fields)
    assert x != twin and twin != x
    assert all(x != other() for key, (other, _, _) in CASES.items() if key != name)
    assert x != tuple(getattr(x, f) for f in fields)

    # the constructor takes the fields in order, positionally or by name
    if name != "BeliefGraph":  # which takes its profiles too
        values = [getattr(x, f) for f in fields]
        assert cls(*values) == x == cls(**dict(zip(fields, values)))
        with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) missing 1 required"):
            cls(*values[:-1])

    for attr in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, attr, None)
    assert repr(x) == text


def test_dynamics_graph_is_equal_only_to_itself():
    dg, again = (build_dynamics(tiny_game(), "p1") for _ in range(2))
    assert repr(dg) == ("DynamicsGraph(kind='p1', nodes=(StrategyProfile(items=(('a', 't'),)),), "
                        "succ={}, changed={})")
    assert dg == dg and dg != again
    assert hash(dg) == object.__hash__(dg)
    with pytest.raises(AttributeError):
        dg.kind = "pc"
    assert dg.names == ("<only>",) and dg.names is dg.names  # cached on first read
