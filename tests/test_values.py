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
from gamedyn.errors import Frozen
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


# value classes that compare and hash by identity, as a frozen dataclass
# declared with eq=False does; printing one builds no row
BY_IDENTITY = {
    "BeliefGraph": (lambda: build_belief_graph(tiny_game()),
                    "BeliefGraph(nodes={}, n_players=1, delta=((0,), {}), names={}, "
                    "v0=frozenset({0}))",
                    ("nodes", "n_players", "delta", "names", "v0")),
}


@pytest.mark.parametrize("name", sorted(CASES) + sorted(BY_IDENTITY))
def test_value_class_behaves_as_a_frozen_dataclass(name):
    make, text, fields = CASES.get(name) or BY_IDENTITY[name]
    x, y = make(), make()
    cls = type(x)
    assert cls.__name__ == name
    assert repr(x) == text
    for attr in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, attr, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(x, attr)
    assert repr(x) == text
    if name in BY_IDENTITY:
        assert x == x and x != y and not x == y
        assert hash(x) == object.__hash__(x)
        return

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
    values = [getattr(x, f) for f in fields]
    assert cls(*values) == x == cls(**dict(zip(fields, values)))
    with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) missing 1 required"):
        cls(*values[:-1])


def test_dynamics_graph_is_equal_only_to_itself(monkeypatch):
    # and so is a belief graph; comparing, hashing or printing either builds
    # no row and makes no profile
    from gamedyn import strategy

    for build, text in [
        (lambda game: build_dynamics(game, "p1"),
         "DynamicsGraph(kind='p1', nodes={}, succ={}, changed={})"),
        (build_belief_graph,
         "BeliefGraph(nodes={}, n_players=1, delta=((0,), {}), names={}, v0=frozenset({0}))"),
    ]:
        g, again = build(tiny_game()), build(tiny_game())
        assert g == g and g != again
        assert hash(g) == object.__hash__(g)
        with monkeypatch.context() as m:
            m.setattr(strategy, "StrategyProfile", None)  # making a profile raises
            assert repr(g) == text
        with pytest.raises(AttributeError):
            g.nodes = ()
        assert tuple(g.names) == ("<only>",) and g.names is g.names  # cached on first read


def test_a_value_class_may_have_no_fields():
    class Empty(Frozen):
        pass

    assert Empty() == Empty() and not Empty() != Empty()
    assert hash(Empty()) == hash(())
