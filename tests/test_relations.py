"""Simulations, bisimulations, the largest-simulation fixpoint, closures."""

from gamedyn import (
    Relation,
    apply_script,
    build_dynamics,
    is_bisimulation,
    is_partial_simulation,
    is_simulation,
    largest_simulation,
    terminates,
    transitive_closure,
)
from gamedyn.graphs import Digraph

from .generators import random_game, random_script
from .oracles import largest_simulation_by_enumeration

# the two-edge textbook pair: one graph with a single edge, the other
# branching from its root
G_SMALL = Digraph.from_edges(("u", "v"), frozenset({("u", "v")}))
G_BRANCH = Digraph.from_edges(("u'", "v1'", "v2'"), frozenset({("u'", "v1'"), ("u'", "v2'")}))


def test_partial_but_not_full_simulation():
    rel = Relation(frozenset({("u'", "u"), ("v1'", "v")}))
    ok, _ = is_partial_simulation(G_BRANCH, G_SMALL, rel)
    assert ok
    full, _ = is_simulation(G_BRANCH, G_SMALL, rel)
    assert not full  # v2' is not in the domain


def test_empty_relation_is_partial_simulation():
    ok, _ = is_partial_simulation(G_BRANCH, G_SMALL, Relation(frozenset()))
    assert ok


def test_failed_checks_name_their_counterexample():
    xy = Digraph.from_edges(("x", "y"), frozenset())
    x_to_y = Digraph.from_edges(("x", "y"), frozenset({("x", "y")}))
    pq = Digraph.from_edges(("p", "q"), frozenset())
    # a pair naming a node of neither graph
    assert is_partial_simulation(G_SMALL, G_SMALL, Relation(frozenset({("x", "q")}))) == (
        False, ("x", "q", None))
    # p has no edge to match x -> y; is_simulation passes the failure through
    matched = Relation(frozenset({("x", "p"), ("y", "q")}))
    assert is_simulation(x_to_y, pq, matched) == (False, ("x", "y", "p"))
    # y unrelated; then the reverse direction fails on y -> x
    assert is_bisimulation(xy, xy, Relation(frozenset({("x", "x")}))) == (
        False, ("y", None, None))
    y_to_x = Digraph.from_edges(("x", "y"), frozenset({("y", "x")}))
    ident = Relation(frozenset({("x", "x"), ("y", "y")}))
    assert is_simulation(xy, y_to_x, ident) == (True, None)
    assert is_bisimulation(xy, y_to_x, ident) == (False, ("y", "x", "y"))
    assert ("x", "x") in ident and ("x", "y") not in ident


def test_largest_simulation_two_edge_example():
    rel, full = largest_simulation(G_BRANCH, G_SMALL)
    # the terminal v2' is vacuously simulable, so the fixpoint covers V'
    assert full
    assert rel.domain == frozenset({"u'", "v1'", "v2'"})


def test_identity_is_bisimulation():
    for seed in range(20):
        game = random_game(seed)
        dg = build_dynamics(game, "p1", guard=None)
        ident = Relation(frozenset((n, n) for n in dg.nodes))
        ok, _ = is_bisimulation(dg, dg, ident)
        assert ok


def test_largest_simulation_sound_and_maximal():
    import random as _random

    for seed in range(20):
        rng = _random.Random(seed)
        nodes = tuple("abcd")
        mk = lambda: Digraph.from_edges(
            nodes,
            frozenset((u, v) for u in nodes for v in nodes
                      if u != v and rng.random() < 0.4),
        )
        small, big = mk(), mk()
        rel, _ = largest_simulation(small, big)
        ok, _ = is_partial_simulation(small, big, rel)
        assert ok
        dom = rel.domain
        for u in small.nodes:
            # restrict to nodes whose whole out-neighbourhood stays in the
            # domain, so the added pair is actually constrained
            if any(w not in dom for w in small.successors(u)):
                continue
            for v in big.nodes:
                if (u, v) in rel.pairs:
                    continue
                bigger = Relation(rel.pairs | {(u, v)})
                ok, _ = is_partial_simulation(small, big, bigger)
                assert not ok


def test_largest_simulation_matches_enumeration():
    import random as _random

    for seed in range(40):
        rng = _random.Random(seed)
        nodes = ("a", "b", "c")
        mk = lambda: Digraph.from_edges(
            nodes, frozenset((u, v) for u in nodes for v in nodes if rng.random() < 0.35))
        small, big = mk(), mk()
        rel, full = largest_simulation(small, big)
        expected = largest_simulation_by_enumeration(nodes, small.edges, nodes, big.edges)
        assert rel.pairs == expected
        assert full == ({a for a, _ in expected} == set(nodes))


def test_dynamics_graph_and_its_digraph_give_one_relation():
    for seed in range(60):
        game = random_game(seed)
        script = random_script(seed, game)
        minor = apply_script(game, script) if script is not None else game
        small = build_dynamics(minor, "p1", guard=None)
        big = build_dynamics(game, "p1", guard=None)
        assert largest_simulation(small, big) == largest_simulation(
            small.digraph(), big.digraph())


def test_identity_relation_is_its_own_inverse():
    for seed in range(15):
        game = random_game(seed)
        dg = build_dynamics(game, "p1", guard=None)
        ident = Relation(frozenset((n, n) for n in dg.nodes))
        assert ident.inverse().pairs == ident.pairs


def test_transitive_closure_examples():
    chain = Digraph.from_edges(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
    assert ("a", "c") in transitive_closure(chain).edges
    two_cycle = Digraph.from_edges(("a", "b"), frozenset({("a", "b"), ("b", "a")}))
    closed = transitive_closure(two_cycle).edges
    assert {("a", "a"), ("b", "b")} <= set(closed)


# ---------------------------------------------------------------------------
# simulation transfers termination from the large game to the small one


def test_simulation_transfers_termination():
    checked = 0
    for seed in range(60):
        game = random_game(seed)
        script = random_script(seed, game)
        if script is None or not script.steps:
            continue
        minor = apply_script(game, script)
        big = build_dynamics(game, "p1", guard=None)
        small = build_dynamics(minor, "p1", guard=None)
        rel, full = largest_simulation(small, big)
        if full and terminates(big):
            checked += 1
            assert terminates(small)
    assert checked >= 5


def test_partial_simulation_protects_domain_from_cycles():
    """With a partial simulation between transitive closures and a
    terminating large graph, no cycle of the small graph meets the domain."""
    checked = 0
    for seed in range(60):
        game = random_game(seed)
        script = random_script(seed, game)
        if script is None or not script.steps:
            continue
        minor = apply_script(game, script)
        big = transitive_closure(build_dynamics(game, "p1", guard=None).digraph())
        small_dg = build_dynamics(minor, "p1", guard=None)
        small = transitive_closure(small_dg.digraph())
        rel, _ = largest_simulation(small, big)
        ok, _ = is_partial_simulation(small, big, rel)
        assert ok
        if not terminates(build_dynamics(game, "p1", guard=None)):
            continue
        dom = rel.domain
        for n in small.nodes:
            if (n, n) in small.edges:  # n lies on a cycle of the original
                assert n not in dom
        checked += 1
    assert checked >= 5


def test_gdis_simulated_by_its_host(gdis, fig3):
    small = build_dynamics(gdis, "p1")
    big = build_dynamics(fig3, "p1")
    _, full = largest_simulation(small, big)
    assert full
