"""End-to-end acceptance checks, one test per headline claim.

Each test reproduces a figure-level fact exactly or sweeps a property over
seeded random instances.  The seeded sweeps gate on the statements that
hold; three claimed equivalences are falsified by concrete instances, so
their corrected statements are swept instead (see theorem_suites for the
analysis of each counterexample, and test_minors/test_spp for the pinned
instances).
"""

from gamedyn import (
    SafetyStatus,
    apply_script,
    build_belief_graph,
    build_dynamics,
    check_diamond,
    delete_edge,
    equilibria,
    find_dis_minor,
    find_dispute_wheel,
    find_fair_cycle,
    find_lfair_cycle,
    find_sdw,
    is_dis_pattern,
    is_dominated,
    is_notg,
    otg_from_game,
    reachable_two_sinks,
    safety_verdict,
    sinks,
    terminates,
    validate_otg,
)
from gamedyn.analysis import NON_SWITCHER
from gamedyn.strategy import StrategyProfile, enumerate_profiles

from .generators import random_game
from .oracles import fair_cycle_exists, is_fair_walk, is_label_fair_walk
from .theorem_suites import GATED_SUITES


def _edge_labels(game, dg):
    return {(dg.label(n), dg.label(m)) for n, m, _ in dg.edges}


def test_two_player_ring_update_graphs(gdis):
    """Unilateral updating on the two-player ring gives exactly the
    four-profile butterfly; concurrent updating adds the double swap."""
    p1 = build_dynamics(gdis, "p1")
    assert {p1.label(n) for n in p1.nodes} == {"c1c2", "s1c2", "c1s2", "s1s2"}
    butterfly = {
        ("c1c2", "s1c2"),
        ("c1c2", "c1s2"),
        ("s1s2", "s1c2"),
        ("s1s2", "c1s2"),
    }
    assert _edge_labels(gdis, p1) == butterfly
    pc = build_dynamics(gdis, "pc")
    assert _edge_labels(gdis, pc) == butterfly | {("c1c2", "s1s2"), ("s1s2", "c1c2")}


def test_two_player_ring_termination_and_equilibria(gdis):
    p1 = build_dynamics(gdis, "p1")
    pc = build_dynamics(gdis, "pc")
    assert terminates(p1)
    assert not terminates(pc)
    for dg in (p1, pc):
        assert sorted(dg.label(e) for e in equilibria(dg)) == [
            "c1s2",
            "s1c2",
        ]


def test_three_vertex_ring_best_reply_terminates_and_contains_pattern(fig3):
    assert not terminates(build_dynamics(fig3, "pc", guard=None))
    assert terminates(build_dynamics(fig3, "bpc", guard=None))
    script = find_dis_minor(fig3)
    assert script is not None
    assert is_dis_pattern(apply_script(fig3, script))


def test_cycle_without_fairness_names_the_starved_player(fig4):
    dg = build_dynamics(fig4, "pc", guard=None)
    assert not terminates(dg)
    report = find_fair_cycle(dg, players=(1, 2, 3))
    assert not report.fair
    assert report.per_player[3] == NON_SWITCHER


def test_four_player_concurrent_cycle_and_dominated_edge(fig5):
    """The concurrent dynamics walks the published eight-profile cycle;
    deleting the dominated stop edge of v1 makes it terminate."""
    dg = build_dynamics(fig5, "pc", guard=None)
    seq = [
        ("v2", "vbot", "vbot"),
        ("v2", "v3", "vbot"),
        ("vbot", "v3", "vbot"),
        ("vbot", "v3", "v1"),
        ("v4", "v3", "v1"),
        ("v4", "vbot", "v1"),
        ("v4", "vbot", "vbot"),
        ("v2", "vbot", "vbot"),
    ]
    profiles = [
        StrategyProfile((("v1", a), ("v2", b), ("v3", c), ("v4", "vbot")))
        for a, b, c in seq
    ]
    pos = {n: i for i, n in enumerate(dg.nodes)}
    for cur, nxt in zip(profiles, profiles[1:]):
        assert pos[nxt] in dg.succ[pos[cur]]
    assert is_dominated(fig5, ("v1", "vbot"), ("v1", "v4"))
    minor = delete_edge(fig5, ("v1", "vbot"))
    assert terminates(build_dynamics(minor, "pc", guard=None))


def test_routing_pipeline_on_two_player_ring(gdis):
    otg = otg_from_game(gdis)
    assert validate_otg(gdis, otg.permitted) == []
    assert is_notg(otg)
    wheel = find_dispute_wheel(otg)
    assert wheel is not None and set(wheel.pivots) == {"v1", "v2"}
    assert find_sdw(otg) is not None
    verdict = safety_verdict(otg, "both")
    assert verdict.status is SafetyStatus.UNSAFE_SDW
    assert not verdict.status.safe
    assert "confirmed by model checking" in verdict.method


def test_seeded_property_sweeps():
    """Seven 1000-seed sweeps of the statements that hold, each at zero
    violations: four claims verbatim and the corrected forms of the three
    falsified equivalences, whose converses must each be exercised."""
    seeds = range(1000)
    failures = []
    for name, suite in GATED_SUITES:
        violations = suite(seeds)
        if violations:
            failures.append(f"{name}: {len(violations)} violations, "
                            f"first: {violations[0]}")
    assert not failures, "\n".join(failures)


def test_belief_graph_pipeline(gdis):
    bg = build_belief_graph(gdis)
    assert len(bg.nodes) == 16
    assert bg.label_set == (0, 1, 2)
    assert len(sinks(bg)) == 2
    assert reachable_two_sinks(bg) is not None
    assert check_diamond(bg) == (True, None)
    witness = find_lfair_cycle(bg)
    assert witness is not None
    assert len(set(witness.cycle)) > 1
    assert is_label_fair_walk(bg.nodes, bg.delta, witness.cycle)


def test_fair_cycle_detection_matches_brute_force():
    for seed in range(120):
        game = random_game(seed)
        if len(list(enumerate_profiles(game))) > 64:
            continue
        players = tuple(range(1, game.n_players + 1))
        for kind in ("p1", "pc"):
            dg = build_dynamics(game, kind, guard=None)
            report = find_fair_cycle(dg, players=players)
            assert report.fair == fair_cycle_exists(dg.nodes, dg.edges, players)
            if report.witness is not None:
                assert is_fair_walk(dg.nodes, dg.edges, players, report.witness.cycle)
