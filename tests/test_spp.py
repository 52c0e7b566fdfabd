"""Single-destination routing games: validation, dispute wheels, safety."""

import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from gamedyn import (
    FinitePlay,
    Game,
    LassoPlay,
    OneTargetGame,
    PreferenceOrder,
    SafetyStatus,
    apply_script,
    build_dynamics,
    extract_sdw_minor,
    find_dis_minor,
    find_dispute_wheel,
    find_fair_cycle,
    find_sdw,
    is_dis_pattern,
    is_notg,
    otg_from_game,
    parse_spp,
    positional_plays,
    safety_verdict,
    terminates,
    validate_otg,
)
from gamedyn.cli import EXIT_ERROR, run_cli
from gamedyn.errors import (GameDynError, InvalidSDW, SearchBudgetExceeded,
                            SuffixClosureRepairNeeded)
from gamedyn.graphs import simple_cycles
from gamedyn.minors import SEARCH_BUDGET
from gamedyn import spp
from gamedyn.spp import DisputeWheel, _dispute_digraph, _wheels, sdw_violations

from .conftest import load_spp, positional_oracle
from .generators import game_doc, random_notg
from .golden import ROOT


@pytest.fixture(scope="module")
def gdis_otg(gdis):
    return otg_from_game(gdis)


# ---------------------------------------------------------------------------
# validation


def test_validate_gdis(gdis, gdis_otg):
    assert validate_otg(gdis, gdis_otg.permitted) == []
    assert is_notg(gdis_otg)


def test_validate_detects_broken_suffix_closure(gdis, gdis_otg):
    permitted = dict(gdis_otg.permitted)
    permitted[2] = permitted[2] - {FinitePlay(("v2", "vbot"))}
    problems = validate_otg(gdis, permitted)
    assert any("suffix" in p.lower() for p in problems)


def test_validate_detects_tied_next_hops(gdis, gdis_otg):
    from gamedyn.game import Game, PreferenceOrder

    pref1 = gdis.preference(1)
    tied = PreferenceOrder((pref1.ranks[0] | pref1.ranks[1],) + pref1.ranks[2:])
    game = Game(gdis.n_players, gdis.vertices, gdis.edges, gdis.owner,
                (tied,) + gdis.preferences[1:], gdis.edge_labels)
    problems = validate_otg(game, otg_from_game(game).permitted)
    assert any(p.startswith("SameNextHopTies") for p in problems)


def test_validate_reports_a_permitted_lasso_by_its_shape():
    """A lasso is no v->target path: PermittedShape names it, and the
    next-hop and suffix checks, which read paths, pass it by."""
    safe = load_spp("safe.spp.json")
    lasso = LassoPlay((), ("v1", "v2"))
    permitted = {**safe.permitted, 1: safe.permitted[1] | {lasso}}
    assert validate_otg(safe.game, permitted) == [
        "PermittedShape: player 1: (v1->v2)* is not a v1->vbot path"]


def test_random_instances_validate():
    for seed in range(60):
        otg = random_notg(seed)
        assert validate_otg(otg.game, otg.permitted) == []
        assert is_notg(otg)


# ---------------------------------------------------------------------------
# dispute wheels


def test_dispute_wheel_gdis(gdis_otg):
    dw = find_dispute_wheel(gdis_otg)
    assert set(dw.pivots) == {"v1", "v2"}
    assert {str(p) for p in dw.direct} == {"v1->vbot", "v2->vbot"}
    # single-vertex links: each pivot routes straight to the other
    assert all(len(link) == 1 for link in dw.links)
    assert sdw_violations(gdis_otg, dw) == []
    assert find_sdw(gdis_otg) is not None


def test_wheel_check_reports_a_broken_wheel(gdis_otg):
    dw = find_dispute_wheel(gdis_otg)
    assert dw == DisputeWheel(("v1", "v2"), (FinitePlay(("v1", "vbot")),
                                             FinitePlay(("v2", "vbot"))), (("v1",), ("v2",)))
    assert sdw_violations(gdis_otg, DisputeWheel(dw.pivots, dw.direct, (("v2",), ("v2",)))) == [
        "link 0 does not start at v1", "indirect path v2->v2->vbot of v1 not permitted"]
    assert sdw_violations(gdis_otg, DisputeWheel(dw.pivots, dw.direct, ((), ("v2",)))) == [
        "link 0 is empty"]
    same = DisputeWheel(dw.pivots, (FinitePlay(("v1", "v2", "vbot")), dw.direct[1]), dw.links)
    assert sdw_violations(gdis_otg, same) == [
        "v1 does not strictly prefer v1->v2->vbot over v1->v2->vbot",
        "indirect path v2->v1->v2->vbot of v2 not permitted"]


def test_dispute_wheel_absent_when_direct_preferred():
    safe = load_spp("safe.spp.json")
    assert find_dispute_wheel(safe) is None


def test_dispute_wheel_fig3(fig3):
    otg = otg_from_game(fig3)
    assert is_notg(otg)
    assert find_dispute_wheel(otg) is not None


def test_wheel_conditions_hold_on_random_finds():
    for seed in range(60):
        otg = random_notg(seed)
        dw = find_dispute_wheel(otg)
        if dw is None:
            continue
        for i, u in enumerate(dw.pivots):
            pref = otg.game.preference(otg.game.owner[u])
            assert dw.direct[i] in otg.permitted_at(u)
            assert dw.indirect(i) in otg.permitted_at(u)
            assert pref.rank_of(dw.indirect(i)) < pref.rank_of(dw.direct[i])


def test_wheel_search_stops_at_the_cycle_budget(tmp_path, capsys):
    """This instance's dispute digraph (48 nodes, 254 arcs) has more than
    SEARCH_BUDGET elementary cycles, counted here from the generator.  The
    wheel search takes one cycle past the budget and refuses; the command
    line exits 5 on it."""
    otg = random_notg(88, max_nodes=6)
    nodes, succ, _ = _dispute_digraph(otg)
    assert (len(nodes), sum(map(len, succ))) == (48, 254)
    cycles = simple_cycles(succ)
    assert all(next(cycles, None) is not None for _ in range(SEARCH_BUDGET + 1))
    with pytest.raises(SearchBudgetExceeded, match="100000 dispute-wheel cycles"):
        find_dispute_wheel(otg)
    path = tmp_path / "wheels.json"
    path.write_text(json.dumps(game_doc(otg.game)))
    assert run_cli(["dis-minor", str(path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "100000 dispute-wheel cycles exceeded" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# strong-wheel minor extraction


def test_extract_minor_gdis(gdis_otg, gdis):
    minor, script = extract_sdw_minor(gdis_otg, find_sdw(gdis_otg))
    assert script.to_json() == []
    assert minor == gdis
    assert is_dis_pattern(minor)


def test_extract_minor_squeezes_links():
    """A wheel whose links pass through intermediate vertices reduces to
    just the pivots and the target, and the reduced game oscillates."""
    otg = random_notg(27)
    sdw = find_sdw(otg)
    assert sdw is not None and any(len(link) > 1 for link in sdw.links)
    minor, script = extract_sdw_minor(otg, sdw)
    assert set(minor.vertices) == set(sdw.pivots) | {otg.target}
    assert apply_script(otg.game, script) == minor
    assert not terminates(build_dynamics(minor, "pc"))


def test_strong_wheels_route_each_state_one_way():
    """A strong wheel's edges are those of its direct paths and links, and
    no state but a pivot leaves along two of them: direct paths that share
    a state share its suffix, and links share no other state."""
    strong = 0
    for seed in range(300):
        otg = random_notg(seed, max_nodes=5)
        for dw in _wheels(otg):
            if sdw_violations(otg, dw):
                continue
            strong += 1
            expected = set()
            for i in range(dw.k):
                expected.update(dw.direct[i].steps())
                expected.update(FinitePlay(dw.link_states(i)).steps())
            assert set(dw.steps()) == expected
            hops = {}
            for a, b in expected:
                hops.setdefault(a, set()).add(b)
            assert all(len(hops[a]) == 1 for a in set(hops) - set(dw.pivots))
    assert strong == 92


def test_extract_minor_rejects_tampered_wheel(gdis_otg):
    sdw = find_sdw(gdis_otg)
    broken = DisputeWheel(sdw.pivots, tuple(reversed(sdw.direct)), sdw.links)
    with pytest.raises(InvalidSDW):
        extract_sdw_minor(gdis_otg, broken)


def test_strong_wheel_blocks_pc_termination():
    for seed in range(60):
        otg = random_notg(seed)
        if find_sdw(otg) is None:
            continue
        assert not terminates(build_dynamics(otg.game, "pc", guard=None))


def test_strong_wheel_without_fair_oscillation_exists():
    """Pinned instance: a strong dispute wheel alone does not force a fair
    concurrent oscillation.  Here every concurrent cycle starves the player
    owning u1, who could always switch to its best direct route but never
    does.  This is why the structural safety ladder demands a concrete
    best-reply oscillation witness before declaring an instance unsafe."""
    otg = random_notg(99)
    assert find_sdw(otg) is not None
    pc = build_dynamics(otg.game, "pc", guard=None)
    players = tuple(range(1, otg.game.n_players + 1))
    report = find_fair_cycle(pc, players=players)
    assert not report.fair

    from .oracles import fair_cycle_exists

    assert not fair_cycle_exists(pc.nodes, pc.edges, players)
    # the disagreement-minor converse fails here too, and the structural
    # verdict does not claim the wheel oscillates under fair best replies
    assert find_dis_minor(otg.game) is not None
    verdict = safety_verdict(otg, "structural", guard=None)
    assert verdict.status is not SafetyStatus.UNSAFE_SDW


# ---------------------------------------------------------------------------
# safety verdicts


def test_safety_gdis(gdis_otg):
    verdict = safety_verdict(gdis_otg, "both")
    assert verdict.status is SafetyStatus.UNSAFE_SDW
    assert verdict.status.safe is False


def _oracle_label(game, profile):
    """profile's label as positional_dynamics_by_enumeration writes it."""
    return "".join(game.edge_labels.get((v, w), f"{v}:{w}") for v, w in profile.items
                   if len(game.successors(v)) > 1) or "<only>"


def test_strong_wheel_evidence_oscillates_fairly_by_enumeration():
    """Every UNSAFE_SDW verdict's two profiles, checked on the brute-force
    bpc dynamics: each updates to the other, and every player moves in that
    update or has no update from one of the two."""
    otgs = [random_notg(seed) for seed in range(200)] + [load_spp("gdis.spp.json")]
    checked = 0
    for otg in otgs:
        verdict = safety_verdict(otg, "structural", guard=None)
        if verdict.status is not SafetyStatus.UNSAFE_SDW:
            continue
        game, (_, pair) = otg.game, verdict.evidence
        _, updates = positional_oracle(game, "bpc")
        l1, l2 = (_oracle_label(game, s) for s in pair)
        moved = {(a, b): set(c) for a, b, c in updates}
        assert (l1, l2) in moved and (l2, l1) in moved, otg
        idle = set(range(1, game.n_players + 1)) - moved[l1, l2]
        for label in (l1, l2):
            idle &= set().union(*(c for (a, _), c in moved.items() if a == label))
        assert not idle, otg  # each could always move, but never does
        checked += 1
    assert checked == 21


def test_safety_fig3(fig3):
    otg = otg_from_game(fig3)
    assert safety_verdict(otg, "structural").status is SafetyStatus.UNKNOWN_STRUCTURAL
    exact = safety_verdict(otg, "exact")
    assert exact.status is SafetyStatus.SAFE_MODEL_CHECKED


def test_safety_refuses_an_unknown_mode(gdis_otg):
    with pytest.raises(GameDynError, match="^unknown safety mode 'bogus'$"):
        safety_verdict(gdis_otg, "bogus")


def test_safety_safe_instance():
    safe = load_spp("safe.spp.json")
    assert safety_verdict(safe, "both").status is SafetyStatus.SAFE_NO_DW


def test_structural_never_contradicts_exact():
    for seed in range(40):
        otg = random_notg(seed)
        verdict = safety_verdict(otg, "both", guard=None)
        exact = safety_verdict(otg, "exact", guard=None)
        if verdict.status.safe is not None:
            assert verdict.status.safe == exact.status.safe


# ---------------------------------------------------------------------------
# ingestion


def test_parse_spp_gdis(gdis):
    otg = load_spp("gdis.spp.json")
    assert is_dis_pattern(otg.game)
    assert validate_otg(otg.game, otg.permitted) == []


def test_parse_spp_reports_missing_suffixes():
    with pytest.raises(SuffixClosureRepairNeeded) as info:
        load_spp("incomplete.spp.json")
    assert info.value.missing == [["v2", "vbot"]]


def test_parse_spp_auto_repair():
    otg = load_spp("incomplete.spp.json", complete_suffixes=True)
    assert validate_otg(otg.game, otg.permitted) == []
    assert FinitePlay(("v2", "vbot")) in otg.permitted_at("v2")


# ---------------------------------------------------------------------------
# validity decided from the ranked plays, wheels on the index digraph


def complete_spp(n):
    """The complete routing instance: each node permits only its direct path
    to the origin, and every ordered pair of nodes is an extra edge, so each
    node has thousands of positional plays from n = 6 on."""
    nodes = [f"n{k}" for k in range(1, n + 1)]
    return {"origin": "o", "nodes": {u: {"paths": [[u, "o"]]} for u in nodes},
            "extra_edges": [[u, w] for u in nodes for w in nodes if u != w]}


def test_complete_instance_validates_without_enumerating(tmp_path, capsys):
    path = tmp_path / "complete.spp.json"
    path.write_text(json.dumps(complete_spp(7)))
    assert run_cli(["spp", "validate", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "valid: true", "next-hop-only preferences: true"]
    arena = tmp_path / "complete.json"
    arena.write_text(json.dumps(game_doc(parse_spp(json.dumps(complete_spp(6))).game)))
    assert run_cli(["dis-minor", str(arena)]) == 0
    assert capsys.readouterr().out == "no disagreement-pattern minor\n"


def test_valid_instances_enumerate_no_plays(monkeypatch, gdis, gdis_otg):
    instances = [(gdis, gdis_otg.permitted)]
    instances += [(otg.game, otg.permitted) for otg in (
        load_spp("gdis.spp.json"), load_spp("safe.spp.json"),
        load_spp("incomplete.spp.json", complete_suffixes=True))]
    instances += [(otg.game, otg.permitted) for otg in map(random_notg, range(60))]
    instances += [(otg.game, otg.permitted) for otg in (
        parse_spp(json.dumps(complete_spp(n))) for n in range(2, 9))]

    def enumerate_plays(game, v):
        raise AssertionError(f"enumerated the plays from {v}")

    monkeypatch.setattr(spp, "positional_plays", enumerate_plays)
    for game, permitted in instances:
        assert validate_otg(game, permitted) == []


def _variants(otg, seed):
    """The instance with one player's ranking broken in each way that the
    forbidden-play checks see: classes shuffled or merged, a forbidden play
    ranked, a permitted play left unranked, forbidden plays ranked last."""
    rng = random.Random(seed)
    game = otg.game
    for i in range(1, game.n_players + 1):
        ranks = [frozenset(c) for c in game.preference(i).ranks]
        v = otg.player_vertex(i)
        forbidden = sorted(set(positional_plays(game, v)) - otg.permitted[i], key=str)
        merged = ranks[:1] + [ranks[1] | ranks[2]] + ranks[3:] if len(ranks) > 2 else ranks
        shuffled = rng.sample(ranks, len(ranks))
        changed = [shuffled, merged, ranks[:-1] + [ranks[-1] - {min(ranks[-1], key=str)}],
                   ranks + [frozenset(forbidden)]]
        if forbidden:
            changed.append(ranks[:1] + [frozenset({rng.choice(forbidden)})] + ranks[1:])
            changed.append(ranks + [frozenset(forbidden[:1]), frozenset(forbidden[1:])])
        for new in changed:
            prefs = list(game.preferences)
            prefs[i - 1] = PreferenceOrder(tuple(new))
            yield Game(game.n_players, game.vertices, game.edges, game.owner,
                       tuple(prefs), {}), otg.permitted


def test_enumerating_and_deciding_give_the_same_diagnostics(monkeypatch):
    cases = [(otg.game, otg.permitted) for otg in map(random_notg, range(40))]
    for seed in range(40):
        cases += _variants(random_notg(seed), seed)
    decided = [validate_otg(game, permitted) for game, permitted in cases]
    assert sum(map(bool, decided)) > 200
    assert any(d.startswith("ForbiddenPlateau") for ds in decided for d in ds)
    assert any(d.startswith("ForbiddenBelowPermitted") for ds in decided for d in ds)
    monkeypatch.setattr(spp, "_forbidden_plateau_below", lambda *args: False)
    assert [validate_otg(game, permitted) for game, permitted in cases] == decided


def test_invalid_instance_diagnostics_do_not_depend_on_hash_seed():
    probe = ("from gamedyn import validate_otg; from tests.generators import random_notg; "
             "from tests.test_spp import _variants; "
             "print([validate_otg(g, p) for s in range(60) "
             "for g, p in _variants(random_notg(s), s)])")
    outs = {
        subprocess.run([sys.executable, "-c", probe], cwd=ROOT, check=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                            "PYTHONHASHSEED": seed},
                       capture_output=True, text=True).stdout
        for seed in ("0", "77")
    }
    assert len(outs) == 1 and "ForbiddenBelowPermitted" in outs.pop()


def _renamed(otg, names):
    f = dict(zip(otg.game.vertices, names)).__getitem__
    play = lambda p: FinitePlay(tuple(map(f, p.path)))  # noqa: E731
    g = otg.game
    game = Game(g.n_players, tuple(map(f, g.vertices)),
                frozenset((f(u), f(w)) for u, w in g.edges),
                {f(v): i for v, i in g.owner.items()},
                tuple(PreferenceOrder(tuple(frozenset(map(play, c)) for c in pref.ranks))
                      for pref in g.preferences), {})
    return OneTargetGame(game, {i: frozenset(map(play, ps)) for i, ps in otg.permitted.items()})


NAMES = ["u1", "u10", "u1'", 'u"1', "u,1", "(u1)", "u1)", "u", "'", "t"]


def test_wheels_follow_the_repr_order_of_named_cycles():
    otgs = [random_notg(seed) for seed in range(60)]
    otgs += [_renamed(random_notg(seed, max_nodes=6), random.Random(seed).sample(NAMES, 7))
             for seed in range(80) if seed != 88]
    seen = 0
    for otg in otgs:
        nodes, succ, decomps = _dispute_digraph(otg)
        named = sorted(([nodes[k] for k in c] for c in simple_cycles(succ)), key=repr)
        index = {node: k for k, node in enumerate(nodes)}
        expected = [
            DisputeWheel(*zip(*cycle), links)
            for cycle in named
            for links in itertools.product(*(
                decomps[index[a], index[b]] for a, b in zip(cycle, cycle[1:] + cycle[:1])))]
        assert list(_wheels(otg)) == expected
        seen += len(named) > 1
    assert seen > 20
