"""Single-destination routing games: validation, dispute wheels, safety."""

import json

import pytest

from gamedyn import (
    FinitePlay,
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
    safety_verdict,
    terminates,
    validate_otg,
)
from gamedyn.cli import EXIT_ERROR, run_cli
from gamedyn.errors import InvalidSDW, SearchBudgetExceeded, SuffixClosureRepairNeeded
from gamedyn.graphs import Digraph, simple_cycles
from gamedyn.minors import SEARCH_BUDGET
from gamedyn.spp import DisputeWheel, _dispute_digraph, sdw_violations

from .conftest import load_spp
from .generators import game_doc, random_notg


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
    nodes, decomps = _dispute_digraph(otg)
    digraph = Digraph.from_edges(sorted(nodes, key=repr), decomps)
    assert (len(digraph.nodes), sum(map(len, digraph.succ))) == (48, 254)
    cycles = simple_cycles(digraph)
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
        assert not terminates(build_dynamics(otg.game, "pc", force=True))


def test_strong_wheel_without_fair_oscillation_exists():
    """Pinned instance: a strong dispute wheel alone does not force a fair
    concurrent oscillation.  Here every concurrent cycle starves the player
    owning u1, who could always switch to its best direct route but never
    does.  This is why the structural safety ladder demands a concrete
    best-reply oscillation witness before declaring an instance unsafe."""
    otg = random_notg(99)
    assert find_sdw(otg) is not None
    pc = build_dynamics(otg.game, "pc", force=True)
    players = tuple(range(1, otg.game.n_players + 1))
    report = find_fair_cycle(pc, players=players)
    assert not report.fair

    from .oracles import fair_cycle_exists

    triples = [(n, m, ch) for n in pc.nodes for m, ch in pc.successors(n)]
    assert not fair_cycle_exists(pc.nodes, triples, players)
    # the disagreement-minor converse fails here too, and the structural
    # verdict does not claim the wheel oscillates under fair best replies
    assert find_dis_minor(otg.game) is not None
    verdict = safety_verdict(otg, "structural", force=True)
    assert verdict.status is not SafetyStatus.UNSAFE_SDW


# ---------------------------------------------------------------------------
# safety verdicts


def test_safety_gdis(gdis_otg):
    verdict = safety_verdict(gdis_otg, "both")
    assert verdict.status is SafetyStatus.UNSAFE_SDW
    assert verdict.status.safe is False


def test_safety_fig3(fig3):
    otg = otg_from_game(fig3)
    assert safety_verdict(otg, "structural").status is SafetyStatus.UNKNOWN_STRUCTURAL
    exact = safety_verdict(otg, "exact")
    assert exact.status is SafetyStatus.SAFE_MODEL_CHECKED


def test_safety_safe_instance():
    safe = load_spp("safe.spp.json")
    assert safety_verdict(safe, "both").status is SafetyStatus.SAFE_NO_DW


def test_structural_never_contradicts_exact():
    for seed in range(40):
        otg = random_notg(seed)
        verdict = safety_verdict(otg, "both", force=True)
        exact = safety_verdict(otg, "exact", force=True)
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
