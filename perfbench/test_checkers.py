"""Tests of the benchmark's own checkers: the replayer, the ring's known
answers and the CLI's known-defect rule."""

import json
import pathlib
import random
import sys
from types import SimpleNamespace

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent)]

import clibench  # noqa: E402
import replay  # noqa: E402
import ring  # noqa: E402
from tests.oracles import fair_cycle_exists  # noqa: E402

# The disagreement pattern on v1, v2 plus a third player at x, who prefers
# the direct route and can improve whenever x points at v1.
GDIS_PLUS = {
    "players": 3,
    "vertices": ["v1", "v2", "vbot", "x"],
    "edges": [["v1", "v2"], ["v1", "vbot"], ["v2", "v1"], ["v2", "vbot"],
              ["x", "v1"], ["x", "vbot"]],
    "owner": {"v1": 1, "v2": 2, "x": 3},
    "preferences": {
        "1": [[{"path": ["v1", "v2", "vbot"]}], [{"path": ["v1", "vbot"]}]],
        "2": [[{"path": ["v2", "v1", "vbot"]}], [{"path": ["v2", "vbot"]}]],
        "3": [[{"path": ["x", "vbot"]}]],
    },
}


def _swing(x):
    return [{"v1": "vbot", "v2": "vbot", "x": x}, {"v1": "v2", "v2": "v1", "x": x}]


def test_replayer_accepts_a_fair_cycle():
    game = replay.Game(GDIS_PLUS)
    assert replay.check_fair_cycle(game, "pc", _swing("vbot"), (1, 2, 3)) == []


def test_replayer_rejects_a_non_improving_step():
    game = replay.Game(GDIS_PLUS)
    cycle = _swing("vbot")
    cycle[1] = {**cycle[1], "x": "v1"}  # player 3 moves to a worse outcome
    assert replay.check_cycle(game, "pc", cycle)
    # a unilateral kind cannot take the two-player step at all
    assert replay.check_cycle(game, "p1", _swing("vbot"))


def test_replayer_rejects_a_missing_fairness_clause():
    game = replay.Game(GDIS_PLUS)
    cycle = _swing("v1")
    assert replay.check_cycle(game, "pc", cycle) == []
    problems = replay.check_fair_cycle(game, "pc", cycle, (1, 2, 3))
    assert problems == ["player 3 neither switches nor is stuck"]


def test_replayer_reads_cli_labels():
    doc = json.loads((HERE.parent / "fixtures" / "gdis.json").read_text())
    game = replay.Game(doc)
    equilibria = {replay.freeze(game.parse_label(lb)[0]) for lb in ("c1s2", "s1c2")}
    assert game.parse_label("c1s2") == [{"v1": "v2", "v2": "vbot"}]
    assert equilibria == replay.equilibria(game)


def test_ring_known_answers_match_the_oracle():
    rng = random.Random(7)
    for n in range(3, 7):
        for family in ring.FAMILIES:
            doc, exp = ring.ring_doc(n, family, rng)
            game = replay.Game(doc)
            assert sum(1 for _ in game.profiles()) == exp["profiles"]
            assert replay.equilibria(game) == exp["equilibria"]
            for kind in ring.KINDS:
                nodes, edges = replay.dynamics_edges(game, kind)
                fair = fair_cycle_exists(nodes, edges, range(1, ring.PLAYERS + 1))
                assert fair == exp["fair"], (n, family, kind)
                assert replay.has_cycle(game, kind) != exp["terminates"], (n, family, kind)


def test_library_agrees_on_small_rings():
    from gamedyn import build_dynamics, find_fair_cycle, parse_game

    rng = random.Random(3)
    doc, exp = ring.ring_doc(4, "oscillating", rng)
    game, ref = parse_game(json.dumps(doc)), replay.Game(doc)
    for kind in ring.KINDS:
        report = find_fair_cycle(build_dynamics(game, kind), players=(1, 2, 3))
        assert report.fair
        cycle = [p.as_dict() for p in report.witness.cycle]
        assert replay.check_fair_cycle(ref, kind, cycle, (1, 2, 3)) == []


def _cli_verdicts(ident, results):
    return [{"key": (ident, hashseed), "status": "ok", "problems": [], "result": r}
            for hashseed, r in zip(clibench.HASHSEEDS, results)]


def test_cli_known_defect_must_explain_every_problem():
    ctx = {"root": HERE.parent, "items": [("gdis-belief-text", ["belief", "fixtures/gdis.json"], 3)]}
    rec = SimpleNamespace(verdicts=_cli_verdicts(
        "gdis-belief-text", [(3, b"one witness", b""), (3, b"another", b"")]))
    clibench.check(ctx, rec)
    first, second = rec.verdicts
    assert first["status"] == "ok"
    assert second["known"] == clibench.HASH[0]
    # a wrong exit code under the second hash seed is not the known defect
    rec = SimpleNamespace(verdicts=_cli_verdicts(
        "gdis-belief-text", [(3, b"one witness", b""), (0, b"another", b"")]))
    clibench.check(ctx, rec)
    assert rec.verdicts[1]["status"] == "failed"
    assert "known" not in rec.verdicts[1]
